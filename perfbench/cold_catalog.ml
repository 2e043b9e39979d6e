(* Workload cold_catalog: the server-preparation path.

   The ten paper trailer profiles, cut to three seconds at 96x72 and
   12 fps, rendered into in-memory clips during set-up. Every session
   plays one clip cold through the session machine — profile, annotate,
   encode, protect, then the 1 % Bernoulli channel and playback — so
   encoding and annotation profiling dominate its wall time. *)

module Session = Streaming.Session

let default_seed = 1
let width = 96
let height = 72
let fps = 12.
let frames_per_clip = 36
let loss_rate = 0.01

(* The first [guard_rounds] rounds (20 sessions) give the
   deterministic quality metrics, so they do not depend on how many
   rounds the host manages in the measured window. *)
let guard_rounds = 2

let render () =
  Array.of_list
    (List.map
       (fun profile ->
         let lazy_clip = Video.Clip_gen.render ~width ~height ~fps profile in
         Video.Clip.of_frames ~name:lazy_clip.Video.Clip.name ~fps
           (Array.init frames_per_clip lazy_clip.Video.Clip.render))
       Video.Workloads.all)

let config ~seed =
  {
    (Session.default_config ~device:Display.Device.ipaq_h5555) with
    Session.loss_rate;
    seed;
  }

(* Session [i] of the run — round [i / 10], clip [i mod 10] — runs
   with seed [seed + i], as fleet sessions do. *)
let session_config ~seed ~catalog ~round ~clip =
  config ~seed:(seed + (round * Array.length catalog) + clip)

type setup = { catalog : Video.Clip.t array }

(* Render the catalog, then play one untimed cold session so code and
   heap are warm before the measured window. *)
let setup ~seed =
  let catalog = render () in
  ignore (Layers.play (config ~seed) catalog.(0));
  { catalog }

type sample = {
  round : int;
  clip : int;
  result : (Session.report, string) result;
  first_s : float;
  wall_s : float;
}

let run ~seed ~seconds { catalog } =
  let peak_heap_mb = ref 0. in
  let samples =
    List.concat
      (Timing.repeat_for ~seconds ~min:guard_rounds (fun round ->
           let played =
             List.mapi
               (fun c clip ->
                 let cfg = session_config ~seed ~catalog ~round ~clip:c in
                 let (result, first_s), wall_s =
                   Timing.probed (fun () -> Timing.timed (fun () -> Layers.play cfg clip))
                 in
                 { round; clip = c; result; first_s; wall_s })
               (Array.to_list catalog)
           in
           (* The peak of set-up plus one round, as for the fleets. *)
           if round = 0 then peak_heap_mb := Timing.peak_heap_mb ();
           played))
  in
  let rounds = List.length samples / Array.length catalog in
  let n = Array.length catalog in
  let of_clip c = List.filter (fun s -> s.clip = c) samples in
  (* Per clip, the median wall time over rounds; throughput is the
     catalog's frames over the sum of those medians. *)
  let catalog_wall =
    Timing.sum
      (List.init n (fun c -> Timing.median (List.map (fun s -> s.wall_s) (of_clip c))))
  in
  let first_ms = List.map (fun s -> s.first_s *. 1e3) samples in
  let catalog_frames =
    Array.fold_left (fun acc c -> acc + c.Video.Clip.frame_count) 0 catalog
  in
  let guard = List.filter (fun s -> s.round < guard_rounds) samples in
  let ok = List.filter_map (fun s -> Result.to_option s.result) guard in
  let failed =
    List.length (List.filter (fun s -> Result.is_error s.result) samples)
  in
  let problems =
    List.concat_map
      (fun s ->
        let what = Printf.sprintf "round %d clip %s" s.round catalog.(s.clip).Video.Clip.name in
        match s.result with
        | Error e -> [ what ^ ": session failed: " ^ e ]
        | Ok r -> (
          Checks.report_sane ~what r
          @
          (* Encoding and annotation do not depend on the seed: every
             round must ship the same bytes for the same clip. *)
          match (List.hd (of_clip s.clip)).result with
          | Ok r0 when r0.video_bytes <> r.video_bytes || r0.annotation_bytes <> r.annotation_bytes ->
            [ what ^ ": stream size differs from round 0" ]
          | _ -> []))
      samples
  in
  let metrics =
    [
      ("frames_per_s", float_of_int catalog_frames /. catalog_wall);
      ("sessions_per_s", float_of_int n /. catalog_wall);
      ("first_frame_p50_ms", Timing.median first_ms);
      ("peak_heap_mb", !peak_heap_mb);
      ("served_pct", Timing.percent (List.length ok) (List.length guard));
      ( "intact_pct",
        Timing.percent
          (List.length (List.filter (fun r -> not (Checks.degraded r)) ok))
          (List.length ok) );
      ( "device_savings_pct",
        100. *. Timing.mean (List.map (fun r -> r.Session.device_savings) ok) );
      ("psnr_db", Timing.mean (List.map (fun r -> r.Session.video_mean_psnr) ok));
    ]
  in
  let notes =
    [
      Printf.sprintf "%d rounds, %d sessions, %d frames each" rounds (List.length samples)
        frames_per_clip;
      Printf.sprintf "first_frame_p50_ms over %d samples; p90 %.3f ms in host units"
        (List.length first_ms) (Timing.quantile first_ms 0.9);
    ]
  in
  (metrics, List.length samples, failed, problems, notes)

(* --- traced run -------------------------------------------------------- *)

let run_traced ~seed ~render_s { catalog } =
  (* The untraced reference is round 0 played cold, before and after
     the traced pass. Each pass is also put in reference-host seconds by
     its own probes, so a change in host speed cancels out of the
     overhead ratio. *)
  let play_untraced () =
    let (r, dt), k =
      Timing.phase_factor (fun () ->
          Timing.timed (fun () ->
              Array.mapi
                (fun c clip ->
                  fst (Layers.play (session_config ~seed ~catalog ~round:0 ~clip:c) clip))
                catalog))
    in
    (r, dt /. k)
  in
  let untraced, wall_u1 = play_untraced () in
  Obs.enable ();
  let journal = Obs.Journal.create () in
  Obs.Journal.install journal;
  let prep = Layers.prep_acc () and stages = Layers.stages_acc () in
  let (traced, wall_t), traced_k =
    Timing.phase_factor (fun () ->
        Timing.timed (fun () ->
            Array.mapi
              (fun c clip ->
                let cfg = session_config ~seed ~catalog ~round:0 ~clip:c in
                let prepared = Layers.prepare prep cfg clip in
                Layers.drive stages (Session.create ~prepared cfg clip))
              catalog))
  in
  Obs.Journal.uninstall ();
  Obs.disable ();
  Obs.Trace.reset ();
  let wall_u = (wall_u1 +. snd (play_untraced ())) /. 2. in
  let events = Obs.Journal.events journal in
  let encode_runs = List.init 5 (fun _ -> Timing.timed (fun () -> Obs.Journal.encode events)) in
  let journal_bytes = fst (List.hd encode_runs) in
  let problems =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun c u ->
              Checks.result_diff
                ~what:(Printf.sprintf "traced %s" catalog.(c).Video.Clip.name)
                u traced.(c))
            untraced))
  in
  let reports = List.filter_map Result.to_option (Array.to_list traced) in
  let failed = Array.length catalog - List.length reports in
  let frames = Array.fold_left (fun acc c -> acc + c.Video.Clip.frame_count) 0 catalog in
  let prep_s = Layers.prep_seconds prep in
  let metrics =
    [ ("video.render_us_per_frame", render_s *. 1e6 /. float_of_int frames) ]
    @ Layers.prep_metrics prep
    @ Layers.stage_metrics stages reports
    @ [
        (* No cache: every cold session is a miss that prepares its
           clip. The residual is the driving loop's own time. *)
        ("fleet.prepare_ms_per_miss", prep_s *. 1e3 /. float_of_int prep.clips);
        ("fleet.cache_misses", float_of_int prep.clips);
        ("fleet.ticks", float_of_int stages.steps);
        ("fleet.shed", 0.);
        ( "fleet.residual_us_per_tick",
          (wall_t -. prep_s -. Layers.machine_seconds stages)
          *. 1e6 /. float_of_int stages.steps );
        ("obs.journal_events", float_of_int (List.length events));
        ("obs.journal_bytes", float_of_int (String.length journal_bytes));
        ("obs.journal_encode_us", Timing.median (List.map snd encode_runs) *. 1e6);
        ("obs.overhead_ratio", wall_t /. traced_k /. wall_u);
      ]
  in
  let notes =
    [
      Printf.sprintf
        "traced %d sessions: untraced %.3f s, traced %.3f s (reference-host seconds)"
        (Array.length catalog) wall_u (wall_t /. traced_k);
    ]
  in
  (metrics, Array.length catalog, failed, problems, notes)
