(* Workloads fleet_clean and fleet_lossy: the client side at fleet
   scale.

   Both run [Fleet.Scheduler.run] with 4 shards, on one domain, over a
   16-clip parametric catalog (16x12, 8 fps, one second), with 10,000
   open-loop sessions at 150 per simulated second, a diurnal swing and
   Zipf popularity — the shape of the E20 fleet experiment. The
   scheduler is a simulated open loop driven to completion, so the
   benchmark reports work per host second, not a rate sweep.

   - [Clean]: no spike, no loss; every session decodes an identical
     stream and nothing is shed.
   - [Lossy]: the bursty Gilbert channel of examples/burst.fault, the
     resilience profile of examples/default.resilience, and a x4 flash
     crowd that overruns admission. Each session has its own loss mask,
     so FEC repair, NACK, concealment, the degradation ladder and
     shedding all run. *)

module Session = Streaming.Session
module Scheduler = Fleet.Scheduler

type kind = Clean | Lossy

let default_seed = 7

(* Copies of examples/burst.fault and examples/default.resilience, so
   the workload stays fixed when the examples change. *)
let burst_fault = "model = gilbert\nmean_loss = 0.10\nburst_length = 4\n"

let default_resilience =
  "retry_budget_s = 0.04\n\
   retry_base_s = 0.002\n\
   retry_multiplier = 2.0\n\
   retry_jitter = 0.0\n\
   retry_max_rounds = 16\n\
   breaker_threshold = 0.5\n\
   breaker_window = 8\n\
   breaker_min_samples = 4\n\
   breaker_cooldown_ms = 10\n\
   breaker_probes = 2\n\
   bulkhead_capacity = 2\n\
   bulkhead_queue = 2\n\
   ladder = fresh, stale, clamp, full\n\
   stage_deadline_ms = 40\n"

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let sessions = 10_000

let render () =
  Array.init 16 (fun i ->
      let lazy_clip =
        Video.Clip_gen.render ~width:16 ~height:12 ~fps:8.
          (Video.Workloads.parametric ~seconds:1.0
             ~base_level:(30 + (12 * i))
             ~highlight_peak:(140 + (5 * i))
             ())
      in
      Video.Clip.of_frames ~name:lazy_clip.Video.Clip.name ~fps:8.
        (Array.init lazy_clip.Video.Clip.frame_count lazy_clip.Video.Clip.render))

let load ~seed ~sessions kind =
  {
    Fleet.Load.default with
    Fleet.Load.sessions;
    rate_per_s = 150.;
    diurnal_amplitude = 0.3;
    diurnal_period_s = 40.;
    spike_at_s = (match kind with Clean -> None | Lossy -> Some 30.);
    spike_factor = 4.;
    spike_width_s = 10.;
    seed;
  }

(* Capacity covers the steady state of the hottest shard; only the
   flash crowd overruns it. *)
let config =
  { Scheduler.default_config with Scheduler.shards = 4; capacity = 96; queue_limit = 64 }

let session_config ~seed kind =
  let base = Session.default_config ~device:Display.Device.ipaq_h5555 in
  match kind with
  | Clean -> { base with Session.seed }
  | Lossy ->
    {
      base with
      Session.seed;
      fault = Some (ok_or_fail "burst fault" (Streaming.Fault.parse burst_fault));
      resilience =
        Some (ok_or_fail "resilience profile" (Resilience.Profile.parse default_resilience));
    }

type setup = {
  kind : kind;
  seed : int;
  clips : Video.Clip.t array;
  session_config : Session.config;
  prepared : Session.prepared_input array;
}

(* What a shard's cache holds for each clip: the server's annotation
   track through [Server.prepare], then [Session.prepare_input]. *)
let prepare_like_shard (session_config : Session.config) clips =
  let server = Streaming.Server.create () in
  Array.iter (Streaming.Server.add_clip server) clips;
  let negotiated =
    {
      Streaming.Negotiation.device = session_config.device;
      quality = session_config.quality;
      mapping = session_config.mapping;
    }
  in
  Array.map
    (fun (clip : Video.Clip.t) ->
      let track =
        match Streaming.Server.prepare server ~name:clip.name ~session:negotiated with
        | Ok p -> Some p.Streaming.Server.track
        | Error _ -> None
      in
      Session.prepare_input ?track session_config clip)
    clips

let run_fleet s ~sessions =
  Scheduler.run config ~session_config:s.session_config ~clips:s.clips
    ~load:(load ~seed:s.seed ~sessions s.kind)

(* Render the catalog, fill the replay cache, and run a 1,000-session
   fleet untimed so code and heap are warm before the measured
   window. *)
let setup ~seed kind =
  let clips = render () in
  let session_config = session_config ~seed kind in
  let s =
    { kind; seed; clips; session_config; prepared = prepare_like_shard session_config clips }
  in
  ignore (run_fleet s ~sessions:1_000);
  s

let clip_index s name =
  let rec find i =
    if i >= Array.length s.clips then failwith ("unknown clip " ^ name)
    else if s.clips.(i).Video.Clip.name = name then i
    else find (i + 1)
  in
  find 0

type replayed = {
  id : int;
  outcome : string;
  psnr : float option;  (** [None] for a session that failed *)
  first_s : float;
  insane : string list;  (** [Checks.report_sane] findings *)
}

(* Sessions [ids] of [log], replayed outside the scheduler from the
   warm input a shard would hold. Only what the metrics and checks need
   is kept, so replayed reports do not pile up in the heap.

   Each call replays from a fresh copy of the warm inputs. Without it,
   the median replayed first-frame time of fleet_clean fell into two
   clusters a fifth apart from one process to the next, although every
   run replays the same per-clip work. With a fresh copy per block,
   wherever the heap happens to place the inputs averages out over a
   run's blocks. *)
let replay s (log : Checks.fleet_log) ids =
  let s = { s with prepared = Marshal.from_string (Marshal.to_string s.prepared []) 0 } in
  List.map
    (fun id ->
      let c = clip_index s (Hashtbl.find log.clip_of id) in
      let cfg = { s.session_config with Session.seed = s.session_config.seed + id } in
      let result, first_s = Layers.play ~prepared:s.prepared.(c) cfg s.clips.(c) in
      {
        id;
        outcome = Checks.outcome_of result;
        psnr = Option.map (fun r -> r.Session.video_mean_psnr) (Result.to_option result);
        first_s;
        insane =
          (match result with
          | Ok r -> Checks.report_sane ~what:(Printf.sprintf "session %d" id) r
          | Error _ -> []);
      })
    ids

(* [replay] in probed blocks of [block] sessions (about 0.3 s each), so
   the host probes sample the replay as densely as the repetitions. *)
let block = 500

let replay_in_blocks s log ids =
  let rec go ids acc =
    if ids = [] then List.concat (List.rev acc)
    else
      let now = List.filteri (fun i _ -> i < block) ids
      and rest = List.filteri (fun i _ -> i >= block) ids in
      go rest (Timing.probed (fun () -> replay s log now) :: acc)
  in
  go ids []

(* The admitted sessions are replayed in this many interleaved chunks,
   one after each fleet repetition, so first-frame times are sampled
   across the whole window as the fleet repetitions are. *)
let chunks = 3

let run s ~seconds =
  (* The first repetition's report is kept whole for the checks; later
     repetitions are compared to its journal and dropped, so retained
     reports do not grow the heap the later repetitions run in. *)
  let first = ref None and repeat_problems = ref [] in
  let peak_heap_mb = ref 0. in
  let steps =
    Timing.repeat_for ~seconds ~min:chunks (fun step ->
        let report, wall_s =
          Timing.probed (fun () -> Timing.timed (fun () -> run_fleet s ~sessions))
        in
        let journal = Scheduler.journal report in
        let log =
          match !first with
          | None ->
            (* The peak of set-up plus one fleet, before the replays add
               the benchmark's own data to the heap. *)
            peak_heap_mb := Timing.peak_heap_mb ();
            let log = Checks.read_fleet_log report.journal_events in
            first := Some (report, journal, log);
            log
          | Some (_, first_journal, log) ->
            repeat_problems :=
              !repeat_problems
              @ Checks.same_bytes ~what:"fleet journal across repetitions" first_journal
                  journal;
            log
        in
        (* Collect the repetition's garbage first, so the replay does
           not pay for it. *)
        Gc.full_major ();
        let chunk = List.filteri (fun i _ -> i mod chunks = step mod chunks) log.admitted in
        (wall_s, step, replay_in_blocks s log chunk))
  in
  let report, _, log = Option.get !first in
  let walls = List.map (fun (w, _, _) -> w) steps in
  (* The first [chunks] steps replay every admitted session once. *)
  let replayed =
    List.concat_map (fun (_, step, r) -> if step < chunks then r else []) steps
  in
  let first_ms =
    List.concat_map (fun (_, _, r) -> List.map (fun p -> p.first_s *. 1e3) r) steps
  in
  let per_s count = Timing.median (List.map (fun w -> float_of_int count /. w) walls) in
  let outcomes = List.map (fun p -> (p.id, p.outcome)) replayed in
  let frames_of id =
    s.clips.(clip_index s (Hashtbl.find log.clip_of id)).Video.Clip.frame_count
  in
  let frames = List.fold_left (fun acc id -> acc + frames_of id) 0 log.admitted in
  let problems =
    Checks.fleet_report report log
    @ !repeat_problems
    @ Checks.replay_counts report outcomes
    @ Checks.replayed_outcomes log outcomes
    @ List.concat_map (fun p -> p.insane) replayed
  in
  let problems =
    problems
    @
    match s.kind with
    | Clean when report.shed > 0 ->
      [ Printf.sprintf "fleet_clean shed %d sessions; capacity must cover the load" report.shed ]
    | Clean when report.degraded > 0 ->
      [ Printf.sprintf "fleet_clean degraded %d sessions on a lossless channel" report.degraded ]
    | _ -> []
  in
  let ok = report.completed - report.failed in
  let psnrs = List.filter_map (fun p -> p.psnr) replayed in
  let metrics =
    [
      ("frames_per_s", per_s frames);
      ("sessions_per_s", per_s ok);
      ("first_frame_p50_ms", Timing.median first_ms);
      ("peak_heap_mb", !peak_heap_mb);
      ("served_pct", Timing.percent ok report.sessions);
      ("intact_pct", Timing.percent (ok - report.degraded) ok);
      ("device_savings_pct", 100. *. report.mean_device_savings);
      ("psnr_db", Timing.mean psnrs);
    ]
  in
  let notes =
    [
      Printf.sprintf "%d repetitions of %d sessions: %d completed, %d degraded, %d failed, %d shed"
        (List.length walls) report.sessions report.completed report.degraded report.failed
        report.shed;
      Printf.sprintf
        "first_frame_p50_ms over %d replayed sessions, p90 %.4f ms in host units; psnr_db over %d"
        (List.length first_ms) (Timing.quantile first_ms 0.9) (List.length psnrs);
      "fleet wall per repetition (s): "
      ^ String.concat " " (List.map (Printf.sprintf "%.3f") walls);
    ]
  in
  (metrics, report.sessions * List.length walls, report.failed * List.length walls, problems, notes)

(* --- traced run -------------------------------------------------------- *)

let run_traced s ~render_s =
  (* Untraced and traced scheduler runs bracket the replay (U T replay
     T U), and every phase is put in reference-host seconds by its own
     probes, so a change in host speed during the run cancels out of the
     overhead ratio and the residual. *)
  let in_reference f =
    let (r, dt), k = Timing.phase_factor (fun () -> Timing.timed f) in
    (r, dt /. k)
  in
  let untraced () = in_reference (fun () -> Scheduler.journal (run_fleet s ~sessions)) in
  let traced () =
    Obs.Trace.reset ();
    Obs.enable ();
    let r = in_reference (fun () -> run_fleet s ~sessions) in
    Obs.disable ();
    Obs.Trace.reset ();
    r
  in
  let journal_u, wall_u1 = untraced () in
  let report, wall_t1 = traced () in
  let encode_runs = List.init 5 (fun _ -> Timing.timed (fun () -> Scheduler.journal report)) in
  let journal_t = fst (List.hd encode_runs) in
  let events =
    match Obs.Journal.decode journal_t with
    | Ok ev -> ev
    | Error e -> failwith ("fleet journal does not decode: " ^ e)
  in
  let log = Checks.read_fleet_log events in
  (* Fill a cache from the timed layer calls, in first-admission order,
     then replay every admitted session through labelled steps. *)
  let prep = Layers.prep_acc () and stages = Layers.stages_acc () in
  let filled = Hashtbl.create 16 in
  let fill_problems = ref [] in
  let prepared_for c =
    match Hashtbl.find_opt filled c with
    | Some p -> p
    | None ->
      let p = Layers.prepare prep s.session_config s.clips.(c) in
      if not (String.equal p.Session.annotation_payload s.prepared.(c).Session.annotation_payload)
      then
        fill_problems :=
          Printf.sprintf "layer-built track of %s differs from the server's"
            s.clips.(c).Video.Clip.name
          :: !fill_problems;
      Hashtbl.add filled c p;
      p
  in
  Obs.enable ();
  let replayed, replay_k =
    Timing.phase_factor (fun () ->
        List.map
          (fun id ->
            let c = clip_index s (Hashtbl.find log.clip_of id) in
            let prepared = prepared_for c in
            let cfg = { s.session_config with Session.seed = s.session_config.seed + id } in
            (id, Layers.drive stages (Session.create ~prepared cfg s.clips.(c))))
          log.admitted)
  in
  Obs.disable ();
  Obs.Trace.reset ();
  let report2, wall_t2 = traced () in
  let journal_u2, wall_u2 = untraced () in
  let wall_t = (wall_t1 +. wall_t2) /. 2. and wall_u = (wall_u1 +. wall_u2) /. 2. in
  let outcomes = List.map (fun (id, r) -> (id, Checks.outcome_of r)) replayed in
  let cache_misses =
    Array.fold_left (fun acc (sr : Scheduler.shard_report) -> acc + sr.cache_misses) 0
      report.shard_reports
  in
  let problems =
    Checks.same_bytes ~what:"fleet journal, traced vs untraced" journal_u journal_t
    @ Checks.same_bytes ~what:"fleet journal, second traced run" journal_t
        (Scheduler.journal report2)
    @ Checks.same_bytes ~what:"fleet journal, second untraced run" journal_u journal_u2
    @ Checks.fleet_report report log
    @ Checks.replay_counts report outcomes
    @ Checks.replayed_outcomes log outcomes
    @ List.rev !fill_problems
    @ (if stages.steps <> report.ticks then
         [ Printf.sprintf "replay stepped %d ticks, scheduler %d" stages.steps report.ticks ]
       else [])
    @
    if cache_misses <> prep.clips then
      [ Printf.sprintf "replay filled %d clips, scheduler missed %d" prep.clips cache_misses ]
    else []
  in
  let reports = List.filter_map (fun (_, r) -> Result.to_option r) replayed in
  let prep_s = Layers.prep_seconds prep in
  let catalog_frames =
    Array.fold_left (fun acc c -> acc + c.Video.Clip.frame_count) 0 s.clips
  in
  let metrics =
    [ ("video.render_us_per_frame", render_s *. 1e6 /. float_of_int catalog_frames) ]
    @ Layers.prep_metrics prep
    @ Layers.stage_metrics stages reports
    @ [
        ("fleet.prepare_ms_per_miss", prep_s *. 1e3 /. float_of_int (max 1 prep.clips));
        ("fleet.cache_misses", float_of_int cache_misses);
        ("fleet.ticks", float_of_int report.ticks);
        ("fleet.shed", float_of_int report.shed);
        ( "fleet.residual_us_per_tick",
          (wall_t -. ((prep_s +. Layers.machine_seconds stages) /. replay_k))
          *. 1e6 /. float_of_int report.ticks );
        ("obs.journal_events", float_of_int (List.length report.journal_events));
        ("obs.journal_bytes", float_of_int (String.length journal_t));
        ("obs.journal_encode_us", Timing.median (List.map snd encode_runs) *. 1e6);
        ("obs.overhead_ratio", wall_t /. wall_u);
      ]
  in
  let notes =
    [
      Printf.sprintf
        "fleet untraced %.3f s, traced %.3f s (reference-host seconds); replayed %d admitted \
         sessions"
        wall_u wall_t (List.length replayed);
    ]
  in
  (metrics, report.sessions, report.failed, problems, notes)
