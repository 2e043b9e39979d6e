(* The benchmark's metric catalogue and its result line.

   BENCHMARK.json at the repository root lists the same names, units,
   directions and bounds; the test suite holds the two in step. A run
   with [--trace 0] reports exactly [end_to_end], a run with
   [--trace 1] exactly [per_layer]. *)

type better = Lower | Higher

type spec = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end only: allowed relative worsening *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ = { name; unit_; better = Lower; bound = None }

(* Failed and degraded sessions are reported as their complements
   (served, intact): a metric must never read 0, and a clean workload
   has no failed or degraded session at all. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "frames_per_s" "frames/s" Higher 0.25;
    e2e "sessions_per_s" "sessions/s" Higher 0.25;
    e2e "first_frame_p50_ms" "ms" Lower 0.25;
    e2e "peak_heap_mb" "MiB" Lower 0.2;
    e2e "served_pct" "%" Higher 0.03;
    e2e "intact_pct" "%" Higher 0.02;
    e2e "device_savings_pct" "%" Higher 0.02;
    e2e "psnr_db" "dB" Higher 0.06;
  ]

let per_layer =
  [
    layer "video.render_us_per_frame" "us";
    layer "annot.profile_us_per_frame" "us";
    layer "annot.profile_words_per_frame" "words";
    layer "annot.annotate_us_per_clip" "us";
    layer "annot.track_encode_us_per_clip" "us";
    layer "annot.track_bytes" "B";
    layer "fec.protect_us_per_clip" "us";
    layer "codec.encode_us_per_frame" "us";
    layer "codec.encode_words_per_frame" "words";
    layer "codec.dct_ops_per_frame" "count";
    layer "codec.quant_ops_per_frame" "count";
    layer "codec.bits_per_frame" "bit";
    layer "codec.decode_us_per_frame" "us";
    layer "codec.decode_words_per_frame" "words";
    layer "session.transmit_us" "us";
    layer "session.client_decode_us_per_frame" "us";
    layer "session.client_decode_words_per_frame" "words";
    layer "session.frame_tick_us" "us";
    layer "session.finalize_us" "us";
    layer "session.concealed_frames" "count";
    layer "session.retransmissions" "count";
    layer "session.degraded_scenes" "count";
    layer "fleet.prepare_ms_per_miss" "ms";
    layer "fleet.cache_misses" "count";
    layer "fleet.ticks" "count";
    layer "fleet.shed" "count";
    layer "fleet.residual_us_per_tick" "us";
    layer "obs.journal_events" "count";
    layer "obs.journal_bytes" "B";
    layer "obs.journal_encode_us" "us";
    layer "obs.overhead_ratio" "ratio";
  ]

(* End-to-end times and rates are reported in reference-host units
   (see [Timing.host_factor]): a duration is divided by the host factor
   [k], a rate multiplied by it. Counts, shares and heap sizes are not
   times and stay as measured. *)
let normalise k (name, v) =
  match name with
  | "setup_s" | "first_frame_p50_ms" -> (name, v /. k)
  | "frames_per_s" | "sessions_per_s" -> (name, v *. k)
  | _ -> (name, v)

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
           true
         | _ -> false)
       s

(* The one JSON object a run prints last. [values] must name every
   metric of [specs] exactly once, with a finite value. *)
let result_line ~specs ~correct ~attempted ~failed values =
  let missing =
    List.filter (fun s -> not (List.mem_assoc s.name values)) specs
  in
  let extra =
    List.filter
      (fun (n, _) -> not (List.exists (fun s -> s.name = n) specs))
      values
  in
  (match (missing, extra) with
  | [], [] -> ()
  | m :: _, _ -> invalid_arg ("Metrics.result_line: no value for " ^ m.name)
  | [], (n, _) :: _ -> invalid_arg ("Metrics.result_line: unknown metric " ^ n));
  let metric s =
    let v = List.assoc s.name values in
    if not (valid_name s.name && valid_unit s.unit_) then
      invalid_arg ("Metrics.result_line: malformed name or unit " ^ s.name);
    if not (Float.is_finite v) then
      invalid_arg ("Metrics.result_line: non-finite " ^ s.name);
    ( s.name,
      Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String s.unit_) ]
    )
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ("metrics", Obs.Json.Obj (List.map metric specs));
       ])
