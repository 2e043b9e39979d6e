(* Timed calls into the layers, made from outside the library.

   [prepare] rebuilds what [Streaming.Session.prepare_input] builds —
   profile, annotate, encode the track, FEC-protect it, encode the
   video, decode the reference — one public call at a time, so each
   layer's wall time, minor-heap words and operation counts can be
   read at its boundary. [drive] steps a session machine to completion
   and files each step under the stage [Session.progress] says it is
   in. Nothing here changes what the layers compute: the output checks
   compare the results against runs that never went through this
   module. *)

module Session = Streaming.Session

(* The codec's own operation counters. They count only while [Obs] is
   enabled, which the traced run is. *)
let dct_ops = Obs.counter "codec_dct_ops_total" []
let quant_ops = Obs.counter "codec_quant_ops_total" []

type prep = {
  mutable clips : int;
  mutable frames : int;
  mutable profile_s : float;
  mutable profile_words : float;
  mutable annotate_s : float;
  mutable track_encode_s : float;
  mutable track_bytes : int;
  mutable protect_s : float;
  mutable encode_s : float;
  mutable encode_words : float;
  mutable dct : int;
  mutable quant : int;
  mutable bits : int;
  mutable decode_s : float;
  mutable decode_words : float;
}

let prep_acc () =
  {
    clips = 0;
    frames = 0;
    profile_s = 0.;
    profile_words = 0.;
    annotate_s = 0.;
    track_encode_s = 0.;
    track_bytes = 0;
    protect_s = 0.;
    encode_s = 0.;
    encode_words = 0.;
    dct = 0;
    quant = 0;
    bits = 0;
    decode_s = 0.;
    decode_words = 0.;
  }

(* Wall time spent in the layer calls of [prepare]. *)
let prep_seconds (a : prep) =
  a.profile_s +. a.annotate_s +. a.track_encode_s +. a.protect_s
  +. a.encode_s +. a.decode_s

(* The same calls, in the same order and with the same arguments, as
   [Session.prepare_input config clip]. *)
let prepare (a : prep) (config : Session.config) (clip : Video.Clip.t) =
  let profiled, dt, words =
    Timing.measured (fun () -> Annotation.Annotator.profile clip)
  in
  a.profile_s <- a.profile_s +. dt;
  a.profile_words <- a.profile_words +. words;
  let track, dt =
    Timing.timed (fun () ->
        match config.mapping with
        | Streaming.Negotiation.Server_side ->
          Annotation.Annotator.annotate_profiled ~device:config.device
            ~quality:config.quality profiled
        | Streaming.Negotiation.Client_side ->
          Annotation.Neutral.annotate ~quality:config.quality profiled)
  in
  a.annotate_s <- a.annotate_s +. dt;
  let annotation_payload, dt =
    Timing.timed (fun () -> Annotation.Encoding.encode track)
  in
  a.track_encode_s <- a.track_encode_s +. dt;
  a.track_bytes <- a.track_bytes + String.length annotation_payload;
  let protected, dt =
    Timing.timed (fun () ->
        Streaming.Fec.protect ~packet_size:24 ~group_size:3 annotation_payload)
  in
  a.protect_s <- a.protect_s +. dt;
  let dct0 = Obs.Metrics.Counter.value dct_ops
  and quant0 = Obs.Metrics.Counter.value quant_ops in
  let encoded, dt, words =
    Timing.measured (fun () ->
        Codec.Encoder.encode_clip
          ~params:{ Codec.Stream.default_params with gop = config.gop }
          clip)
  in
  a.encode_s <- a.encode_s +. dt;
  a.encode_words <- a.encode_words +. words;
  a.dct <- a.dct + (Obs.Metrics.Counter.value dct_ops - dct0);
  a.quant <- a.quant + (Obs.Metrics.Counter.value quant_ops - quant0);
  a.bits <-
    a.bits + Array.fold_left ( + ) 0 encoded.Codec.Encoder.frame_sizes_bits;
  let decoded, dt, words =
    Timing.measured (fun () -> Codec.Decoder.decode encoded.Codec.Encoder.data)
  in
  a.decode_s <- a.decode_s +. dt;
  a.decode_words <- a.decode_words +. words;
  a.clips <- a.clips + 1;
  a.frames <- a.frames + clip.Video.Clip.frame_count;
  {
    Session.track;
    annotation_payload;
    protected;
    encoded;
    clean = Result.to_option decoded;
  }

(* Per-stage wall time of session machines, labelled from outside. *)
type stages = {
  mutable sessions : int;
  mutable steps : int;
  mutable frames : int;
  mutable start_s : float;
  mutable transmit_s : float;
  mutable decode_s : float;
  mutable decode_words : float;
  mutable frame_s : float;
  mutable frame_steps : int;
  mutable finalize_s : float;
}

let stages_acc () =
  {
    sessions = 0;
    steps = 0;
    frames = 0;
    start_s = 0.;
    transmit_s = 0.;
    decode_s = 0.;
    decode_words = 0.;
    frame_s = 0.;
    frame_steps = 0;
    finalize_s = 0.;
  }

(* Wall time spent inside [Session.step] across every stage. *)
let machine_seconds s =
  s.start_s +. s.transmit_s +. s.decode_s +. s.frame_s +. s.finalize_s

(* Step [m] to completion. A machine passes through exactly three
   [`Setup] steps — session start, the wireless hop, then packetize,
   decode and the playback decisions — before its frames and its
   finalisation, so the set-up steps are told apart by their order. *)
let drive s m =
  let setup_step = ref 0 in
  let rec go () =
    let stage = Session.progress m in
    let (state, dt, words) = Timing.measured (fun () -> Session.step m) in
    s.steps <- s.steps + 1;
    (match stage with
    | `Setup ->
      (match !setup_step with
      | 0 -> s.start_s <- s.start_s +. dt
      | 1 -> s.transmit_s <- s.transmit_s +. dt
      | _ ->
        s.decode_s <- s.decode_s +. dt;
        s.decode_words <- s.decode_words +. words);
      incr setup_step
    | `Frame _ ->
      s.frame_s <- s.frame_s +. dt;
      s.frame_steps <- s.frame_steps + 1
    | `Finalize -> s.finalize_s <- s.finalize_s +. dt
    | `Complete -> ());
    match state with `Running -> go () | `Done -> ()
  in
  go ();
  s.sessions <- s.sessions + 1;
  s.frames <- s.frames + Session.frames m;
  match Session.result m with
  | Some r -> r
  | None -> Error "machine stopped without a result"

(* Step a fresh machine until its first frame is due, then to the end.
   Returns the report and the host seconds from [Session.create] to the
   first [`Frame] progress. Used by the untraced runs. *)
let play ?prepared config clip =
  let t0 = Timing.now_s () in
  let m = Session.create ?prepared config clip in
  let rec to_first () =
    match Session.progress m with
    | `Setup -> (
      match Session.step m with `Running -> to_first () | `Done -> ())
    | `Frame _ | `Finalize | `Complete -> ()
  in
  to_first ();
  let first_s = Timing.now_s () -. t0 in
  let rec rest () = match Session.step m with `Running -> rest () | `Done -> () in
  rest ();
  let result =
    match Session.result m with
    | Some r -> r
    | None -> Error "machine stopped without a result"
  in
  (result, first_s)

(* Per-layer metric values of a [prep] accumulator. *)
let prep_metrics (a : prep) =
  let per_frame x = x /. float_of_int (max 1 a.frames) in
  let per_clip x = x /. float_of_int (max 1 a.clips) in
  [
    ("annot.profile_us_per_frame", per_frame (a.profile_s *. 1e6));
    ("annot.profile_words_per_frame", per_frame a.profile_words);
    ("annot.annotate_us_per_clip", per_clip (a.annotate_s *. 1e6));
    ("annot.track_encode_us_per_clip", per_clip (a.track_encode_s *. 1e6));
    ("annot.track_bytes", per_clip (float_of_int a.track_bytes));
    ("fec.protect_us_per_clip", per_clip (a.protect_s *. 1e6));
    ("codec.encode_us_per_frame", per_frame (a.encode_s *. 1e6));
    ("codec.encode_words_per_frame", per_frame a.encode_words);
    ("codec.dct_ops_per_frame", per_frame (float_of_int a.dct));
    ("codec.quant_ops_per_frame", per_frame (float_of_int a.quant));
    ("codec.bits_per_frame", per_frame (float_of_int a.bits));
    ("codec.decode_us_per_frame", per_frame (a.decode_s *. 1e6));
    ("codec.decode_words_per_frame", per_frame a.decode_words);
  ]

(* Per-layer metric values of a [stages] accumulator plus the repair
   counts summed over the sessions' reports. *)
let stage_metrics s (reports : Session.report list) =
  let total f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 reports) in
  let per_session x = x /. float_of_int (max 1 s.sessions) in
  [
    ("session.transmit_us", per_session (s.transmit_s *. 1e6));
    ( "session.client_decode_us_per_frame",
      s.decode_s *. 1e6 /. float_of_int (max 1 s.frames) );
    ( "session.client_decode_words_per_frame",
      s.decode_words /. float_of_int (max 1 s.frames) );
    ( "session.frame_tick_us",
      s.frame_s *. 1e6 /. float_of_int (max 1 s.frame_steps) );
    ("session.finalize_us", per_session (s.finalize_s *. 1e6));
    ("session.concealed_frames", total (fun r -> r.Session.concealed_frames));
    ("session.retransmissions", total (fun r -> r.Session.retransmissions));
    ("session.degraded_scenes", total (fun r -> r.Session.degraded_scenes));
  ]
