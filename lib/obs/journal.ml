(* Flight recorder: append-only decision log with the same
   varint+CRC32 framing discipline as Annotation.Encoding, read and
   written through the same Wire module. Events are integers and short
   strings only — no floats — so the serialised journal of a
   deterministic run is itself byte-deterministic. *)

type trigger = Record_lost | Record_corrupt | Header_lost

type kind =
  | Session_start of {
      clip : string;
      device : string;
      quality : string;
      frames : int;
      fps_milli : int;
    }
  | Scene_decision of {
      scene : int;
      first_frame : int;
      frame_count : int;
      register : int;
      effective_max : int;
      compensation_fp : int;
      clipped_permille : int;
      quality_permille : int;
      candidates : int list;
    }
  | Scene_cut of { scene : int; frame : int }
  | Backlight_switch of { frame : int; from_register : int; to_register : int }
  | Deadline_miss of { frame : int; over_us : int }
  | Channel of { packets : int; delivered : int }
  | Nack_round of { round : int; missing : int; repaired : int }
  | Fec_outcome of { failed_groups : int; repaired_packets : int }
  | Degradation of { index : int; trigger : trigger; policy : string }
  | Dvfs_choice of { policy : string; mean_mhz : int; misses : int }
  | Slo_breach of {
      rule : string;
      window : int;
      value_milli : int;
      window_us : int;
    }
  | Session_end of {
      survived : bool;
      degraded_scenes : int;
      retransmissions : int;
      corrupt_records : int;
    }
  | Ladder_step of { scene : int; depth : int; step : string }
  | Breaker_transition of {
      name : string;
      from_state : int;
      to_state : int;
      failure_permille : int;
    }
  | Bulkhead_decision of {
      name : string;
      decision : string;
      in_flight : int;
      queued : int;
    }
  | Watchdog_trip of { stage : string; budget_us : int; over_us : int }
  | Fleet_shard_start of { shard : int; shards : int; sessions : int }
  | Fleet_arrival of { session : int; clip : string }
  | Fleet_admission of {
      session : int;
      decision : string;
      in_flight : int;
      queued : int;
    }
  | Fleet_session_end of {
      session : int;
      outcome : string;
      degraded_scenes : int;
    }

type event = { t_us : int; kind : kind }

let magic = "AJNL"

let version = 1

(* Annotate events replay the clip timeline, transmit events the NACK
   budget, playback events the playback clock, fleet events the
   scheduler's arrival clock: independent simulated clocks, so
   monotonicity only holds per phase (and resets at every
   Session_start — and at every Fleet_shard_start, whose phase-0
   marker lets per-shard journals concatenate into one fleet journal
   without tripping the per-phase monotonicity audit). *)
let phase = function
  | Session_start _ | Bulkhead_decision _ | Fleet_shard_start _ -> 0
  | Scene_decision _ -> 1
  | Channel _ | Nack_round _ | Fec_outcome _ | Degradation _ | Ladder_step _
  | Breaker_transition _ | Watchdog_trip _ ->
    2
  | Scene_cut _ | Backlight_switch _ | Deadline_miss _ | Dvfs_choice _
  | Slo_breach _ ->
    3
  | Session_end _ -> 4
  | Fleet_arrival _ | Fleet_admission _ | Fleet_session_end _ -> 5

let crc32 = Wire.crc32

(* --- recorder ----------------------------------------------------------- *)

type t = {
  mutex : Mutex.t;
  mutable events_rev : event list;  (* guarded_by: mutex *)
  mutable count : int;  (* guarded_by: mutex *)
}

let create () = { mutex = Mutex.create (); events_rev = []; count = 0 }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record_in t ?(t_s = 0.) kind =
  let t_us =
    if Float.is_finite t_s && t_s > 0. then
      int_of_float (Float.round (t_s *. 1e6))
    else 0
  in
  with_lock t (fun () ->
      t.events_rev <- { t_us; kind } :: t.events_rev;
      t.count <- t.count + 1)

let events t = with_lock t (fun () -> List.rev t.events_rev)

let length t = with_lock t (fun () -> t.count)

(* Atomic rather than a plain ref: [record] races with
   [install]/[uninstall] when pool domains journal while the driver
   swaps recorders, and a torn option read would be undefined
   behaviour under the memory model. *)
let instance : t option Atomic.t = Atomic.make None

let install t = Atomic.set instance (Some t)

let uninstall () = Atomic.set instance None

let current () = Atomic.get instance

let installed () = Option.is_some (Atomic.get instance)

let record ?t_s kind =
  if Control.on () then
    match Atomic.get instance with
    | None -> ()
    | Some t -> record_in t ?t_s kind

(* --- writing ------------------------------------------------------------ *)

(* Signed fields (the SLO breach reading can sit below zero) ride as
   zigzag varints. *)
let zigzag n = (n lsl 1) lxor (n asr 62)

let unzigzag v = (v lsr 1) lxor (-(v land 1))

let trigger_tag = function
  | Record_lost -> 0
  | Record_corrupt -> 1
  | Header_lost -> 2

let encode_payload buf { t_us; kind } =
  let tag n = Buffer.add_char buf (Char.chr n) in
  let v = Wire.put_varint buf in
  let s = Wire.put_string buf in
  (match kind with
  | Session_start _ -> tag 1
  | Scene_decision _ -> tag 2
  | Scene_cut _ -> tag 3
  | Backlight_switch _ -> tag 4
  | Deadline_miss _ -> tag 5
  | Channel _ -> tag 6
  | Nack_round _ -> tag 7
  | Fec_outcome _ -> tag 8
  | Degradation _ -> tag 9
  | Dvfs_choice _ -> tag 10
  | Slo_breach _ -> tag 11
  | Session_end _ -> tag 12
  | Ladder_step _ -> tag 13
  | Breaker_transition _ -> tag 14
  | Bulkhead_decision _ -> tag 15
  | Watchdog_trip _ -> tag 16
  | Fleet_shard_start _ -> tag 17
  | Fleet_arrival _ -> tag 18
  | Fleet_admission _ -> tag 19
  | Fleet_session_end _ -> tag 20);
  v t_us;
  match kind with
  | Session_start e ->
    s e.clip;
    s e.device;
    s e.quality;
    v e.frames;
    v e.fps_milli
  | Scene_decision e ->
    v e.scene;
    v e.first_frame;
    v e.frame_count;
    v e.register;
    v e.effective_max;
    v e.compensation_fp;
    v e.clipped_permille;
    v e.quality_permille;
    v (List.length e.candidates);
    List.iter v e.candidates
  | Scene_cut e ->
    v e.scene;
    v e.frame
  | Backlight_switch e ->
    v e.frame;
    v e.from_register;
    v e.to_register
  | Deadline_miss e ->
    v e.frame;
    v e.over_us
  | Channel e ->
    v e.packets;
    v e.delivered
  | Nack_round e ->
    v e.round;
    v e.missing;
    v e.repaired
  | Fec_outcome e ->
    v e.failed_groups;
    v e.repaired_packets
  | Degradation e ->
    if e.index < -1 then invalid_arg "Journal: degradation index below -1";
    v (e.index + 1);
    tag (trigger_tag e.trigger);
    s e.policy
  | Dvfs_choice e ->
    s e.policy;
    v e.mean_mhz;
    v e.misses
  | Slo_breach e ->
    s e.rule;
    v e.window;
    v (zigzag e.value_milli);
    v e.window_us
  | Session_end e ->
    tag (if e.survived then 1 else 0);
    v e.degraded_scenes;
    v e.retransmissions;
    v e.corrupt_records
  | Ladder_step e ->
    if e.scene < -1 then invalid_arg "Journal: ladder scene below -1";
    v (e.scene + 1);
    v e.depth;
    s e.step
  | Breaker_transition e ->
    s e.name;
    v e.from_state;
    v e.to_state;
    v e.failure_permille
  | Bulkhead_decision e ->
    s e.name;
    s e.decision;
    v e.in_flight;
    v e.queued
  | Watchdog_trip e ->
    s e.stage;
    v e.budget_us;
    v e.over_us
  | Fleet_shard_start e ->
    v e.shard;
    v e.shards;
    v e.sessions
  | Fleet_arrival e ->
    v e.session;
    s e.clip
  | Fleet_admission e ->
    v e.session;
    s e.decision;
    v e.in_flight;
    v e.queued
  | Fleet_session_end e ->
    v e.session;
    s e.outcome;
    v e.degraded_scenes

let encode events =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Wire.put_u32 buf (crc32 (Buffer.contents buf));
  let payload = Buffer.create 64 in
  List.iter
    (fun event ->
      Buffer.clear payload;
      encode_payload payload event;
      Wire.put_varint buf (Buffer.length payload);
      Buffer.add_buffer buf payload;
      Wire.put_u32 buf (crc32 (Buffer.contents payload)))
    events;
  Buffer.contents buf

let to_string t = encode (events t)

let size_bytes t = String.length (to_string t)

let write t ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

(* --- reading ------------------------------------------------------------ *)

(* Payload fields are read through one sticky cursor: the first failed
   read or forbidden value is what the payload reports. No consumer
   names the field, so they share one name. *)
let max_string_len = 4096

let get_byte c = Wire.byte c "event field"

let get_varint c = Wire.varint c "event field"

let get_string c = Wire.string ~cap:max_string_len c "event field"

let invalid c msg = Wire.fail c ~at:c.Wire.pos "event field" (Wire.Invalid msg)

let get_trigger c =
  match get_byte c with
  | 0 -> Record_lost
  | 1 -> Record_corrupt
  | 2 -> Header_lost
  | n ->
    invalid c (Printf.sprintf "unknown degradation trigger %d" n);
    Record_lost

let get_candidates c =
  let n = get_varint c in
  (* Explicit loop: the reads must happen left to right. *)
  let rec loop k acc =
    if k <= 0 then List.rev acc else loop (k - 1) (get_varint c :: acc)
  in
  if n > 256 then begin
    invalid c "implausible candidate count";
    []
  end
  else loop n []

let decode_kind c tag =
  match tag with
  | 1 ->
    let clip = get_string c in
    let device = get_string c in
    let quality = get_string c in
    let frames = get_varint c in
    let fps_milli = get_varint c in
    Session_start { clip; device; quality; frames; fps_milli }
  | 2 ->
    let scene = get_varint c in
    let first_frame = get_varint c in
    let frame_count = get_varint c in
    let register = get_varint c in
    let effective_max = get_varint c in
    let compensation_fp = get_varint c in
    let clipped_permille = get_varint c in
    let quality_permille = get_varint c in
    let candidates = get_candidates c in
    Scene_decision
      {
        scene;
        first_frame;
        frame_count;
        register;
        effective_max;
        compensation_fp;
        clipped_permille;
        quality_permille;
        candidates;
      }
  | 3 ->
    let scene = get_varint c in
    let frame = get_varint c in
    Scene_cut { scene; frame }
  | 4 ->
    let frame = get_varint c in
    let from_register = get_varint c in
    let to_register = get_varint c in
    Backlight_switch { frame; from_register; to_register }
  | 5 ->
    let frame = get_varint c in
    let over_us = get_varint c in
    Deadline_miss { frame; over_us }
  | 6 ->
    let packets = get_varint c in
    let delivered = get_varint c in
    Channel { packets; delivered }
  | 7 ->
    let round = get_varint c in
    let missing = get_varint c in
    let repaired = get_varint c in
    Nack_round { round; missing; repaired }
  | 8 ->
    let failed_groups = get_varint c in
    let repaired_packets = get_varint c in
    Fec_outcome { failed_groups; repaired_packets }
  | 9 ->
    let index = get_varint c - 1 in
    let trigger = get_trigger c in
    let policy = get_string c in
    Degradation { index; trigger; policy }
  | 10 ->
    let policy = get_string c in
    let mean_mhz = get_varint c in
    let misses = get_varint c in
    Dvfs_choice { policy; mean_mhz; misses }
  | 11 ->
    let rule = get_string c in
    let window = get_varint c in
    let value_milli = unzigzag (get_varint c) in
    let window_us = get_varint c in
    Slo_breach { rule; window; value_milli; window_us }
  | 12 ->
    let survived = get_byte c <> 0 in
    let degraded_scenes = get_varint c in
    let retransmissions = get_varint c in
    let corrupt_records = get_varint c in
    Session_end { survived; degraded_scenes; retransmissions; corrupt_records }
  | 13 ->
    let scene = get_varint c - 1 in
    let depth = get_varint c in
    let step = get_string c in
    Ladder_step { scene; depth; step }
  | 14 ->
    let name = get_string c in
    let from_state = get_varint c in
    let to_state = get_varint c in
    let failure_permille = get_varint c in
    Breaker_transition { name; from_state; to_state; failure_permille }
  | 15 ->
    let name = get_string c in
    let decision = get_string c in
    let in_flight = get_varint c in
    let queued = get_varint c in
    Bulkhead_decision { name; decision; in_flight; queued }
  | 16 ->
    let stage = get_string c in
    let budget_us = get_varint c in
    let over_us = get_varint c in
    Watchdog_trip { stage; budget_us; over_us }
  | 17 ->
    let shard = get_varint c in
    let shards = get_varint c in
    let sessions = get_varint c in
    Fleet_shard_start { shard; shards; sessions }
  | 18 ->
    let session = get_varint c in
    let clip = get_string c in
    Fleet_arrival { session; clip }
  | 19 ->
    let session = get_varint c in
    let decision = get_string c in
    let in_flight = get_varint c in
    let queued = get_varint c in
    Fleet_admission { session; decision; in_flight; queued }
  | 20 ->
    let session = get_varint c in
    let outcome = get_string c in
    let degraded_scenes = get_varint c in
    Fleet_session_end { session; outcome; degraded_scenes }
  | n ->
    invalid c (Printf.sprintf "unknown event kind %d" n);
    Scene_cut { scene = 0; frame = 0 } (* never seen: the payload fails *)

let parse_payload data ~pos ~len =
  let c = Wire.cursor data ~pos ~limit:(pos + len) in
  let tag = get_byte c in
  let t_us = get_varint c in
  let kind = decode_kind c tag in
  if c.Wire.pos <> c.Wire.limit then invalid c "trailing bytes in event payload";
  match c.Wire.failure with
  | None -> Ok { t_us; kind }
  | Some f -> Error (Wire.message f)

(* A frame longer than this cannot come from [encode]; treating it as
   valid would let one flipped length byte swallow the rest of the
   journal. *)
let max_frame_len = 65536

type header_fault =
  | Bad_magic
  | Header_cut of Wire.failure
  | Bad_version of int
  | Header_crc

type frame =
  | Event of event
  | Crc_bad
  | Bad_payload of string
  | Cut of Wire.failure
  | Too_long of int

let read_header c =
  let v = Wire.byte c "version" in
  let stored = if v = version then Wire.u32 c "header CRC" else -1 in
  match c.Wire.failure with
  | Some f -> Some (Header_cut f)
  | None when v <> version -> Some (Bad_version v)
  | None when stored <> Wire.crc32_sub c.Wire.data ~pos:0 ~len:5 -> Some Header_crc
  | None -> None

let rec read_frames c on_frame index =
  let offset = c.Wire.pos in
  if offset < c.Wire.limit then begin
    let len = Wire.varint c "frame length" in
    let frame =
      if len > max_frame_len then Too_long len
      else if len >= 0 && Wire.need c (len + 4) "frame" then begin
        let body = c.Wire.pos in
        Wire.seek c (body + len);
        if Wire.u32 c "frame CRC" <> Wire.crc32_sub c.Wire.data ~pos:body ~len then
          Crc_bad
        else
          match parse_payload c.Wire.data ~pos:body ~len with
          | Ok event -> Event event
          | Error msg -> Bad_payload msg
      end
      else Cut (Option.get c.Wire.failure)
    in
    on_frame ~index ~offset frame;
    match frame with
    | Cut _ | Too_long _ -> ()
    | Event _ | Crc_bad | Bad_payload _ -> read_frames c on_frame (index + 1)
  end

let walk data on_frame =
  let c = Wire.cursor data ~pos:4 ~limit:(String.length data) in
  if not (String.starts_with ~prefix:magic data) then Error Bad_magic
  else
    match read_header c with
    | Some fault -> Error fault
    | None ->
      read_frames c on_frame 0;
      Ok ()

let header_message = function
  | Bad_magic -> "bad magic: not a decision journal"
  | Header_cut { Wire.field = "version"; _ } -> "truncated header"
  | Header_cut _ -> "truncated header CRC"
  | Bad_version v -> Printf.sprintf "unsupported journal version %d" v
  | Header_crc -> "header CRC mismatch"

let decode data =
  let events = ref [] and error = ref None in
  let walked =
    walk data (fun ~index:_ ~offset:_ frame ->
        if Option.is_none !error then
          match frame with
          | Event event -> events := event :: !events
          | Crc_bad -> error := Some "frame CRC mismatch"
          | Bad_payload msg -> error := Some msg
          | Cut f -> error := Some (Wire.message f)
          | Too_long _ -> error := Some "implausible frame length")
  in
  match (walked, !error) with
  | Error fault, _ -> Error (header_message fault)
  | Ok (), Some msg -> Error msg
  | Ok (), None -> Ok (List.rev !events)

type partial = {
  events : event list;
  corrupt_frames : int;
  truncated : bool;
  error : string option;
}

let decode_partial data =
  let events = ref [] and corrupt = ref 0 and truncated = ref false in
  let walked =
    walk data (fun ~index:_ ~offset:_ -> function
      | Event event -> events := event :: !events
      | Crc_bad | Bad_payload _ -> incr corrupt
      | Cut _ | Too_long _ ->
        (* A broken length means the framing itself cannot be trusted
           past this point: stop instead of resyncing on noise. *)
        truncated := true)
  in
  match walked with
  | Error fault ->
    {
      events = [];
      corrupt_frames = 0;
      truncated = false;
      error = Some (header_message fault);
    }
  | Ok () ->
    {
      events = List.rev !events;
      corrupt_frames = !corrupt;
      truncated = !truncated;
      error = None;
    }
