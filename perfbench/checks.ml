(* Output checks. Each returns the list of problems it found; a run is
   correct when every check of the run came back empty. *)

module Session = Streaming.Session
module Scheduler = Fleet.Scheduler

type field = I of int | F of float | B of bool

let fields (r : Session.report) =
  [
    ("seed", I r.config.seed);
    ("frames", I r.frames);
    ("duration_s", F r.duration_s);
    ("video_bytes", I r.video_bytes);
    ("annotation_bytes", I r.annotation_bytes);
    ("annotations_survived", B r.annotations_survived);
    ("video_mean_psnr", F r.video_mean_psnr);
    ("concealed_frames", I r.concealed_frames);
    ("backlight_savings", F r.backlight_savings);
    ("cpu_savings", F r.cpu_savings);
    ("radio_savings", F r.radio_savings);
    ("device_savings", F r.device_savings);
    ("device_energy_mj", F r.device_energy_mj);
    ("baseline_energy_mj", F r.baseline_energy_mj);
    ("degraded_scenes", I r.degraded_scenes);
    ("retransmissions", I r.retransmissions);
    ("corrupt_records", I r.corrupt_records);
  ]

let same a b =
  match (a, b) with
  | I x, I y -> x = y
  | F x, F y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | B x, B y -> x = y
  | _ -> false

let show = function
  | I x -> string_of_int x
  | F x -> Printf.sprintf "%h" x
  | B x -> string_of_bool x

(* Field-for-field equality of two session reports, floats to the
   bit. *)
let report_diff ~what (a : Session.report) (b : Session.report) =
  List.filter_map
    (fun ((name, x), (_, y)) ->
      if same x y then None
      else Some (Printf.sprintf "%s: %s differs (%s vs %s)" what name (show x) (show y)))
    (List.combine (fields a) (fields b))

let result_diff ~what a b =
  match (a, b) with
  | Ok a, Ok b -> report_diff ~what a b
  | Error e, _ | _, Error e -> [ Printf.sprintf "%s: session failed: %s" what e ]

(* A fleet session counts as degraded exactly as the scheduler counts
   it. *)
let degraded (r : Session.report) =
  (not r.annotations_survived) || r.degraded_scenes > 0

(* Plausible ranges for one completed session. *)
let report_sane ~what (r : Session.report) =
  let bad cond msg = if cond then [ Printf.sprintf "%s: %s" what msg ] else [] in
  bad (r.frames <= 0) "no frames"
  @ bad (not (r.video_mean_psnr > 0. && r.video_mean_psnr <= 99.)) "PSNR out of (0, 99] dB"
  @ bad (not (r.device_savings >= 0. && r.device_savings < 1.)) "device savings out of [0, 1)"
  @ bad (not (r.device_energy_mj > 0. && r.device_energy_mj <= r.baseline_energy_mj))
      "device energy not in (0, baseline]"
  @ bad (r.concealed_frames < 0 || r.concealed_frames >= r.frames) "concealed frames out of range"

(* --- fleet journal accounting ------------------------------------------- *)

type fleet_log = {
  clip_of : (int, string) Hashtbl.t;  (** session id -> clip, from arrivals *)
  admitted : int list;  (** ascending session ids *)
  shed : int;
  outcomes : (int, string) Hashtbl.t;  (** session id -> end outcome *)
}

let read_fleet_log (events : Obs.Journal.event list) =
  let clip_of = Hashtbl.create 1024 and outcomes = Hashtbl.create 1024 in
  let admitted = ref [] and shed = ref 0 in
  List.iter
    (fun (e : Obs.Journal.event) ->
      match e.kind with
      | Obs.Journal.Fleet_arrival { session; clip } ->
        Hashtbl.replace clip_of session clip
      | Obs.Journal.Fleet_admission { session; decision = "admitted"; _ } ->
        admitted := session :: !admitted
      | Obs.Journal.Fleet_admission { decision = "shed"; _ } -> incr shed
      | Obs.Journal.Fleet_session_end { session; outcome; _ } ->
        Hashtbl.replace outcomes session outcome
      | _ -> ())
    events;
  { clip_of; admitted = List.sort compare !admitted; shed = !shed; outcomes }

let count_outcome log o =
  Hashtbl.fold (fun _ x acc -> if x = o then acc + 1 else acc) log.outcomes 0

(* The scheduler report must account for every session and agree with
   its own journal. *)
let fleet_report (r : Scheduler.report) log =
  let bad cond msg = if cond then [ "fleet: " ^ msg ] else [] in
  let admitted = List.length log.admitted in
  bad (r.completed + r.shed <> r.sessions)
    (Printf.sprintf "completed %d + shed %d <> %d sessions" r.completed r.shed r.sessions)
  @ bad (Hashtbl.length log.clip_of <> r.sessions)
      (Printf.sprintf "journal shows %d arrivals for %d sessions"
         (Hashtbl.length log.clip_of) r.sessions)
  @ bad (admitted <> r.completed)
      (Printf.sprintf "journal admits %d, report completes %d" admitted r.completed)
  @ bad (log.shed <> r.shed)
      (Printf.sprintf "journal sheds %d, report sheds %d" log.shed r.shed)
  @ bad (Hashtbl.length log.outcomes <> admitted)
      (Printf.sprintf "%d session ends for %d admitted"
         (Hashtbl.length log.outcomes) admitted)
  @ bad (count_outcome log "degraded" <> r.degraded)
      (Printf.sprintf "journal degrades %d, report degrades %d"
         (count_outcome log "degraded") r.degraded)
  @ bad (count_outcome log "error" <> r.failed)
      (Printf.sprintf "journal errors %d, report fails %d"
         (count_outcome log "error") r.failed)

let outcome_of = function
  | Ok r -> if degraded r then "degraded" else "ok"
  | Error _ -> "error"

(* Sessions replayed outside the scheduler, as (id, outcome) pairs, must
   end the way the journal says they ended. *)
let replayed_outcomes log (replayed : (int * string) list) =
  List.filter_map
    (fun (id, outcome) ->
      match Hashtbl.find_opt log.outcomes id with
      | Some o when o = outcome -> None
      | Some o ->
        Some (Printf.sprintf "replay: session %d ended %s, journal says %s" id outcome o)
      | None -> Some (Printf.sprintf "replay: session %d has no journaled end" id))
    replayed

(* A replay of every admitted session must reproduce the report's
   completed and degraded counts. *)
let replay_counts (r : Scheduler.report) (replayed : (int * string) list) =
  let completed = List.length replayed in
  let degraded = List.length (List.filter (fun (_, o) -> o = "degraded") replayed) in
  (if completed <> r.completed then
     [ Printf.sprintf "replay: %d sessions completed, report says %d" completed r.completed ]
   else [])
  @
  if degraded <> r.degraded then
    [ Printf.sprintf "replay: %d sessions degraded, report says %d" degraded r.degraded ]
  else []

let same_bytes ~what a b =
  if String.equal a b then []
  else
    [
      Printf.sprintf "%s: %d bytes vs %d bytes, not byte-identical" what
        (String.length a) (String.length b);
    ]
