let version = 2

let magic = "ANPW"

let gain_fixed_point = 4096.

let record_size = 15
(* first_frame u24, frame_count u24, register u8, compensation u24,
   effective u8, crc32 u32 — see the .mli layout. *)

module Wire = Obs.Wire

let crc32_sub = Wire.crc32_sub

let crc32 = Wire.crc32

(* --- writing ---------------------------------------------------------- *)

let quality_permille q =
  int_of_float ((Quality_level.allowed_loss q *. 1000.) +. 0.5)

let obs_tracks =
  Obs.counter ~help:"Annotation tracks serialised to the wire format"
    "annot_tracks_encoded_total" []

let obs_track_bytes =
  Obs.counter ~help:"Bytes of serialised annotation tracks"
    "annot_track_bytes_total" []

let obs_corrupt_records =
  Obs.counter ~help:"Annotation records rejected by their CRC32"
    "annot_records_corrupt_total" []

let obs_missing_records =
  Obs.counter ~help:"Annotation records unreadable because their bytes were lost"
    "annot_records_missing_total" []

(* Everything up to the header CRC; v1 stops there. *)
let put_header buf ~version (track : Track.t) =
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Wire.put_varint buf (quality_permille track.quality);
  Wire.put_varint buf (int_of_float ((track.fps *. 1000.) +. 0.5));
  Wire.put_varint buf track.total_frames;
  Wire.put_string buf track.clip_name;
  Wire.put_string buf track.device_name;
  Wire.put_varint buf (Array.length track.entries)

let fixed_gain (e : Track.entry) =
  int_of_float ((e.compensation *. gain_fixed_point) +. 0.5)

(* The field names carry the module so a failed encode says where it
   failed. *)
let serialise track =
  let track = Track.merge_runs track in
  let buf = Buffer.create 256 in
  put_header buf ~version track;
  Wire.put_u32 buf (crc32_sub (Buffer.contents buf) ~pos:0 ~len:(Buffer.length buf));
  let record = Buffer.create record_size in
  Array.iter
    (fun (e : Track.entry) ->
      Buffer.clear record;
      Wire.put_u24 record ~field:"Encoding: first_frame" e.first_frame;
      Wire.put_u24 record ~field:"Encoding: frame_count" e.frame_count;
      Wire.put_u8 record ~field:"Encoding: register" e.register;
      Wire.put_u24 record ~field:"Encoding: compensation gain" (fixed_gain e);
      Wire.put_u8 record ~field:"Encoding: effective_max" e.effective_max;
      Wire.put_u32 record (crc32 (Buffer.contents record));
      Buffer.add_buffer buf record)
    track.Track.entries;
  Buffer.contents buf

let counted bytes =
  Obs.Metrics.Counter.incr obs_tracks;
  Obs.Metrics.Counter.incr obs_track_bytes ~by:(String.length bytes);
  bytes

let encode track = counted (serialise track)

let encode_v1 track =
  let track = Track.merge_runs track in
  let buf = Buffer.create 256 in
  put_header buf ~version:1 track;
  Array.iter
    (fun (e : Track.entry) ->
      Wire.put_varint buf e.frame_count;
      Wire.put_u8 buf ~field:"Encoding: register" e.register;
      Wire.put_varint buf (fixed_gain e);
      Wire.put_u8 buf ~field:"Encoding: effective_max" e.effective_max)
    track.Track.entries;
  counted (Buffer.contents buf)

(* A size query is not a track on the wire: it leaves the counters be. *)
let encoded_size track = String.length (serialise track)

(* --- reading ---------------------------------------------------------- *)

let quality_of_permille p =
  match p with
  | 0 -> Quality_level.Lossless
  | 50 -> Quality_level.Loss_5
  | 100 -> Quality_level.Loss_10
  | 150 -> Quality_level.Loss_15
  | 200 -> Quality_level.Loss_20
  | p -> Quality_level.Custom (float_of_int p /. 1000.)

type header = {
  version : int;
  quality_permille : int;
  fps_milli : int;
  total_frames : int;
  clip_name : string;
  device_name : string;
  count : int;
  records_at : int;
}

type record = Intact | Missing | Crc_bad

type stop =
  | Read of Wire.failure
  | Bad_magic
  | Bad_version of int
  | Header_crc
  | Header_lost
  | Payload_lost
  | Count_mismatch
  | Trailing of int

let unread =
  { version = -1; quality_permille = -1; fps_milli = -1; total_frames = -1;
    clip_name = ""; device_name = ""; count = -1; records_at = -1 }

let no_entry =
  { Track.first_frame = 0; frame_count = 1; register = 0; compensation = 1.;
    effective_max = 0 }

let span_ok byte_ok ~pos ~len =
  match byte_ok with
  | None -> true
  | Some ok ->
    let good = ref true in
    for i = pos to pos + len - 1 do
      if not ok.(i) then good := false
    done;
    !good

(* Whether the declared record count can match the bytes that follow,
   decided *before* anything walks (or allocates for) the records, so a
   tampered count cannot trigger an unbounded [Array.make]. Division
   keeps the comparison overflow-safe for adversarial counts. *)
let count_fits h ~len =
  let remaining = len - h.records_at in
  if h.version = 1 then h.count <= remaining / 4 (* v1 entries take >= 4 bytes *)
  else remaining mod record_size = 0 && h.count = remaining / record_size

(* A failed read leaves the sentinel in its field and every later one,
   so the header holds exactly the fields the walk reached. *)
let read_header ?name_cap ?byte_ok c =
  let data = c.Wire.data in
  let read_failure h = (h, Option.map (fun f -> Read f) c.Wire.failure) in
  if not (Wire.need c 4 "magic") then read_failure unread
  else if not (String.starts_with ~prefix:magic data) then (unread, Some Bad_magic)
  else begin
    Wire.seek c 4;
    let version = Wire.byte c "version" in
    if version < 0 then read_failure unread
    else if version <> 1 && version <> 2 then
      ({ unread with version }, Some (Bad_version version))
    else begin
      let quality_permille = Wire.varint c "quality" in
      let fps_milli = Wire.varint c "fps" in
      let total_frames = Wire.varint c "total_frames" in
      let clip_name = Wire.string ?cap:name_cap c "clip name" in
      let device_name = Wire.string ?cap:name_cap c "device name" in
      let count = Wire.varint c "record count" in
      let covered = c.Wire.pos in
      let stored = if version = 2 then Wire.u32 c "header CRC" else 0 in
      let h =
        { version; quality_permille; fps_milli; total_frames; clip_name;
          device_name; count; records_at = c.Wire.pos }
      in
      let len = String.length data in
      match c.Wire.failure with
      | Some _ -> read_failure h
      | None when version = 2 && stored <> crc32_sub data ~pos:0 ~len:covered ->
        (h, Some Header_crc)
      | None when not (span_ok byte_ok ~pos:0 ~len:h.records_at) -> (h, Some Header_lost)
      | None when version = 1 && not (span_ok byte_ok ~pos:0 ~len) ->
        (* v1 has no per-record framing: one lost byte loses it all. *)
        (h, Some Payload_lost)
      | None when not (count_fits h ~len) -> (h, Some Count_mismatch)
      | None -> (h, None)
    end
  end

let read_records_v2 ?byte_ok c h on_record =
  for index = 0 to h.count - 1 do
    let offset = h.records_at + (index * record_size) in
    Wire.seek c offset;
    if not (span_ok byte_ok ~pos:offset ~len:record_size) then
      on_record ~index ~offset Missing no_entry
    else begin
      let first_frame = Wire.u24 c "first_frame" in
      let frame_count = Wire.u24 c "frame_count" in
      let register = Wire.byte c "register" in
      let gain = Wire.u24 c "compensation" in
      let effective_max = Wire.byte c "effective max" in
      if Wire.u32 c "record CRC" <> crc32_sub c.Wire.data ~pos:offset ~len:(record_size - 4)
      then on_record ~index ~offset Crc_bad no_entry
      else
        on_record ~index ~offset Intact
          { Track.first_frame; frame_count; register;
            compensation = float_of_int gain /. gain_fixed_point; effective_max }
    end
  done;
  None

(* v1 records are varint-packed and carry no first_frame: it is the
   running sum of the frame counts before them. *)
let read_records_v1 c h on_record =
  let len = String.length c.Wire.data in
  let rec loop index next =
    if index = h.count then
      if c.Wire.pos <> len then Some (Trailing (len - c.Wire.pos)) else None
    else begin
      let offset = c.Wire.pos in
      let frame_count = Wire.varint c "frame_count" in
      let register = Wire.byte c "register" in
      let gain = Wire.varint c "compensation" in
      let effective_max = Wire.byte c "effective max" in
      match c.Wire.failure with
      | Some f -> Some (Read f)
      | None ->
        on_record ~index ~offset Intact
          { Track.first_frame = next; frame_count; register;
            compensation = float_of_int gain /. gain_fixed_point; effective_max };
        loop (index + 1) (next + frame_count)
    end
  in
  loop 0 0

let walk ?byte_ok ?name_cap data on_records =
  let c = Wire.cursor data ~pos:0 ~limit:(String.length data) in
  match read_header ?name_cap ?byte_ok c with
  | h, Some stop -> (h, Some stop)
  | h, None ->
    let on_record = on_records h in
    (h, if h.version = 1 then read_records_v1 c h on_record
        else read_records_v2 ?byte_ok c h on_record)

type flaw = Empty | Low_gain | Overlap | Past_end

let flaws ~total_frames ~after (e : Track.entry) =
  let flag cond flaw acc = if cond then flaw :: acc else acc in
  []
  |> flag (e.first_frame + e.frame_count > total_frames) Past_end
  |> flag (e.first_frame < after) Overlap
  |> flag (e.compensation < 1.) Low_gain
  |> flag (e.frame_count = 0) Empty

let stop_message h = function
  | Read f -> Wire.message f
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported version %d" v
  | Header_crc -> "header CRC mismatch"
  | Header_lost -> "header bytes lost in transit"
  | Payload_lost -> "v1 payload incomplete"
  | Count_mismatch when h.version = 1 -> "record count disagrees with payload length"
  | Count_mismatch -> "record section length mismatch"
  | Trailing _ -> "trailing bytes"

(* [decode]'s reading of the records: all of them into [entries]; the
   first CRC failure is counted and clears [crc_ok]. *)
let collect entries crc_ok h =
  let slots = Array.make h.count no_entry in
  entries := slots;
  fun ~index ~offset:_ record e ->
    match record with
    | Intact -> slots.(index) <- e
    | Missing | Crc_bad ->
      if !crc_ok then Obs.Metrics.Counter.incr obs_corrupt_records;
      crc_ok := false

let make_track h entries =
  try
    Ok
      (Track.make ~clip_name:h.clip_name ~device_name:h.device_name
         ~quality:(quality_of_permille h.quality_permille)
         ~fps:(float_of_int h.fps_milli /. 1000.) ~total_frames:h.total_frames
         entries)
  with Invalid_argument msg -> Error msg

let decode data =
  let entries = ref [||] and crc_ok = ref true in
  match walk data (collect entries crc_ok) with
  | h, Some stop -> Error (stop_message h stop)
  | _, None when not !crc_ok -> Error "record CRC mismatch"
  | h, None -> make_track h !entries

(* --- partial decode --------------------------------------------------- *)

type partial = {
  clip_name : string;
  device_name : string;
  quality : Quality_level.t;
  fps : float;
  total_frames : int;
  entries : Track.entry option array;
  corrupt_records : int;
  missing_records : int;
}

let decode_partial ?byte_ok data =
  (match byte_ok with
  | Some ok when Array.length ok <> String.length data ->
    invalid_arg "Encoding.decode_partial: byte_ok length mismatch"
  | _ -> ());
  let entries = ref [||] and crc_ok = ref true in
  let slots = ref [||] and corrupt = ref 0 and missing = ref 0 in
  let h, stop =
    walk ?byte_ok data (fun h ->
        if h.version = 1 then collect entries crc_ok h
        else begin
          let found = Array.make h.count None in
          slots := found;
          let after = ref 0 in
          fun ~index ~offset:_ record e ->
            match record with
            | Missing ->
              incr missing;
              Obs.Metrics.Counter.incr obs_missing_records
            | Intact
              when List.is_empty (flaws ~total_frames:h.total_frames ~after:!after e) ->
              after := e.first_frame + e.frame_count;
              found.(index) <- Some e
            | Intact | Crc_bad ->
              incr corrupt;
              Obs.Metrics.Counter.incr obs_corrupt_records
        end)
  in
  match stop with
  | Some stop -> Error (stop_message h stop)
  | None when h.version = 1 ->
    (* v1 has no per-record framing: it decodes whole, as [decode] does. *)
    Result.map
      (fun (t : Track.t) ->
        {
          clip_name = t.clip_name;
          device_name = t.device_name;
          quality = t.quality;
          fps = t.fps;
          total_frames = t.total_frames;
          entries = Array.map Option.some t.entries;
          corrupt_records = 0;
          missing_records = 0;
        })
      (make_track h !entries)
  | None ->
    Ok
      {
        clip_name = h.clip_name;
        device_name = h.device_name;
        quality = quality_of_permille h.quality_permille;
        fps = float_of_int h.fps_milli /. 1000.;
        total_frames = h.total_frames;
        entries = !slots;
        corrupt_records = !corrupt;
        missing_records = !missing;
      }
