(* Wire-format pins for the two CRC-framed formats: annotation tracks
   and decision journals. A seeded corpus of valid encodings and their
   mutations (byte flips, truncations, appended bytes, huge declared
   counts and lengths, re-checksummed field edits, lost-byte masks)
   goes through every consumer of each format — strict decode, salvage
   decode and the offline verifier — and everything they return
   (values, error strings, partial counts, diagnostics) is hashed into
   one digest per format. A change to any reader must leave both
   digests alone. *)

module Encoding = Annotation.Encoding
module Track = Annotation.Track
module Quality = Annotation.Quality_level
module Journal = Obs.Journal
module Artifact = Check.Artifact
module Diagnostic = Check.Diagnostic

(* --- corpus helpers ------------------------------------------------------ *)

let varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let u32 n = String.init 4 (fun k -> Char.chr ((n lsr (8 * k)) land 0xff))

let set_u32 b off v =
  for k = 0 to 3 do
    Bytes.set_uint8 b (off + k) ((v lsr (8 * k)) land 0xff)
  done

(* Reads the LEB128 varint at [pos]; returns (value, next position). *)
let read_varint s pos =
  let rec loop pos shift acc =
    let b = Char.code s.[pos] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else loop (pos + 1) (shift + 7) acc
  in
  loop pos 0 0

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let flip rng s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    for _ = 0 to Random.State.int rng 3 do
      let i = Random.State.int rng (Bytes.length b) in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 + Random.State.int rng 255))
    done;
    Bytes.to_string b
  end

let truncate rng s =
  if s = "" then s else String.sub s 0 (Random.State.int rng (String.length s))

let append rng s =
  s ^ String.init (1 + Random.State.int rng 8) (fun _ -> Char.chr (Random.State.int rng 256))

let set_byte rng s lo hi =
  if hi <= lo then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set_uint8 b (lo + Random.State.int rng (hi - lo)) (Random.State.int rng 256);
    Bytes.to_string b
  end

(* Lost-byte masks the salvage decoder is fed: one contiguous hole and
   one sparse scatter. *)
let masks rng s =
  let n = String.length s in
  if n = 0 then []
  else begin
    let start = Random.State.int rng n in
    let len = 1 + Random.State.int rng (min 40 (n - start)) in
    let hole = Array.init n (fun i -> i < start || i >= start + len) in
    let sparse = Array.init n (fun _ -> Random.State.int rng 60 <> 0) in
    [ hole; sparse ]
  end

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let diags_repr ds =
  String.concat ";"
    (List.map
       (fun (d : Diagnostic.t) ->
         Printf.sprintf "%s/%s/%s" d.Diagnostic.code
           (Diagnostic.severity_name d.Diagnostic.severity)
           d.Diagnostic.message)
       ds)

(* --- annotation tracks --------------------------------------------------- *)

let quality_repr = function
  | Quality.Custom f -> Printf.sprintf "custom %h" f
  | q -> Quality.label q

let entry_repr (e : Track.entry) =
  Printf.sprintf "%d+%d r%d c%h e%d" e.Track.first_frame e.Track.frame_count
    e.Track.register e.Track.compensation e.Track.effective_max

let track_repr (t : Track.t) =
  Printf.sprintf "%S %S %s %h %d [%s]" t.Track.clip_name t.Track.device_name
    (quality_repr t.Track.quality) t.Track.fps t.Track.total_frames
    (String.concat ";" (Array.to_list (Array.map entry_repr t.Track.entries)))

let partial_repr (p : Encoding.partial) =
  Printf.sprintf "%S %S %s %h %d [%s] corrupt %d missing %d" p.Encoding.clip_name
    p.Encoding.device_name (quality_repr p.Encoding.quality) p.Encoding.fps
    p.Encoding.total_frames
    (String.concat ";"
       (Array.to_list
          (Array.map
             (function Some e -> entry_repr e | None -> "-")
             p.Encoding.entries)))
    p.Encoding.corrupt_records p.Encoding.missing_records

let result_repr repr = function
  | Ok v -> "ok " ^ repr v
  | Error msg -> "error " ^ msg

(* A 64-level panel, so register-range findings (V112) show up too. *)
let small_panel _ =
  Some { Display.Device.ipaq_h5555 with Display.Device.backlight_levels = 64 }

let track_outputs (data, masks) =
  let partial ?byte_ok () =
    result_repr partial_repr (Encoding.decode_partial ?byte_ok data)
  in
  String.concat "\n"
    ([
       result_repr track_repr (Encoding.decode data);
       partial ();
       diags_repr (Artifact.check_annotation ~file:"t.bin" data);
       diags_repr (Artifact.check_annotation ~find_device:small_panel ~file:"t.bin" data);
     ]
    @ List.map (fun byte_ok -> partial ~byte_ok ()) masks)

let random_track rng ~clip_name =
  let n = 1 + Random.State.int rng 12 in
  let next = ref 0 in
  let entries =
    Array.init n (fun _ ->
        let frame_count = 1 + Random.State.int rng 60 in
        let e =
          {
            Track.first_frame = !next;
            frame_count;
            register = Random.State.int rng 256;
            compensation = 1. +. (float_of_int (Random.State.int rng 4096) /. 4096.);
            effective_max = Random.State.int rng 256;
          }
        in
        next := !next + frame_count;
        e)
  in
  Track.make ~clip_name
    ~device_name:(pick rng [ "ipaq_h5555"; "unknown-panel" ])
    ~quality:(pick rng [ Quality.Lossless; Quality.Loss_10; Quality.Loss_20; Quality.Custom 0.123 ])
    ~fps:(pick rng [ 12.; 24.; 29.97 ])
    ~total_frames:!next entries

(* A v2 header with a valid CRC over arbitrary field values. *)
let header_v2 ~permille ~fps_milli ~total ~clip ~device ~count =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "ANPW\002";
  varint buf permille;
  varint buf fps_milli;
  varint buf total;
  varint buf (String.length clip);
  Buffer.add_string buf clip;
  varint buf (String.length device);
  Buffer.add_string buf device;
  varint buf count;
  let h = Buffer.contents buf in
  h ^ u32 (Encoding.crc32 h)

let rsize = Encoding.record_size

(* Byte offset of the first v2 record: records are fixed-size and fill
   the tail of the blob. *)
let records_at (t : Track.t) blob =
  String.length blob - (Array.length (Track.merge_runs t).Track.entries * rsize)

let fix_record_crc blob off =
  let b = Bytes.of_string blob in
  set_u32 b (off + rsize - 4) (Encoding.crc32_sub blob ~pos:off ~len:(rsize - 4));
  Bytes.to_string b

let fix_header_crc blob ~at =
  let b = Bytes.of_string blob in
  set_u32 b at (Encoding.crc32_sub blob ~pos:0 ~len:at);
  Bytes.to_string b

let track_mutations rng t =
  let v2 = Encoding.encode t and v1 = Encoding.encode_v1 t in
  let at = records_at t v2 in
  let n = (String.length v2 - at) / rsize in
  let records = String.sub v2 at (String.length v2 - at) in
  let some_record () = at + (rsize * Random.State.int rng (max 1 n)) in
  let one () =
    match Random.State.int rng 12 with
    | 0 -> flip rng v2
    | 1 -> truncate rng v2
    | 2 -> append rng v2
    | 3 ->
      (* A record field edit the attacker re-checksums: only the
         semantic checks can object. *)
      let off = some_record () in
      fix_record_crc (set_byte rng v2 off (off + rsize - 4)) off
    | 4 -> fix_header_crc (set_byte rng v2 5 (at - 4)) ~at:(at - 4)
    | 5 ->
      let count = pick rng [ 1 lsl 40; n + 1; max 0 (n - 1); 0; 1 lsl 20 ] in
      header_v2 ~permille:100 ~fps_milli:12_000 ~total:t.Track.total_frames
        ~clip:t.Track.clip_name ~device:t.Track.device_name ~count
      ^ (if Random.State.bool rng then records else "")
    | 6 ->
      (* Huge declared name length over a short payload. *)
      let b = Buffer.create 32 in
      Buffer.add_string b "ANPW";
      Buffer.add_char b (pick rng [ '\001'; '\002' ]);
      varint b 100;
      varint b 12_000;
      varint b 90;
      varint b (pick rng [ 1 lsl 30; 5000; 4097; 64 ]);
      Buffer.add_string b "clip";
      Buffer.contents b
    | 7 ->
      (* Re-checksummed records in another order. *)
      if n < 2 then v2
      else begin
        let i = Random.State.int rng (n - 1) in
        let r k = String.sub records (k * rsize) rsize in
        String.sub v2 0 at
        ^ String.concat ""
            (List.init n (fun k -> if k = i then r (i + 1) else if k = i + 1 then r i else r k))
      end
    | 8 -> flip rng v1
    | 9 -> truncate rng v1
    | 10 -> if Random.State.bool rng then append rng v1 else set_byte rng v1 5 (String.length v1)
    | _ ->
      pick rng
        [
          "";
          "ANP";
          "ANPW";
          "ANPW\002" ^ String.make 9 '\xff';
          "ANPW\001" ^ String.make 10 '\x80';
          "ANPW\002\xff\xff\xff\xff\xff\xff\xff\xff\x7f";
          "XXXX" ^ String.sub v2 4 (String.length v2 - 4);
          String.sub v2 0 4 ^ "\007" ^ String.sub v2 5 (String.length v2 - 5);
        ]
  in
  [ v2; v1 ] @ List.init 150 (fun _ -> one ())

let track_corpus () =
  let rng = Random.State.make [| 2006 |] in
  let tracks =
    List.init 12 (fun i -> random_track rng ~clip_name:(Printf.sprintf "clip-%d" i))
    @ [ random_track rng ~clip_name:(String.make 4100 'n') ]
  in
  let edges =
    [ "ANPW\002" ^ String.make 9 '\x80'; "ANPW\001" ^ String.make 9 '\x80' ]
    @ List.concat_map
        (fun n ->
          let t = random_track rng ~clip_name:(String.make n 'e') in
          [ Encoding.encode t; Encoding.encode_v1 t ])
        [ 4096; 4097 ]
  in
  List.map
    (fun data -> (data, masks rng data))
    (List.concat_map (track_mutations rng) tracks @ edges)

(* --- decision journals --------------------------------------------------- *)

let all_kinds_events =
  let e t_us kind = { Journal.t_us; kind } in
  [
    e 0
      (Journal.Session_start
         { clip = "clip"; device = "ipaq_h5555"; quality = "10%"; frames = 48; fps_milli = 8000 });
    e 0
      (Journal.Scene_decision
         {
           scene = 0;
           first_frame = 0;
           frame_count = 6;
           register = 78;
           effective_max = 99;
           compensation_fp = 10543;
           clipped_permille = 99;
           quality_permille = 100;
           candidates = [ 235; 95; 78; 64; 41 ];
         });
    e 0 (Journal.Channel { packets = 8; delivered = 7 });
    e 2_000 (Journal.Nack_round { round = 1; missing = 1; repaired = 1 });
    e 2_500 (Journal.Fec_outcome { failed_groups = 0; repaired_packets = 1 });
    e 3_000
      (Journal.Degradation
         { index = -1; trigger = Journal.Header_lost; policy = "full_backlight" });
    e 3_100
      (Journal.Degradation
         { index = 2; trigger = Journal.Record_corrupt; policy = "neighbour_clamp" });
    e 3_200 (Journal.Ladder_step { scene = -1; depth = 3; step = "full" });
    e 3_300
      (Journal.Breaker_transition
         { name = "nack"; from_state = 0; to_state = 2; failure_permille = 625 });
    e 3_400 (Journal.Watchdog_trip { stage = "transmit"; budget_us = 40_000; over_us = 1_250 });
    e 0 (Journal.Dvfs_choice { policy = "annotated"; mean_mhz = 100; misses = 0 });
    e 750_000 (Journal.Scene_cut { scene = 1; frame = 6 });
    e 750_000 (Journal.Backlight_switch { frame = 6; from_register = 78; to_register = 255 });
    e 800_000 (Journal.Deadline_miss { frame = 7; over_us = 1250 });
    e 900_000
      (Journal.Slo_breach
         { rule = "deadline_miss_rate < 0.05"; window = 3; value_milli = -62; window_us = 500_000 });
    e 6_000_000
      (Journal.Session_end
         { survived = true; degraded_scenes = 1; retransmissions = 1; corrupt_records = 1 });
    e 0 (Journal.Bulkhead_decision { name = "prepare"; decision = "shed"; in_flight = 2; queued = 2 });
    e 0 (Journal.Fleet_shard_start { shard = 1; shards = 4; sessions = 2 });
    e 1_000 (Journal.Fleet_arrival { session = 7; clip = "clip" });
    e 1_000
      (Journal.Fleet_admission { session = 7; decision = "admitted"; in_flight = 3; queued = 0 });
    e 2_000_000
      (Journal.Fleet_session_end { session = 7; outcome = "degraded"; degraded_scenes = 1 });
  ]

let device = Display.Device.ipaq_h5555

let session_journal () =
  let clip =
    let scene level =
      Video.Profile.scene ~seconds:0.75 ~noise_sigma:0. (Video.Profile.Flat level)
    in
    Video.Clip_gen.render ~width:32 ~height:24 ~fps:8.
      { Video.Profile.name = "wire-corpus"; seed = 5; scenes = [ scene 40; scene 200; scene 60 ] }
  in
  let config =
    {
      (Streaming.Session.default_config ~device) with
      Streaming.Session.fault = Some (Streaming.Fault.bernoulli ~rate:0.3);
      nack_budget_s = 0.02;
      seed = 3;
    }
  in
  let j = Journal.create () in
  Journal.install j;
  Fun.protect ~finally:Journal.uninstall @@ fun () ->
  Obs.with_enabled (fun () ->
      match Streaming.Session.run config clip with
      | Ok _ -> Journal.to_string j
      | Error msg -> Alcotest.fail msg)

let fleet_journal () =
  let clips =
    Array.init 3 (fun i ->
        Video.Clip_gen.render ~width:16 ~height:12 ~fps:8.
          (Video.Workloads.parametric ~seconds:1.0 ~base_level:(40 + (30 * i))
             ~highlight_peak:(150 + (12 * i)) ()))
  in
  let r =
    Fleet.Scheduler.run
      { Fleet.Scheduler.default_config with Fleet.Scheduler.shards = 2; capacity = 6; queue_limit = 2 }
      ~session_config:(Streaming.Session.default_config ~device)
      ~clips
      ~load:{ Fleet.Load.default with Fleet.Load.sessions = 24; rate_per_s = 40. }
  in
  Fleet.Scheduler.journal r

(* Frame boundaries of a well-formed journal: (offset, payload length). *)
let frames blob =
  let rec loop pos acc =
    if pos >= String.length blob then List.rev acc
    else
      let len, body = read_varint blob pos in
      loop (body + len + 4) ((pos, len) :: acc)
  in
  loop 9 []

let journal_mutations rng blob =
  let fr = Array.of_list (frames blob) in
  let n = Array.length fr in
  let frame_end (off, len) =
    let _, body = read_varint blob off in
    body + len + 4
  in
  let one () =
    match Random.State.int rng 9 with
    | 0 -> flip rng blob
    | 1 -> truncate rng blob
    | 2 -> append rng blob
    | 3 when n > 0 ->
      (* A payload edit under a recomputed CRC: only the schema and
         timestamp checks can object. *)
      let off, len = fr.(Random.State.int rng n) in
      let _, body = read_varint blob off in
      if len = 0 then blob
      else begin
        let b = Bytes.of_string (set_byte rng blob body (body + len)) in
        set_u32 b (body + len) (Journal.crc32 (Bytes.sub_string b body len));
        Bytes.to_string b
      end
    | 4 when n > 1 ->
      let i = Random.State.int rng (n - 1) in
      let a = fr.(i) and b = fr.(i + 1) in
      let a_off = fst a and b_off = fst b and b_end = frame_end b in
      String.sub blob 0 a_off
      ^ String.sub blob b_off (b_end - b_off)
      ^ String.sub blob a_off (b_off - a_off)
      ^ String.sub blob b_end (String.length blob - b_end)
    | 5 ->
      (* A frame boundary followed by a hostile length. *)
      let cut = if n = 0 then 9 else fst fr.(Random.State.int rng n) in
      String.sub blob 0 cut
      ^ pick rng
          [
            "\x80\x80\x80\x01";
            String.make 9 '\xff';
            String.make 10 '\x80';
            "\xff\xff\xff\xff\xff\xff\xff\xff\x7f";
            "\x05ab";
          ]
    | 6 ->
      let b = Bytes.of_string blob in
      Bytes.set_uint8 b 4 (Random.State.int rng 4);
      if Random.State.bool rng then set_u32 b 5 (Journal.crc32 (Bytes.sub_string b 0 5));
      Bytes.to_string b
    | 7 -> String.sub blob 0 (min (String.length blob) (Random.State.int rng 12))
    | _ ->
      (* A framed payload of random bytes with a valid CRC. *)
      let payload =
        String.init (Random.State.int rng 12) (fun i ->
            Char.chr (Random.State.int rng (if i = 0 then 24 else 256)))
      in
      let buf = Buffer.create 16 in
      varint buf (String.length payload);
      blob ^ Buffer.contents buf ^ payload ^ u32 (Journal.crc32 payload)
  in
  blob :: List.init 400 (fun _ -> one ())

let journal_outputs data =
  let partial (p : Journal.partial) =
    Printf.sprintf "%s corrupt %d truncated %b error %s"
      (Digest.to_hex (Digest.string (Journal.encode p.Journal.events)))
      p.Journal.corrupt_frames p.Journal.truncated
      (Option.value p.Journal.error ~default:"-")
  in
  String.concat "\n"
    [
      result_repr
        (fun evs -> Digest.to_hex (Digest.string (Journal.encode evs)))
        (Journal.decode data);
      partial (Journal.decode_partial data);
      diags_repr (Artifact.check_journal ~file:"t.journal" data);
    ]

let framed payload =
  let buf = Buffer.create 16 in
  varint buf (String.length payload);
  Buffer.contents buf ^ payload ^ u32 (Journal.crc32 payload)

(* Inputs at the readers' limits: a length varint of exactly nine
   continuation bytes at the end of the input, the candidate-count cap,
   the frame-length cap. *)
let journal_edges () =
  let header = Journal.encode [] in
  let decision candidates =
    let buf = Buffer.create 300 in
    Buffer.add_string buf "\002\000";
    for _ = 1 to 8 do varint buf 1 done;
    varint buf candidates;
    Buffer.add_string buf (String.make candidates '\007');
    framed (Buffer.contents buf)
  in
  [
    header ^ String.make 9 '\x80';
    header ^ decision 256;
    header ^ decision 257;
    header ^ framed (String.make 65536 '\003');
    header ^ framed (String.make 65537 '\003');
  ]

let journal_corpus () =
  let rng = Random.State.make [| 2007 |] in
  List.concat_map (journal_mutations rng)
    [ Journal.encode all_kinds_events; Journal.encode []; session_journal (); fleet_journal () ]
  @ journal_edges ()

(* --- golden digests ------------------------------------------------------ *)

let test_track_golden () =
  let corpus = track_corpus () in
  Alcotest.(check bool) "a few thousand inputs" true (List.length corpus > 1500);
  Alcotest.(check string) "track consumers digest" "4ba0abd3d6eb683cc80de96df576a312"
    (digest (List.map track_outputs corpus))

let test_journal_golden () =
  let corpus = journal_corpus () in
  Alcotest.(check bool) "a few thousand inputs" true (List.length corpus > 1500);
  Alcotest.(check string) "journal consumers digest" "de20493022cd88abe18155042f5c0e53"
    (digest (List.map journal_outputs corpus))

(* --- hardening regressions ------------------------------------------------ *)

(* A declared name length of 2^62 - 1 once wrapped the bounds check
   round and made [String.sub] raise out of the decoders. *)
let test_huge_name_length () =
  let data = "ANPW\002\x64\xe0\x5d\x5a" ^ "\xff\xff\xff\xff\xff\xff\xff\xff\x3f" in
  Alcotest.(check string) "decode" "error truncated input"
    (result_repr track_repr (Encoding.decode data));
  Alcotest.(check string) "decode_partial" "error truncated input"
    (result_repr partial_repr (Encoding.decode_partial data));
  Alcotest.(check (list string)) "verifier" [ "V105" ]
    (List.map (fun d -> d.Diagnostic.code) (Artifact.check_annotation ~file:"t.bin" data))

(* --- encode counters ------------------------------------------------------ *)

let test_encoded_size_is_not_a_send () =
  let tracks = Obs.counter "annot_tracks_encoded_total" [] in
  let bytes = Obs.counter "annot_track_bytes_total" [] in
  let value = Obs.Metrics.Counter.value in
  let t = random_track (Random.State.make [| 5 |]) ~clip_name:"size" in
  Obs.with_enabled (fun () ->
      let before = (value tracks, value bytes) in
      let size = Encoding.encoded_size t in
      Alcotest.(check (pair int int)) "a size query counts nothing" before
        (value tracks, value bytes);
      let blob = Encoding.encode t in
      Alcotest.(check int) "same size as the bytes" (String.length blob) size;
      Alcotest.(check (pair int int)) "an encode counts one track and its bytes"
        (fst before + 1, snd before + size)
        (value tracks, value bytes))

(* --- fuzz properties ------------------------------------------------------ *)

(* Words allocated by [f ()], minor plus major (less what was
   promoted, which both count). In OCaml 5 these counters move only at
   a minor collection (minor words) or a major slice (major words), so
   both are run on each side of [f]. *)
let words_allocated f =
  let settle () =
    Gc.minor ();
    ignore (Gc.major_slice 0)
  in
  let total () =
    settle ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = total () in
  f ();
  total () -. before

(* Generous, but linear: all consumers of one input together may
   allocate this many words per input byte (plus a fixed allowance for
   the result and the diagnostics of an empty input). The verifier's
   worst case, two findings per 4-byte v1 record, needs under 100. *)
let words_per_byte = 256.

let alloc_bounded data f =
  words_allocated f <= words_per_byte *. float_of_int (String.length data + 8)

let mutate (edits, cut, extra) data =
  let b = Bytes.of_string data in
  let n = Bytes.length b in
  if n > 0 then List.iter (fun (i, v) -> Bytes.set_uint8 b (i mod n) v) edits;
  let cut = match cut with Some c -> c mod (n + 1) | None -> n in
  Bytes.sub_string b 0 cut ^ extra

let mutation_gen =
  QCheck2.Gen.(
    triple
      (list_size (0 -- 4) (pair nat (0 -- 255)))
      (option nat)
      (string_size ~gen:char (0 -- 6)))

(* Random bytes, mostly behind a valid magic and version so the walk
   gets past the first check. *)
let noise_gen prefixes =
  QCheck2.Gen.(
    map2 ( ^ ) (oneofl prefixes) (string_size ~gen:char (0 -- 120)))

let track_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        Track.merge_runs (random_track (Random.State.make [| seed |]) ~clip_name:"fuzz"))
      int)

let track_consumers_behave data =
  let mask = Array.init (String.length data) (fun i -> i mod 7 <> 3) in
  alloc_bounded data (fun () ->
      ignore (Encoding.decode data);
      ignore (Encoding.decode_partial data);
      ignore (Encoding.decode_partial ~byte_ok:mask data);
      ignore (Artifact.check_annotation ~file:"t.bin" data))

(* Worst case for the verifier: every 4-byte v1 record draws two
   findings (zero frame_count, compensation below 1). *)
let zero_records_v1 n =
  let buf = Buffer.create (16 + (4 * n)) in
  Buffer.add_string buf "ANPW\001\x64\xe0\x5d\x00\x01c\x01d";
  varint buf n;
  Buffer.add_string buf (String.make (4 * n) '\000');
  Buffer.contents buf

let test_worst_case_stays_linear () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%d zero records" n)
        true
        (track_consumers_behave (zero_records_v1 n)))
    [ 1; 10; 100; 1000 ]

let prop_track_walk =
  QCheck2.Test.make ~count:500 ~name:"track consumers: no raise, linear allocation, round trip"
    QCheck2.Gen.(
      triple track_gen mutation_gen (noise_gen [ ""; "ANPW\001"; "ANPW\002" ]))
    (fun (t, m, noise) ->
      let v2 = Encoding.encode t and v1 = Encoding.encode_v1 t in
      Encoding.decode v2 = Ok t
      && Encoding.decode v1 = Ok t
      && List.for_all track_consumers_behave [ v2; v1; mutate m v2; mutate m v1; noise ])

let random_event rng =
  let n () = Random.State.int rng 100_000 in
  let s () =
    String.init (Random.State.int rng 10) (fun _ -> Char.chr (97 + Random.State.int rng 26))
  in
  let kind =
    match Random.State.int rng 20 with
    | 0 -> Journal.Session_start { clip = s (); device = s (); quality = s (); frames = n (); fps_milli = n () }
    | 1 ->
      Journal.Scene_decision
        {
          scene = n ();
          first_frame = n ();
          frame_count = n ();
          register = n ();
          effective_max = n ();
          compensation_fp = n ();
          clipped_permille = n ();
          quality_permille = n ();
          candidates = List.init (Random.State.int rng 6) (fun _ -> n ());
        }
    | 2 -> Journal.Scene_cut { scene = n (); frame = n () }
    | 3 -> Journal.Backlight_switch { frame = n (); from_register = n (); to_register = n () }
    | 4 -> Journal.Deadline_miss { frame = n (); over_us = n () }
    | 5 -> Journal.Channel { packets = n (); delivered = n () }
    | 6 -> Journal.Nack_round { round = n (); missing = n (); repaired = n () }
    | 7 -> Journal.Fec_outcome { failed_groups = n (); repaired_packets = n () }
    | 8 ->
      Journal.Degradation
        {
          index = n () - 1;
          trigger = pick rng [ Journal.Record_lost; Journal.Record_corrupt; Journal.Header_lost ];
          policy = s ();
        }
    | 9 -> Journal.Dvfs_choice { policy = s (); mean_mhz = n (); misses = n () }
    | 10 -> Journal.Slo_breach { rule = s (); window = n (); value_milli = n () - 50_000; window_us = n () }
    | 11 ->
      Journal.Session_end
        { survived = Random.State.bool rng; degraded_scenes = n (); retransmissions = n (); corrupt_records = n () }
    | 12 -> Journal.Ladder_step { scene = n () - 1; depth = n (); step = s () }
    | 13 -> Journal.Breaker_transition { name = s (); from_state = n (); to_state = n (); failure_permille = n () }
    | 14 -> Journal.Bulkhead_decision { name = s (); decision = s (); in_flight = n (); queued = n () }
    | 15 -> Journal.Watchdog_trip { stage = s (); budget_us = n (); over_us = n () }
    | 16 -> Journal.Fleet_shard_start { shard = n (); shards = n (); sessions = n () }
    | 17 -> Journal.Fleet_arrival { session = n (); clip = s () }
    | 18 -> Journal.Fleet_admission { session = n (); decision = s (); in_flight = n (); queued = n () }
    | _ -> Journal.Fleet_session_end { session = n (); outcome = s (); degraded_scenes = n () }
  in
  { Journal.t_us = n (); kind }

let events_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        List.init (Random.State.int rng 30) (fun _ -> random_event rng))
      int)

let journal_consumers_behave data =
  alloc_bounded data (fun () ->
      ignore (Journal.decode data);
      ignore (Journal.decode_partial data);
      ignore (Artifact.check_journal ~file:"t.journal" data))

let prop_journal_walk =
  QCheck2.Test.make ~count:500 ~name:"journal consumers: no raise, linear allocation, round trip"
    QCheck2.Gen.(triple events_gen mutation_gen (noise_gen [ ""; "AJNL\001"; Journal.encode [] ]))
    (fun (events, m, noise) ->
      let blob = Journal.encode events in
      Journal.decode blob = Ok events
      && List.for_all journal_consumers_behave [ blob; mutate m blob; noise ])

let () =
  Alcotest.run "wire"
    [
      ( "golden",
        [
          Alcotest.test_case "annotation tracks" `Quick test_track_golden;
          Alcotest.test_case "decision journals" `Quick test_journal_golden;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "huge name length" `Quick test_huge_name_length;
          Alcotest.test_case "encoded_size counts nothing" `Quick
            test_encoded_size_is_not_a_send;
        ] );
      ( "fuzz",
        Alcotest.test_case "verifier worst case stays linear" `Quick
          test_worst_case_stays_linear
        :: List.map
             (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |]))
             [ prop_track_walk; prop_journal_walk ] );
    ]
