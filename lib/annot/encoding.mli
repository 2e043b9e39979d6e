(** Binary wire format for annotation tracks.

    §4.3: "The annotations are RLE compressed, so the overhead is
    minimal, in the order of hundreds of bytes for our video clips
    which are on the order of a few megabytes."

    Version 2 layout (varints are LEB128; u24/u32 little-endian):

    {v
    magic   "ANPW"            4 bytes
    version u8                currently 2
    quality varint            allowed loss in permille
    fps     varint            fps * 1000
    frames  varint            total frame count
    names   2 x (len varint, bytes)   clip name, device name
    count   varint            entry count (after run merging)
    hcrc    u32               CRC32 over every byte above
    records count x 15 bytes:
            first_frame u24, frame_count u24, register u8,
            compensation u24 (gain * 4096), effective u8,
            crc u32 (CRC32 over the record's first 11 bytes)
    v}

    Records are fixed-size and self-describing (they carry their own
    [first_frame]), so a client that loses or corrupts part of the
    payload can still place every surviving record — see
    {!decode_partial}. Version 1 (varint-packed entries, no CRCs, no
    explicit [first_frame]) is still read by {!decode}. *)

val encode : Track.t -> string
(** [encode track] serialises after {!Track.merge_runs} in the current
    (v2) format. Raises [Invalid_argument] naming the field when a
    value does not fit its fixed-width slot — [first_frame] /
    [frame_count] past 2^24 - 1 frames (a ~16.7M-frame clip) or a
    compensation gain overflowing the 12.12 fixed point — rather than
    wrapping into bytes that would still CRC as valid. *)

val encode_v1 : Track.t -> string
(** Legacy v1 writer, kept so decoder compatibility stays testable and
    old captures can be regenerated. Varint-packed, so long clips
    fit; u8 fields reject out-of-range values like {!encode}. *)

val decode : string -> (Track.t, string) result
(** [decode bytes] parses and re-validates; any corruption (including
    any CRC mismatch in a v2 payload) yields [Error] with a
    human-readable reason, never an exception. Reads versions 1
    and 2. *)

type partial = {
  clip_name : string;
  device_name : string;
  quality : Quality_level.t;
  fps : float;
  total_frames : int;
  entries : Track.entry option array;
      (** one slot per encoded record; [None] where the record was
          lost or failed its CRC *)
  corrupt_records : int;  (** records whose bytes arrived but lied *)
  missing_records : int;  (** records overlapping lost bytes *)
}

val decode_partial : ?byte_ok:bool array -> string -> (partial, string) result
(** [decode_partial ?byte_ok bytes] salvages what it can from a
    damaged v2 payload. [byte_ok.(i) = false] marks byte [i] as lost
    in transit (e.g. an unrecovered FEC group zero-filled by
    {!Streaming.Fec}); defaults to all-true. The header must survive
    intact (else [Error]); each record is then classified
    independently: missing when it overlaps lost bytes, corrupt when
    its CRC or sanity checks fail (bad frame span, overlap with an
    earlier record, compensation below 1), intact otherwise. A v1
    payload is all-or-nothing: fully intact or [Error]. Raises
    [Invalid_argument] when [byte_ok] does not match [bytes] in
    length. *)

val encoded_size : Track.t -> int
(** [encoded_size track] is [String.length (encode track)] — the
    overhead the bench reports against the encoded video size. It is a
    query, not a send: unlike {!encode} it leaves the
    [annot_tracks_encoded_total] and [annot_track_bytes_total] counters
    alone. *)

(** {1 The walk}

    One bounded walk over the bytes, shared by {!decode},
    {!decode_partial} and the offline verifier ({!Check.Artifact}). It
    reports every record with its offset; each consumer decides what a
    problem means to it. *)

type header = {
  version : int;
  quality_permille : int;
  fps_milli : int;
  total_frames : int;
  clip_name : string;
  device_name : string;
  count : int;  (** declared record count *)
  records_at : int;  (** byte offset of the first record *)
}
(** The fields the walk reached; a field at or after a failed read is
    [-1] (or [""] for the names). *)

type record =
  | Intact  (** bytes present, CRC (v2) matches *)
  | Missing  (** overlaps a byte [byte_ok] marks lost (v2 only) *)
  | Crc_bad  (** bytes present, stored CRC disagrees (v2 only) *)

type stop =
  | Read of Obs.Wire.failure  (** a field ran off the end or overflowed *)
  | Bad_magic
  | Bad_version of int
  | Header_crc
  | Header_lost  (** [byte_ok] marks a header byte lost *)
  | Payload_lost  (** [byte_ok] marks any byte of a v1 payload lost *)
  | Count_mismatch  (** the declared count cannot match the bytes left *)
  | Trailing of int  (** v1: this many bytes after the last record *)

val walk :
  ?byte_ok:bool array ->
  ?name_cap:int ->
  string ->
  (header -> index:int -> offset:int -> record -> Track.entry -> unit) ->
  header * stop option
(** [walk data on_records] reads the header (magic, version 1 or 2,
    fields, v2 header CRC), then checks [byte_ok] over the header (and
    over the whole of a v1 payload), then checks the declared count
    against the bytes left. If all of that passes it applies
    [on_records header] once and calls the function it returns on
    every record in order: index, byte offset, status, and the decoded
    entry when [Intact] (a placeholder otherwise). A v1 record's
    [first_frame] is the sum of the frame counts before it. The walk
    never raises and allocates nothing per record but the entries it
    hands over. [name_cap] bounds the declared clip and device name
    lengths (default: none). Returns the header and why the walk
    stopped early, if it did. *)

type flaw =
  | Empty  (** zero [frame_count] *)
  | Low_gain  (** compensation below 1 *)
  | Overlap  (** [first_frame] before [after] *)
  | Past_end  (** span runs past [total_frames] *)

val flaws : total_frames:int -> after:int -> Track.entry -> flaw list
(** The per-record checks no CRC can make, [[]] for a sane record;
    [after] is the frame the record may not start before. *)

val crc32 : string -> int
(** {!Obs.Wire.crc32}. *)

val crc32_sub : string -> pos:int -> len:int -> int
(** {!Obs.Wire.crc32_sub}. *)

val record_size : int
(** Size in bytes of one fixed v2 record (currently 15). *)

val version : int
