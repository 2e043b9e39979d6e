(** Bounded byte reader and writer for the CRC-framed wire formats —
    annotation tracks ({!Annotation.Encoding}) and decision journals
    ({!Journal}).

    A {!cursor} checks that a field's bytes are there before it reads
    them. The first read that fails is remembered as a {!failure} (the
    byte offset, the field name and what went wrong), and every later
    read on that cursor fails too and returns a sentinel ([-1] for
    integers, [""] for strings). So a parser reads its fields in
    straight-line code, with no exception, and asks once at the end
    whether the cursor failed. Each consumer formats its own message
    from the failure: a decoder says ["truncated input"], the offline
    verifier names the field and the offset. *)

type fault =
  | Truncated of int  (** the read needed this many bytes past the limit *)
  | Varint_too_long  (** a ninth continuation byte *)
  | Varint_overflow  (** the value does not fit a non-negative [int] *)
  | Too_long of int  (** a declared string length above the reader's cap *)
  | Invalid of string  (** a well-formed value the format forbids *)

type failure = {
  at : int;
      (** byte offset: where the missing bytes should start, the ninth
          varint byte, the byte after an overflowing one, or the first
          string byte *)
  field : string;
  fault : fault;
}

type cursor = private {
  data : string;
  mutable pos : int;  (* owned_by: the parsing call; a cursor never escapes it *)
  limit : int;  (** reads stop here, exclusive *)
  mutable failure : failure option;  (* owned_by: the parsing call, as pos *)
}

val cursor : string -> pos:int -> limit:int -> cursor
(** A cursor over [data] from [pos] up to [limit] (exclusive);
    [limit <= String.length data]. *)

val seek : cursor -> int -> unit
(** [seek c pos] moves an unfailed cursor; a failed one stays failed. *)

val fail : cursor -> at:int -> string -> fault -> unit
(** Records a failure (unless one is already recorded) and fails every
    later read. *)

val need : cursor -> int -> string -> bool
(** [need c n field] is [true] when [n] more bytes are readable;
    otherwise it records [Truncated n] and is [false]. *)

val byte : cursor -> string -> int

val varint : cursor -> string -> int
(** Unsigned LEB128, at most 9 bytes. *)

val u24 : cursor -> string -> int
(** Little-endian. *)

val u32 : cursor -> string -> int

val string : ?cap:int -> cursor -> string -> string
(** Varint length, then that many bytes. A length above [cap] fails
    with [Too_long] before any byte is looked at. *)

val message : failure -> string
(** The decoders' wording: ["truncated input"], ["varint too long"],
    ["varint overflow"], ["implausible string length"], or the
    [Invalid] text. *)

(** {1 Writing} *)

val put_varint : Buffer.t -> int -> unit
(** Raises [Invalid_argument] on a negative value. *)

val put_string : Buffer.t -> string -> unit

val put_u8 : Buffer.t -> field:string -> int -> unit
(** Raises [Invalid_argument "<field> <n> out of u8 range"] instead of
    wrapping. *)

val put_u24 : Buffer.t -> field:string -> int -> unit
(** As {!put_u8}, for the u24 range. *)

val put_u32 : Buffer.t -> int -> unit
(** The low 32 bits, little-endian. *)

(** {1 Checksums} *)

val crc32_sub : string -> pos:int -> len:int -> int
(** CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) of a substring,
    without copying. *)

val crc32 : string -> int
(** [crc32 "123456789" = 0xCBF43926]. *)
