(* Bounded byte reader/writer and CRC32 for the CRC-framed wire formats.
   It lives in lib/obs, the lowest library both lib/annot (tracks) and
   lib/obs itself (journals) can see. *)

type fault =
  | Truncated of int
  | Varint_too_long
  | Varint_overflow
  | Too_long of int
  | Invalid of string

type failure = { at : int; field : string; fault : fault }

type cursor = {
  data : string;
  mutable pos : int;  (* owned_by: the parsing call; a cursor never escapes it *)
  limit : int;
  mutable failure : failure option;  (* owned_by: the parsing call, as pos *)
}

let cursor data ~pos ~limit = { data; pos; limit; failure = None }

(* A failed cursor sits past its limit, so every later [need] fails. *)
let fail c ~at field fault =
  if Option.is_none c.failure then c.failure <- Some { at; field; fault };
  c.pos <- c.limit + 1

let seek c pos = if Option.is_none c.failure then c.pos <- pos

(* [n > limit - pos] rather than [pos + n > limit]: a declared length
   near [max_int] must not wrap round and pass. *)
let need c n field =
  if n > c.limit - c.pos then begin
    fail c ~at:c.pos field (Truncated n);
    false
  end
  else true

let byte c field =
  if need c 1 field then begin
    let b = Char.code c.data.[c.pos] in
    c.pos <- c.pos + 1;
    b
  end
  else -1

let little_endian c n field =
  if need c n field then begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl 8) lor Char.code c.data.[c.pos + i]
    done;
    c.pos <- c.pos + n;
    !v
  end
  else -1

let u24 c field = little_endian c 3 field

let u32 c field = little_endian c 4 field

let varint c field =
  let rec loop shift acc =
    if shift > 56 then begin
      fail c ~at:c.pos field Varint_too_long;
      -1
    end
    else
      let b = byte c field in
      if b < 0 then -1
      else
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if acc < 0 then begin
          fail c ~at:c.pos field Varint_overflow;
          -1
        end
        else if b land 0x80 = 0 then acc
        else loop (shift + 7) acc
  in
  loop 0 0

let string ?cap c field =
  let n = varint c field in
  match cap with
  | _ when n < 0 -> ""
  | Some cap when n > cap ->
    fail c ~at:c.pos field (Too_long n);
    ""
  | _ ->
    if need c n field then begin
      let s = String.sub c.data c.pos n in
      c.pos <- c.pos + n;
      s
    end
    else ""

let message f =
  match f.fault with
  | Truncated _ -> "truncated input"
  | Varint_too_long -> "varint too long"
  | Varint_overflow -> "varint overflow"
  | Too_long _ -> "implausible string length"
  | Invalid msg -> msg

(* --- writing ------------------------------------------------------------ *)

let put_varint buf n =
  if n < 0 then invalid_arg "Wire.put_varint: negative value";
  let rec loop n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      loop (n lsr 7)
    end
  in
  loop n

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_little_endian buf bytes n =
  for i = 0 to bytes - 1 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

(* Fixed-width fields reject out-of-range values by name instead of
   wrapping: wrapped bytes would still CRC as valid and decode into
   garbage. *)
let put_checked buf ~field ~bytes ~range n =
  if n < 0 || n lsr (8 * bytes) <> 0 then
    invalid_arg (Printf.sprintf "%s %d out of %s range" field n range);
  put_little_endian buf bytes n

let put_u8 buf ~field n = put_checked buf ~field ~bytes:1 ~range:"u8" n

let put_u24 buf ~field n = put_checked buf ~field ~bytes:3 ~range:"u24" n

let put_u32 buf n = put_little_endian buf 4 n

(* --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ------------------- *)

(* Built eagerly: forcing a lazy table from two domains at once races. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_sub data ~pos ~len =
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code data.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let crc32 data = crc32_sub data ~pos:0 ~len:(String.length data)
