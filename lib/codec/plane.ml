type t = { width : int; height : int; samples : int array }

let create ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Plane.create: bad dimensions";
  { width; height; samples = Array.make (width * height) 0 }

let clamp_coord v limit = if v < 0 then 0 else if v >= limit then limit - 1 else v

let get p ~x ~y =
  let x = clamp_coord x p.width and y = clamp_coord y p.height in
  p.samples.((y * p.width) + x)

let set p ~x ~y v =
  if x < 0 || x >= p.width || y < 0 || y >= p.height then
    invalid_arg "Plane.set: out of bounds";
  p.samples.((y * p.width) + x) <- v

let clamp p =
  for i = 0 to Array.length p.samples - 1 do
    let v = p.samples.(i) in
    p.samples.(i) <- (if v < 0 then 0 else if v > 255 then 255 else v)
  done

let copy p = { p with samples = Array.copy p.samples }

let pad_to_multiple p m =
  if m <= 0 then invalid_arg "Plane.pad_to_multiple: bad multiple";
  let round v = (v + m - 1) / m * m in
  let w = round p.width and h = round p.height in
  if w = p.width && h = p.height then p
  else begin
    let out = create ~width:w ~height:h in
    for y = 0 to h - 1 do
      let src = clamp_coord y p.height * p.width in
      Array.blit p.samples src out.samples (y * w) p.width;
      Array.fill out.samples ((y * w) + p.width) (w - p.width)
        p.samples.(src + p.width - 1)
    done;
    out
  end

let equal a b = a.width = b.width && a.height = b.height && a.samples = b.samples

type ycbcr = { y : t; cb : t; cr : t }

let chroma_dim d = (d + 1) / 2

(* Integer BT.601 full-range conversion, reading and writing the
   raster's RGB bytes directly. Chroma is the truncated mean of each
   2x2 site's per-pixel chroma (fewer pixels at odd right and bottom
   edges). *)
let of_raster img =
  let w = Image.Raster.width img and h = Image.Raster.height img in
  let rgb = Image.Raster.data img in
  let cw = chroma_dim w and ch = chroma_dim h in
  let yp = create ~width:w ~height:h in
  let cbp = create ~width:cw ~height:ch in
  let crp = create ~width:cw ~height:ch in
  for y = 0 to h - 1 do
    let crow = (y / 2) * cw in
    for x = 0 to w - 1 do
      let o = 3 * ((y * w) + x) in
      let r = Char.code (Bytes.unsafe_get rgb o)
      and g = Char.code (Bytes.unsafe_get rgb (o + 1))
      and b = Char.code (Bytes.unsafe_get rgb (o + 2)) in
      yp.samples.((y * w) + x) <- ((19595 * r) + (38470 * g) + (7471 * b) + 32768) lsr 16;
      let ci = crow + (x / 2) in
      cbp.samples.(ci) <-
        cbp.samples.(ci) + 128 + (((-11056 * r) - (21712 * g) + (32768 * b)) asr 16);
      crp.samples.(ci) <-
        crp.samples.(ci) + 128 + (((32768 * r) - (27440 * g) - (5328 * b)) asr 16)
    done
  done;
  for cy = 0 to ch - 1 do
    for cx = 0 to cw - 1 do
      let count = min 2 (w - (2 * cx)) * min 2 (h - (2 * cy)) in
      let ci = (cy * cw) + cx in
      cbp.samples.(ci) <- cbp.samples.(ci) / count;
      crp.samples.(ci) <- crp.samples.(ci) / count
    done
  done;
  { y = yp; cb = cbp; cr = crp }

let clamp255 v = if v < 0 then 0 else if v > 255 then 255 else v

let padded d = (d + 7) / 8 * 8

let create_ycbcr ~width ~height =
  let cw = padded (chroma_dim width) and ch = padded (chroma_dim height) in
  {
    y = create ~width:(padded width) ~height:(padded height);
    cb = create ~width:cw ~height:ch;
    cr = create ~width:cw ~height:ch;
  }

let ycbcr_samples ~width ~height =
  (padded width * padded height)
  + (2 * padded (chroma_dim width) * padded (chroma_dim height))

type packed = Bytes.t

let ycbcr_length f =
  Array.length f.y.samples + Array.length f.cb.samples + Array.length f.cr.samples

let pack f =
  let out = Bytes.create (ycbcr_length f) in
  let put offset p =
    let s = p.samples in
    for i = 0 to Array.length s - 1 do
      let v = s.(i) in
      if v < 0 || v > 255 then invalid_arg "Plane.pack: sample out of [0, 255]";
      Bytes.unsafe_set out (offset + i) (Char.unsafe_chr v)
    done;
    offset + Array.length s
  in
  ignore (put (put (put 0 f.y) f.cb) f.cr : int);
  out

let unpack_into packed f =
  if Bytes.length packed <> ycbcr_length f then
    invalid_arg "Plane.unpack_into: geometry mismatch";
  let get offset p =
    let s = p.samples in
    for i = 0 to Array.length s - 1 do
      s.(i) <- Char.code (Bytes.unsafe_get packed (offset + i))
    done;
    offset + Array.length s
  in
  ignore (get (get (get 0 f.y) f.cb) f.cr : int)

let packed_bytes = Bytes.length

let to_raster ?width ?height { y = yp; cb = cbp; cr = crp } =
  let w = Option.value width ~default:yp.width
  and h = Option.value height ~default:yp.height in
  if
    w <= 0 || h <= 0 || w > yp.width || h > yp.height
    || chroma_dim w > cbp.width || chroma_dim h > cbp.height
    || chroma_dim w > crp.width || chroma_dim h > crp.height
  then invalid_arg "Plane.to_raster: region exceeds the planes";
  let img = Image.Raster.create ~width:w ~height:h in
  let rgb = Image.Raster.data img in
  for y = 0 to h - 1 do
    let lrow = y * yp.width and cbrow = (y / 2) * cbp.width
    and crrow = (y / 2) * crp.width in
    for x = 0 to w - 1 do
      let ly = yp.samples.(lrow + x) in
      let cb = cbp.samples.(cbrow + (x / 2)) - 128
      and cr = crp.samples.(crrow + (x / 2)) - 128 in
      let o = 3 * ((y * w) + x) in
      Bytes.unsafe_set rgb o (Char.unsafe_chr (clamp255 (ly + ((91881 * cr) asr 16))));
      Bytes.unsafe_set rgb (o + 1)
        (Char.unsafe_chr
           (clamp255 (ly - ((22554 * cb) asr 16) - ((46802 * cr) asr 16))));
      Bytes.unsafe_set rgb (o + 2)
        (Char.unsafe_chr (clamp255 (ly + ((116130 * cb) asr 16))))
    done
  done;
  img

let mean_absolute_difference a b =
  if a.width <> b.width || a.height <> b.height then
    invalid_arg "Plane.mean_absolute_difference: dimension mismatch";
  let sum = ref 0 in
  for i = 0 to Array.length a.samples - 1 do
    sum := !sum + abs (a.samples.(i) - b.samples.(i))
  done;
  float_of_int !sum /. float_of_int (Array.length a.samples)
