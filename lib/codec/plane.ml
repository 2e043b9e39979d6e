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

let equal a b = a.width = b.width && a.height = b.height && a.samples = b.samples

type ycbcr = { y : t; cb : t; cr : t }

let chroma_dim d = (d + 1) / 2

let clamp255 v = if v < 0 then 0 else if v > 255 then 255 else v

let padded d = (d + 7) / 8 * 8

let create_ycbcr ~width ~height =
  let cw = padded (chroma_dim width) and ch = padded (chroma_dim height) in
  {
    y = create ~width:(padded width) ~height:(padded height);
    cb = create ~width:cw ~height:ch;
    cr = create ~width:cw ~height:ch;
  }

(* Edge replication of a [width] x [height] picture out to the whole
   plane: the columns right of it repeat its last column, the rows
   below it its last row. Plain loops: see [Motion.extend_into]. *)
let replicate_edges p ~width ~height =
  let s = p.samples and pw = p.width in
  for y = 0 to height - 1 do
    let o = y * pw in
    let last = s.(o + width - 1) in
    for x = width to pw - 1 do
      s.(o + x) <- last
    done
  done;
  let last_row = (height - 1) * pw in
  for y = height to p.height - 1 do
    let o = y * pw in
    for x = 0 to pw - 1 do
      s.(o + x) <- s.(last_row + x)
    done
  done

(* Integer BT.601 full-range conversion, reading the raster's RGB bytes
   directly, one 2x2 chroma site at a time: each site's luma samples,
   then the truncated mean of their per-pixel chroma (fewer pixels at
   odd right and bottom edges). *)
let of_raster_into img f =
  let w = Image.Raster.width img and h = Image.Raster.height img in
  let cw = chroma_dim w and ch = chroma_dim h in
  let { y = yp; cb = cbp; cr = crp } = f in
  if
    yp.width <> padded w || yp.height <> padded h
    || cbp.width <> padded cw || cbp.height <> padded ch
    || crp.width <> padded cw || crp.height <> padded ch
    || Array.length yp.samples <> yp.width * yp.height
    || Array.length cbp.samples <> cbp.width * cbp.height
    || Array.length crp.samples <> crp.width * crp.height
  then invalid_arg "Plane.of_raster_into: planes do not match the picture";
  let rgb = Image.Raster.data img in
  let ys = yp.samples and yw = yp.width and cs = cbp.width in
  (* In bounds: the planes were checked against the picture above, and
     the raster holds 3 * w * h bytes. *)
  for cy = 0 to ch - 1 do
    let sites_y = Int.min 2 (h - (2 * cy)) in
    for cx = 0 to cw - 1 do
      let sites_x = Int.min 2 (w - (2 * cx)) in
      let cb = ref 0 and cr = ref 0 in
      for dy = 0 to sites_y - 1 do
        let y = (2 * cy) + dy in
        for dx = 0 to sites_x - 1 do
          let x = (2 * cx) + dx in
          let o = 3 * ((y * w) + x) in
          let r = Char.code (Bytes.unsafe_get rgb o)
          and g = Char.code (Bytes.unsafe_get rgb (o + 1))
          and b = Char.code (Bytes.unsafe_get rgb (o + 2)) in
          Array.unsafe_set ys ((y * yw) + x)
            (((19595 * r) + (38470 * g) + (7471 * b) + 32768) lsr 16);
          cb := !cb + 128 + (((-11056 * r) - (21712 * g) + (32768 * b)) asr 16);
          cr := !cr + 128 + (((32768 * r) - (27440 * g) - (5328 * b)) asr 16)
        done
      done;
      let count = sites_x * sites_y and ci = (cy * cs) + cx in
      Array.unsafe_set cbp.samples ci (!cb / count);
      Array.unsafe_set crp.samples ci (!cr / count)
    done
  done;
  replicate_edges yp ~width:w ~height:h;
  replicate_edges cbp ~width:cw ~height:ch;
  replicate_edges crp ~width:cw ~height:ch

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
