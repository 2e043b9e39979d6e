type decoded = {
  width : int;
  height : int;
  fps : float;
  params : Stream.params;
  frames : Image.Raster.t array;
}

type stream_info = {
  info_width : int;
  info_height : int;
  info_fps : float;
  info_frame_count : int;
  info_params : Stream.params;
  header_bytes : int;
}

type reference = Plane.ycbcr

type luma_mode = Intra | Inter of Motion.vector

let obs_frames_decoded =
  let family t =
    Obs.counter ~help:"Frames reconstructed by the decoder"
      "codec_frames_decoded_total"
      [ ("type", t) ]
  in
  let i = family "I" and p = family "P" in
  fun marker -> if marker = Char.code 'I' then i else p

let obs_decoded_bytes =
  Obs.counter ~help:"Compressed stream bytes consumed by the decoder"
    "codec_decoded_bytes_total" []

let obs_decode_frame_seconds =
  Obs.histogram ~help:"Wall-clock time decoding one frame"
    "codec_decode_frame_seconds" []

exception Corrupt of string

let fail msg = raise (Corrupt msg)

let read_header r =
  String.iter
    (fun c ->
      if Bitio.Reader.get_byte_aligned r <> Char.code c then fail "bad magic")
    Stream.magic;
  if Bitio.Reader.get_byte_aligned r <> Stream.version then fail "bad version";
  let width = Golomb.read_ue r in
  let height = Golomb.read_ue r in
  let fps = float_of_int (Golomb.read_ue r) /. 1000. in
  let frame_count = Golomb.read_ue r in
  let gop = Golomb.read_ue r in
  let qp = Golomb.read_ue r in
  let search_range = Golomb.read_ue r in
  if width <= 0 || height <= 0 then fail "bad dimensions";
  if width > 8192 || height > 8192 then fail "implausible dimensions";
  if fps <= 0. then fail "bad fps";
  if qp < 1 || qp > 31 then fail "bad qp";
  if gop < 1 then fail "bad gop";
  Bitio.Reader.align r;
  {
    info_width = width;
    info_height = height;
    info_fps = fps;
    info_frame_count = frame_count;
    info_params = { Stream.qp; gop; search_range };
    header_bytes = Bitio.Reader.position_bits r / 8;
  }

let parse_header data =
  match read_header (Bitio.Reader.of_string data) with
  | info -> Ok info
  | exception Corrupt msg -> Error msg
  | exception Bitio.Reader.Out_of_bits -> Error "truncated header"

(* The decoder's block buffers: one set serves every block of every
   frame a cursor or a frame-level decode rebuilds. *)
type scratch = {
  block : Block_codec.scratch;
  levels : int array;
  prediction : int array;
}

let scratch () =
  { block = Block_codec.scratch (); levels = Array.make 64 0; prediction = Array.make 64 0 }

let decode_plane_intra s r q kind (plane : Plane.t) =
  let bw = plane.Plane.width / 8 and bh = plane.Plane.height / 8 in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      Coeff.read_block_into r s.levels;
      Block_codec.reconstruct_intra s.block q kind s.levels plane ~x:(bx * 8)
        ~y:(by * 8)
    done
  done

let decode_luma_p s r q ~(reference : Motion.reference) (plane : Plane.t) =
  let bw = plane.Plane.width / 8 and bh = plane.Plane.height / 8 in
  let modes = Array.make (bw * bh) Intra in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      match Golomb.read_ue r with
      | 0 ->
        let dx = Golomb.read_se r in
        let dy = Golomb.read_se r in
        (* Vectors are coded in half-pel units. *)
        let vec = { Motion.dx; dy } in
        Coeff.read_block_into r s.levels;
        Motion.predict_halfpel reference ~x ~y vec s.prediction;
        modes.((by * bw) + bx) <- Inter vec;
        Block_codec.reconstruct_inter s.block q Quant.Luma ~prediction:s.prediction
          s.levels plane ~x ~y
      | 1 ->
        Coeff.read_block_into r s.levels;
        Block_codec.reconstruct_intra s.block q Quant.Luma s.levels plane ~x ~y
      | m -> fail (Printf.sprintf "bad block mode %d" m)
    done
  done;
  modes

let decode_chroma_p s r q ~luma_modes ~luma_bw ~luma_bh
    ~(reference : Motion.reference) (plane : Plane.t) =
  let bw = plane.Plane.width / 8 and bh = plane.Plane.height / 8 in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      let lx = Int.min (2 * bx) (luma_bw - 1) and ly = Int.min (2 * by) (luma_bh - 1) in
      Coeff.read_block_into r s.levels;
      match luma_modes.((ly * luma_bw) + lx) with
      | Inter vec ->
        Motion.predict reference ~x ~y (Motion.chroma_vector vec) s.prediction;
        Block_codec.reconstruct_inter s.block q Quant.Chroma ~prediction:s.prediction
          s.levels plane ~x ~y
      | Intra -> Block_codec.reconstruct_intra s.block q Quant.Chroma s.levels plane ~x ~y
    done
  done

(* The fewest bits a frame of this geometry can take: its marker and
   qp bytes, then at least one bit per 8x8 block (a coefficient count
   or a block mode). Frame counts and dimensions from a header are
   checked against the input that remains before anything of their
   size is allocated. *)
let min_frame_bits info =
  let blocks d = (d + 7) / 8 in
  let chroma_blocks d = blocks ((d + 1) / 2) in
  16
  + (blocks info.info_width * blocks info.info_height)
  + (2 * chroma_blocks info.info_width * chroma_blocks info.info_height)

let raster_of_planes info planes =
  Plane.to_raster ~width:info.info_width ~height:info.info_height planes

let extend_planes (p : Plane.ycbcr) =
  (Motion.extend p.Plane.y, Motion.extend p.Plane.cb, Motion.extend p.Plane.cr)

(* Decodes one frame from the reader's current (aligned) position into
   [planes], predicting from the edge-extended [reference] planes.
   Every block of [planes] is rewritten. *)
let decode_frame_body s r ~reference ~planes =
  Bitio.Reader.align r;
  let obs_t0 = if Obs.enabled () then Obs.Clock.now_ns () else 0L in
  let obs_start_bits = Bitio.Reader.position_bits r in
  let marker = Bitio.Reader.get_byte_aligned r in
  let qp = Bitio.Reader.get_byte_aligned r in
  if qp < 1 || qp > 31 then fail "bad frame qp";
  let q = Quant.make ~qp in
  (match (Char.chr marker, reference) with
  | 'I', _ ->
    decode_plane_intra s r q Quant.Luma planes.Plane.y;
    decode_plane_intra s r q Quant.Chroma planes.Plane.cb;
    decode_plane_intra s r q Quant.Chroma planes.Plane.cr
  | 'P', Some (ref_y, ref_cb, ref_cr) ->
    let luma_bw = planes.Plane.y.Plane.width / 8
    and luma_bh = planes.Plane.y.Plane.height / 8 in
    let modes = decode_luma_p s r q ~reference:ref_y planes.Plane.y in
    decode_chroma_p s r q ~luma_modes:modes ~luma_bw ~luma_bh
      ~reference:ref_cb planes.Plane.cb;
    decode_chroma_p s r q ~luma_modes:modes ~luma_bw ~luma_bh
      ~reference:ref_cr planes.Plane.cr
  | 'P', None -> fail "P frame without reference"
  | _ -> fail "bad frame marker"
  | exception Invalid_argument _ -> fail "bad frame marker");
  Plane.clamp planes.Plane.y;
  Plane.clamp planes.Plane.cb;
  Plane.clamp planes.Plane.cr;
  if Obs.enabled () then begin
    Obs.Metrics.Counter.incr (obs_frames_decoded marker);
    Obs.Metrics.Counter.incr obs_decoded_bytes
      ~by:((Bitio.Reader.position_bits r - obs_start_bits + 7) / 8);
    Obs.Metrics.Histogram.observe obs_decode_frame_seconds
      (Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns ~since:obs_t0))
  end

(* Runs [body] on a reader over one frame payload, with the failures of
   a frame decode as [Error] reasons. *)
let decode_payload info payload body =
  let r = Bitio.Reader.of_string payload in
  match
    if Bitio.Reader.bits_remaining r < min_frame_bits info then
      raise Bitio.Reader.Out_of_bits;
    body r
  with
  | v -> Ok v
  | exception Corrupt msg -> Error msg
  | exception Bitio.Reader.Out_of_bits -> Error "truncated frame"
  | exception Invalid_argument msg -> Error msg

(* At the codec's padded geometry: padding replicates edges, which
   prediction reads do anyway. *)
let reference_of_raster raster =
  let f =
    Plane.create_ycbcr ~width:(Image.Raster.width raster)
      ~height:(Image.Raster.height raster)
  in
  Plane.of_raster_into raster f;
  f

let raster_of_reference ~width ~height planes = Plane.to_raster ~width ~height planes

(* The reference picture may come from concealment at display size.
   It needs no re-padding to the codec's working geometry: padding
   replicates edges, and prediction reads are edge-clamped anyway. *)
let decode_frame ~info ~reference payload =
  decode_payload info payload (fun r ->
      let planes = Plane.create_ycbcr ~width:info.info_width ~height:info.info_height in
      decode_frame_body (scratch ()) r ~reference:(Option.map extend_planes reference)
        ~planes;
      (raster_of_planes info planes, planes))

(* One set of planes and one extended reference serve every frame: the
   reference is refreshed from the planes just before a frame that may
   predict from them is decoded over them. *)
type cursor = {
  c_info : stream_info;
  planes : Plane.ycbcr;
  reference : Motion.reference * Motion.reference * Motion.reference;
  scratch : scratch;
  mutable loaded : bool;  (* [planes] hold a picture to predict from *)
}

let cursor info =
  let planes = Plane.create_ycbcr ~width:info.info_width ~height:info.info_height in
  {
    c_info = info;
    planes;
    reference = extend_planes planes;
    scratch = scratch ();
    loaded = false;
  }

let resume c packed =
  Plane.unpack_into packed c.planes;
  c.loaded <- true

let step c r =
  let reference =
    if c.loaded then begin
      let ref_y, ref_cb, ref_cr = c.reference in
      Motion.extend_into ref_y c.planes.Plane.y;
      Motion.extend_into ref_cb c.planes.Plane.cb;
      Motion.extend_into ref_cr c.planes.Plane.cr;
      Some c.reference
    end
    else None
  in
  decode_frame_body c.scratch r ~reference ~planes:c.planes;
  c.loaded <- true

let advance c payload = decode_payload c.c_info payload (step c)

let picture c = raster_of_planes c.c_info c.planes

let decode_body r =
  let info = read_header r in
  let count = info.info_frame_count in
  if count > Bitio.Reader.bits_remaining r / min_frame_bits info then
    raise Bitio.Reader.Out_of_bits;
  let frames = Array.make count (Image.Raster.create ~width:1 ~height:1) in
  if count > 0 then begin
    let c = cursor info in
    for i = 0 to count - 1 do
      step c r;
      frames.(i) <- picture c
    done
  end;
  {
    width = info.info_width;
    height = info.info_height;
    fps = info.info_fps;
    params = info.info_params;
    frames;
  }

let decode data =
  Obs.Trace.with_span "codec.decode"
    ~attrs:[ ("bytes", string_of_int (String.length data)) ]
    (fun () ->
      let r = Bitio.Reader.of_string data in
      match decode_body r with
      | d -> Ok d
      | exception Corrupt msg -> Error msg
      | exception Bitio.Reader.Out_of_bits -> Error "truncated stream"
      | exception Invalid_argument msg -> Error msg)

let decode_exn data =
  match decode data with Ok d -> d | Error msg -> failwith ("Decoder: " ^ msg)
