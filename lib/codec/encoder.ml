type encoded = {
  data : string;
  width : int;
  height : int;
  fps : float;
  frame_count : int;
  params : Stream.params;
  frame_sizes_bits : int array;
  frame_types : Stream.frame_type array;
  reconstruction : Image.Raster.t array;
  references : Plane.packed array;
}

let obs_frames_encoded =
  let family t =
    Obs.counter ~help:"Frames pushed through the encoder"
      "codec_frames_encoded_total"
      [ ("type", t) ]
  in
  let i = family "I" and p = family "P" in
  function Stream.I_frame -> i | Stream.P_frame -> p

let obs_encoded_bytes =
  Obs.counter ~help:"Total compressed stream bytes produced"
    "codec_encoded_bytes_total" []

let obs_encode_frame_seconds =
  Obs.histogram ~help:"Wall-clock time encoding one frame"
    "codec_encode_frame_seconds" []

type luma_mode = Intra | Inter of Motion.vector

(* Bit cost of coding a motion vector. *)
let vector_cost (v : Motion.vector) =
  Golomb.se_bit_length v.Motion.dx + Golomb.se_bit_length v.Motion.dy

let write_header w ~width ~height ~fps ~frame_count (p : Stream.params) =
  String.iter (fun c -> Bitio.Writer.put_byte_aligned w (Char.code c)) Stream.magic;
  Bitio.Writer.put_byte_aligned w Stream.version;
  Golomb.write_ue w width;
  Golomb.write_ue w height;
  Golomb.write_ue w (int_of_float ((fps *. 1000.) +. 0.5));
  Golomb.write_ue w frame_count;
  Golomb.write_ue w p.Stream.gop;
  Golomb.write_ue w p.Stream.qp;
  Golomb.write_ue w p.Stream.search_range

(* The encoder's block buffers, reused for every block of a clip: the
   current block, two inter candidates (prediction and levels) and the
   intra levels. *)
type scratch = {
  block : Block_codec.scratch;
  samples : int array;
  pred_a : int array;
  levels_a : int array;
  pred_b : int array;
  levels_b : int array;
  intra_levels : int array;
}

let scratch () =
  let buf () = Array.make 64 0 in
  {
    block = Block_codec.scratch ();
    samples = buf ();
    pred_a = buf ();
    levels_a = buf ();
    pred_b = buf ();
    levels_b = buf ();
    intra_levels = buf ();
  }

(* Codes one luma plane of a P frame and reconstructs it in place into
   [recon]; returns the per-block mode grid. *)
let code_luma_p s w q ~search_range ~(current : Plane.t)
    ~(reference : Motion.reference) ~(recon : Plane.t) =
  let bw = current.Plane.width / 8 and bh = current.Plane.height / 8 in
  let modes = Array.make (bw * bh) Intra in
  let samples = s.samples in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      Motion.extract_block current ~x ~y samples;
      (* Candidate 1: inter with the best motion vector, integer search
         then half-pel refinement. *)
      let searched =
        if Motion.sad ~bound:127 current reference ~x ~y Motion.zero < 128 then
          (* Near-perfect zero-vector prediction (static content):
             half-pel refinement could only trade exact samples for
             interpolated ones. *)
          Motion.zero
        else begin
          let integer_vec, integer_sad =
            Motion.search ~range:search_range ~current ~reference ~x ~y ()
          in
          let refined, refined_sad =
            Motion.refine_halfpel ~current ~reference ~x ~y integer_vec
          in
          if refined_sad < integer_sad then refined else Motion.to_halfpel integer_vec
        end
      in
      (* SAD-best is not bits-best: evaluate the searched vector and the
         zero vector by exact bit cost, then compare with intra. *)
      let inter_cost prediction levels vector =
        Motion.predict_halfpel reference ~x ~y vector prediction;
        Block_codec.code_inter s.block q Quant.Luma ~samples ~prediction levels;
        1 + vector_cost vector + Coeff.bit_cost levels
      in
      let searched_cost = inter_cost s.pred_a s.levels_a searched in
      let zero_cost =
        if searched.Motion.dx = 0 && searched.Motion.dy = 0 then max_int
        else inter_cost s.pred_b s.levels_b Motion.zero
      in
      let vec, prediction, inter_levels, inter_cost =
        if zero_cost < searched_cost then (Motion.zero, s.pred_b, s.levels_b, zero_cost)
        else (searched, s.pred_a, s.levels_a, searched_cost)
      in
      (* Candidate 2: intra, unless its cost bound already loses: ties
         go to inter. *)
      let inter_wins =
        inter_cost <= Block_codec.intra_cost_bound s.block q Quant.Luma samples
        || begin
          Block_codec.code_intra s.block q Quant.Luma samples s.intra_levels;
          inter_cost <= 1 + Coeff.bit_cost s.intra_levels
        end
      in
      if inter_wins then begin
        modes.((by * bw) + bx) <- Inter vec;
        Golomb.write_ue w 0;
        Golomb.write_se w vec.Motion.dx;
        Golomb.write_se w vec.Motion.dy;
        Coeff.write_block w inter_levels;
        Block_codec.reconstruct_inter s.block q Quant.Luma ~prediction inter_levels
          recon ~x ~y
      end
      else begin
        Golomb.write_ue w 1;
        Coeff.write_block w s.intra_levels;
        Block_codec.reconstruct_intra s.block q Quant.Luma s.intra_levels recon ~x ~y
      end
    done
  done;
  modes

let code_plane_intra s w q kind ~(current : Plane.t) ~(recon : Plane.t) =
  let bw = current.Plane.width / 8 and bh = current.Plane.height / 8 in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      Motion.extract_block current ~x ~y s.samples;
      Block_codec.code_intra s.block q kind s.samples s.intra_levels;
      Coeff.write_block w s.intra_levels;
      Block_codec.reconstruct_intra s.block q kind s.intra_levels recon ~x ~y
    done
  done

(* Chroma of a P frame: mode and vector derived from the co-located
   luma block (top-left of the 16x16 luma area), so only the residual
   is written. *)
let code_chroma_p s w q ~luma_modes ~luma_bw ~luma_bh ~(current : Plane.t)
    ~(reference : Motion.reference) ~(recon : Plane.t) =
  let bw = current.Plane.width / 8 and bh = current.Plane.height / 8 in
  let samples = s.samples and prediction = s.pred_a and levels = s.levels_a in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      Motion.extract_block current ~x ~y samples;
      let lx = Int.min (2 * bx) (luma_bw - 1) and ly = Int.min (2 * by) (luma_bh - 1) in
      match luma_modes.((ly * luma_bw) + lx) with
      | Inter vec ->
        Motion.predict reference ~x ~y (Motion.chroma_vector vec) prediction;
        Block_codec.code_inter s.block q Quant.Chroma ~samples ~prediction levels;
        Coeff.write_block w levels;
        Block_codec.reconstruct_inter s.block q Quant.Chroma ~prediction levels recon
          ~x ~y
      | Intra ->
        Block_codec.code_intra s.block q Quant.Chroma samples levels;
        Coeff.write_block w levels;
        Block_codec.reconstruct_intra s.block q Quant.Chroma levels recon ~x ~y
    done
  done

let encode_clip_impl ~params ?i_frame_at ?qp_for clip =
  if params.Stream.qp < 1 || params.Stream.qp > 31 then
    invalid_arg "Encoder: qp out of [1, 31]";
  if params.Stream.gop < 1 then invalid_arg "Encoder: gop must be positive";
  if params.Stream.search_range < 0 then invalid_arg "Encoder: negative search range";
  let frame_count = clip.Video.Clip.frame_count in
  if frame_count = 0 then invalid_arg "Encoder: empty clip";
  let w = Bitio.Writer.create () in
  write_header w ~width:clip.Video.Clip.width ~height:clip.Video.Clip.height
    ~fps:clip.Video.Clip.fps ~frame_count params;
  let frame_sizes_bits = Array.make frame_count 0 in
  let frame_types = Array.make frame_count Stream.I_frame in
  let reconstruction = Array.make frame_count (Image.Raster.create ~width:1 ~height:1) in
  (* One reconstruction and one edge-extended reference serve the whole
     clip: coding rewrites every block of the padded planes, and the
     reference is refreshed from the clamped reconstruction once a
     frame is coded. *)
  let recon =
    Plane.create_ycbcr ~width:clip.Video.Clip.width ~height:clip.Video.Clip.height
  in
  let ref_y = Motion.extend recon.Plane.y
  and ref_cb = Motion.extend recon.Plane.cb
  and ref_cr = Motion.extend recon.Plane.cr in
  let references = Array.make frame_count (Plane.pack recon) in
  let frame =
    Plane.create_ycbcr ~width:clip.Video.Clip.width ~height:clip.Video.Clip.height
  in
  let s = scratch () in
  for i = 0 to frame_count - 1 do
    let obs_t0 = if Obs.enabled () then Obs.Clock.now_ns () else 0L in
    Plane.of_raster_into (clip.Video.Clip.render i) frame;
    let is_i =
      (match i_frame_at with
      | Some predicate -> predicate i
      | None -> i mod params.Stream.gop = 0)
      || i = 0
    in
    Bitio.Writer.align w;
    let start_bits = Bitio.Writer.bit_length w in
    (* Per-frame quantiser: adaptive callers steer the rate here. *)
    let qp =
      match qp_for with
      | None -> params.Stream.qp
      | Some f -> f ~index:i ~total_bits:start_bits
    in
    if qp < 1 || qp > 31 then invalid_arg "Encoder: controller qp out of [1, 31]";
    let q = Quant.make ~qp in
    Bitio.Writer.put_byte_aligned w (if is_i then Char.code 'I' else Char.code 'P');
    Bitio.Writer.put_byte_aligned w qp;
    (if is_i then begin
       frame_types.(i) <- Stream.I_frame;
       code_plane_intra s w q Quant.Luma ~current:frame.Plane.y ~recon:recon.Plane.y;
       code_plane_intra s w q Quant.Chroma ~current:frame.Plane.cb ~recon:recon.Plane.cb;
       code_plane_intra s w q Quant.Chroma ~current:frame.Plane.cr ~recon:recon.Plane.cr
     end
     else begin
       frame_types.(i) <- Stream.P_frame;
       let luma_bw = frame.Plane.y.Plane.width / 8
       and luma_bh = frame.Plane.y.Plane.height / 8 in
       let modes =
         code_luma_p s w q ~search_range:params.Stream.search_range
           ~current:frame.Plane.y ~reference:ref_y ~recon:recon.Plane.y
       in
       code_chroma_p s w q ~luma_modes:modes ~luma_bw ~luma_bh
         ~current:frame.Plane.cb ~reference:ref_cb ~recon:recon.Plane.cb;
       code_chroma_p s w q ~luma_modes:modes ~luma_bw ~luma_bh
         ~current:frame.Plane.cr ~reference:ref_cr ~recon:recon.Plane.cr
     end);
    Plane.clamp recon.Plane.y;
    Plane.clamp recon.Plane.cb;
    Plane.clamp recon.Plane.cr;
    (* The decoder clamps the same planes and converts them the same
       way, so this is the picture it will show. *)
    reconstruction.(i) <-
      Plane.to_raster ~width:clip.Video.Clip.width ~height:clip.Video.Clip.height
        recon;
    references.(i) <- Plane.pack recon;
    if i < frame_count - 1 then begin
      Motion.extend_into ref_y recon.Plane.y;
      Motion.extend_into ref_cb recon.Plane.cb;
      Motion.extend_into ref_cr recon.Plane.cr
    end;
    frame_sizes_bits.(i) <- Bitio.Writer.bit_length w - start_bits;
    if Obs.enabled () then begin
      Obs.Metrics.Counter.incr (obs_frames_encoded frame_types.(i));
      Obs.Metrics.Histogram.observe obs_encode_frame_seconds
        (Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns ~since:obs_t0))
    end
  done;
  Obs.Metrics.Counter.incr obs_encoded_bytes
    ~by:((Bitio.Writer.bit_length w + 7) / 8);
  {
    data = Bitio.Writer.contents w;
    width = clip.Video.Clip.width;
    height = clip.Video.Clip.height;
    fps = clip.Video.Clip.fps;
    frame_count;
    params;
    frame_sizes_bits;
    frame_types;
    reconstruction;
    references;
  }

let encode_clip ?(params = Stream.default_params) ?i_frame_at ?qp_for clip =
  Obs.Trace.with_span "codec.encode"
    ~attrs:
      [
        ("clip", clip.Video.Clip.name);
        ("frames", string_of_int clip.Video.Clip.frame_count);
      ]
    (fun () -> encode_clip_impl ~params ?i_frame_at ?qp_for clip)

let total_bytes e = String.length e.data

let mean_frame_bytes e =
  float_of_int (Array.fold_left ( + ) 0 e.frame_sizes_bits)
  /. 8. /. float_of_int e.frame_count

let pp_summary ppf e =
  Format.fprintf ppf "<stream %dx%d %d frames qp=%d %d bytes (%.0f B/frame)>"
    e.width e.height e.frame_count e.params.Stream.qp (total_bytes e)
    (mean_frame_bytes e)
