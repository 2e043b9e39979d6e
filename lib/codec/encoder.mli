(** The video encoder.

    An MPEG-1-style closed-loop encoder: I-frames are fully
    intra-coded; P-frames predict each 8x8 luma block from the
    *reconstructed* previous frame via full-search motion estimation,
    choosing intra or inter per block by exact bit cost. Chroma blocks
    derive mode and (halved) vector from the co-located luma block, so
    they need no mode syntax of their own. *)

type encoded = {
  data : string;  (** the complete bitstream, header included *)
  width : int;
  height : int;
  fps : float;
  frame_count : int;
  params : Stream.params;
  frame_sizes_bits : int array;  (** per-frame payload size *)
  frame_types : Stream.frame_type array;
  reconstruction : Image.Raster.t array;
      (** the encoder's own reconstruction of every frame, at the
          clip's size: [reconstruction.(i)] equals
          [(Decoder.decode data).frames.(i)] byte for byte, because
          the encoder predicts from exactly the clamped planes the
          decoder rebuilds. The client takes these pictures instead of
          decoding frames whose prediction chain arrived intact, and
          shares them between sessions: nothing may write into them. *)
  references : Plane.packed array;
      (** [references.(i)] is the decoder's prediction reference after
          frame [i]: the clamped, padded planes the encoder predicts
          frame [i + 1] from, at one byte per sample. A client that
          lost frames after [i] resumes decoding from it
          ({!Decoder.resume}), so it never decodes a frame the encoder
          already reconstructed. *)
}

val encode_clip :
  ?params:Stream.params ->
  ?i_frame_at:(int -> bool) ->
  ?qp_for:(index:int -> total_bits:int -> int) ->
  Video.Clip.t ->
  encoded
(** [encode_clip ?params clip] encodes every frame. [i_frame_at]
    overrides the fixed-period GOP structure: frame [i] is intra-coded
    whenever [i_frame_at i] holds (frame 0 is always intra). Content-
    aware callers place I-frames at scene cuts, where a P-frame would
    be nearly as large but leave the GOP open (see {!Gop_planner}).
    [qp_for] chooses each frame's quantiser, receiving the bits written
    so far — the hook single-pass rate control steers (see
    {!Rate_control.single_pass}); it must return values in [1, 31].
    Raises [Invalid_argument] on invalid parameters or an empty
    clip. *)

val total_bytes : encoded -> int

val mean_frame_bytes : encoded -> float

val pp_summary : Format.formatter -> encoded -> unit
