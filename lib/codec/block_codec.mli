(** Transform coding of a single 8x8 block — the kernel shared by the
    encoder (which also reconstructs, to keep its reference frames in
    lock-step with the decoder) and the decoder.

    Blocks of samples, predictions and levels are 64-entry row-major
    [int array]s the caller owns; the transform's float buffers live in
    a {!scratch}. *)

type scratch
(** Float buffers for one block at a time. Not shareable between
    domains. *)

val scratch : unit -> scratch

val code_intra :
  scratch -> Quant.t -> Quant.plane_kind -> int array -> int array -> unit
(** [code_intra s q kind samples levels] centres the 64 samples at 0,
    applies the DCT and quantises into [levels]. *)

val intra_cost_bound : scratch -> Quant.t -> Quant.plane_kind -> int array -> int
(** [intra_cost_bound s q kind samples] is a lower bound on the bits
    of an intra-coded block — its mode bit plus
    {!Coeff.bit_cost} of what {!code_intra} gives — from the DC level
    alone, at an eighth of a transform. *)

val code_inter :
  scratch -> Quant.t -> Quant.plane_kind -> samples:int array ->
  prediction:int array -> int array -> unit
(** [code_inter s q kind ~samples ~prediction levels] codes the residual
    [samples - prediction] into [levels]. *)

val reconstruct_intra :
  scratch -> Quant.t -> Quant.plane_kind -> int array -> Plane.t -> x:int ->
  y:int -> unit
(** [reconstruct_intra s q kind levels p ~x ~y] writes the block that
    [levels] decode to — dequantised, inverse-transformed, un-centred
    and rounded — into [p] at [(x, y)]. Raises [Invalid_argument]
    unless the block lies inside [p]. *)

val reconstruct_inter :
  scratch -> Quant.t -> Quant.plane_kind -> prediction:int array -> int array ->
  Plane.t -> x:int -> y:int -> unit
(** Like {!reconstruct_intra}, adding the decoded residual onto the
    prediction. *)
