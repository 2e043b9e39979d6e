(** Coefficient quantisation.

    JPEG-style base matrices (a flatter one for luma, a steeper one for
    chroma) scaled by a quantiser parameter [qp] in [1, 31], MPEG-1
    style: higher [qp] means coarser steps and a smaller stream. *)

type t
(** A quantiser: a pair of effective step matrices. *)

val make : qp:int -> t
(** Raises [Invalid_argument] for [qp] outside [1, 31]. *)

val qp : t -> int

type plane_kind = Luma | Chroma

val round : float -> int
(** [round x] is [int_of_float (Float.round x)] — nearest, halves away
    from zero — for every [x] whose rounding fits an [int]. *)

val quantise_into : t -> plane_kind -> float array -> int array -> unit
(** [quantise_into q kind coeffs levels] divides 64 DCT coefficients by
    the step matrix and writes them, rounded to nearest, into
    [levels]. Raises [Invalid_argument] unless both have 64
    entries. *)

val dequantise_into : t -> plane_kind -> int array -> float array -> unit
(** [dequantise_into q kind levels coeffs] multiplies back by the step
    matrix. *)

val dc_level : t -> plane_kind -> float -> int
(** [dc_level q kind dc] is the level {!quantise_into} gives coefficient
    0 when its value is [dc]. *)
