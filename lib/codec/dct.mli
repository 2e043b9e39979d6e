(** 8x8 type-II DCT and its inverse, the transform of MPEG/JPEG.

    Blocks are 64-element float arrays in row-major order. The pair is
    orthonormal: the inverse of the forward transform gives the block
    back up to floating-point rounding, so the quantiser is the codec's
    only source of loss. Both write into buffers the caller owns, and
    both raise [Invalid_argument] unless every buffer has 64
    elements. *)

val block_size : int
(** 8. *)

val forward_into : float array -> float array -> unit
(** [forward_into block coeffs] transforms a 64-sample spatial block
    into 64 coefficients, DC first. [coeffs] may be [block]. *)

val inverse_in_place : float array -> work:float array -> unit
(** [inverse_in_place coeffs ~work] overwrites [coeffs] with the
    spatial block, using [work] as scratch. All-zero rows and trailing
    all-zero columns of [coeffs] are skipped; the result is bit for bit
    the dense transform's. *)

val forward_dc : float array -> float
(** [forward_dc block] is coefficient 0 of the forward transform of
    [block], bit for bit, at an eighth of the cost. *)
