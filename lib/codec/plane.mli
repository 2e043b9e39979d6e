(** Sample planes and RGB <-> YCbCr conversion.

    The codec works on three planes in BT.601 YCbCr with 4:2:0 chroma
    subsampling, like MPEG-1. Samples are ints; Y is in [0, 255],
    chroma is stored offset by +128 so it also occupies [0, 255]. *)

type t = { width : int; height : int; samples : int array }
(** Row-major plane. Samples may temporarily leave [0, 255] inside the
    codec (residuals); [clamp] restores range. *)

val create : width:int -> height:int -> t

val get : t -> x:int -> y:int -> int
(** Edge-clamped access: coordinates outside the plane read the nearest
    edge sample. *)

val set : t -> x:int -> y:int -> int -> unit
(** Raises [Invalid_argument] out of bounds. *)

val clamp : t -> unit
(** Clamps every sample to [0, 255]. *)

val copy : t -> t

val equal : t -> t -> bool

type ycbcr = { y : t; cb : t; cr : t }
(** 4:2:0 frame: chroma planes have half resolution in each dimension
    (rounded up). *)

val create_ycbcr : width:int -> height:int -> ycbcr
(** [create_ycbcr ~width ~height] is zeroed planes for a [width] x
    [height] picture, each padded to a multiple of 8: the codec's
    working geometry. *)

val of_raster_into : Image.Raster.t -> ycbcr -> unit
(** [of_raster_into img f] overwrites [f], which must have the geometry
    of [create_ycbcr] for [img]'s size, with [img] in BT.601 YCbCr:
    2x2 chroma averaging, then every plane edge-replicated out to its
    padded size. Raises [Invalid_argument] on a geometry mismatch. *)

type packed
(** The samples of a {!ycbcr} at one byte each: luma, then Cb, then Cr,
    row-major. Exact for planes whose samples lie in [0, 255], which is
    what {!clamp} leaves — the planes a decoder predicts from. *)

val pack : ycbcr -> packed
(** Raises [Invalid_argument] if a sample lies outside [0, 255]. *)

val unpack_into : packed -> ycbcr -> unit
(** [unpack_into p f] overwrites [f] with the samples [p] was packed
    from. Raises [Invalid_argument] unless [f] has as many samples as
    [p]. *)

val packed_bytes : packed -> int
(** The number of samples [p] holds, one byte each. *)

val ycbcr_samples : width:int -> height:int -> int
(** The number of samples of [create_ycbcr ~width ~height]: what a
    packed picture of that geometry holds. *)

val to_raster : ?width:int -> ?height:int -> ycbcr -> Image.Raster.t
(** Inverse conversion with chroma upsampling (nearest-neighbour) of
    the top-left [width] x [height] region (default: the whole luma
    plane), without copying the planes. Raises [Invalid_argument] if
    the region exceeds the luma plane or its chroma exceeds the chroma
    planes. *)

val mean_absolute_difference : t -> t -> float
(** Over the common dimensions, which must match. *)
