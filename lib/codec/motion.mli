(** Block motion estimation and compensation.

    Full-search over a square window on 8x8 luma blocks with
    sum-of-absolute-differences matching; ties prefer the shorter
    vector so static content codes as (0, 0). Chroma reuses the luma
    vector halved (4:2:0 geometry).

    Every reference read is edge-clamped: a sample outside the plane
    reads the nearest edge sample, as {!Plane.get} does. Reads go
    through an edge-extended copy of the reference ({!extend}) instead
    of clamping each coordinate, so a vector of any length is served
    from one flat array. *)

type vector = { dx : int; dy : int }

val zero : vector

type reference
(** A reference plane with its edges replicated [margin] samples out
    on every side. *)

val margin : int
(** 8: enough for any vector, because a vector that reads wholly past
    an edge is first pulled back to the nearest one reading the same
    edge samples (and, for half-pel vectors, the same interpolation
    kind). *)

val extend : Plane.t -> reference
(** [extend p] is the edge-extended copy of [p] that motion search and
    prediction read. *)

val extend_into : reference -> Plane.t -> unit
(** [extend_into r p] overwrites [r] with the edge-extended copy of
    [p], reusing its storage. Raises [Invalid_argument] unless [p] has
    the dimensions [r] was made for. *)

val sad :
  bound:int -> Plane.t -> reference -> x:int -> y:int -> vector -> int
(** [sad ~bound current reference ~x ~y v] is the SAD between the 8x8
    block of [current] at [(x, y)] and the reference block displaced
    by [v], when that SAD is at most [bound]. Otherwise it is some
    partial sum greater than [bound] (the sum stops early). The
    current block must lie inside [current]; raises [Invalid_argument]
    otherwise. *)

val search :
  ?range:int -> current:Plane.t -> reference:reference -> x:int -> y:int ->
  unit -> vector * int
(** [search ?range ~current ~reference ~x ~y ()] is the best vector
    within [[-range, range]] on both axes (default 7) and its SAD. Best
    is the least SAD, then the least [|dx| + |dy|], then the first in
    raster order ([dy], then [dx], ascending). *)

val extract_block : Plane.t -> x:int -> y:int -> int array -> unit
(** [extract_block p ~x ~y out] writes the 8x8 block of [p] at
    [(x, y)] into [out], row-major. The block must lie inside the plane
    and [out] must have 64 entries; raises [Invalid_argument]
    otherwise. *)

val predict : reference -> x:int -> y:int -> vector -> int array -> unit
(** [predict r ~x ~y v out] writes the reference block displaced by an
    integer-pel vector into [out]. *)

val halve : vector -> vector
(** Chroma vector: arithmetic halving towards zero. *)

(** {1 Half-pel precision}

    Half-pel vectors measure displacement in half-sample units;
    fractional positions are bilinearly interpolated from the four
    surrounding integer samples (MPEG-1 style, with round-to-nearest
    averaging). *)

val to_halfpel : vector -> vector
(** [to_halfpel v] converts an integer-pel vector to half-pel units
    (doubles both components). *)

val predict_halfpel : reference -> x:int -> y:int -> vector -> int array -> unit
(** [predict_halfpel r ~x ~y v out] writes the reference block
    displaced by a *half-pel* vector, bilinearly interpolated, into
    [out]. *)

val sad_halfpel :
  bound:int -> Plane.t -> reference -> x:int -> y:int -> vector -> int
(** SAD against the interpolated prediction for a half-pel vector,
    bounded like {!sad}. *)

val refine_halfpel :
  current:Plane.t -> reference:reference -> x:int -> y:int -> vector -> vector * int
(** [refine_halfpel ~current ~reference ~x ~y best_integer] searches
    the eight half-pel positions around an integer-pel winner and
    returns the best *half-pel* vector (possibly the doubled integer
    one) with its SAD. A neighbour replaces the current best only with
    a strictly smaller SAD, so the doubled integer vector wins ties. *)

val chroma_vector : vector -> vector
(** [chroma_vector v] maps a luma half-pel vector to the co-located
    chroma displacement in integer chroma samples (divide by four,
    flooring) — 4:2:0 geometry with integer-pel chroma prediction. *)
