type plane_kind = Luma | Chroma

(* JPEG Annex K tables, the conventional starting point. *)
let luma_base =
  [|
    16; 11; 10; 16; 24; 40; 51; 61;
    12; 12; 14; 19; 26; 58; 60; 55;
    14; 13; 16; 24; 40; 57; 69; 56;
    14; 17; 22; 29; 51; 87; 80; 62;
    18; 22; 37; 56; 68; 109; 103; 77;
    24; 35; 55; 64; 81; 104; 113; 92;
    49; 64; 78; 87; 103; 121; 120; 101;
    72; 92; 95; 98; 112; 100; 103; 99;
  |]

let chroma_base =
  [|
    17; 18; 24; 47; 99; 99; 99; 99;
    18; 21; 26; 66; 99; 99; 99; 99;
    24; 26; 56; 99; 99; 99; 99; 99;
    47; 66; 99; 99; 99; 99; 99; 99;
    99; 99; 99; 99; 99; 99; 99; 99;
    99; 99; 99; 99; 99; 99; 99; 99;
    99; 99; 99; 99; 99; 99; 99; 99;
    99; 99; 99; 99; 99; 99; 99; 99;
  |]

(* [zero.(i)] is 0.49 times [steps.(i)]: a coefficient smaller than it
   in magnitude quantises to 0 (see [quantise_into]). *)
type table = { steps : float array; zero : float array }

type t = { qp : int; luma : table; chroma : table }

let scale_table qp base =
  (* qp 8 reproduces the base table; the scale is linear in qp. *)
  let steps = Array.create_float 64 in
  for i = 0 to 63 do
    steps.(i) <- Float.max 1. (float_of_int base.(i) *. float_of_int qp /. 8.)
  done;
  steps

let table qp base =
  let steps = scale_table qp base in
  { steps; zero = Array.map (fun s -> 0.49 *. s) steps }

(* The 31 quantisers, built once: a stream may change qp every frame. *)
let quantisers =
  Array.init 31 (fun i ->
      let qp = i + 1 in
      { qp; luma = table qp luma_base; chroma = table qp chroma_base })

let make ~qp =
  if qp < 1 || qp > 31 then invalid_arg "Quant.make: qp out of [1, 31]";
  quantisers.(qp - 1)

let qp t = t.qp

let table_of t = function Luma -> t.luma | Chroma -> t.chroma

let steps t kind = (table_of t kind).steps

let obs_ops =
  Obs.counter ~help:"64-coefficient quantise/dequantise passes"
    "codec_quant_ops_total" []

let count_pass () = if Obs.enabled () then Obs.Metrics.Counter.incr obs_ops

(* [int_of_float (Float.round x)] without the C call: round half away
   from zero. [x -. float_of_int i] is exact: [i] is [x] truncated, so
   for |x| >= 1 the two lie within a factor of two of each other
   (Sterbenz), for |x| < 1 it is [x] itself, and from 2^52 up every
   float is an integer and the difference is 0. The comparisons become
   flags, not branches: the fraction's sign and size are unpredictable. *)
let[@inline] round x =
  let i = int_of_float x in
  let f = x -. float_of_int i in
  i + Bool.to_int (f >= 0.5) - Bool.to_int (f <= -0.5)

let check what a = if Array.length a <> 64 then invalid_arg what

(* A coefficient [c] with [|c| < zero.(i)] needs no division: [zero.(i)]
   is 0.49 [s] to within two roundings, so [|c / s|] and its rounded
   quotient stay below 0.4901 and round to 0. Most coefficients of a
   residual take this path. *)
let quantise_into t kind coeffs levels =
  check "Quant.quantise: need 64 coefficients" coeffs;
  check "Quant.quantise: need 64 levels" levels;
  let { steps; zero } = table_of t kind in
  for i = 0 to 63 do
    let c = Array.unsafe_get coeffs i in
    Array.unsafe_set levels i
      (if Float.abs c < Array.unsafe_get zero i then 0
       else round (c /. Array.unsafe_get steps i))
  done;
  count_pass ()

let dequantise_into t kind levels coeffs =
  check "Quant.dequantise: need 64 levels" levels;
  check "Quant.dequantise: need 64 coefficients" coeffs;
  let s = steps t kind in
  for i = 0 to 63 do
    Array.unsafe_set coeffs i
      (float_of_int (Array.unsafe_get levels i) *. Array.unsafe_get s i)
  done;
  count_pass ()

let dc_level t kind dc = round (dc /. (steps t kind).(0))
