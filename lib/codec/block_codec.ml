type scratch = { coeffs : float array; work : float array }

let scratch () = { coeffs = Array.create_float 64; work = Array.create_float 64 }

let check_block (p : Plane.t) ~x ~y =
  if x < 0 || y < 0 || x + 8 > p.Plane.width || y + 8 > p.Plane.height then
    invalid_arg "Block_codec: block outside the plane"

(* Samples and predictions are integers, so their differences are
   exact in floating point: these are the floats the subtraction of
   the float forms would give, zero signs included. *)
let centre s samples =
  for i = 0 to 63 do
    s.coeffs.(i) <- float_of_int (samples.(i) - 128)
  done

let code_intra s q kind samples levels =
  centre s samples;
  Dct.forward_into s.coeffs s.coeffs;
  Quant.quantise_into q kind s.coeffs levels

(* [code_intra] spends at least one mode bit, a coefficient count and,
   for a non-zero DC level, the DC's run and level: 1 + ue 1 + ue 0 +
   se dc. DC is first in zig-zag order, so its run is 0. *)
let intra_cost_bound s q kind samples =
  centre s samples;
  let dc = Quant.dc_level q kind (Dct.forward_dc s.coeffs) in
  if dc = 0 then 2 else 5 + Golomb.se_bit_length dc

let code_inter s q kind ~samples ~prediction levels =
  for i = 0 to 63 do
    s.coeffs.(i) <- float_of_int (samples.(i) - prediction.(i))
  done;
  Dct.forward_into s.coeffs s.coeffs;
  Quant.quantise_into q kind s.coeffs levels

let residual s q kind levels =
  Quant.dequantise_into q kind levels s.coeffs;
  Dct.inverse_in_place s.coeffs ~work:s.work

let reconstruct_intra s q kind levels (p : Plane.t) ~x ~y =
  check_block p ~x ~y;
  residual s q kind levels;
  for by = 0 to 7 do
    let o = ((y + by) * p.Plane.width) + x in
    for bx = 0 to 7 do
      p.Plane.samples.(o + bx) <- Quant.round (s.coeffs.((by * 8) + bx) +. 128.)
    done
  done

let reconstruct_inter s q kind ~prediction levels (p : Plane.t) ~x ~y =
  check_block p ~x ~y;
  residual s q kind levels;
  for by = 0 to 7 do
    let o = ((y + by) * p.Plane.width) + x in
    for bx = 0 to 7 do
      let i = (by * 8) + bx in
      p.Plane.samples.(o + bx) <-
        Quant.round (float_of_int prediction.(i) +. s.coeffs.(i))
    done
  done
