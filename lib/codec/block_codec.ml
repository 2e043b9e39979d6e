let code_intra q kind samples =
  let centred = Array.create_float 64 in
  for i = 0 to 63 do
    centred.(i) <- samples.(i) -. 128.
  done;
  Quant.quantise q kind (Dct.forward centred)

let reconstruct_intra q kind levels =
  let spatial = Dct.inverse (Quant.dequantise q kind levels) in
  for i = 0 to 63 do
    spatial.(i) <- spatial.(i) +. 128.
  done;
  spatial

let code_inter q kind ~samples ~prediction =
  let residual = Array.create_float 64 in
  for i = 0 to 63 do
    residual.(i) <- samples.(i) -. prediction.(i)
  done;
  Quant.quantise q kind (Dct.forward residual)

let reconstruct_inter q kind ~prediction levels =
  let residual = Dct.inverse (Quant.dequantise q kind levels) in
  for i = 0 to 63 do
    residual.(i) <- prediction.(i) +. residual.(i)
  done;
  residual
