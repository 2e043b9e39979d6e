let check_dims name a b =
  if Raster.width a <> Raster.width b || Raster.height a <> Raster.height b
  then invalid_arg (name ^ ": dimension mismatch")

let fold2 f acc a b =
  let w = Raster.width a and h = Raster.height a in
  let acc = ref acc in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      acc := f !acc (Raster.get a ~x ~y) (Raster.get b ~x ~y)
    done
  done;
  !acc

(* The channel bytes of both rasters in one pass: an exact integer
   sum, so the result is that of a per-pixel fold. *)
let mse a b =
  check_dims "Metrics.mse" a b;
  let da = Raster.data a and db = Raster.data b in
  let sum = ref 0 in
  for i = 0 to Bytes.length da - 1 do
    let d = Char.code (Bytes.unsafe_get da i) - Char.code (Bytes.unsafe_get db i) in
    sum := !sum + (d * d)
  done;
  float_of_int !sum /. float_of_int (3 * Raster.pixel_count a)

let psnr a b =
  let e = mse a b in
  if e <= 0. then infinity else 10. *. log10 (255. *. 255. /. e)

let mean_absolute_error a b =
  check_dims "Metrics.mean_absolute_error" a b;
  let sum =
    fold2
      (fun acc pa pb ->
        acc
        + abs (pa.Pixel.r - pb.Pixel.r)
        + abs (pa.Pixel.g - pb.Pixel.g)
        + abs (pa.Pixel.b - pb.Pixel.b))
      0 a b
  in
  float_of_int sum /. float_of_int (3 * Raster.pixel_count a)

let ssim a b =
  check_dims "Metrics.ssim" a b;
  let w = Raster.width a and h = Raster.height a in
  if w < 8 || h < 8 then invalid_arg "Metrics.ssim: image smaller than the window";
  let pa = Raster.luminance_plane a and pb = Raster.luminance_plane b in
  let sample plane x y = float_of_int (Char.code (Bytes.get plane ((y * w) + x))) in
  let c1 = (0.01 *. 255.) ** 2. and c2 = (0.03 *. 255.) ** 2. in
  let window x0 y0 =
    let n = 64. in
    let sum_a = ref 0. and sum_b = ref 0. in
    let sum_aa = ref 0. and sum_bb = ref 0. and sum_ab = ref 0. in
    for dy = 0 to 7 do
      for dx = 0 to 7 do
        let va = sample pa (x0 + dx) (y0 + dy) and vb = sample pb (x0 + dx) (y0 + dy) in
        sum_a := !sum_a +. va;
        sum_b := !sum_b +. vb;
        sum_aa := !sum_aa +. (va *. va);
        sum_bb := !sum_bb +. (vb *. vb);
        sum_ab := !sum_ab +. (va *. vb)
      done
    done;
    let mu_a = !sum_a /. n and mu_b = !sum_b /. n in
    let var_a = (!sum_aa /. n) -. (mu_a *. mu_a) in
    let var_b = (!sum_bb /. n) -. (mu_b *. mu_b) in
    let cov = (!sum_ab /. n) -. (mu_a *. mu_b) in
    ((2. *. mu_a *. mu_b) +. c1)
    *. ((2. *. cov) +. c2)
    /. (((mu_a *. mu_a) +. (mu_b *. mu_b) +. c1) *. (var_a +. var_b +. c2))
  in
  let total = ref 0. and count = ref 0 in
  let y = ref 0 in
  while !y + 8 <= h do
    let x = ref 0 in
    while !x + 8 <= w do
      total := !total +. window !x !y;
      incr count;
      x := !x + 4
    done;
    y := !y + 4
  done;
  !total /. float_of_int !count

let max_absolute_error a b =
  check_dims "Metrics.max_absolute_error" a b;
  fold2
    (fun acc pa pb ->
      let m =
        max
          (abs (pa.Pixel.r - pb.Pixel.r))
          (max (abs (pa.Pixel.g - pb.Pixel.g)) (abs (pa.Pixel.b - pb.Pixel.b)))
      in
      max acc m)
    0 a b
