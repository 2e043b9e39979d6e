(* Tests for the video codec substrate: bit I/O, entropy codes, the
   transform pipeline and full encode/decode round trips. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- Allocating reference forms --------------------------------------- *)

(* The codec's kernels write into buffers their caller owns and skip
   arithmetic that cannot change a bit. These are the straightforward
   allocating forms they replaced, kept here as the bitwise
   specification: the DCT as the textbook triple loop, quantisation
   through [Float.round], the block coder and the plane conversion as
   first written. *)

(* The separable transform as first written: each matrix entry read
   through a closure over the nested cosine table. *)
let closure_dct matrix_row block =
  let n = 8 in
  let tmp = Array.make 64 0. in
  for y = 0 to n - 1 do
    for u = 0 to n - 1 do
      let acc = ref 0. in
      for x = 0 to n - 1 do
        acc := !acc +. (matrix_row u x *. block.((y * n) + x))
      done;
      tmp.((y * n) + u) <- !acc
    done
  done;
  let out = Array.make 64 0. in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let acc = ref 0. in
      for y = 0 to n - 1 do
        acc := !acc +. (matrix_row v y *. tmp.((y * n) + u))
      done;
      out.((v * n) + u) <- !acc
    done
  done;
  out

let cosine =
  Array.init 8 (fun u ->
      let alpha = if u = 0 then sqrt (1. /. 8.) else sqrt (2. /. 8.) in
      Array.init 8 (fun x ->
          alpha
          *. cos (((2. *. float_of_int x) +. 1.) *. float_of_int u *. Float.pi /. 16.)))

module Ref = struct
  let forward block = closure_dct (fun u x -> cosine.(u).(x)) block

  let inverse coeffs = closure_dct (fun u x -> cosine.(x).(u)) coeffs

  (* The step matrix, exactly: dequantising a level of 1 multiplies
     each step by 1. *)
  let steps q kind =
    let s = Array.create_float 64 in
    Codec.Quant.dequantise_into q kind (Array.make 64 1) s;
    s

  let quantise q kind coeffs =
    let s = steps q kind in
    Array.init 64 (fun i -> int_of_float (Float.round (coeffs.(i) /. s.(i))))

  let dequantise q kind levels =
    let s = steps q kind in
    Array.init 64 (fun i -> float_of_int levels.(i) *. s.(i))

  let code_intra q kind samples =
    quantise q kind (forward (Array.map (fun v -> v -. 128.) samples))

  let reconstruct_intra q kind levels =
    Array.map (fun v -> v +. 128.) (inverse (dequantise q kind levels))

  let code_inter q kind ~samples ~prediction =
    quantise q kind (forward (Array.map2 ( -. ) samples prediction))

  let reconstruct_inter q kind ~prediction levels =
    Array.map2 ( +. ) prediction (inverse (dequantise q kind levels))

  (* Rounds, then writes the 8x8 block into the plane. *)
  let store_block (p : Codec.Plane.t) ~x ~y samples =
    for by = 0 to 7 do
      for bx = 0 to 7 do
        p.Codec.Plane.samples.(((y + by) * p.Codec.Plane.width) + x + bx) <-
          int_of_float (Float.round samples.((by * 8) + bx))
      done
    done

  let zigzag_forward a = Array.init 64 (fun k -> a.(Codec.Zigzag.scan_order.(k)))

  let zigzag_inverse a =
    let out = Array.make 64 0 in
    Array.iteri (fun k v -> out.(Codec.Zigzag.scan_order.(k)) <- v) a;
    out

  let chroma_dim d = (d + 1) / 2

  (* BT.601 into display-size planes, chroma summed per 2x2 site. *)
  let of_raster img =
    let w = Image.Raster.width img and h = Image.Raster.height img in
    let rgb = Image.Raster.data img in
    let cw = chroma_dim w and ch = chroma_dim h in
    let yp = Codec.Plane.create ~width:w ~height:h in
    let cbp = Codec.Plane.create ~width:cw ~height:ch in
    let crp = Codec.Plane.create ~width:cw ~height:ch in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let o = 3 * ((y * w) + x) in
        let r = Char.code (Bytes.get rgb o)
        and g = Char.code (Bytes.get rgb (o + 1))
        and b = Char.code (Bytes.get rgb (o + 2)) in
        yp.Codec.Plane.samples.((y * w) + x) <-
          ((19595 * r) + (38470 * g) + (7471 * b) + 32768) lsr 16;
        let ci = ((y / 2) * cw) + (x / 2) in
        cbp.Codec.Plane.samples.(ci) <-
          cbp.Codec.Plane.samples.(ci) + 128
          + (((-11056 * r) - (21712 * g) + (32768 * b)) asr 16);
        crp.Codec.Plane.samples.(ci) <-
          crp.Codec.Plane.samples.(ci) + 128
          + (((32768 * r) - (27440 * g) - (5328 * b)) asr 16)
      done
    done;
    for cy = 0 to ch - 1 do
      for cx = 0 to cw - 1 do
        let count = min 2 (w - (2 * cx)) * min 2 (h - (2 * cy)) in
        let ci = (cy * cw) + cx in
        cbp.Codec.Plane.samples.(ci) <- cbp.Codec.Plane.samples.(ci) / count;
        crp.Codec.Plane.samples.(ci) <- crp.Codec.Plane.samples.(ci) / count
      done
    done;
    { Codec.Plane.y = yp; cb = cbp; cr = crp }

  (* Edge replication out to multiples of [m]; the plane itself when it
     is already aligned. *)
  let pad_to_multiple (p : Codec.Plane.t) m =
    let round v = (v + m - 1) / m * m in
    let w = round p.Codec.Plane.width and h = round p.Codec.Plane.height in
    if w = p.Codec.Plane.width && h = p.Codec.Plane.height then p
    else begin
      let out = Codec.Plane.create ~width:w ~height:h in
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          Codec.Plane.set out ~x ~y (Codec.Plane.get p ~x ~y)
        done
      done;
      out
    end
end

let floats = Array.map float_of_int

(* The kernels, through allocating wrappers. *)
let dct_forward block =
  let out = Array.create_float 64 in
  Codec.Dct.forward_into block out;
  out

let dct_inverse coeffs =
  let out = Array.copy coeffs in
  Codec.Dct.inverse_in_place out ~work:(Array.create_float 64);
  out

let quantise q kind coeffs =
  let levels = Array.make 64 0 in
  Codec.Quant.quantise_into q kind coeffs levels;
  levels

let dequantise q kind levels =
  let coeffs = Array.create_float 64 in
  Codec.Quant.dequantise_into q kind levels coeffs;
  coeffs

let of_raster img =
  let f =
    Codec.Plane.create_ycbcr ~width:(Image.Raster.width img)
      ~height:(Image.Raster.height img)
  in
  Codec.Plane.of_raster_into img f;
  f

(* --- Bitio ------------------------------------------------------------ *)

let test_bitio_single_bits () =
  let w = Codec.Bitio.Writer.create () in
  List.iter (Codec.Bitio.Writer.put_bit w) [ true; false; true; true ];
  check int "bit length" 4 (Codec.Bitio.Writer.bit_length w);
  let r = Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w) in
  Alcotest.(check (list bool))
    "bits back"
    [ true; false; true; true ]
    (List.init 4 (fun _ -> Codec.Bitio.Reader.get_bit r))

let test_bitio_multibit_values () =
  let w = Codec.Bitio.Writer.create () in
  Codec.Bitio.Writer.put_bits w ~value:0b101101 ~bits:6;
  Codec.Bitio.Writer.put_bits w ~value:0 ~bits:0;
  Codec.Bitio.Writer.put_bits w ~value:1023 ~bits:10;
  let r = Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w) in
  check int "first value" 0b101101 (Codec.Bitio.Reader.get_bits r 6);
  check int "second value" 1023 (Codec.Bitio.Reader.get_bits r 10)

let test_bitio_value_too_wide () =
  let w = Codec.Bitio.Writer.create () in
  Alcotest.check_raises "does not fit"
    (Invalid_argument "Bitio.put_bits: value does not fit") (fun () ->
      Codec.Bitio.Writer.put_bits w ~value:4 ~bits:2)

let test_bitio_alignment () =
  let w = Codec.Bitio.Writer.create () in
  Codec.Bitio.Writer.put_bit w true;
  Codec.Bitio.Writer.put_byte_aligned w 0xAB;
  let s = Codec.Bitio.Writer.contents w in
  check int "two bytes" 2 (String.length s);
  let r = Codec.Bitio.Reader.of_string s in
  check bool "first bit" true (Codec.Bitio.Reader.get_bit r);
  check int "aligned byte" 0xAB (Codec.Bitio.Reader.get_byte_aligned r)

let test_bitio_out_of_bits () =
  let r = Codec.Bitio.Reader.of_string "" in
  check bool "raises at end" true
    (match Codec.Bitio.Reader.get_bit r with
    | exception Codec.Bitio.Reader.Out_of_bits -> true
    | _ -> false)

let prop_bitio_roundtrip =
  QCheck2.Test.make ~name:"bitio round-trips random bit sequences"
    QCheck2.Gen.(small_list (pair (0 -- 1023) (0 -- 10)))
    (fun pairs ->
      let pairs = List.map (fun (v, b) -> (v land ((1 lsl b) - 1), b)) pairs in
      let w = Codec.Bitio.Writer.create () in
      List.iter (fun (v, b) -> Codec.Bitio.Writer.put_bits w ~value:v ~bits:b) pairs;
      let r = Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w) in
      List.for_all (fun (v, b) -> Codec.Bitio.Reader.get_bits r b = v) pairs)

(* --- Golomb ----------------------------------------------------------- *)

let roundtrip_ue n =
  let w = Codec.Bitio.Writer.create () in
  Codec.Golomb.write_ue w n;
  Codec.Golomb.read_ue (Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w))

let roundtrip_se n =
  let w = Codec.Bitio.Writer.create () in
  Codec.Golomb.write_se w n;
  Codec.Golomb.read_se (Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w))

let test_golomb_small_values () =
  List.iter (fun n -> check int (Printf.sprintf "ue %d" n) n (roundtrip_ue n))
    [ 0; 1; 2; 3; 7; 8; 255; 256; 65535 ];
  List.iter (fun n -> check int (Printf.sprintf "se %d" n) n (roundtrip_se n))
    [ 0; 1; -1; 2; -2; 100; -100; 32767; -32768 ]

let test_golomb_code_lengths () =
  (* ue(0) = "1" (1 bit), ue(1) = "010" (3 bits), ue(2) = "011". *)
  check int "ue 0 length" 1 (Codec.Golomb.ue_bit_length 0);
  check int "ue 1 length" 3 (Codec.Golomb.ue_bit_length 1);
  check int "ue 6 length" 5 (Codec.Golomb.ue_bit_length 6);
  let w = Codec.Bitio.Writer.create () in
  Codec.Golomb.write_ue w 6;
  check int "declared length matches written" 5 (Codec.Bitio.Writer.bit_length w)

let test_golomb_negative_rejected () =
  let w = Codec.Bitio.Writer.create () in
  Alcotest.check_raises "negative ue" (Invalid_argument "Golomb.write_ue: negative")
    (fun () -> Codec.Golomb.write_ue w (-1))

let prop_golomb_ue_roundtrip =
  QCheck2.Test.make ~name:"exp-golomb ue round-trip" QCheck2.Gen.(0 -- 1_000_000)
    (fun n -> roundtrip_ue n = n)

let prop_golomb_se_roundtrip =
  QCheck2.Test.make ~name:"exp-golomb se round-trip"
    QCheck2.Gen.(-100_000 -- 100_000) (fun n -> roundtrip_se n = n)

(* --- Zigzag ----------------------------------------------------------- *)

let test_zigzag_is_permutation () =
  let sorted = Array.copy Codec.Zigzag.scan_order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of 0..63" (Array.init 64 Fun.id) sorted

let test_zigzag_starts_at_dc () =
  check int "first is DC" 0 Codec.Zigzag.scan_order.(0);
  (* The second and third entries are the two neighbours of DC. *)
  check bool "low frequencies first" true
    (List.mem Codec.Zigzag.scan_order.(1) [ 1; 8 ]
     && List.mem Codec.Zigzag.scan_order.(2) [ 1; 8 ])

let prop_zigzag_roundtrip =
  QCheck2.Test.make ~name:"zigzag inverse . forward = id"
    QCheck2.Gen.(array_size (return 64) (-100 -- 100))
    (fun a -> Ref.zigzag_inverse (Ref.zigzag_forward a) = a)

(* --- Dct -------------------------------------------------------------- *)

let random_block seed =
  let rng = Image.Prng.create ~seed in
  Array.init 64 (fun _ -> float_of_int (Image.Prng.int rng 256))

let test_dct_roundtrip_accuracy () =
  let block = random_block 1 in
  let back = dct_inverse (dct_forward block) in
  Array.iteri
    (fun i v -> check bool (Printf.sprintf "sample %d" i) true (abs_float (v -. block.(i)) < 1e-9))
    back

let test_dct_dc_of_flat_block () =
  let block = Array.make 64 100. in
  let coeffs = dct_forward block in
  (* Orthonormal DCT: DC = 8 * sample value for a flat block. *)
  check (Alcotest.float 1e-6) "dc" 800. coeffs.(0);
  for i = 1 to 63 do
    check (Alcotest.float 1e-9) (Printf.sprintf "ac %d" i) 0. coeffs.(i)
  done

let test_dct_parseval () =
  (* Orthonormality: energy is preserved. *)
  let block = random_block 2 in
  let coeffs = dct_forward block in
  let energy a = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. a in
  check (Alcotest.float 1e-6) "energy preserved" (energy block) (energy coeffs)

let test_dct_bad_size () =
  Alcotest.check_raises "wrong size" (Invalid_argument "Dct: block must have 64 samples")
    (fun () -> Codec.Dct.forward_into [| 1. |] (Array.create_float 64))

(* --- Quant ------------------------------------------------------------ *)

let test_quant_zero_preserved () =
  let q = Codec.Quant.make ~qp:8 in
  let zeros = Array.make 64 0. in
  Alcotest.(check (array int)) "zeros stay zero" (Array.make 64 0)
    (quantise q Codec.Quant.Luma zeros)

let test_quant_coarser_at_higher_qp () =
  let coeffs = random_block 3 in
  let nnz qp =
    quantise (Codec.Quant.make ~qp) Codec.Quant.Luma coeffs
    |> Array.to_list
    |> List.filter (fun l -> l <> 0)
    |> List.length
  in
  check bool "higher qp kills more coefficients" true (nnz 31 <= nnz 1)

let test_quant_dequant_bounded_error () =
  let q = Codec.Quant.make ~qp:8 in
  let coeffs = random_block 4 in
  let levels = quantise q Codec.Quant.Luma coeffs in
  let back = dequantise q Codec.Quant.Luma levels in
  (* Error per coefficient is at most half the quantisation step;
     the largest step at qp 8 is 121. *)
  Array.iteri
    (fun i v ->
      check bool (Printf.sprintf "coef %d" i) true (abs_float (v -. coeffs.(i)) <= 61.))
    back

let test_quant_invalid_qp () =
  Alcotest.check_raises "qp 0" (Invalid_argument "Quant.make: qp out of [1, 31]")
    (fun () -> ignore (Codec.Quant.make ~qp:0))

(* --- Coeff ------------------------------------------------------------ *)

let roundtrip_block levels =
  let w = Codec.Bitio.Writer.create () in
  Codec.Coeff.write_block w levels;
  let levels = Array.make 64 0 in
  Codec.Coeff.read_block_into
    (Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w))
    levels;
  levels

let test_coeff_all_zero_block () =
  let zeros = Array.make 64 0 in
  Alcotest.(check (array int)) "zeros round-trip" zeros (roundtrip_block zeros);
  check int "all-zero block costs one ue(0)" 1 (Codec.Coeff.bit_cost zeros)

let test_coeff_sparse_block () =
  let levels = Array.make 64 0 in
  levels.(0) <- 50;
  levels.(63) <- -3;
  Alcotest.(check (array int)) "sparse round-trip" levels (roundtrip_block levels)

let test_coeff_bit_cost_exact () =
  let levels = Array.init 64 (fun i -> if i mod 7 = 0 then (i mod 5) - 2 else 0) in
  let w = Codec.Bitio.Writer.create () in
  Codec.Coeff.write_block w levels;
  check int "bit cost matches writer" (Codec.Bitio.Writer.bit_length w)
    (Codec.Coeff.bit_cost levels)

let prop_coeff_roundtrip =
  QCheck2.Test.make ~name:"coefficient blocks round-trip"
    QCheck2.Gen.(array_size (return 64) (-40 -- 40))
    (fun levels -> roundtrip_block levels = levels)

(* --- Plane ------------------------------------------------------------ *)

let test_plane_edge_clamped_reads () =
  let p = Codec.Plane.create ~width:2 ~height:2 in
  Codec.Plane.set p ~x:0 ~y:0 7;
  Codec.Plane.set p ~x:1 ~y:1 9;
  check int "negative x clamps" 7 (Codec.Plane.get p ~x:(-5) ~y:0);
  check int "overflow clamps" 9 (Codec.Plane.get p ~x:10 ~y:10)

let test_plane_pad_and_crop () =
  (* A 5x3 picture converts into planes padded to 8x8, its last column
     and row replicated out; the crop back gives the picture's size. *)
  let img = Image.Raster.create ~width:5 ~height:3 in
  Image.Raster.set img ~x:4 ~y:2 (Image.Pixel.gray 42);
  let f = of_raster img in
  let luma = f.Codec.Plane.y in
  check int "padded width" 8 luma.Codec.Plane.width;
  check int "padded height" 8 luma.Codec.Plane.height;
  check int "edge replicated" 42 (Codec.Plane.get luma ~x:7 ~y:7);
  let back = Codec.Plane.to_raster ~width:5 ~height:3 f in
  check int "cropped width" 5 (Image.Raster.width back);
  check int "cropped height" 3 (Image.Raster.height back)

let test_plane_pad_identity_when_aligned () =
  (* An aligned picture needs no padding: the planes have its size. *)
  let f = Codec.Plane.create_ycbcr ~width:8 ~height:16 in
  check int "luma width" 8 f.Codec.Plane.y.Codec.Plane.width;
  check int "luma height" 16 f.Codec.Plane.y.Codec.Plane.height;
  check int "chroma width" 8 f.Codec.Plane.cb.Codec.Plane.width;
  check int "chroma height" 8 f.Codec.Plane.cb.Codec.Plane.height

let test_plane_ycbcr_gray_roundtrip () =
  (* Grays survive the colour transform exactly. *)
  let img = Image.Raster.init ~width:8 ~height:8 (fun ~x ~y ->
      Image.Pixel.gray ((x + (y * 8)) * 4 mod 256))
  in
  let back = Codec.Plane.to_raster (of_raster img) in
  check bool "gray image round-trips" true
    (Image.Metrics.max_absolute_error img back <= 1)

let test_plane_ycbcr_color_bounded () =
  let rng = Image.Prng.create ~seed:77 in
  let img = Image.Raster.init ~width:16 ~height:16 (fun ~x:_ ~y:_ ->
      Image.Pixel.v (Image.Prng.int rng 256) (Image.Prng.int rng 256)
        (Image.Prng.int rng 256))
  in
  let back = Codec.Plane.to_raster (of_raster img) in
  (* Chroma subsampling loses high-frequency colour, so compare
     luminance, which is carried at full resolution. *)
  let y_err =
    Codec.Plane.mean_absolute_difference
      (of_raster img).Codec.Plane.y
      (of_raster back).Codec.Plane.y
  in
  check bool "luma nearly preserved" true (y_err < 3.)

(* --- Motion ----------------------------------------------------------- *)

let shifted_plane ~dx ~dy src =
  let out = Codec.Plane.create ~width:src.Codec.Plane.width ~height:src.Codec.Plane.height in
  for y = 0 to out.Codec.Plane.height - 1 do
    for x = 0 to out.Codec.Plane.width - 1 do
      Codec.Plane.set out ~x ~y (Codec.Plane.get src ~x:(x - dx) ~y:(y - dy))
    done
  done;
  out

let textured_plane seed =
  let rng = Image.Prng.create ~seed in
  let p = Codec.Plane.create ~width:32 ~height:32 in
  for y = 0 to 31 do
    for x = 0 to 31 do
      Codec.Plane.set p ~x ~y (Image.Prng.int rng 256)
    done
  done;
  p

let test_motion_finds_exact_shift () =
  let reference = textured_plane 5 in
  (* Content moves right by 3 and up by 2: current(x,y) =
     reference(x-3, y+2). The prediction vector points back into the
     reference, so the search must return (-3, +2). *)
  let current = shifted_plane ~dx:3 ~dy:(-2) reference in
  let v, sad =
    Codec.Motion.search ~range:4 ~current ~reference:(Codec.Motion.extend reference)
      ~x:8 ~y:8 ()
  in
  check int "dx" (-3) v.Codec.Motion.dx;
  check int "dy" 2 v.Codec.Motion.dy;
  check int "sad is zero" 0 sad

let test_motion_zero_preferred_on_tie () =
  let reference = Codec.Plane.create ~width:16 ~height:16 in
  let current = Codec.Plane.create ~width:16 ~height:16 in
  let v, sad =
    Codec.Motion.search ~range:3 ~current ~reference:(Codec.Motion.extend reference)
      ~x:4 ~y:4 ()
  in
  check int "zero dx" 0 v.Codec.Motion.dx;
  check int "zero dy" 0 v.Codec.Motion.dy;
  check int "flat sad" 0 sad

let test_motion_halve () =
  let h = Codec.Motion.halve { Codec.Motion.dx = 5; dy = -5 } in
  check int "halved dx towards zero" 2 h.Codec.Motion.dx;
  check int "halved dy towards zero" (-2) h.Codec.Motion.dy

let test_motion_halfpel_integer_positions_exact () =
  (* At even half-pel coordinates the interpolated prediction equals
     the integer-pel one. *)
  let p = textured_plane 11 in
  let v_int = { Codec.Motion.dx = 2; dy = -1 } in
  let v_half = Codec.Motion.to_halfpel v_int in
  let r = Codec.Motion.extend p in
  let integer = Array.make 64 0 and half = Array.make 64 0 in
  Codec.Motion.predict r ~x:8 ~y:8 v_int integer;
  Codec.Motion.predict_halfpel r ~x:8 ~y:8 v_half half;
  check bool "same block" true (integer = half)

let test_motion_halfpel_interpolates () =
  (* A horizontal ramp: the half-pel sample between columns is their
     rounded average. *)
  let p = Codec.Plane.create ~width:16 ~height:16 in
  for y = 0 to 15 do
    for x = 0 to 15 do
      Codec.Plane.set p ~x ~y (x * 10)
    done
  done;
  let block = Array.make 64 0 in
  Codec.Motion.predict_halfpel (Codec.Motion.extend p) ~x:4 ~y:4
    { Codec.Motion.dx = 1; dy = 0 } block;
  (* Sample at (4.5, 4): average of 40 and 50. *)
  check int "bilinear midpoint" 45 block.(0)

let test_motion_halfpel_refinement_wins_on_subpel_shift () =
  (* Content shifted by half a pixel: the refined vector must beat the
     integer-pel one on SAD. *)
  let reference = Codec.Plane.create ~width:32 ~height:32 in
  for y = 0 to 31 do
    for x = 0 to 31 do
      Codec.Plane.set reference ~x ~y (((x * 13) + (y * 7)) mod 256)
    done
  done;
  let current = Codec.Plane.create ~width:32 ~height:32 in
  for y = 0 to 31 do
    for x = 0 to 31 do
      (* current(x) = average of reference(x) and reference(x+1): a
         half-pel shift left. *)
      let a = Codec.Plane.get reference ~x ~y and b = Codec.Plane.get reference ~x:(x + 1) ~y in
      Codec.Plane.set current ~x ~y ((a + b + 1) / 2)
    done
  done;
  let reference = Codec.Motion.extend reference in
  let integer_vec, integer_sad =
    Codec.Motion.search ~range:2 ~current ~reference ~x:8 ~y:8 ()
  in
  let refined, refined_sad =
    Codec.Motion.refine_halfpel ~current ~reference ~x:8 ~y:8 integer_vec
  in
  check bool "refinement strictly better" true (refined_sad < integer_sad);
  check int "finds the half-pel shift" 1 refined.Codec.Motion.dx

let test_motion_chroma_vector () =
  let v = { Codec.Motion.dx = 9; dy = -9 } in
  let c = Codec.Motion.chroma_vector v in
  check int "dx floors" 2 c.Codec.Motion.dx;
  check int "dy floors" (-3) c.Codec.Motion.dy

let test_motion_extract_store_roundtrip () =
  let p = textured_plane 9 in
  let block = Array.make 64 0 in
  Codec.Motion.extract_block p ~x:8 ~y:16 block;
  let q = Codec.Plane.create ~width:32 ~height:32 in
  Ref.store_block q ~x:8 ~y:16 (floats block);
  let block' = Array.make 64 0 in
  Codec.Motion.extract_block q ~x:8 ~y:16 block';
  check bool "block preserved" true (block = block')

(* --- Encoder / Decoder ------------------------------------------------ *)

let test_clip ?(width = 48) ?(height = 32) ?(frames = 8) ?(seed = 21) () =
  let profile =
    {
      Video.Profile.name = "codec-test";
      seed;
      scenes =
        [
          Video.Profile.scene ~seconds:(float_of_int frames /. 8.)
            ~subjects:
              [
                {
                  Video.Profile.level = 220;
                  size = 150;
                  speed = 10.;
                  vertical_phase = 0.5;
                };
              ]
            ~noise_sigma:1.5
            (Video.Profile.Vertical { top = 40; bottom = 90 });
        ];
    }
  in
  Video.Clip_gen.render ~width ~height ~fps:8. profile

let test_codec_roundtrip_psnr () =
  let clip = test_clip () in
  let encoded = Codec.Encoder.encode_clip clip in
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  check int "frame count" clip.Video.Clip.frame_count
    (Array.length decoded.Codec.Decoder.frames);
  check int "width" clip.Video.Clip.width decoded.Codec.Decoder.width;
  Array.iteri
    (fun i frame ->
      let psnr = Image.Metrics.psnr (clip.Video.Clip.render i) frame in
      check bool (Printf.sprintf "frame %d psnr %.1f > 27dB" i psnr) true (psnr > 27.))
    decoded.Codec.Decoder.frames

let test_codec_p_frames_smaller () =
  let clip = test_clip ~frames:8 () in
  let encoded = Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with gop = 8 } clip in
  check bool "first frame is I" true
    (encoded.Codec.Encoder.frame_types.(0) = Codec.Stream.I_frame);
  check bool "second frame is P" true
    (encoded.Codec.Encoder.frame_types.(1) = Codec.Stream.P_frame);
  (* Slow panning content: P frames should cost well under an I frame. *)
  check bool "P smaller than I" true
    (encoded.Codec.Encoder.frame_sizes_bits.(1)
     < encoded.Codec.Encoder.frame_sizes_bits.(0))

let test_codec_gop_structure () =
  let clip = test_clip ~frames:8 () in
  let encoded =
    Codec.Encoder.encode_clip
      ~params:{ Codec.Stream.default_params with gop = 3 } clip
  in
  Array.iteri
    (fun i t ->
      let expected = if i mod 3 = 0 then Codec.Stream.I_frame else Codec.Stream.P_frame in
      check bool (Printf.sprintf "frame %d type" i) true (t = expected))
    encoded.Codec.Encoder.frame_types

let test_codec_higher_qp_smaller_stream () =
  let clip = test_clip () in
  let size qp =
    Codec.Encoder.total_bytes
      (Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with qp } clip)
  in
  check bool "qp 20 smaller than qp 4" true (size 20 < size 4)

let test_codec_higher_qp_lower_quality () =
  let clip = test_clip () in
  let psnr qp =
    let e = Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with qp } clip in
    let d = Codec.Decoder.decode_exn e.Codec.Encoder.data in
    Image.Metrics.psnr (clip.Video.Clip.render 0) d.Codec.Decoder.frames.(0)
  in
  check bool "qp 2 beats qp 25" true (psnr 2 > psnr 25)

let test_codec_odd_dimensions () =
  (* Dimensions not divisible by 8 or 16 exercise padding and chroma
     geometry. *)
  let clip = test_clip ~width:37 ~height:21 ~frames:4 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  check int "width preserved" 37 decoded.Codec.Decoder.width;
  check int "height preserved" 21 decoded.Codec.Decoder.height;
  Array.iteri
    (fun i frame ->
      let psnr = Image.Metrics.psnr (clip.Video.Clip.render i) frame in
      check bool (Printf.sprintf "frame %d decodes" i) true (psnr > 28.))
    decoded.Codec.Decoder.frames

let test_codec_single_frame () =
  let clip = test_clip ~frames:1 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  check int "one frame" 1 (Array.length decoded.Codec.Decoder.frames)

let test_codec_rejects_bad_params () =
  let clip = test_clip ~frames:1 () in
  Alcotest.check_raises "bad qp" (Invalid_argument "Encoder: qp out of [1, 31]")
    (fun () ->
      ignore
        (Codec.Encoder.encode_clip
           ~params:{ Codec.Stream.default_params with qp = 0 } clip))

let test_decoder_rejects_garbage () =
  check bool "garbage rejected" true
    (Result.is_error (Codec.Decoder.decode "not a stream at all"));
  check bool "empty rejected" true (Result.is_error (Codec.Decoder.decode ""))

let test_decoder_rejects_truncation () =
  let clip = test_clip ~frames:4 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let data = encoded.Codec.Encoder.data in
  let truncated = String.sub data 0 (String.length data / 2) in
  check bool "truncated rejected" true (Result.is_error (Codec.Decoder.decode truncated))

let test_decoder_mutation_fuzz () =
  (* Flipping arbitrary bytes in a valid stream must never escape as an
     exception: the decoder returns Ok (the damage landed in
     recoverable coefficient data) or Error, nothing else. *)
  let clip = test_clip ~frames:4 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let data = encoded.Codec.Encoder.data in
  let rng = Image.Prng.create ~seed:2024 in
  for _ = 1 to 200 do
    let mutated = Bytes.of_string data in
    (* One to three byte flips per trial. *)
    for _ = 0 to Image.Prng.int rng 3 do
      let pos = Image.Prng.int rng (Bytes.length mutated) in
      Bytes.set mutated pos (Char.chr (Image.Prng.int rng 256))
    done;
    match Codec.Decoder.decode (Bytes.to_string mutated) with
    | Ok _ | Error _ -> ()
  done;
  check bool "no escaped exceptions over 200 mutations" true true

let test_decoder_rejects_bad_magic () =
  let clip = test_clip ~frames:1 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let data = Bytes.of_string encoded.Codec.Encoder.data in
  Bytes.set data 0 'X';
  (match Codec.Decoder.decode (Bytes.to_string data) with
  | Error msg -> check bool "mentions magic" true (msg = "bad magic")
  | Ok _ -> Alcotest.fail "bad magic accepted")

(* A stream header (width, height, fps x 1000, frame count, gop, qp,
   search range) followed by [payload]. *)
let hostile_stream ?(payload = "") fields =
  let w = Codec.Bitio.Writer.create () in
  let put_bytes = String.iter (fun c -> Codec.Bitio.Writer.put_byte_aligned w (Char.code c)) in
  put_bytes Codec.Stream.magic;
  Codec.Bitio.Writer.put_byte_aligned w Codec.Stream.version;
  List.iter (Codec.Golomb.write_ue w) fields;
  put_bytes payload;
  Codec.Bitio.Writer.contents w

(* Decoding [data] fails, and the major heap grows by less than 64
   words per input byte. *)
let check_rejected_cheaply name decode data =
  let before = (Gc.quick_stat ()).Gc.major_words in
  let result = decode data in
  let grown = (Gc.quick_stat ()).Gc.major_words -. before in
  check bool (name ^ " rejected") true (Result.is_error result);
  check bool
    (Printf.sprintf "%s: major words %.0f within 64x the input length" name grown)
    true
    (grown < float_of_int (64 * String.length data))

let test_decoder_rejects_huge_frame_count () =
  (* A 20-byte stream whose header declares 2^27 frames. *)
  let data = hostile_stream [ 16; 16; 8000; 1 lsl 27; 12; 8; 4 ] in
  check int "20-byte stream" 20 (String.length data);
  check_rejected_cheaply "2^27 frames" Codec.Decoder.decode data

let test_decoder_rejects_huge_dimensions () =
  (* One 8192x8192 frame whose payload is a marker, a qp and two
     bytes, against the 1.5 M blocks such a frame must code. *)
  let data = hostile_stream ~payload:"I\008\000\000" [ 8192; 8192; 8000; 1; 12; 8; 4 ] in
  check_rejected_cheaply "8192x8192 stream" Codec.Decoder.decode data;
  let info = Result.get_ok (Codec.Decoder.parse_header data) in
  check_rejected_cheaply "8192x8192 frame"
    (Codec.Decoder.decode_frame ~info ~reference:None)
    (String.sub data info.Codec.Decoder.header_bytes
       (String.length data - info.Codec.Decoder.header_bytes))

let test_codec_static_clip_compresses_well () =
  (* A fully static clip with smooth structure: the I frame carries the
     content, every P frame should collapse to skip-like blocks because
     prediction from the reconstructed reference is near-exact. *)
  let frame = Image.Raster.create ~width:32 ~height:32 in
  Image.Draw.fill_vertical_gradient frame ~top:(Image.Pixel.gray 30)
    ~bottom:(Image.Pixel.gray 200);
  Image.Draw.disc frame ~cx:16 ~cy:16 ~radius:7 (Image.Pixel.gray 240);
  let clip = Video.Clip.of_frames ~name:"static" ~fps:8. (Array.make 8 frame) in
  let encoded = Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with gop = 8 } clip in
  let i_size = encoded.Codec.Encoder.frame_sizes_bits.(0) in
  for i = 1 to 7 do
    check bool (Printf.sprintf "P frame %d tiny" i) true
      (encoded.Codec.Encoder.frame_sizes_bits.(i) * 4 < i_size)
  done

(* --- Gop planner --------------------------------------------------------- *)

let test_gop_planner_anchors () =
  let t = Codec.Gop_planner.plan ~max_interval:100 ~scene_starts:[ 10; 25 ] ~frame_count:40 in
  Alcotest.(check (list int)) "anchors" [ 0; 10; 25 ] (Codec.Gop_planner.positions t);
  check bool "predicate true at anchor" true (Codec.Gop_planner.i_frame_at t 10);
  check bool "predicate false elsewhere" false (Codec.Gop_planner.i_frame_at t 11)

let test_gop_planner_refresh_inside_long_scene () =
  let t = Codec.Gop_planner.plan ~max_interval:10 ~scene_starts:[] ~frame_count:35 in
  Alcotest.(check (list int)) "periodic refreshes" [ 0; 10; 20; 30 ]
    (Codec.Gop_planner.positions t);
  (* No gap between consecutive marks (or the end) exceeds the interval. *)
  let rec gaps = function
    | a :: (b :: _ as rest) ->
      check bool "gap bounded" true (b - a <= 10);
      gaps rest
    | [ last ] -> check bool "tail bounded" true (35 - last <= 10)
    | [] -> ()
  in
  gaps (Codec.Gop_planner.positions t)

let test_gop_planner_validation () =
  Alcotest.check_raises "bad start"
    (Invalid_argument "Gop_planner.plan: scene start out of range") (fun () ->
      ignore (Codec.Gop_planner.plan ~max_interval:5 ~scene_starts:[ 50 ] ~frame_count:10))

let test_encoder_custom_i_frames () =
  let clip = test_clip ~frames:8 () in
  let encoded =
    Codec.Encoder.encode_clip
      ~params:{ Codec.Stream.default_params with gop = 100 }
      ~i_frame_at:(fun i -> i = 0 || i = 5)
      clip
  in
  Array.iteri
    (fun i t ->
      let expected = if i = 0 || i = 5 then Codec.Stream.I_frame else Codec.Stream.P_frame in
      check bool (Printf.sprintf "frame %d type" i) true (t = expected))
    encoded.Codec.Encoder.frame_types;
  (* The stream still decodes losslessly at the container level. *)
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  check int "decodes fully" 8 (Array.length decoded.Codec.Decoder.frames)

(* --- Rate control ------------------------------------------------------ *)

let test_rate_control_fits_budget () =
  let clip = test_clip ~frames:6 () in
  let generous = Codec.Encoder.total_bytes (Codec.Encoder.encode_clip clip) in
  let target_bytes = generous * 2 / 3 in
  let outcome = Codec.Rate_control.for_target_bytes ~target_bytes clip in
  check bool "fits" true outcome.Codec.Rate_control.fits;
  check bool "within budget" true
    (Codec.Encoder.total_bytes outcome.Codec.Rate_control.encoded <= target_bytes);
  check bool "bounded search" true (outcome.Codec.Rate_control.encodes_tried <= 6)

let test_rate_control_tight_budget_reports () =
  let clip = test_clip ~frames:4 () in
  (* An absurd one-byte budget cannot be met. *)
  let outcome = Codec.Rate_control.for_target_bytes ~target_bytes:1 clip in
  check bool "does not fit" false outcome.Codec.Rate_control.fits;
  check int "delivers the coarsest quantiser" 31
    outcome.Codec.Rate_control.encoded.Codec.Encoder.params.Codec.Stream.qp

let test_rate_control_finest_feasible () =
  (* The chosen qp is minimal: one step finer must overshoot. *)
  let clip = test_clip ~frames:6 () in
  let generous = Codec.Encoder.total_bytes (Codec.Encoder.encode_clip clip) in
  let target_bytes = generous * 3 / 4 in
  let outcome = Codec.Rate_control.for_target_bytes ~target_bytes clip in
  let qp = outcome.Codec.Rate_control.encoded.Codec.Encoder.params.Codec.Stream.qp in
  if qp > 1 then begin
    let finer =
      Codec.Encoder.encode_clip
        ~params:{ Codec.Stream.default_params with qp = qp - 1 }
        clip
    in
    check bool "one step finer overshoots" true
      (Codec.Encoder.total_bytes finer > target_bytes)
  end

let test_rate_control_for_link () =
  let clip = test_clip ~frames:8 () in
  (* A link sized to roughly half the default-quality stream. *)
  let default_bytes = Codec.Encoder.total_bytes (Codec.Encoder.encode_clip clip) in
  let duration = Video.Clip.duration_seconds clip in
  let link_bps = float_of_int default_bytes *. 8. /. duration /. 2. in
  let outcome = Codec.Rate_control.for_link ~link_bps clip in
  if outcome.Codec.Rate_control.fits then
    check bool "stream fits the link budget" true
      (float_of_int (Codec.Encoder.total_bytes outcome.Codec.Rate_control.encoded)
       <= 0.8 *. link_bps *. duration /. 8. +. 1.)

let test_per_frame_qp_roundtrip () =
  (* Alternating quantisers frame to frame: the stream must decode and
     the finer frames must look better. *)
  let clip = test_clip ~frames:6 () in
  let encoded =
    Codec.Encoder.encode_clip
      ~qp_for:(fun ~index ~total_bits:_ -> if index mod 2 = 0 then 2 else 28)
      clip
  in
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  check int "all frames decode" 6 (Array.length decoded.Codec.Decoder.frames);
  let psnr i = Image.Metrics.psnr (clip.Video.Clip.render i) decoded.Codec.Decoder.frames.(i) in
  (* Frame 0 (qp 2, intra) is much cleaner than a qp-28 I-frame would
     be; compare I-frame 0 against a qp-28 constant encode. *)
  let coarse =
    Codec.Decoder.decode_exn
      (Codec.Encoder.encode_clip
         ~params:{ Codec.Stream.default_params with qp = 28 } clip)
        .Codec.Encoder.data
  in
  check bool "fine I-frame beats coarse I-frame" true
    (psnr 0 > Image.Metrics.psnr (clip.Video.Clip.render 0) coarse.Codec.Decoder.frames.(0))

let test_per_frame_qp_validated () =
  let clip = test_clip ~frames:2 () in
  Alcotest.check_raises "controller qp out of range"
    (Invalid_argument "Encoder: controller qp out of [1, 31]") (fun () ->
      ignore (Codec.Encoder.encode_clip ~qp_for:(fun ~index:_ ~total_bits:_ -> 0) clip))

let test_single_pass_lands_near_budget () =
  (* A proportional controller carries steady-state error, so the
     landing is loose; what matters is a single pass that tracks the
     budget's ballpark instead of ignoring it. *)
  let clip = test_clip ~frames:24 () in
  let reference = Codec.Encoder.total_bytes (Codec.Encoder.encode_clip clip) in
  let target_bytes = reference * 6 / 10 in
  let outcome = Codec.Rate_control.single_pass ~target_bytes clip in
  check int "single encode" 1 outcome.Codec.Rate_control.encodes_tried;
  let produced = Codec.Encoder.total_bytes outcome.Codec.Rate_control.encoded in
  check bool
    (Printf.sprintf "landed within 35%% of budget (%d vs %d)" produced target_bytes)
    true
    (produced < target_bytes * 135 / 100 && produced > target_bytes / 2);
  check bool "well below the uncontrolled size" true (produced < reference * 85 / 100)

let test_rate_control_min_qp_floor () =
  let clip = test_clip ~frames:4 () in
  let outcome =
    Codec.Rate_control.for_target_bytes ~min_qp:12 ~target_bytes:10_000_000 clip
  in
  check bool "floor respected even with a huge budget" true
    (outcome.Codec.Rate_control.encoded.Codec.Encoder.params.Codec.Stream.qp >= 12)

let test_rate_control_validation () =
  let clip = test_clip ~frames:1 () in
  Alcotest.check_raises "bad target"
    (Invalid_argument "Rate_control.for_target_bytes: target must be positive")
    (fun () -> ignore (Codec.Rate_control.for_target_bytes ~target_bytes:0 clip))

(* --- Golden bitstreams ----------------------------------------------------- *)

(* The codec's output is pinned bit for bit: every case hashes its
   encoded stream, every frame [Decoder.decode] reconstructs, and
   frame-level decodes that conceal one lost frame (the client's loss
   path) and then predict from the concealed picture. The digests were
   taken from the straightforward reference implementation; a speed-up
   of the transform, motion search or plane conversion must leave every
   one unchanged. *)

let workload_clip profile ~frames =
  let lazy_clip = Video.Clip_gen.render ~width:96 ~height:72 ~fps:12. profile in
  Video.Clip.of_frames ~name:lazy_clip.Video.Clip.name ~fps:12.
    (Array.init frames lazy_clip.Video.Clip.render)

let add_raster buf img =
  Image.Raster.iter
    (fun ~x:_ ~y:_ { Image.Pixel.r; g; b } ->
      Buffer.add_char buf (Char.chr r);
      Buffer.add_char buf (Char.chr g);
      Buffer.add_char buf (Char.chr b))
    img

let frame_payloads (encoded : Codec.Encoder.encoded) header_bytes =
  let offset = ref header_bytes in
  Array.map
    (fun bits ->
      let payload = String.sub encoded.Codec.Encoder.data !offset ((bits + 7) / 8) in
      offset := !offset + ((bits + 7) / 8);
      payload)
    encoded.Codec.Encoder.frame_sizes_bits

let golden_digest ?i_frame_at ~params ~lost clip =
  let encoded = Codec.Encoder.encode_clip ~params ?i_frame_at clip in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf encoded.Codec.Encoder.data;
  Array.iter (add_raster buf)
    (Codec.Decoder.decode_exn encoded.Codec.Encoder.data).Codec.Decoder.frames;
  let info = Result.get_ok (Codec.Decoder.parse_header encoded.Codec.Encoder.data) in
  let payloads = frame_payloads encoded info.Codec.Decoder.header_bytes in
  (* Conceal the lost frame twice: by keeping the decoder's own
     reference, and by rebuilding one from the last displayed picture
     (display size, not the codec's padded geometry). *)
  List.iter
    (fun from_picture ->
      let reference = ref None and picture = ref None in
      Array.iteri
        (fun i payload ->
          if i = lost && from_picture then
            reference := Option.map Codec.Decoder.reference_of_raster !picture
          else if i <> lost then
            match Codec.Decoder.decode_frame ~info ~reference:!reference payload with
            | Ok (shown, next) ->
              add_raster buf shown;
              picture := Some shown;
              reference := Some next
            | Error msg -> Alcotest.fail msg)
        payloads)
    [ false; true ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_cases =
  let p ~qp ~gop ~search_range = { Codec.Stream.qp; gop; search_range } in
  let catwoman = lazy (workload_clip Video.Workloads.catwoman ~frames:12)
  and ice_age = lazy (workload_clip Video.Workloads.ice_age ~frames:12)
  and spiderman = lazy (workload_clip Video.Workloads.spiderman2 ~frames:12)
  and odd = lazy (test_clip ~width:50 ~height:38 ~frames:8 ~seed:5 ()) in
  [
    ("catwoman default", catwoman, p ~qp:8 ~gop:12 ~search_range:4, None,
     "88e38996632fa668784abe5ef6bc5b7c");
    ("catwoman range 7 qp 1", catwoman, p ~qp:1 ~gop:12 ~search_range:7, None,
     "3b7b1cbf498d9c3a838294db396904a7");
    ("ice_age qp 31", ice_age, p ~qp:31 ~gop:12 ~search_range:4, None,
     "c6e97d3a1e4158f0a99882ec48d20a23");
    ("ice_age all intra", ice_age, p ~qp:8 ~gop:1 ~search_range:4, None,
     "c920a1e53320d94a879aa464a34393ad");
    ("spiderman2 range 0", spiderman, p ~qp:8 ~gop:12 ~search_range:0, None,
     "d0fa9b7f2c99ecf512580563cc61d008");
    ("spiderman2 custom I frames", spiderman, p ~qp:1 ~gop:100 ~search_range:7,
     Some (fun i -> i = 0 || i = 5 || i = 9), "0c0292e736a6633413a4a65f528150b2");
    ("50x38 range 7", odd, p ~qp:8 ~gop:12 ~search_range:7, None,
     "5086b722526e148026f185939586545a");
    ("50x38 range 0 qp 31", odd, p ~qp:31 ~gop:12 ~search_range:0, None,
     "a3c7937b090247ce1b198f4cf42d5ac7");
    ("50x38 qp 1 gop 1", odd, p ~qp:1 ~gop:1 ~search_range:4, None,
     "928fc262e24c3f9a0c99248aead21685");
  ]

let test_golden_digests () =
  List.iter
    (fun (name, clip, params, i_frame_at, expected) ->
      let got = golden_digest ?i_frame_at ~params ~lost:3 (Lazy.force clip) in
      check Alcotest.string name expected got)
    golden_cases

(* --- Equivalence with the straightforward implementations ------------------ *)

let same_bits a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let prop_dct_matches_closure_transform =
  QCheck2.Test.make ~count:300 ~name:"flat DCT is bit-identical to the closure transform"
    QCheck2.Gen.(array_size (return 64) (float_range (-400.) 400.))
    (fun block ->
      same_bits (dct_forward block) (Ref.forward block)
      && same_bits (dct_inverse block) (Ref.inverse block))

(* Coefficient blocks that are non-zero only inside their top-left
   [rows] x [cols] corner, with zeros of both signs inside it as well
   as outside: all-zero, DC-only, sparse and dense blocks. Subnormal
   entries make products that round to a signed zero, so a sum that
   started from -0. would show. *)
let sparse_coeffs_gen =
  QCheck2.Gen.(
    let* rows = 0 -- 8 and* cols = 0 -- 8 and* density = oneofl [ 0.1; 0.5; 1. ] in
    let zero = oneofl [ 0.; -0. ] in
    let entry i =
      if i / 8 >= rows || i mod 8 >= cols then zero
      else
        let* p = float_bound_inclusive 1. in
        if p < density then
          oneof
            [
              float_range (-2000.) 2000.;
              map float_of_int (-300 -- 300);
              map (fun k -> float_of_int k *. 5e-324) (-3 -- 3);
            ]
        else zero
    in
    flatten_a (Array.init 64 entry))

let print_floats a =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))

let prop_sparse_inverse_matches_dense =
  QCheck2.Test.make ~count:1000
    ~name:"sparse inverse DCT is bit-identical to the dense transform"
    ~print:print_floats sparse_coeffs_gen
    (fun coeffs -> same_bits (dct_inverse coeffs) (Ref.inverse coeffs))

(* Halves, their neighbours either side, the 2^52 boundary past which
   every float is an integer, and arbitrary values. *)
let rounding_cases_gen =
  QCheck2.Gen.(
    let near x = oneofl [ x; Float.pred x; Float.succ x ] in
    let sign x = oneofl [ x; -.x ] in
    oneof
      [
        (let* k = 0 -- 100_000 in
         let* x = sign (float_of_int k +. 0.5) in
         near x);
        (let* x = sign 4503599627370496. in
         near x);
        (let* k = 0 -- 3 in
         let* x = sign (4503599627370496. -. float_of_int k -. 0.5) in
         near x);
        float_range (-1e9) 1e9;
        float_range (-2.) 2.;
      ])

let prop_round_matches_float_round =
  QCheck2.Test.make ~count:2000 ~name:"inline rounding equals Float.round"
    ~print:(Printf.sprintf "%h") rounding_cases_gen
    (fun x -> Codec.Quant.round x = int_of_float (Float.round x))

let test_round_edges () =
  List.iter
    (fun x ->
      check int (Printf.sprintf "%h" x) (int_of_float (Float.round x)) (Codec.Quant.round x))
    [
      0.; -0.; 0.5; -0.5; Float.pred 0.5; Float.succ (-0.5); 1.5; -1.5; 2.5; -2.5;
      4503599627370496.; -4503599627370496.; 4503599627370495.5; -4503599627370495.5;
      Float.pred 4503599627370496.; Float.succ (-4503599627370496.);
    ]

(* Coefficients at and around the magnitudes where a level leaves 0:
   0.49 and 0.5 of their step, either sign, one ulp either side, and
   arbitrary values. *)
let prop_quantise_matches_division =
  QCheck2.Test.make ~count:500 ~name:"quantise matches division and Float.round"
    QCheck2.Gen.(
      let* qp = 1 -- 31 and* kind = oneofl [ Codec.Quant.Luma; Codec.Quant.Chroma ] in
      let steps = Ref.steps (Codec.Quant.make ~qp) kind in
      let* coeffs =
        flatten_a
          (Array.init 64 (fun i ->
               let* f = oneofl [ 0.49; 0.5; 1.5 ] and* sign = oneofl [ 1.; -1. ] in
               let x = sign *. f *. steps.(i) in
               oneof [ oneofl [ x; Float.pred x; Float.succ x ]; float_range (-500.) 500. ]))
      in
      return (qp, kind, coeffs))
    (fun (qp, kind, coeffs) ->
      let q = Codec.Quant.make ~qp in
      quantise q kind coeffs = Ref.quantise q kind coeffs)

(* 64 block samples: flat ones (where the DC level dominates), noisy
   ones, and whatever lies in between. *)
let block_samples_gen =
  QCheck2.Gen.(
    let* level = 0 -- 255 and* spread = oneofl [ 0; 2; 16; 255 ] in
    array_size (return 64)
      (map (fun d -> max 0 (min 255 (level + d))) (-spread -- spread)))

let kind_gen = QCheck2.Gen.oneofl [ Codec.Quant.Luma; Codec.Quant.Chroma ]

(* The intra candidate is skipped when the inter cost is at most this
   bound, and ties go to inter: so it is skipped only where its cost
   could not have won, exactly when the bound never exceeds that
   cost. *)
let prop_intra_bound_is_a_lower_bound =
  QCheck2.Test.make ~count:1000 ~name:"intra skip never skips a winning intra block"
    QCheck2.Gen.(triple block_samples_gen (1 -- 31) kind_gen)
    (fun (samples, qp, kind) ->
      let q = Codec.Quant.make ~qp in
      let s = Codec.Block_codec.scratch () in
      let levels = Array.make 64 0 in
      Codec.Block_codec.code_intra s q kind samples levels;
      Codec.Block_codec.intra_cost_bound s q kind samples
      <= 1 + Codec.Coeff.bit_cost levels)

(* The block kernels code and reconstruct exactly as the allocating
   forms do, whatever the buffers held before. *)
let prop_block_kernels_match_reference =
  QCheck2.Test.make ~count:500 ~name:"block kernels match the allocating forms"
    QCheck2.Gen.(
      quad block_samples_gen block_samples_gen (1 -- 31) kind_gen)
    (fun (samples, prediction, qp, kind) ->
      let q = Codec.Quant.make ~qp in
      let s = Codec.Block_codec.scratch () in
      let levels = Array.make 64 7 in
      Codec.Block_codec.code_intra s q kind samples levels;
      let intra_ok = levels = Ref.code_intra q kind (floats samples) in
      let p = Codec.Plane.create ~width:16 ~height:16 in
      let r = Codec.Plane.create ~width:16 ~height:16 in
      Codec.Block_codec.reconstruct_intra s q kind levels p ~x:8 ~y:8;
      Ref.store_block r ~x:8 ~y:8 (Ref.reconstruct_intra q kind levels);
      let intra_recon_ok = Codec.Plane.equal p r in
      Codec.Block_codec.code_inter s q kind ~samples ~prediction levels;
      let inter_ok =
        levels
        = Ref.code_inter q kind ~samples:(floats samples) ~prediction:(floats prediction)
      in
      Codec.Block_codec.reconstruct_inter s q kind ~prediction levels p ~x:0 ~y:8;
      Ref.store_block r ~x:0 ~y:8
        (Ref.reconstruct_inter q kind ~prediction:(floats prediction) levels);
      intra_ok && intra_recon_ok && inter_ok && Codec.Plane.equal p r)

(* Pictures of every size from 1x1 to 41x41, random bytes. *)
let raster_gen =
  QCheck2.Gen.(
    let* width = 1 -- 41 and* height = 1 -- 41 and* seed = 0 -- 100_000 in
    let rng = Image.Prng.create ~seed in
    let img = Image.Raster.create ~width ~height in
    let data = Image.Raster.data img in
    Bytes.iteri (fun i _ -> Bytes.set data i (Char.chr (Image.Prng.int rng 256))) data;
    return img)

let prop_planes_in_place_match_reference =
  QCheck2.Test.make ~count:300 ~name:"in-place YCbCr planes match padded conversion"
    ~print:(fun img ->
      Printf.sprintf "%dx%d" (Image.Raster.width img) (Image.Raster.height img))
    raster_gen
    (fun img ->
      let width = Image.Raster.width img and height = Image.Raster.height img in
      let f = Codec.Plane.create_ycbcr ~width ~height in
      (* Stale samples from another picture must not leak through. *)
      let noise = Image.Raster.create ~width ~height in
      Image.Raster.fill noise (Image.Pixel.v 250 3 128);
      Codec.Plane.of_raster_into noise f;
      Codec.Plane.of_raster_into img f;
      let r = Ref.of_raster img in
      let pad p = Ref.pad_to_multiple p 8 in
      Codec.Plane.equal f.Codec.Plane.y (pad r.Codec.Plane.y)
      && Codec.Plane.equal f.Codec.Plane.cb (pad r.Codec.Plane.cb)
      && Codec.Plane.equal f.Codec.Plane.cr (pad r.Codec.Plane.cr)
      && Image.Raster.equal
           (Codec.Plane.to_raster ~width ~height f)
           (Codec.Plane.to_raster r))

(* Edge-clamped reads straight from the plane. *)
let clamped_halfpel p ~hx ~hy =
  let ix = hx asr 1 and iy = hy asr 1 in
  let s dx dy = Codec.Plane.get p ~x:(ix + dx) ~y:(iy + dy) in
  match (hx land 1, hy land 1) with
  | 0, 0 -> s 0 0
  | 1, 0 -> (s 0 0 + s 1 0 + 1) / 2
  | 0, 1 -> (s 0 0 + s 0 1 + 1) / 2
  | _ -> (s 0 0 + s 1 0 + s 0 1 + s 1 1 + 2) / 4

let clamped_sad ?(halfpel = false) current reference ~x ~y (v : Codec.Motion.vector) =
  let acc = ref 0 in
  for by = 0 to 7 do
    for bx = 0 to 7 do
      let r =
        if halfpel then
          clamped_halfpel reference ~hx:((2 * (x + bx)) + v.Codec.Motion.dx)
            ~hy:((2 * (y + by)) + v.Codec.Motion.dy)
        else
          Codec.Plane.get reference ~x:(x + bx + v.Codec.Motion.dx)
            ~y:(y + by + v.Codec.Motion.dy)
      in
      acc := !acc + abs (Codec.Plane.get current ~x:(x + bx) ~y:(y + by) - r)
    done
  done;
  !acc

(* A pair of planes of odd or even size from 8x8 up, with samples drawn
   from [-offset, levels - offset] (few levels make SAD ties common;
   negative samples make rounding of the half-pel average visible), and
   an 8x8 block position inside them. *)
type motion_case = {
  current : Codec.Plane.t;
  reference : Codec.Plane.t;
  bx : int;
  by : int;
}

let motion_case_gen =
  QCheck2.Gen.(
    map
      (fun (((w, h), (levels, offset, seed)), (fx, fy)) ->
        let rng = Image.Prng.create ~seed in
        let plane () =
          let p = Codec.Plane.create ~width:w ~height:h in
          for i = 0 to (w * h) - 1 do
            p.Codec.Plane.samples.(i) <- Image.Prng.int rng (levels + 1) - offset
          done;
          p
        in
        let current = plane () in
        let reference = plane () in
        {
          current;
          reference;
          bx = int_of_float (fx *. float_of_int (w - 8));
          by = int_of_float (fy *. float_of_int (h - 8));
        })
      (pair
         (pair
            (pair (8 -- 29) (8 -- 23))
            (triple (oneofl [ 1; 3; 255 ]) (oneofl [ 0; 128 ]) (0 -- 100_000)))
         (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.))))

let print_motion_case c =
  Printf.sprintf "%dx%d block (%d, %d)" c.current.Codec.Plane.width
    c.current.Codec.Plane.height c.bx c.by

let predicted predict =
  let out = Array.make 64 0 in
  predict out;
  out

let bounded_agrees ~bound ~exact got =
  if exact <= bound then got = exact else got > bound

let prop_bounded_sad_matches_clamped =
  QCheck2.Test.make ~count:300
    ~name:"bounded SAD on the extended plane matches the clamped SAD"
    ~print:(fun (c, (dx, dy), bound) ->
      Printf.sprintf "%s v (%d, %d) bound %d" (print_motion_case c) dx dy bound)
    QCheck2.Gen.(triple motion_case_gen (pair (-40 -- 40) (-40 -- 40)) (0 -- 3000))
    (fun (c, (dx, dy), bound) ->
      let v = { Codec.Motion.dx; dy } in
      let extended = Codec.Motion.extend c.reference in
      let x = c.bx and y = c.by in
      bounded_agrees ~bound
        ~exact:(clamped_sad c.current c.reference ~x ~y v)
        (Codec.Motion.sad ~bound c.current extended ~x ~y v)
      && bounded_agrees ~bound
           ~exact:(clamped_sad ~halfpel:true c.current c.reference ~x ~y v)
           (Codec.Motion.sad_halfpel ~bound c.current extended ~x ~y v)
      && predicted (Codec.Motion.predict extended ~x ~y v)
         = Array.init 64 (fun i ->
               Codec.Plane.get c.reference ~x:(x + (i mod 8) + dx) ~y:(y + (i / 8) + dy))
      && predicted (Codec.Motion.predict_halfpel extended ~x ~y v)
         = Array.init 64 (fun i ->
               clamped_halfpel c.reference
                 ~hx:((2 * (x + (i mod 8))) + dx)
                 ~hy:((2 * (y + (i / 8))) + dy)))

(* Every candidate in raster order, keeping the least (SAD, |v|_1);
   the first such wins. *)
let brute_force_search ~range c =
  let best = ref None in
  for dy = -range to range do
    for dx = -range to range do
      let v = { Codec.Motion.dx; dy } in
      let key = (clamped_sad c.current c.reference ~x:c.bx ~y:c.by v, abs dx + abs dy) in
      match !best with
      | Some (k, _) when compare key k >= 0 -> ()
      | _ -> best := Some (key, v)
    done
  done;
  match !best with Some ((sad, _), v) -> (v, sad) | None -> assert false

let prop_search_matches_brute_force =
  QCheck2.Test.make ~count:200 ~name:"motion search matches brute force"
    ~print:(fun (c, range) -> Printf.sprintf "%s range %d" (print_motion_case c) range)
    QCheck2.Gen.(pair motion_case_gen (0 -- 7))
    (fun (c, range) ->
      Codec.Motion.search ~range ~current:c.current
        ~reference:(Codec.Motion.extend c.reference) ~x:c.bx ~y:c.by ()
      = brute_force_search ~range c)

(* The encoder's reconstruction is the decoder's output: the client
   shows it instead of decoding frames whose prediction chain arrived
   intact. Any size from 8x8 up, fixed or per-frame quantisers, fixed
   GOPs or custom I-frame placement. *)
let prop_reconstruction_matches_decode =
  let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0') in
  QCheck2.Test.make ~count:100 ~name:"encoder reconstruction equals the decoded frames"
    ~print:(fun ((width, height, frames, seed), (qp, gop, i_frames, qps)) ->
      Printf.sprintf "%dx%d %d frames seed %d qp %d gop %d i-frames %s qps %s" width
        height frames seed qp gop
        (match i_frames with Some a -> bits a | None -> "-")
        (match qps with
        | Some a -> String.concat "," (Array.to_list (Array.map string_of_int a))
        | None -> "-"))
    QCheck2.Gen.(
      let* width = 8 -- 41 and* height = 8 -- 33 and* frames = 1 -- 10 in
      let* seed = 0 -- 10_000 and* qp = 1 -- 31 and* gop = oneofl [ 1; 3; 12 ] in
      let* i_frames = opt (array_size (return frames) bool) in
      let* qps = opt (array_size (return frames) (1 -- 31)) in
      return ((width, height, frames, seed), (qp, gop, i_frames, qps)))
    (fun ((width, height, frames, seed), (qp, gop, i_frames, qps)) ->
      let clip = test_clip ~width ~height ~frames ~seed () in
      let encoded =
        Codec.Encoder.encode_clip
          ~params:{ Codec.Stream.qp; gop; search_range = 3 }
          ?i_frame_at:(Option.map (fun a i -> a.(i mod frames)) i_frames)
          ?qp_for:(Option.map (fun a ~index ~total_bits:_ -> a.(index mod frames)) qps)
          clip
      in
      let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
      let reconstruction = encoded.Codec.Encoder.reconstruction in
      Array.length reconstruction = Array.length decoded.Codec.Decoder.frames
      && Array.for_all2 Image.Raster.equal reconstruction decoded.Codec.Decoder.frames)

(* A cursor's failures are the frame-level decoder's: a P-frame with
   nothing loaded, a truncated payload. A reference of another
   geometry is refused before anything is overwritten. *)
let test_decoder_cursor_errors () =
  let encoded = Codec.Encoder.encode_clip (test_clip ~width:16 ~height:12 ~frames:3 ()) in
  let info = Result.get_ok (Codec.Decoder.parse_header encoded.Codec.Encoder.data) in
  let payloads = frame_payloads encoded info.Codec.Decoder.header_bytes in
  let same what payload got =
    match (Codec.Decoder.decode_frame ~info ~reference:None payload, got) with
    | Error a, Error b -> check Alcotest.string what a b
    | _ -> Alcotest.failf "%s: expected both to fail" what
  in
  let p_first = Codec.Decoder.advance (Codec.Decoder.cursor info) payloads.(1) in
  same "P frame first" payloads.(1) p_first;
  check (Alcotest.result Alcotest.unit Alcotest.string) "P frame without reference"
    (Error "P frame without reference") p_first;
  let cut = String.sub payloads.(0) 0 3 in
  same "truncated" cut (Codec.Decoder.advance (Codec.Decoder.cursor info) cut);
  let other = Codec.Encoder.encode_clip (test_clip ~width:24 ~height:12 ~frames:1 ()) in
  Alcotest.check_raises "foreign geometry"
    (Invalid_argument "Plane.unpack_into: geometry mismatch") (fun () ->
      Codec.Decoder.resume (Codec.Decoder.cursor info) other.Codec.Encoder.references.(0))

(* A packed reference is exact: unpacking restores every sample of
   clamped planes in the codec's padded geometry, odd sizes included. *)
let prop_pack_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"unpacking a packed reference restores clamped planes"
    ~print:(fun (w, h, seed) -> Printf.sprintf "%dx%d seed %d" w h seed)
    QCheck2.Gen.(triple (1 -- 41) (1 -- 33) (0 -- 10_000))
    (fun (width, height, seed) ->
      let rng = Image.Prng.create ~seed in
      let planes = Codec.Plane.create_ycbcr ~width ~height in
      List.iter
        (fun p ->
          let s = p.Codec.Plane.samples in
          Array.iteri (fun i _ -> s.(i) <- Image.Prng.int rng 900 - 300) s;
          Codec.Plane.clamp p)
        [ planes.Codec.Plane.y; planes.Codec.Plane.cb; planes.Codec.Plane.cr ];
      let packed = Codec.Plane.pack planes in
      let back = Codec.Plane.create_ycbcr ~width ~height in
      Codec.Plane.unpack_into packed back;
      Codec.Plane.packed_bytes packed = Codec.Plane.ycbcr_samples ~width ~height
      && Codec.Plane.equal planes.Codec.Plane.y back.Codec.Plane.y
      && Codec.Plane.equal planes.Codec.Plane.cb back.Codec.Plane.cb
      && Codec.Plane.equal planes.Codec.Plane.cr back.Codec.Plane.cr)

(* [references.(k)] is the decoder's reference after frame [k]: a
   cursor resumed from it and advanced over every later payload shows
   the encoder's reconstruction of each, starting at P-frame [k + 1].
   Any size from 8x8 up, every qp, fixed GOPs or custom I-frames. *)
let prop_cursor_resumes_from_reference =
  let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0') in
  QCheck2.Test.make ~count:100
    ~name:"a cursor resumed from a reference shows the reconstruction"
    ~print:(fun ((width, height, frames, seed), (qp, gop, i_frames)) ->
      Printf.sprintf "%dx%d %d frames seed %d qp %d gop %d i-frames %s" width height
        frames seed qp gop
        (match i_frames with Some a -> bits a | None -> "-"))
    QCheck2.Gen.(
      let* width = 8 -- 41 and* height = 8 -- 33 and* frames = 2 -- 10 in
      let* seed = 0 -- 10_000 and* qp = 1 -- 31 and* gop = oneofl [ 1; 3; 12 ] in
      let* i_frames = opt (array_size (return frames) (map (fun k -> k = 0) (0 -- 3))) in
      return ((width, height, frames, seed), (qp, gop, i_frames)))
    (fun ((width, height, frames, seed), (qp, gop, i_frames)) ->
      let clip = test_clip ~width ~height ~frames ~seed () in
      let encoded =
        Codec.Encoder.encode_clip
          ~params:{ Codec.Stream.qp; gop; search_range = 3 }
          ?i_frame_at:(Option.map (fun a i -> a.(i)) i_frames)
          clip
      in
      let info = Result.get_ok (Codec.Decoder.parse_header encoded.Codec.Encoder.data) in
      let payloads = frame_payloads encoded info.Codec.Decoder.header_bytes in
      let reconstruction = encoded.Codec.Encoder.reconstruction in
      let c = Codec.Decoder.cursor info in
      List.for_all
        (fun k ->
          encoded.Codec.Encoder.frame_types.(k + 1) <> Codec.Stream.P_frame
          || begin
            Codec.Decoder.resume c encoded.Codec.Encoder.references.(k);
            List.for_all
              (fun i ->
                Codec.Decoder.advance c payloads.(i) = Ok ()
                && Image.Raster.equal (Codec.Decoder.picture c) reconstruction.(i))
              (List.init (frames - k - 1) (fun j -> k + 1 + j))
          end)
        (List.init (frames - 1) Fun.id))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bitio_roundtrip;
      prop_golomb_ue_roundtrip;
      prop_golomb_se_roundtrip;
      prop_zigzag_roundtrip;
      prop_coeff_roundtrip;
      prop_dct_matches_closure_transform;
      prop_sparse_inverse_matches_dense;
      prop_round_matches_float_round;
      prop_quantise_matches_division;
      prop_intra_bound_is_a_lower_bound;
      prop_block_kernels_match_reference;
      prop_planes_in_place_match_reference;
      prop_bounded_sad_matches_clamped;
      prop_search_matches_brute_force;
      prop_reconstruction_matches_decode;
      prop_pack_roundtrip;
      prop_cursor_resumes_from_reference;
    ]

let () =
  Alcotest.run "codec"
    [
      ( "bitio",
        [
          Alcotest.test_case "single bits" `Quick test_bitio_single_bits;
          Alcotest.test_case "multibit values" `Quick test_bitio_multibit_values;
          Alcotest.test_case "value too wide" `Quick test_bitio_value_too_wide;
          Alcotest.test_case "alignment" `Quick test_bitio_alignment;
          Alcotest.test_case "out of bits" `Quick test_bitio_out_of_bits;
        ] );
      ( "golomb",
        [
          Alcotest.test_case "small values" `Quick test_golomb_small_values;
          Alcotest.test_case "code lengths" `Quick test_golomb_code_lengths;
          Alcotest.test_case "negative rejected" `Quick test_golomb_negative_rejected;
        ] );
      ( "zigzag",
        [
          Alcotest.test_case "permutation" `Quick test_zigzag_is_permutation;
          Alcotest.test_case "starts at DC" `Quick test_zigzag_starts_at_dc;
        ] );
      ( "dct",
        [
          Alcotest.test_case "roundtrip accuracy" `Quick test_dct_roundtrip_accuracy;
          Alcotest.test_case "flat block DC" `Quick test_dct_dc_of_flat_block;
          Alcotest.test_case "parseval" `Quick test_dct_parseval;
          Alcotest.test_case "bad size" `Quick test_dct_bad_size;
        ] );
      ( "quant",
        [
          Alcotest.test_case "zero preserved" `Quick test_quant_zero_preserved;
          Alcotest.test_case "coarser at higher qp" `Quick test_quant_coarser_at_higher_qp;
          Alcotest.test_case "bounded error" `Quick test_quant_dequant_bounded_error;
          Alcotest.test_case "invalid qp" `Quick test_quant_invalid_qp;
          Alcotest.test_case "rounding edges" `Quick test_round_edges;
        ] );
      ( "coeff",
        [
          Alcotest.test_case "all-zero block" `Quick test_coeff_all_zero_block;
          Alcotest.test_case "sparse block" `Quick test_coeff_sparse_block;
          Alcotest.test_case "exact bit cost" `Quick test_coeff_bit_cost_exact;
        ] );
      ( "plane",
        [
          Alcotest.test_case "edge clamped reads" `Quick test_plane_edge_clamped_reads;
          Alcotest.test_case "pad and crop" `Quick test_plane_pad_and_crop;
          Alcotest.test_case "aligned pad no-op" `Quick test_plane_pad_identity_when_aligned;
          Alcotest.test_case "ycbcr gray roundtrip" `Quick test_plane_ycbcr_gray_roundtrip;
          Alcotest.test_case "ycbcr color bounded" `Quick test_plane_ycbcr_color_bounded;
        ] );
      ( "motion",
        [
          Alcotest.test_case "finds exact shift" `Quick test_motion_finds_exact_shift;
          Alcotest.test_case "zero preferred on tie" `Quick test_motion_zero_preferred_on_tie;
          Alcotest.test_case "halve" `Quick test_motion_halve;
          Alcotest.test_case "halfpel exact at integers" `Quick
            test_motion_halfpel_integer_positions_exact;
          Alcotest.test_case "halfpel interpolates" `Quick test_motion_halfpel_interpolates;
          Alcotest.test_case "halfpel refinement" `Quick
            test_motion_halfpel_refinement_wins_on_subpel_shift;
          Alcotest.test_case "chroma vector" `Quick test_motion_chroma_vector;
          Alcotest.test_case "extract/store roundtrip" `Quick
            test_motion_extract_store_roundtrip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "roundtrip PSNR" `Quick test_codec_roundtrip_psnr;
          Alcotest.test_case "P frames smaller" `Quick test_codec_p_frames_smaller;
          Alcotest.test_case "gop structure" `Quick test_codec_gop_structure;
          Alcotest.test_case "qp vs size" `Quick test_codec_higher_qp_smaller_stream;
          Alcotest.test_case "qp vs quality" `Quick test_codec_higher_qp_lower_quality;
          Alcotest.test_case "odd dimensions" `Quick test_codec_odd_dimensions;
          Alcotest.test_case "single frame" `Quick test_codec_single_frame;
          Alcotest.test_case "rejects bad params" `Quick test_codec_rejects_bad_params;
          Alcotest.test_case "static clip compresses" `Quick
            test_codec_static_clip_compresses_well;
        ] );
      ( "gop planner",
        [
          Alcotest.test_case "anchors" `Quick test_gop_planner_anchors;
          Alcotest.test_case "refresh in long scenes" `Quick
            test_gop_planner_refresh_inside_long_scene;
          Alcotest.test_case "validation" `Quick test_gop_planner_validation;
          Alcotest.test_case "encoder custom I frames" `Quick test_encoder_custom_i_frames;
        ] );
      ( "rate control",
        [
          Alcotest.test_case "fits budget" `Quick test_rate_control_fits_budget;
          Alcotest.test_case "tight budget" `Quick test_rate_control_tight_budget_reports;
          Alcotest.test_case "finest feasible" `Quick test_rate_control_finest_feasible;
          Alcotest.test_case "for link" `Quick test_rate_control_for_link;
          Alcotest.test_case "min qp floor" `Quick test_rate_control_min_qp_floor;
          Alcotest.test_case "per-frame qp roundtrip" `Quick test_per_frame_qp_roundtrip;
          Alcotest.test_case "per-frame qp validated" `Quick test_per_frame_qp_validated;
          Alcotest.test_case "single-pass control" `Quick test_single_pass_lands_near_budget;
          Alcotest.test_case "validation" `Quick test_rate_control_validation;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "garbage rejected" `Quick test_decoder_rejects_garbage;
          Alcotest.test_case "truncation rejected" `Quick test_decoder_rejects_truncation;
          Alcotest.test_case "bad magic rejected" `Quick test_decoder_rejects_bad_magic;
          Alcotest.test_case "mutation fuzz" `Quick test_decoder_mutation_fuzz;
          Alcotest.test_case "huge frame count rejected" `Quick
            test_decoder_rejects_huge_frame_count;
          Alcotest.test_case "huge dimensions rejected" `Quick
            test_decoder_rejects_huge_dimensions;
          Alcotest.test_case "cursor errors" `Quick test_decoder_cursor_errors;
        ] );
      ("golden", [ Alcotest.test_case "bitstream digests" `Quick test_golden_digests ]);
      ("properties", qtests);
    ]
