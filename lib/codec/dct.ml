let block_size = 8

let n = block_size

(* cosine.(u).(x) = alpha(u) * cos((2x+1) u pi / 16); rows of the 1-D
   orthonormal DCT matrix. *)
let cosine =
  Array.init n (fun u ->
      let alpha = if u = 0 then sqrt (1. /. float_of_int n) else sqrt (2. /. float_of_int n) in
      Array.init n (fun x ->
          alpha
          *. cos (((2. *. float_of_int x) +. 1.) *. float_of_int u *. Float.pi
                  /. (2. *. float_of_int n))))

(* Flat row-major 64-entry matrices: [forward_matrix.(u * 8 + x)] is
   [cosine.(u).(x)] and [inverse_matrix] is its transpose. *)
let forward_matrix = Array.init (n * n) (fun i -> cosine.(i / n).(i mod n))

let inverse_matrix = Array.init (n * n) (fun i -> cosine.(i mod n).(i / n))

let check block =
  if Array.length block <> n * n then invalid_arg "Dct: block must have 64 samples"

(* Separable transform: rows of [src] into [dst], then the columns of
   [dst] in place. Each output is the left-to-right sum, starting from
   0., of [m.(k * 8 + j) *. sample j] for j = 0..7 — the exact
   operation order of the textbook triple loop, so results are
   bit-identical to it. Never re-associate these sums or contract them
   into fused multiply-adds. The eight inputs of a row or column are
   loaded into locals first, which keeps the floats unboxed and lets
   the column pass overwrite its own input. *)
let transform m src dst =
  for y = 0 to n - 1 do
    let o = y * n in
    let b0 = src.(o) and b1 = src.(o + 1) and b2 = src.(o + 2)
    and b3 = src.(o + 3) and b4 = src.(o + 4) and b5 = src.(o + 5)
    and b6 = src.(o + 6) and b7 = src.(o + 7) in
    for u = 0 to n - 1 do
      let r = u * n in
      dst.(o + u) <-
        0. +. (m.(r) *. b0) +. (m.(r + 1) *. b1) +. (m.(r + 2) *. b2)
        +. (m.(r + 3) *. b3) +. (m.(r + 4) *. b4) +. (m.(r + 5) *. b5)
        +. (m.(r + 6) *. b6) +. (m.(r + 7) *. b7)
    done
  done;
  for u = 0 to n - 1 do
    let t0 = dst.(u) and t1 = dst.(n + u) and t2 = dst.((2 * n) + u)
    and t3 = dst.((3 * n) + u) and t4 = dst.((4 * n) + u)
    and t5 = dst.((5 * n) + u) and t6 = dst.((6 * n) + u)
    and t7 = dst.((7 * n) + u) in
    for v = 0 to n - 1 do
      let r = v * n in
      dst.(r + u) <-
        0. +. (m.(r) *. t0) +. (m.(r + 1) *. t1) +. (m.(r + 2) *. t2)
        +. (m.(r + 3) *. t3) +. (m.(r + 4) *. t4) +. (m.(r + 5) *. t5)
        +. (m.(r + 6) *. t6) +. (m.(r + 7) *. t7)
    done
  done

let obs_ops =
  Obs.counter ~help:"8x8 DCT transforms performed (forward + inverse)"
    "codec_dct_ops_total" []

let apply m block =
  check block;
  let out = Array.create_float (n * n) in
  transform m block out;
  if Obs.enabled () then Obs.Metrics.Counter.incr obs_ops;
  out

let forward block = apply forward_matrix block

let inverse block = apply inverse_matrix block
