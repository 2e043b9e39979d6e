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

(* Every read and write below is within a 64-entry array whose length
   [check] has verified, or within one of the two 64-entry matrices. *)
external get : float array -> int -> float = "%array_unsafe_get"

external set : float array -> int -> float -> unit = "%array_unsafe_set"

(* Separable transform: rows of [src] into [dst], then the columns of
   [dst] in place. Each output is the left-to-right sum, starting from
   0., of [m.(k * 8 + j) *. sample j] for j = 0..7 — the exact
   operation order of the textbook triple loop, so results are
   bit-identical to it. Never re-associate these sums or contract them
   into fused multiply-adds. The eight inputs of a row or column are
   loaded into locals first, which keeps the floats unboxed and lets
   either pass overwrite its own input, so [src] may be [dst]. *)
let transform m src dst =
  for y = 0 to n - 1 do
    let o = y * n in
    let b0 = get src o and b1 = get src (o + 1) and b2 = get src (o + 2)
    and b3 = get src (o + 3) and b4 = get src (o + 4) and b5 = get src (o + 5)
    and b6 = get src (o + 6) and b7 = get src (o + 7) in
    for u = 0 to n - 1 do
      let r = u * n in
      set dst (o + u)
        (0. +. (get m r *. b0) +. (get m (r + 1) *. b1) +. (get m (r + 2) *. b2)
        +. (get m (r + 3) *. b3) +. (get m (r + 4) *. b4) +. (get m (r + 5) *. b5)
        +. (get m (r + 6) *. b6) +. (get m (r + 7) *. b7))
    done
  done;
  for u = 0 to n - 1 do
    let t0 = get dst u and t1 = get dst (n + u) and t2 = get dst ((2 * n) + u)
    and t3 = get dst ((3 * n) + u) and t4 = get dst ((4 * n) + u)
    and t5 = get dst ((5 * n) + u) and t6 = get dst ((6 * n) + u)
    and t7 = get dst ((7 * n) + u) in
    for v = 0 to n - 1 do
      let r = v * n in
      set dst (r + u)
        (0. +. (get m r *. t0) +. (get m (r + 1) *. t1) +. (get m (r + 2) *. t2)
        +. (get m (r + 3) *. t3) +. (get m (r + 4) *. t4) +. (get m (r + 5) *. t5)
        +. (get m (r + 6) *. t6) +. (get m (r + 7) *. t7))
    done
  done

let obs_ops =
  Obs.counter ~help:"8x8 DCT transforms performed (forward + inverse)"
    "codec_dct_ops_total" []

let count () = if Obs.enabled () then Obs.Metrics.Counter.incr obs_ops

let forward_into src dst =
  check src;
  check dst;
  transform forward_matrix src dst;
  count ()

(* Each sum starts from +0. and so is never -0.: in round-to-nearest a
   sum is -0. only when both addends are. Adding a product with a zero
   factor (a signed zero) therefore leaves every partial sum bit for
   bit unchanged, and the terms of all-zero rows and trailing all-zero
   columns can be skipped. A skipped row of the intermediate is +0.
   throughout, so the column pass skips it too. *)
let inverse_in_place block ~work =
  check block;
  check work;
  let rows = ref 0 and cols = ref 0 in
  for i = 0 to (n * n) - 1 do
    (* lint: allow L007 exactly the entries whose products are signed
       zeros may be skipped *)
    if get block i <> 0. then begin
      rows := (i / n) + 1;
      if (i mod n) + 1 > !cols then cols := (i mod n) + 1
    end
  done;
  let rows = !rows and cols = !cols in
  let m = inverse_matrix in
  if rows = n && cols = n then transform m block block
  else if rows = 0 then Array.fill block 0 (n * n) 0.
  else begin
    for y = 0 to rows - 1 do
      let o = y * n in
      for u = 0 to n - 1 do
        let r = u * n in
        let acc = ref 0. in
        for j = 0 to cols - 1 do
          acc := !acc +. (get m (r + j) *. get block (o + j))
        done;
        set work (o + u) !acc
      done
    done;
    for v = 0 to n - 1 do
      let r = v * n in
      for u = 0 to n - 1 do
        let acc = ref 0. in
        for k = 0 to rows - 1 do
          acc := !acc +. (get m (r + k) *. get work ((k * n) + u))
        done;
        set block (r + u) !acc
      done
    done
  end;
  count ()

(* Coefficient 0 of [forward] alone, by the same operations in the
   same order: the first output of each row pass, then the first
   output of the column pass over them. *)
let forward_dc block =
  check block;
  let m = forward_matrix in
  let acc = ref 0. in
  for y = 0 to n - 1 do
    let o = y * n in
    let t = ref 0. in
    for j = 0 to n - 1 do
      t := !t +. (get m j *. get block (o + j))
    done;
    acc := !acc +. (get m y *. !t)
  done;
  !acc
