type vector = { dx : int; dy : int }

let zero = { dx = 0; dy = 0 }

let block = 8

let margin = 8

type reference = {
  width : int;
  height : int;
  stride : int;
  origin : int;  (* index of sample (0, 0) *)
  data : int array;
}

(* Plain loops, not [Array.blit]: the reference lives in the major
   heap, where OCaml 5 blits an [int array] through the write barrier,
   one [caml_modify] per element. *)
let extend_into r (p : Plane.t) =
  let w = p.Plane.width and h = p.Plane.height and s = p.Plane.samples in
  if w <> r.width || h <> r.height || Array.length s <> w * h then
    invalid_arg "Motion.extend_into: dimension mismatch";
  let d = r.data in
  for row = 0 to h + (2 * margin) - 1 do
    let src = Int.max 0 (Int.min (h - 1) (row - margin)) * w in
    let dst = row * r.stride in
    let left = Array.unsafe_get s src and right = Array.unsafe_get s (src + w - 1) in
    for i = 0 to margin - 1 do
      Array.unsafe_set d (dst + i) left;
      Array.unsafe_set d (dst + margin + w + i) right
    done;
    for i = 0 to w - 1 do
      Array.unsafe_set d (dst + margin + i) (Array.unsafe_get s (src + i))
    done
  done

let extend (p : Plane.t) =
  let w = p.Plane.width and h = p.Plane.height in
  let stride = w + (2 * margin) in
  let r =
    {
      width = w;
      height = h;
      stride;
      origin = (margin * stride) + margin;
      data = Array.make (stride * (h + (2 * margin))) 0;
    }
  in
  extend_into r p;
  r

(* A displacement that reads wholly past an edge reads nothing but
   that edge's samples, so it can be pulled back to the first
   displacement that does so without changing a single read. Once
   pulled back, every read of a block lies within [margin] of the
   plane: for integer-pel [d] on a block starting at [pos], the reads
   span [pos + d, pos + d + 7] with d in [-(pos + 7), size - 1 - pos]. *)
let clamp_integer d ~pos ~size =
  if d < -(pos + 7) then -(pos + 7) else if d > size - 1 - pos then size - 1 - pos else d

(* The half-pel analogue, in half-sample units. The pulled-back value
   keeps the parity of [d] so the interpolation kind is unchanged, and
   its two taps then read the same edge sample; reads span
   [-8, size + 7]. *)
let clamp_halfpel d ~pos ~size =
  let lo = (-2 * pos) - 16 and hi = 2 * (size - 1 - pos) in
  if d < lo then lo + (d land 1) else if d > hi then hi + (d land 1) else d

let check_block (p : Plane.t) ~x ~y =
  if x < 0 || y < 0 || x + block > p.Plane.width || y + block > p.Plane.height then
    invalid_arg "Motion: block outside the current plane"

(* Unchecked reads, at callers that bound them. *)
external get : int array -> int -> int = "%array_unsafe_get"

(* Branch-free |a - b|: the sign mask of the difference flips and
   corrects it. *)
let absdiff a b =
  let d = a - b in
  let m = d asr 62 in
  (d lxor m) - m

(* SAD of one 8-sample row. The unchecked reads are in bounds: callers
   check the current block with [check_block] and pull reference
   displacements back into the margin. *)
let row_sad c co d ro =
  absdiff (Array.unsafe_get c co) (Array.unsafe_get d ro)
  + absdiff (Array.unsafe_get c (co + 1)) (Array.unsafe_get d (ro + 1))
  + absdiff (Array.unsafe_get c (co + 2)) (Array.unsafe_get d (ro + 2))
  + absdiff (Array.unsafe_get c (co + 3)) (Array.unsafe_get d (ro + 3))
  + absdiff (Array.unsafe_get c (co + 4)) (Array.unsafe_get d (ro + 4))
  + absdiff (Array.unsafe_get c (co + 5)) (Array.unsafe_get d (ro + 5))
  + absdiff (Array.unsafe_get c (co + 6)) (Array.unsafe_get d (ro + 6))
  + absdiff (Array.unsafe_get c (co + 7)) (Array.unsafe_get d (ro + 7))

(* SAD of the current block against the reference block at integer
   displacement (dx, dy), already pulled back. Stops after the first
   row whose partial sum exceeds [bound]. *)
let sad_at ~bound (current : Plane.t) r ~x ~y ~dx ~dy =
  let c = current.Plane.samples and cw = current.Plane.width in
  let acc = ref 0 and by = ref 0 in
  while !by < block && !acc <= bound do
    acc :=
      !acc
      + row_sad c (((y + !by) * cw) + x) r.data
          (r.origin + ((y + !by + dy) * r.stride) + x + dx);
    incr by
  done;
  !acc

let sad ~bound current r ~x ~y v =
  check_block current ~x ~y;
  sad_at ~bound current r ~x ~y
    ~dx:(clamp_integer v.dx ~pos:x ~size:r.width)
    ~dy:(clamp_integer v.dy ~pos:y ~size:r.height)

let vector_norm dx dy = abs dx + abs dy

(* Visits candidates in raster order and keeps the first one minimal
   in (SAD, |v|_1). A candidate's SAD is bounded by the best so far:
   one that exceeds it cannot win, and one that ties is computed
   exactly. *)
let search ?(range = 7) ~current ~reference ~x ~y () =
  check_block current ~x ~y;
  let r = reference in
  let best_dx = ref 0 and best_dy = ref 0 in
  let best_sad = ref (sad_at ~bound:max_int current r ~x ~y ~dx:0 ~dy:0) in
  for dy = -range to range do
    let cdy = clamp_integer dy ~pos:y ~size:r.height in
    for dx = -range to range do
      let s =
        sad_at ~bound:!best_sad current r ~x ~y
          ~dx:(clamp_integer dx ~pos:x ~size:r.width)
          ~dy:cdy
      in
      if
        s < !best_sad
        || (s = !best_sad && vector_norm dx dy < vector_norm !best_dx !best_dy)
      then begin
        best_dx := dx;
        best_dy := dy;
        best_sad := s
      end
    done
  done;
  ({ dx = !best_dx; dy = !best_dy }, !best_sad)

let check_out out =
  if Array.length out <> block * block then invalid_arg "Motion: need a 64-sample block"

let extract_block (p : Plane.t) ~x ~y out =
  check_block p ~x ~y;
  check_out out;
  for by = 0 to block - 1 do
    let o = ((y + by) * p.Plane.width) + x in
    for bx = 0 to block - 1 do
      Array.unsafe_set out ((by * block) + bx) p.Plane.samples.(o + bx)
    done
  done

let predict r ~x ~y v out =
  check_out out;
  let dx = clamp_integer v.dx ~pos:x ~size:r.width
  and dy = clamp_integer v.dy ~pos:y ~size:r.height in
  for by = 0 to block - 1 do
    let o = r.origin + ((y + by + dy) * r.stride) + x + dx in
    for bx = 0 to block - 1 do
      Array.unsafe_set out ((by * block) + bx) r.data.(o + bx)
    done
  done

let halve v = { dx = v.dx / 2; dy = v.dy / 2 }

let to_halfpel v = { dx = 2 * v.dx; dy = 2 * v.dy }

(* A half-pel vector, pulled back, reads from the integer tap at
   [halfpel_base] with horizontal and vertical fractional bits
   [hx land 1] and [hy land 1]: half-pel position 2 * (x + bx) + hx
   has integer part x + bx + (hx asr 1), floored for negative
   vectors. Each interpolation kind then has its own loop, a bilinear
   average rounded to nearest over one, two or four taps. *)
let halfpel_base r ~x ~y ~hx ~hy =
  r.origin + ((y + (hy asr 1)) * r.stride) + x + (hx asr 1)

(* The reads below are in bounds: [check_out] and the pull-back into
   the margin, as for [row_sad]. *)
let predict_halfpel r ~x ~y v out =
  check_out out;
  let hx = clamp_halfpel v.dx ~pos:x ~size:r.width
  and hy = clamp_halfpel v.dy ~pos:y ~size:r.height in
  let base = halfpel_base r ~x ~y ~hx ~hy and s = r.stride and d = r.data in
  match (hx land 1, hy land 1) with
  | 0, 0 ->
    for by = 0 to block - 1 do
      let o = base + (by * s) and k = by * block in
      for bx = 0 to block - 1 do
        Array.unsafe_set out (k + bx) (get d (o + bx))
      done
    done
  | 1, 0 ->
    for by = 0 to block - 1 do
      let o = base + (by * s) and k = by * block in
      for bx = 0 to block - 1 do
        let i = o + bx in
        Array.unsafe_set out (k + bx) ((get d i + get d (i + 1) + 1) / 2)
      done
    done
  | 0, _ ->
    for by = 0 to block - 1 do
      let o = base + (by * s) and k = by * block in
      for bx = 0 to block - 1 do
        let i = o + bx in
        Array.unsafe_set out (k + bx) ((get d i + get d (i + s) + 1) / 2)
      done
    done
  | _ ->
    for by = 0 to block - 1 do
      let o = base + (by * s) and k = by * block in
      for bx = 0 to block - 1 do
        let i = o + bx in
        Array.unsafe_set out (k + bx)
          ((get d i + get d (i + 1) + get d (i + s) + get d (i + s + 1) + 2) / 4)
      done
    done

let sad_halfpel ~bound (current : Plane.t) r ~x ~y v =
  check_block current ~x ~y;
  let hx = clamp_halfpel v.dx ~pos:x ~size:r.width
  and hy = clamp_halfpel v.dy ~pos:y ~size:r.height in
  let base = halfpel_base r ~x ~y ~hx ~hy and s = r.stride and d = r.data in
  let c = current.Plane.samples and cw = current.Plane.width in
  let acc = ref 0 and by = ref 0 in
  (match (hx land 1, hy land 1) with
  | 0, 0 ->
    while !by < block && !acc <= bound do
      acc := !acc + row_sad c (((y + !by) * cw) + x) d (base + (!by * s));
      incr by
    done
  | 1, 0 ->
    while !by < block && !acc <= bound do
      let co = ((y + !by) * cw) + x and ro = base + (!by * s) in
      for bx = 0 to block - 1 do
        let i = ro + bx in
        acc := !acc + absdiff (get c (co + bx)) ((get d i + get d (i + 1) + 1) / 2)
      done;
      incr by
    done
  | 0, _ ->
    while !by < block && !acc <= bound do
      let co = ((y + !by) * cw) + x and ro = base + (!by * s) in
      for bx = 0 to block - 1 do
        let i = ro + bx in
        acc := !acc + absdiff (get c (co + bx)) ((get d i + get d (i + s) + 1) / 2)
      done;
      incr by
    done
  | _ ->
    while !by < block && !acc <= bound do
      let co = ((y + !by) * cw) + x and ro = base + (!by * s) in
      for bx = 0 to block - 1 do
        let i = ro + bx in
        acc :=
          !acc
          + absdiff (get c (co + bx))
              ((get d i + get d (i + 1) + get d (i + s) + get d (i + s + 1) + 2) / 4)
      done;
      incr by
    done);
  !acc

(* Strict improvement only: the centre wins every tie. *)
let refine_halfpel ~current ~reference ~x ~y best_integer =
  let centre = to_halfpel best_integer in
  let best = ref centre
  and best_sad = ref (sad_halfpel ~bound:max_int current reference ~x ~y centre) in
  for dy = -1 to 1 do
    for dx = -1 to 1 do
      if dx <> 0 || dy <> 0 then begin
        let v = { dx = centre.dx + dx; dy = centre.dy + dy } in
        let s = sad_halfpel ~bound:!best_sad current reference ~x ~y v in
        if s < !best_sad then begin
          best := v;
          best_sad := s
        end
      end
    done
  done;
  (!best, !best_sad)

let chroma_vector v = { dx = v.dx asr 2; dy = v.dy asr 2 }
