(* Both the writer and the bit counter walk the 64 levels in zig-zag
   order, emitting or counting (zero-run, level) pairs as they go. *)

let check levels =
  if Array.length levels <> 64 then invalid_arg "Zigzag: need 64 levels"

let nonzero_count levels =
  let count = ref 0 in
  for i = 0 to 63 do
    if levels.(i) <> 0 then incr count
  done;
  !count

let write_block w levels =
  check levels;
  Golomb.write_ue w (nonzero_count levels);
  let run = ref 0 in
  for k = 0 to 63 do
    let level = levels.(Zigzag.scan_order.(k)) in
    if level = 0 then incr run
    else begin
      Golomb.write_ue w !run;
      Golomb.write_se w level;
      run := 0
    end
  done

let read_block_into r levels =
  check levels;
  let nnz = Golomb.read_ue r in
  if nnz > 64 then invalid_arg "Coeff.read_block: too many coefficients";
  Array.fill levels 0 64 0;
  let pos = ref 0 in
  for _ = 1 to nnz do
    let run = Golomb.read_ue r in
    let level = Golomb.read_se r in
    let k = !pos + run in
    if k > 63 then invalid_arg "Coeff.read_block: run past end of block";
    if level = 0 then invalid_arg "Coeff.read_block: zero level";
    levels.(Zigzag.scan_order.(k)) <- level;
    pos := k + 1
  done

let bit_cost levels =
  check levels;
  let nnz = ref 0 and bits = ref 0 and run = ref 0 in
  for k = 0 to 63 do
    let level = levels.(Zigzag.scan_order.(k)) in
    if level = 0 then incr run
    else begin
      incr nnz;
      bits :=
        !bits + Golomb.ue_bit_length !run
        + Golomb.se_bit_length level;
      run := 0
    end
  done;
  Golomb.ue_bit_length !nnz + !bits
