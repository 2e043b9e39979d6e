(* Host-side measurement helpers: a wall clock, allocation counters and
   order statistics. Everything here runs in the benchmark, outside the
   code under measurement. *)

let now_s () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

(* [timed f] is [f ()] with its wall time in seconds. *)
let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* [measured f] is [f ()] with its wall time and minor-heap words. *)
let measured f =
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let r = f () in
  let dt = now_s () -. t0 in
  (r, dt, Gc.minor_words () -. w0)

(* Linear interpolation between order statistics, as numpy's default. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Timing.quantile: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

(* [percent part whole], 0 for an empty whole. *)
let percent part whole = 100. *. float_of_int part /. float_of_int (max 1 whole)

(* Peak major-heap size of the whole process so far, in MiB. *)
let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(* [repeat_for ~seconds ~min f] calls [f 0], [f 1], ... for about
   [seconds] of wall time: at least [min] times, and once more only
   while the next call is expected to end inside the window. *)
let repeat_for ~seconds ~min f =
  let t0 = now_s () in
  let rec go n acc =
    let elapsed = now_s () -. t0 in
    let per_call = if n = 0 then 0. else elapsed /. float_of_int n in
    if n >= min && elapsed +. per_call > seconds then List.rev acc
    else go (n + 1) (f n :: acc)
  in
  go 0 []

(* --- host speed ---------------------------------------------------------- *)

(* A fixed probe of host speed: scattered reads and writes over a 4 MiB
   array, then a chain of float multiply-adds. It allocates nothing, so
   the collector never runs inside it, and it calls nothing in the
   repository, so no change to the program can move it. A shared host
   changes speed by 20 % and more over minutes; probes taken around a
   block of work track much of that. The array lives outside the OCaml
   heap so it does not count in [peak_heap_mb]. *)
let probe_array =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 19) in
  Bigarray.Array1.fill a 0;
  a

let probe_once () =
  let t0 = now_s () in
  let a = probe_array in
  let mask = Bigarray.Array1.dim a - 1 in
  let j = ref 0 in
  for i = 1 to 8_000_000 do
    j := ((!j * 1103515245) + 12345) land mask;
    a.{!j} <- a.{!j} + i
  done;
  let x = ref 1.0 in
  for i = 1 to 8_000_000 do
    x := (!x *. 1.0000001) +. (float_of_int i *. 1e-9)
  done;
  ignore (Sys.opaque_identity !x);
  now_s () -. t0

(* The probe's time on the reference host. *)
let probe_ref_s = 0.05

(* owned_by: the benchmark's single thread *)
let probe_samples = ref []

(* [probed f] is [f ()], with a probe just before and just after it
   recorded for [host_factor]. Timed blocks of a run are probed this
   way, so the probes sample the host while it does the run's work. *)
let probed f =
  let p0 = probe_once () in
  let r = f () in
  probe_samples := probe_once () :: p0 :: !probe_samples;
  r

(* How much slower than the reference host this run's host was: the
   median of the run's probe times over the reference. A run mostly
   sits in one of the host's speed phases, and the median of dozens of
   probes is far less noisy than any one probe. *)
let host_factor () = median !probe_samples /. probe_ref_s

let probe_count () = List.length !probe_samples

(* [phase_factor f] is [f ()] with the host factor of its own phase:
   three probes before and three after, median over the reference. The
   traced runs subtract and divide phases measured seconds apart, so
   each phase is put in reference-host units on its own. *)
let phase_factor f =
  let before = List.init 3 (fun _ -> probe_once ()) in
  let r = f () in
  let after = List.init 3 (fun _ -> probe_once ()) in
  (r, median (before @ after) /. probe_ref_s)
