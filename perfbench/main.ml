(* Benchmark driver: one workload per process.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Set-up (render the catalog, warm up) runs five times and reports the
   median as setup_s. The untraced run ([--trace 0]) then measures the
   end-to-end metrics for S seconds; the traced run ([--trace 1])
   measures the per-layer metrics instead. Human-readable notes go to
   stdout first; the last line is the JSON result. The exit code is 0
   only when every output check passed. *)

open Perfbench

let usage =
  "main.exe --workload cold_catalog|fleet_clean|fleet_lossy [--seed N] \
   [--seconds S] [--trace 0|1]"

let setup_repeats = 5

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let seed_or d = Option.value !seed ~default:d in
  (* Set up [setup_repeats] times, keeping only the last result so the
     earlier ones do not count in [peak_heap_mb]; report the median
     time. *)
  let repeated_setup f =
    let rec go n last times =
      if n = 0 then (Option.get last, Timing.median times)
      else
        let r, dt = Timing.probed (fun () -> Timing.timed f) in
        go (n - 1) (Some r) (dt :: times)
    in
    go setup_repeats None []
  in
  let render_time f = snd (Timing.timed f) in
  let metrics, attempted, failed, problems, notes, setup_s =
    match !workload with
    | "cold_catalog" ->
      let seed = seed_or Cold_catalog.default_seed in
      let s, setup_s = repeated_setup (fun () -> Cold_catalog.setup ~seed) in
      let m, a, f, p, n =
        if !trace = 0 then Cold_catalog.run ~seed ~seconds:!seconds s
        else
          Cold_catalog.run_traced ~seed
            ~render_s:(render_time Cold_catalog.render)
            s
      in
      (m, a, f, p, n, setup_s)
    | ("fleet_clean" | "fleet_lossy") as w ->
      let kind = if w = "fleet_clean" then Fleet_work.Clean else Fleet_work.Lossy in
      let seed = seed_or Fleet_work.default_seed in
      let s, setup_s = repeated_setup (fun () -> Fleet_work.setup ~seed kind) in
      let m, a, f, p, n =
        if !trace = 0 then Fleet_work.run s ~seconds:!seconds
        else Fleet_work.run_traced s ~render_s:(render_time Fleet_work.render)
      in
      (m, a, f, p, n, setup_s)
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  let specs, metrics, notes =
    if !trace = 0 then begin
      let raw = ("setup_s", setup_s) :: metrics in
      let k = Timing.host_factor () in
      ( Metrics.end_to_end,
        List.map (Metrics.normalise k) raw,
        notes
        @ [
            Printf.sprintf "host factor %.4f (median of %d probes over the %.3f s reference)" k
              (Timing.probe_count ()) Timing.probe_ref_s;
            "in host units: "
            ^ String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s %.6g" n v) raw);
          ] )
    end
    else (Metrics.per_layer, metrics, notes)
  in
  List.iter print_endline notes;
  List.iter (fun p -> print_endline ("CHECK FAILED: " ^ p)) problems;
  let correct = problems = [] && failed = 0 in
  print_endline (Metrics.result_line ~specs ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
