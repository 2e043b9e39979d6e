(* Tests for the benchmark itself: its metric catalogue against the
   naming rules and BENCHMARK.json, its result line, and its output
   checks — each check must pass on honest output and fire on tampered
   output. *)

open Perfbench

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* --- catalogue ------------------------------------------------------------ *)

let all_specs = Metrics.end_to_end @ Metrics.per_layer

let test_names_valid () =
  List.iter
    (fun (s : Metrics.spec) ->
      check bool ("valid name " ^ s.name) true (Metrics.valid_name s.name);
      check bool ("valid unit for " ^ s.name) true (Metrics.valid_unit s.unit_))
    all_specs;
  let names = List.map (fun (s : Metrics.spec) -> s.name) all_specs in
  check int "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (s : Metrics.spec) ->
      match s.bound with
      | Some b -> check bool ("bound of " ^ s.name) true (b > 0. && b <= 0.25)
      | None -> Alcotest.failf "end-to-end metric %s has no bound" s.name)
    Metrics.end_to_end;
  check bool "per-layer metrics carry no bound" true
    (List.for_all (fun (s : Metrics.spec) -> s.bound = None) Metrics.per_layer);
  match List.find_opt (fun (s : Metrics.spec) -> s.name = "setup_s") Metrics.end_to_end with
  | Some s ->
    check string "setup_s unit" "s" s.unit_;
    check bool "setup_s lower is better" true (s.better = Metrics.Lower);
    check bool "setup_s has the largest bound" true
      (List.for_all (fun (o : Metrics.spec) -> o.bound <= s.bound) Metrics.end_to_end)
  | None -> Alcotest.fail "no setup_s metric"

let test_name_rules () =
  List.iter
    (fun (n, ok) -> check bool ("name " ^ n) ok (Metrics.valid_name n))
    [
      ("a", true);
      ("9lives", true);
      ("codec.encode_us_per_frame", true);
      ("", false);
      ("_lead", false);
      (".lead", false);
      ("has space", false);
      ("slash/no", false);
      (String.make 64 'x', true);
      (String.make 65 'x', false);
    ];
  List.iter
    (fun (u, ok) -> check bool ("unit " ^ u) ok (Metrics.valid_unit u))
    [ ("ms", true); ("1/s", true); ("%", true); ("frames/s", true); ("", false);
      ("micro seconds", false); (String.make 17 'u', false) ]

let member_exn key json =
  match Obs.Json.member key json with
  | Some v -> v
  | None -> Alcotest.failf "BENCHMARK.json: no key %s" key

let as_string = function Obs.Json.String s -> s | _ -> Alcotest.fail "expected a string"
let as_list = function Obs.Json.List l -> l | _ -> Alcotest.fail "expected a list"

let as_float = function
  | Obs.Json.Float f -> f
  | Obs.Json.Int i -> float_of_int i
  | _ -> Alcotest.fail "expected a number"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_benchmark_json () =
  let json =
    match Obs.Json.of_string (read_file "../../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json does not parse: %s" e
  in
  (match json with
  | Obs.Json.Obj fields ->
    check (Alcotest.list string) "top-level keys"
      [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
      (List.sort compare (List.map fst fields))
  | _ -> Alcotest.fail "BENCHMARK.json is not an object");
  let specs key =
    List.map
      (fun m ->
        let better = as_string (member_exn "better" m) in
        ( as_string (member_exn "name" m),
          as_string (member_exn "unit" m),
          better,
          Option.map as_float (Obs.Json.member "bound" m) ))
      (as_list (member_exn key json))
  in
  let ours (l : Metrics.spec list) =
    List.map
      (fun (s : Metrics.spec) ->
        ( s.name,
          s.unit_,
          (match s.better with Metrics.Lower -> "lower" | Metrics.Higher -> "higher"),
          s.bound ))
      l
  in
  let spec = Alcotest.(list (pair string (pair string (pair string (option (float 0.))))))
  and flat = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  check spec "end_to_end matches the catalogue" (flat (ours Metrics.end_to_end))
    (flat (specs "end_to_end"));
  check spec "per_layer matches the catalogue" (flat (ours Metrics.per_layer))
    (flat (specs "per_layer"));
  let workloads =
    List.map (fun w -> as_string (member_exn "name" w)) (as_list (member_exn "workloads" json))
  in
  check (Alcotest.list string) "workloads" [ "cold_catalog"; "fleet_clean"; "fleet_lossy" ]
    workloads;
  List.iter
    (fun w ->
      let why = as_string (member_exn "why" w) in
      check bool "why is one short line" true
        (String.length why <= 200 && not (String.contains why '\n')))
    (as_list (member_exn "workloads" json));
  check (Alcotest.list string) "paths" [ "perfbench" ]
    (List.map as_string (as_list (member_exn "paths" json)))

(* --- result line ---------------------------------------------------------- *)

let specs2 =
  [ Metrics.e2e "setup_s" "s" Metrics.Lower 0.25; Metrics.e2e "x_ms" "ms" Metrics.Lower 0.1 ]

let test_result_line () =
  let line =
    Metrics.result_line ~specs:specs2 ~correct:true ~attempted:3 ~failed:0
      [ ("x_ms", 1.25); ("setup_s", 0.5) ]
  in
  (match Obs.Json.of_string line with
  | Ok (Obs.Json.Obj fields) ->
    check (Alcotest.list string) "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst fields);
    let m = member_exn "x_ms" (member_exn "metrics" (Obs.Json.Obj fields)) in
    check (Alcotest.float 0.) "value" 1.25 (as_float (member_exn "value" m));
    check string "unit" "ms" (as_string (member_exn "unit" m))
  | _ -> Alcotest.fail "result line is not a JSON object");
  let raises values =
    match
      Metrics.result_line ~specs:specs2 ~correct:true ~attempted:1 ~failed:0 values
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check bool "missing metric refused" true (raises [ ("setup_s", 1.) ]);
  check bool "unknown metric refused" true
    (raises [ ("setup_s", 1.); ("x_ms", 1.); ("y", 1.) ]);
  check bool "non-finite value refused" true (raises [ ("setup_s", 1.); ("x_ms", Float.nan) ]);
  check bool "malformed name refused" true
    (match
       Metrics.result_line
         ~specs:[ Metrics.e2e "bad name" "ms" Metrics.Lower 0.1 ]
         ~correct:true ~attempted:1 ~failed:0 [ ("bad name", 1.) ]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_normalise () =
  let f = Alcotest.float 1e-12 in
  let scaled (s : Metrics.spec) = snd (Metrics.normalise 2. (s.name, 1.)) in
  List.iter
    (fun (s : Metrics.spec) ->
      let expected =
        match s.name with
        | "setup_s" | "first_frame_p50_ms" -> 0.5
        | "frames_per_s" | "sessions_per_s" -> 2.
        | _ -> 1.
      in
      check f ("normalised " ^ s.name) expected (scaled s))
    Metrics.end_to_end

(* --- session checks ------------------------------------------------------- *)

let device = Display.Device.ipaq_h5555

let tiny_clip () =
  let c =
    Video.Clip_gen.render ~width:24 ~height:16 ~fps:8.
      (Video.Workloads.parametric ~seconds:1.0 ~base_level:40 ~highlight_peak:150 ())
  in
  Video.Clip.of_frames ~name:c.Video.Clip.name ~fps:8.
    (Array.init c.Video.Clip.frame_count c.Video.Clip.render)

let config = { (Streaming.Session.default_config ~device) with loss_rate = 0.2; seed = 3 }

let ok_report = function Ok r -> r | Error e -> Alcotest.failf "session failed: %s" e

let test_traced_matches_untraced () =
  let clip = tiny_clip () in
  let untraced = ok_report (Streaming.Session.run config clip) in
  let prep = Layers.prep_acc () and stages = Layers.stages_acc () in
  let prepared = Layers.prepare prep config clip in
  let reference = Streaming.Session.prepare_input config clip in
  check string "layer-built payload = prepare_input" reference.annotation_payload
    prepared.annotation_payload;
  check string "layer-built stream = prepare_input" reference.encoded.Codec.Encoder.data
    prepared.encoded.Codec.Encoder.data;
  let traced =
    ok_report (Layers.drive stages (Streaming.Session.create ~prepared config clip))
  in
  check (Alcotest.list string) "traced report equals untraced" []
    (Checks.report_diff ~what:"t" untraced traced);
  check int "three set-up steps, the frames, finalize" (clip.Video.Clip.frame_count + 4) stages.steps;
  let played, first_s = Layers.play config clip in
  check (Alcotest.list string) "played report equals run" []
    (Checks.result_diff ~what:"p" (Ok untraced) played);
  check bool "first frame time is positive" true (first_s > 0.)

let test_report_diff_fires () =
  let r = ok_report (Streaming.Session.run config (tiny_clip ())) in
  let tampered = { r with Streaming.Session.device_savings = r.device_savings +. 1e-12 } in
  (match Checks.report_diff ~what:"t" r tampered with
  | [ msg ] ->
    check bool "names the field" true (String.starts_with ~prefix:"t: device_savings" msg)
  | l -> Alcotest.failf "expected one difference, got %d" (List.length l));
  check int "concealment count differs" 1
    (List.length
       (Checks.report_diff ~what:"t" r
          { r with Streaming.Session.concealed_frames = r.concealed_frames + 1 }));
  check int "failed session is a problem" 1
    (List.length (Checks.result_diff ~what:"t" (Ok r) (Error "boom")));
  check (Alcotest.list string) "sane report" [] (Checks.report_sane ~what:"t" r);
  check int "insane PSNR caught" 1
    (List.length
       (Checks.report_sane ~what:"t" { r with Streaming.Session.video_mean_psnr = Float.nan }))

(* --- fleet checks --------------------------------------------------------- *)

let small_fleet kind =
  let clips = Fleet_work.render () in
  let session_config = Fleet_work.session_config ~seed:5 kind in
  let s =
    {
      Fleet_work.kind;
      seed = 5;
      clips;
      session_config;
      prepared = Fleet_work.prepare_like_shard session_config clips;
    }
  in
  (s, Fleet_work.run_fleet s ~sessions:240)

let replay_all (s : Fleet_work.setup) (log : Checks.fleet_log) =
  let stages = Layers.stages_acc () in
  List.map
    (fun id ->
      let c = Fleet_work.clip_index s (Hashtbl.find log.clip_of id) in
      let cfg =
        { s.session_config with Streaming.Session.seed = s.session_config.seed + id }
      in
      ( id,
        Layers.drive stages
          (Streaming.Session.create ~prepared:s.prepared.(c) cfg s.clips.(c)) ))
    log.admitted

let test_fleet_checks () =
  let s, report = small_fleet Fleet_work.Lossy in
  let log = Checks.read_fleet_log report.journal_events in
  check (Alcotest.list string) "honest report passes" [] (Checks.fleet_report report log);
  let replayed = replay_all s log in
  let outcomes = List.map (fun (id, r) -> (id, Checks.outcome_of r)) replayed in
  check (Alcotest.list string) "replay reproduces the counts" []
    (Checks.replay_counts report outcomes);
  check (Alcotest.list string) "replay matches the journal" []
    (Checks.replayed_outcomes log outcomes);
  check bool "lossy fleet degrades or conceals something" true
    (List.exists
       (fun (_, r) -> match r with Ok r -> r.Streaming.Session.concealed_frames > 0 | _ -> false)
       replayed);
  let tampered = { report with Fleet.Scheduler.degraded = report.degraded + 1 } in
  check bool "extra degraded session caught" true (Checks.fleet_report tampered log <> []);
  check bool "replay count mismatch caught" true (Checks.replay_counts tampered outcomes <> []);
  check bool "missing session caught" true
    (Checks.replay_counts report (List.tl outcomes) <> []);
  let flipped =
    match replayed with
    | (id, Ok r) :: rest ->
      (id, Ok { r with Streaming.Session.annotations_survived = not r.annotations_survived })
      :: rest
    | _ -> Alcotest.fail "no replayed session"
  in
  check int "flipped outcome caught" 1
    (List.length
       (Checks.replayed_outcomes log
          (List.map (fun (id, r) -> (id, Checks.outcome_of r)) flipped)));
  let journal = Fleet.Scheduler.journal report in
  check (Alcotest.list string) "journal equals itself" []
    (Checks.same_bytes ~what:"j" journal journal);
  let corrupt = Bytes.of_string journal in
  Bytes.set corrupt (Bytes.length corrupt - 1) 'x';
  check int "changed journal caught" 1
    (List.length (Checks.same_bytes ~what:"j" journal (Bytes.to_string corrupt)))

let test_fleet_deterministic () =
  let _, a = small_fleet Fleet_work.Clean in
  let _, b = small_fleet Fleet_work.Clean in
  check string "same seed, same journal" (Fleet.Scheduler.journal a)
    (Fleet.Scheduler.journal b);
  check int "clean fleet sheds nothing" 0 a.shed;
  check int "clean fleet degrades nothing" 0 a.degraded

let () =
  Alcotest.run "perfbench"
    [
      ( "catalogue",
        [
          Alcotest.test_case "metric names and units valid" `Quick test_names_valid;
          Alcotest.test_case "name and unit rules" `Quick test_name_rules;
          Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "host normalisation" `Quick test_normalise;
        ] );
      ( "checks",
        [
          Alcotest.test_case "traced session = untraced" `Quick test_traced_matches_untraced;
          Alcotest.test_case "report diff fires" `Quick test_report_diff_fires;
          Alcotest.test_case "fleet checks" `Quick test_fleet_checks;
          Alcotest.test_case "fleet deterministic" `Quick test_fleet_deterministic;
        ] );
    ]
