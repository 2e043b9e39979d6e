(* Cross-library integration tests: the full server -> network ->
   client flow on real synthetic workloads, and the headline claims of
   the paper checked end to end. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let device = Display.Device.ipaq_h5555

(* Small renderings of the actual paper workloads keep these tests
   fast while preserving the luminance structure. *)
let small_clip profile = Video.Clip_gen.render ~width:48 ~height:36 ~fps:8. profile

let test_full_pipeline_end_to_end () =
  (* Server stores a clip, negotiates a session, prepares the
     compensated annotated stream, the codec ships it, the client
     decodes, applies annotations and plays back — and the quality
     check on camera snapshots passes. *)
  let clip = small_clip Video.Workloads.themovie in
  let server = Streaming.Server.create () in
  Streaming.Server.add_clip server clip;
  let hello =
    { Streaming.Negotiation.device; requested_quality = Annotation.Quality_level.Loss_10 }
  in
  let session =
    match Streaming.Negotiation.negotiate hello with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let prepared =
    match Streaming.Server.prepare server ~name:"themovie" ~session with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  (* The annotation side channel survives the wire. *)
  let wire_track =
    match Annotation.Encoding.decode prepared.Streaming.Server.annotation_bytes with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  (* Client playback using only wire data. *)
  let registers = Annotation.Track.register_track wire_track in
  let report =
    Streaming.Playback.run_with_registers ~device
      ~quality:session.Streaming.Negotiation.quality ~clip_name:"themovie"
      ~fps:clip.Video.Clip.fps
      ~annotation_bytes:(String.length prepared.Streaming.Server.annotation_bytes)
      registers
  in
  check bool "meaningful savings" true
    (report.Streaming.Playback.backlight_savings > 0.2);
  (* Spot-check perceived quality with the camera on a mid-clip frame. *)
  let i = clip.Video.Clip.frame_count / 3 in
  let original = clip.Video.Clip.render i in
  let compensated = Annotation.Compensate.frame prepared.Streaming.Server.track i original in
  let entry = Annotation.Track.lookup wire_track i in
  let rig = Camera.Snapshot.noiseless_rig device in
  let verdict =
    Camera.Quality.evaluate ~rig ~device ~original ~compensated
      ~reduced_register:entry.Annotation.Track.register
  in
  check bool
    (Format.asprintf "camera verdict acceptable: %a" Camera.Quality.pp_verdict verdict)
    true
    (Camera.Quality.acceptable verdict)

let test_codec_carries_compensated_stream () =
  (* Ship the compensated frames through the codec and verify the
     decoded stream still achieves the intended perceived intensity. *)
  let clip = small_clip Video.Workloads.officexp in
  let track = Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Loss_10 clip in
  let compensated = Annotation.Compensate.clip clip track in
  let encoded = Codec.Encoder.encode_clip compensated in
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  let i = 4 in
  let entry = Annotation.Track.lookup track i in
  let err =
    Annotation.Compensate.perceived_error ~device ~original:(clip.Video.Clip.render i)
      ~compensated:decoded.Codec.Decoder.frames.(i)
      ~register:entry.Annotation.Track.register
  in
  check bool (Printf.sprintf "perceived error %.4f small after codec" err) true
    (err < 0.05)

let test_annotation_overhead_hundreds_of_bytes () =
  (* §4.3's headline: RLE-compressed annotations are hundreds of bytes
     against a multi-megabyte-class video stream. *)
  let clip = small_clip Video.Workloads.spiderman2 in
  let track = Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Loss_10 clip in
  let annotation_bytes = Annotation.Encoding.encoded_size track in
  let encoded = Codec.Encoder.encode_clip clip in
  let video_bytes = Codec.Encoder.total_bytes encoded in
  check bool
    (Printf.sprintf "annotations %dB are hundreds of bytes" annotation_bytes)
    true
    (annotation_bytes < 1000);
  let ratio = float_of_int annotation_bytes /. float_of_int video_bytes in
  check bool (Printf.sprintf "overhead ratio %.5f below 1%%" ratio) true (ratio < 0.01)

let test_dark_clips_beat_bright_clips () =
  (* The Fig 9 ordering on real workloads at 10% quality. *)
  let savings profile =
    let clip = small_clip profile in
    (Streaming.Playback.run ~device ~quality:Annotation.Quality_level.Loss_10 clip)
      .Streaming.Playback.backlight_savings
  in
  let rotk = savings Video.Workloads.returnoftheking in
  let ice = savings Video.Workloads.ice_age in
  let hunter = savings Video.Workloads.hunter_subres in
  check bool (Printf.sprintf "rotk %.2f > ice %.2f + 0.3" rotk ice) true
    (rotk > ice +. 0.3);
  check bool "bright clips limited" true (ice < 0.15 && hunter < 0.35)

let test_savings_monotone_in_quality () =
  let clip = small_clip Video.Workloads.catwoman in
  let profiled = Annotation.Annotator.profile clip in
  let savings =
    List.map
      (fun q ->
        (Streaming.Playback.run_profiled ~device ~quality:q profiled)
          .Streaming.Playback.backlight_savings)
      Annotation.Quality_level.standard_grid
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | _ -> true
  in
  check bool "savings grow with allowed loss" true (non_decreasing savings)

let test_annotated_beats_history_on_quality () =
  (* A2's point: with equal-ish power, annotations avoid the quality
     violations history prediction incurs at scene changes. *)
  let profiled = Annotation.Annotator.profile (small_clip Video.Workloads.i_robot) in
  let annotated =
    Baselines.Runner.run ~device ~quality:Annotation.Quality_level.Loss_10 profiled
      (Baselines.Strategy.Annotated Annotation.Scene_detect.default_params)
  in
  let history =
    Baselines.Runner.run ~device ~quality:Annotation.Quality_level.Loss_10 profiled
      (Baselines.Strategy.History_prediction { window = 6 })
  in
  check bool "history mispredicts more" true
    (history.Baselines.Runner.violations > annotated.Baselines.Runner.violations)

let test_annotated_beats_client_analysis_on_device_power () =
  (* Same per-frame register policy on both sides; the only difference
     is where the analysis runs, so the client-side CPU tax is the
     whole story (§3). *)
  let profiled = Annotation.Annotator.profile (small_clip Video.Workloads.shrek2) in
  let annotated =
    Baselines.Runner.run ~device ~quality:Annotation.Quality_level.Loss_10 profiled
      Baselines.Strategy.Annotated_per_frame
  in
  let client =
    Baselines.Runner.run ~device ~quality:Annotation.Quality_level.Loss_10 profiled
      (Baselines.Strategy.Client_analysis { cpu_overhead_fraction = 0.2 })
  in
  check bool "annotation avoids the client CPU tax" true
    (annotated.Baselines.Runner.report.Streaming.Playback.total_savings
     > client.Baselines.Runner.report.Streaming.Playback.total_savings)

let test_per_frame_switches_far_more () =
  (* A1: per-frame annotation flickers; scene-level stays calm. *)
  let profiled = Annotation.Annotator.profile (small_clip Video.Workloads.themovie) in
  let scene =
    Baselines.Runner.run ~device ~quality:Annotation.Quality_level.Loss_10 profiled
      (Baselines.Strategy.Annotated Annotation.Scene_detect.default_params)
  in
  let frame =
    Baselines.Runner.run ~device ~quality:Annotation.Quality_level.Loss_10 profiled
      Baselines.Strategy.Annotated_per_frame
  in
  check bool "per-frame switches more" true
    (frame.Baselines.Runner.report.Streaming.Playback.switch_count
     > 3 * scene.Baselines.Runner.report.Streaming.Playback.switch_count)

let test_recovered_transfer_drives_pipeline () =
  (* Characterise the display through the camera, build a device with
     the recovered transfer, and run the pipeline: savings must be
     within a few points of the factory-curve run. *)
  let rig = Camera.Snapshot.noiseless_rig device in
  let recovered =
    Display.Characterize.recover_transfer ~steps:18
      (Camera.Snapshot.measure_patch rig device)
  in
  let recovered_device =
    {
      device with
      Display.Device.name = "ipaq_h5555+recovered";
      panel = { device.Display.Device.panel with Display.Panel.transfer = recovered };
    }
  in
  let clip = small_clip Video.Workloads.theincredibles_tlr2 in
  let profiled = Annotation.Annotator.profile clip in
  let factory =
    (Streaming.Playback.run_profiled ~device ~quality:Annotation.Quality_level.Loss_10 profiled)
      .Streaming.Playback.backlight_savings
  in
  let recovered_savings =
    (Streaming.Playback.run_profiled ~device:recovered_device
       ~quality:Annotation.Quality_level.Loss_10 profiled)
      .Streaming.Playback.backlight_savings
  in
  check bool
    (Printf.sprintf "factory %.3f vs recovered %.3f" factory recovered_savings)
    true
    (abs_float (factory -. recovered_savings) < 0.05)

let test_battery_life_extension_visible () =
  let clip = small_clip Video.Workloads.returnoftheking in
  let report = Streaming.Playback.run ~device ~quality:Annotation.Quality_level.Loss_10 clip in
  let baseline_power =
    report.Streaming.Playback.total_baseline_mj /. report.Streaming.Playback.duration_s
  in
  let optimised_power =
    report.Streaming.Playback.total_energy_mj /. report.Streaming.Playback.duration_s
  in
  let ratio =
    Power.Battery.extension_ratio ~baseline_power_mw:baseline_power
      ~optimized_power_mw:optimised_power
  in
  check bool (Printf.sprintf "playback time extended by %.1f%%" (100. *. ratio)) true
    (ratio > 0.1)

let test_savings_monotone_in_content_brightness () =
  (* The content-sweep knee: darker content must never save less. *)
  let savings base_level =
    let profile =
      Video.Workloads.parametric ~seconds:3. ~base_level ~highlight_peak:200 ()
    in
    let clip = Video.Clip_gen.render ~width:48 ~height:36 ~fps:8. profile in
    (Streaming.Playback.run ~device ~quality:Annotation.Quality_level.Loss_10 clip)
      .Streaming.Playback.backlight_savings
  in
  let dark = savings 20 and mid = savings 120 and bright = savings 230 in
  check bool "dark saves most" true (dark > mid +. 0.05);
  check bool "bright saves least" true (mid > bright +. 0.05)

let test_ccfl_savings_bounded_by_floor () =
  (* A CCFL inverter draws its floor power at any visible level, so
     backlight savings can never reach the LED device's ceiling. *)
  let ccfl = Display.Device.ipaq_h3650 in
  let floor_bound =
    1.
    -. (ccfl.Display.Device.backlight_power_floor_mw
        /. ccfl.Display.Device.backlight_power_full_mw)
  in
  let clip = small_clip Video.Workloads.catwoman in
  let report =
    Streaming.Playback.run ~device:ccfl ~quality:Annotation.Quality_level.Loss_20 clip
  in
  check bool "savings below the inverter floor bound" true
    (report.Streaming.Playback.backlight_savings < floor_bound);
  check bool "still substantial" true
    (report.Streaming.Playback.backlight_savings > 0.2)

let test_quality_holds_on_every_device () =
  (* The Fig 2 verdict must pass on all three PDAs, not just the
     measurement platform. *)
  let clip = small_clip Video.Workloads.officexp in
  let profiled = Annotation.Annotator.profile clip in
  List.iter
    (fun dev ->
      let track =
        Annotation.Annotator.annotate_profiled ~device:dev
          ~quality:Annotation.Quality_level.Loss_5 profiled
      in
      let rig = Camera.Snapshot.noiseless_rig dev in
      List.iter
        (fun (i, verdict) ->
          check bool
            (Format.asprintf "%s frame %d: %a" dev.Display.Device.name i
               Camera.Quality.pp_verdict verdict)
            true
            (Camera.Quality.acceptable verdict))
        (Streaming.Playback.evaluate_quality ~rig ~device:dev ~clip ~track
           ~sample_every:(max 1 (clip.Video.Clip.frame_count / 4))))
    Display.Device.all

let test_session_runs_on_ccfl_device () =
  let clip = small_clip Video.Workloads.shrek2 in
  let config = Streaming.Session.default_config ~device:Display.Device.zaurus_sl5600 in
  match Streaming.Session.run config clip with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check bool "device savings positive" true (r.Streaming.Session.device_savings > 0.1)

let test_all_workloads_produce_valid_reports () =
  List.iter
    (fun profile ->
      let clip = Video.Clip_gen.render ~width:32 ~height:24 ~fps:6. profile in
      let report =
        Streaming.Playback.run ~device ~quality:Annotation.Quality_level.Loss_20 clip
      in
      let s = report.Streaming.Playback.backlight_savings in
      check bool
        (Printf.sprintf "%s savings %.2f in [0, 0.95]" profile.Video.Profile.name s)
        true
        (s >= 0. && s <= 0.95);
      check int
        (profile.Video.Profile.name ^ " frames")
        clip.Video.Clip.frame_count report.Streaming.Playback.frames)
    Video.Workloads.all

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "server to client" `Quick test_full_pipeline_end_to_end;
          Alcotest.test_case "codec carries stream" `Quick
            test_codec_carries_compensated_stream;
          Alcotest.test_case "annotation overhead" `Quick
            test_annotation_overhead_hundreds_of_bytes;
          Alcotest.test_case "recovered transfer" `Quick
            test_recovered_transfer_drives_pipeline;
        ] );
      ( "paper claims",
        [
          Alcotest.test_case "dark beats bright (fig 9)" `Quick
            test_dark_clips_beat_bright_clips;
          Alcotest.test_case "monotone in quality" `Quick test_savings_monotone_in_quality;
          Alcotest.test_case "beats history on quality (A2)" `Quick
            test_annotated_beats_history_on_quality;
          Alcotest.test_case "beats client analysis on power (A2)" `Quick
            test_annotated_beats_client_analysis_on_device_power;
          Alcotest.test_case "per-frame flicker (A1)" `Quick test_per_frame_switches_far_more;
          Alcotest.test_case "battery extension" `Quick test_battery_life_extension_visible;
          Alcotest.test_case "brightness knee" `Quick
            test_savings_monotone_in_content_brightness;
        ] );
      ( "devices",
        [
          Alcotest.test_case "ccfl floor bound" `Quick test_ccfl_savings_bounded_by_floor;
          Alcotest.test_case "quality on every device" `Quick
            test_quality_holds_on_every_device;
          Alcotest.test_case "session on ccfl" `Quick test_session_runs_on_ccfl_device;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "all ten valid" `Slow test_all_workloads_produce_valid_reports;
        ] );
    ]
