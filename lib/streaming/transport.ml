type packetized = {
  info : Codec.Decoder.stream_info;
  payloads : string array;
  frame_types : Codec.Stream.frame_type array;
  reconstruction : Image.Raster.t array;
  references : Codec.Plane.packed array;
}

let packetize (encoded : Codec.Encoder.encoded) =
  let data = encoded.Codec.Encoder.data in
  let sizes = encoded.Codec.Encoder.frame_sizes_bits in
  Result.bind (Codec.Decoder.parse_header data) (fun info ->
      let n = info.Codec.Decoder.info_frame_count in
      let payload_bytes =
        Array.fold_left (fun acc bits -> acc + ((bits + 7) / 8)) 0 sizes
      in
      if
        Array.length sizes <> n
        || Array.length encoded.Codec.Encoder.frame_types <> n
        || Array.length encoded.Codec.Encoder.reconstruction <> n
        || Array.length encoded.Codec.Encoder.references <> n
      then Error "frame tables disagree with the header's frame count"
      else if
        let samples =
          Codec.Plane.ycbcr_samples ~width:info.Codec.Decoder.info_width
            ~height:info.Codec.Decoder.info_height
        in
        Array.exists
          (fun r -> Codec.Plane.packed_bytes r <> samples)
          encoded.Codec.Encoder.references
      then Error "references disagree with the header's geometry"
      else if Array.exists (fun bits -> bits < 0) sizes then
        Error "negative frame size"
      else if info.Codec.Decoder.header_bytes + payload_bytes > String.length data
      then Error "frame sizes overrun the stream"
      else begin
        let offset = ref info.Codec.Decoder.header_bytes in
        let payloads =
          Array.map
            (fun bits ->
              let bytes = (bits + 7) / 8 in
              let payload = String.sub data !offset bytes in
              offset := !offset + bytes;
              payload)
            sizes
        in
        Ok
          {
            info;
            payloads;
            frame_types = encoded.Codec.Encoder.frame_types;
            reconstruction = encoded.Codec.Encoder.reconstruction;
            references = encoded.Codec.Encoder.references;
          }
      end)

let obs_frames_lost =
  Obs.counter ~help:"Video frames dropped by the simulated lossy hop"
    "streaming_frames_lost_total" []

let obs_concealed =
  Obs.counter ~help:"Lost frames replaced by the concealment rule"
    "streaming_frames_concealed_total" []

let obs_drifted =
  Obs.counter ~help:"P frames decoded against a damaged prediction chain"
    "streaming_frames_drifted_total" []

let bernoulli_loss ~rate ~seed ~frames =
  if rate < 0. || rate > 1. then invalid_arg "Transport.bernoulli_loss: bad rate";
  let rng = Image.Prng.create ~seed in
  Array.init frames (fun _ -> Image.Prng.float rng 1. < rate)

type received = {
  pictures : Image.Raster.t array;
  concealed : int;
  drifted : int;
}

(* Where the client's decoder stands before frame [i]. *)
type sync =
  | In_sync
      (* every frame since a received I-frame arrived: frame [i - 1]
         was [reconstruction.(i - 1)], and nothing is decoded *)
  | Pending of int
      (* frames were lost since [k], the last frame in sync: the next
         received P-frame predicts from [references.(k)] *)
  | Damaged  (* the cursor holds the reference *)

(* A received frame whose prediction chain reaches back, loss-free, to
   a received I-frame is the encoder's reconstruction: the client shows
   [t.reconstruction.(i)] itself and decodes nothing. A lost frame
   repeats the picture before it. The first received P-frame after a
   loss resumes the decoder from the encoder's reference of the last
   frame in sync, and decoding goes on frame by frame — concealing,
   drifting — until the next received I-frame restores sync. *)
let decode_with_concealment t ~lost =
  Obs.Trace.with_span "transport.decode"
    ~attrs:[ ("frames", string_of_int (Array.length t.payloads)) ]
  @@ fun () ->
  let n = Array.length t.payloads in
  if Array.length lost <> n then
    invalid_arg "Transport.decode_with_concealment: loss mask length mismatch";
  if Obs.enabled () then
    Obs.Metrics.Counter.incr obs_frames_lost
      ~by:(Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 lost);
  let pictures = Array.make n (Image.Raster.create ~width:1 ~height:1) in
  let cursor = ref None in
  (* Before frame 0 nothing is loaded: a P-frame there has no
     reference. *)
  let sync = ref Damaged in
  let concealed = ref 0 and drifted = ref 0 in
  let result = ref (Ok ()) in
  (try
     for i = 0 to n - 1 do
       if lost.(i) then begin
         if i = 0 then failwith "first frame lost: nothing to conceal with";
         (match !sync with In_sync -> sync := Pending (i - 1) | _ -> ());
         incr concealed;
         Obs.Metrics.Counter.incr obs_concealed;
         pictures.(i) <- pictures.(i - 1)
       end
       else
         match (t.frame_types.(i), !sync) with
         | Codec.Stream.I_frame, _ ->
           (* An I-frame refreshes the chain. *)
           sync := In_sync;
           pictures.(i) <- t.reconstruction.(i)
         | Codec.Stream.P_frame, In_sync -> pictures.(i) <- t.reconstruction.(i)
         | Codec.Stream.P_frame, state ->
           (* A P-frame inherits the damage. *)
           let c =
             match !cursor with
             | Some c -> c
             | None ->
               (* Made at the first frame that needs decoding: most
                  sessions have none. *)
               let c = Codec.Decoder.cursor t.info in
               cursor := Some c;
               c
           in
           (match state with
           | Pending k -> Codec.Decoder.resume c t.references.(k)
           | _ -> ());
           (match Codec.Decoder.advance c t.payloads.(i) with
           | Error msg -> failwith msg
           | Ok () -> ());
           sync := Damaged;
           incr drifted;
           Obs.Metrics.Counter.incr obs_drifted;
           pictures.(i) <- Codec.Decoder.picture c
     done
   with Failure msg -> result := Error msg);
  Result.map
    (fun () -> { pictures; concealed = !concealed; drifted = !drifted })
    !result

type nack_stats = {
  nack_rounds : int;
  packets_retransmitted : int;
  packets_repaired : int;
  nack_time_s : float;
  budget_exhausted : bool;
}

let no_nack =
  {
    nack_rounds = 0;
    packets_retransmitted = 0;
    packets_repaired = 0;
    nack_time_s = 0.;
    budget_exhausted = false;
  }

let obs_retransmissions =
  Obs.counter ~help:"Annotation packets re-sent after a NACK"
    "annot_retransmissions_total" []

let obs_nack_rounds =
  Obs.counter ~help:"NACK/retransmit rounds run for the annotation side channel"
    "annot_nack_rounds_total" []

(* The NACK loop is a Resilience.Retry schedule: each attempt NACKs the
   packets still missing, waits out the backoff, and receives the burst
   of re-sent packets through the same fault model on a fresh
   deterministic sub-stream. The default policy reproduces the
   historical hand-rolled loop bit for bit (asserted in the tests); a
   resilience profile swaps in its own policy, and a circuit breaker
   can gate rounds — waiting out its cooldown on the simulated clock
   when the budget still allows. *)
let nack_retransmit ?(backoff_base_s = 0.002) ?(rtt_s = 0.004) ?policy ?breaker
    ~fault ~link ~budget_s ~seed ~packets present =
  if Array.length present <> Array.length packets then
    invalid_arg "Transport.nack_retransmit: packet array length mismatch";
  let policy =
    match policy with
    | Some p -> p
    | None ->
      {
        Resilience.Retry.default with
        Resilience.Retry.base_backoff_s = backoff_base_s;
        budget_s;
      }
  in
  let present = Array.copy present in
  let retransmitted = ref 0 in
  let repaired = ref 0 in
  let missing () =
    let acc = ref [] in
    Array.iteri (fun i p -> if p = None then acc := i :: !acc) present;
    List.rev !acc
  in
  let admit _a ~now_s () =
    match breaker with
    | None -> Resilience.Retry.Admit
    | Some b ->
      if Resilience.Breaker.allow b ~now_s then Resilience.Retry.Admit
      else (
        match Resilience.Breaker.cooldown_remaining b ~now_s with
        | Some w when w > 0. -> Resilience.Retry.Wait w
        | _ -> Resilience.Retry.Stop)
  in
  let cost (a : Resilience.Retry.attempt) () =
    let transfer =
      List.fold_left
        (fun acc i ->
          acc
          +. Netsim.transfer_time_s link (String.length packets.(i))
          +. Fault.delay_s fault ~seed:a.Resilience.Retry.seed ~index:i)
        0. (missing ())
    in
    rtt_s +. a.Resilience.Retry.backoff_s +. transfer
  in
  let step (a : Resilience.Retry.attempt) ~now_s () =
    let gaps = missing () in
    Obs.Metrics.Counter.incr obs_nack_rounds;
    let resent = Array.of_list (List.map (fun i -> packets.(i)) gaps) in
    retransmitted := !retransmitted + Array.length resent;
    Obs.Metrics.Counter.incr obs_retransmissions ~by:(Array.length resent);
    let delivered =
      Fault.apply ~t_s:now_s fault ~seed:a.Resilience.Retry.seed resent
    in
    let repaired_before = !repaired in
    List.iteri
      (fun k i ->
        match delivered.(k) with
        | Some p ->
          present.(i) <- Some p;
          incr repaired;
          Option.iter
            (fun b -> Resilience.Breaker.record b ~now_s ~ok:true)
            breaker
        | None ->
          Option.iter
            (fun b -> Resilience.Breaker.record b ~now_s ~ok:false)
            breaker)
      gaps;
    Obs.Journal.record ~t_s:now_s
      (Obs.Journal.Nack_round
         {
           round = a.Resilience.Retry.round + 1;
           missing = List.length gaps;
           repaired = !repaired - repaired_before;
         })
  in
  let (), stats =
    Resilience.Retry.run ~admit policy ~seed ~init:()
      ~pending:(fun () -> missing () <> [])
      ~cost
      ~step:(fun a ~now_s () -> step a ~now_s ())
  in
  ( present,
    {
      nack_rounds = stats.Resilience.Retry.attempts;
      packets_retransmitted = !retransmitted;
      packets_repaired = !repaired;
      nack_time_s = stats.Resilience.Retry.time_s;
      budget_exhausted = stats.Resilience.Retry.budget_exhausted;
    } )

let mean_psnr ~reference pictures =
  if Array.length reference <> Array.length pictures || Array.length reference = 0
  then invalid_arg "Transport.mean_psnr: sequence mismatch";
  let total = ref 0. in
  Array.iteri
    (fun i picture ->
      (* A shared picture is identical: its PSNR is infinite, capped. *)
      let psnr =
        if picture == reference.(i) then 99.
        else Float.min 99. (Image.Metrics.psnr reference.(i) picture)
      in
      total := !total +. psnr)
    pictures;
  !total /. float_of_int (Array.length reference)
