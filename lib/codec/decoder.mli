(** The video decoder — the client-side workload of the paper's
    playback experiments.

    {!decode} consumes a whole bitstream. A {!cursor} decodes frame
    payloads one at a time into one set of planes, and can be resumed
    from a reference the encoder kept ({!Encoder.encoded.references}):
    that is how a transport layer decodes after a loss, where a lost
    frame is replaced by the previous picture and later frames predict
    from the *concealed* picture, drifting until the next I-frame.
    {!decode_frame} is the frame-level specification both are checked
    against. *)

type decoded = {
  width : int;
  height : int;
  fps : float;
  params : Stream.params;
  frames : Image.Raster.t array;
}

val decode : string -> (decoded, string) result
(** [decode data] parses a bitstream produced by {!Encoder.encode_clip}
    and reconstructs every frame. Corrupt input yields [Error] with a
    reason; decoding never raises. *)

val decode_exn : string -> decoded
(** Like {!decode} but raises [Failure] on corrupt input. *)

(** {1 Frame-level decoding} *)

type stream_info = {
  info_width : int;
  info_height : int;
  info_fps : float;
  info_frame_count : int;
  info_params : Stream.params;
  header_bytes : int;  (** frame payloads start at this offset *)
}

val parse_header : string -> (stream_info, string) result

(** {2 Cursor} *)

type cursor
(** One frame's planes, padded to the codec's working geometry, plus
    the edge-extended reference the next P-frame predicts from. Each
    decoded frame overwrites the planes in place. *)

val cursor : stream_info -> cursor
(** [cursor info] holds nothing to predict from yet: a P-frame is an
    [Error] until a frame is decoded or a reference is resumed. *)

val resume : cursor -> Plane.packed -> unit
(** [resume c r] makes [r] — one of {!Encoder.encoded.references} —
    the picture the next P-frame predicts from. Raises
    [Invalid_argument] unless [r] has the stream's padded geometry
    ({!Plane.ycbcr_samples}). *)

val advance : cursor -> string -> (unit, string) result
(** [advance c payload] decodes one frame payload (as
    {!decode_frame} takes it) over [c], predicting from the previous
    picture. The [Error] reasons are {!decode_frame}'s, among them
    "P frame without reference" when nothing has been decoded or
    resumed. After an [Error] the cursor's picture is unspecified until
    the next {!resume} or I-frame. *)

val picture : cursor -> Image.Raster.t
(** A fresh picture of the cursor's planes, cropped to the stream
    dimensions. *)

(** {2 Frame-level reference}

    Decoding each frame into fresh planes against any injected
    reference. The transport does not use these: they are the
    straightforward form that the golden digests and the test-local
    concealment specification decode with, the frame-level reference
    the cursor is checked against. *)

type reference
(** A decoded picture in the decoder's internal (padded-plane) form,
    usable as the prediction reference for the next frame. *)

val reference_of_raster : Image.Raster.t -> reference
(** Converts any picture into a reference, display-size ones included:
    concealment by injecting the repeated picture as the reference for
    what follows. *)

val raster_of_reference : width:int -> height:int -> reference -> Image.Raster.t
(** The displayable picture of a reference (cropped to the stream
    dimensions). *)

val decode_frame :
  info:stream_info ->
  reference:reference option ->
  string ->
  (Image.Raster.t * reference, string) result
(** [decode_frame ~info ~reference payload] decodes exactly one frame
    from its own byte string: the stream cut at the byte-aligned frame
    boundaries that {!Encoder.encoded} [frame_sizes_bits] give.
    P-frames require [reference]; I-frames ignore it. *)
