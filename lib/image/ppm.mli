(** PPM (P6) image output.

    The one image format that needs no dependency: binary PPM, readable
    by every viewer and converter. Used by the tools to dump frames and
    camera snapshots (e.g. the Fig 4 pair) for visual inspection. Nothing
    reads images back, so there is no parser. *)

val to_string : Raster.t -> string
(** [to_string img] is the binary P6 serialisation of [img]. *)

val write : path:string -> Raster.t -> unit
(** [write ~path img] writes the P6 file, truncating any existing
    file. Raises [Sys_error] on I/O failure. *)
