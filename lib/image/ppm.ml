let to_string img =
  let w = Raster.width img and h = Raster.height img in
  let buf = Buffer.create ((w * h * 3) + 32) in
  Buffer.add_string buf (Printf.sprintf "P6\n%d %d\n255\n" w h);
  Raster.iter
    (fun ~x:_ ~y:_ { Pixel.r; g; b } ->
      Buffer.add_char buf (Char.chr r);
      Buffer.add_char buf (Char.chr g);
      Buffer.add_char buf (Char.chr b))
    img;
  Buffer.contents buf

let write ~path img =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string img))
