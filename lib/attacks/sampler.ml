let bit s i =
  Char.code (String.unsafe_get s (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

let mismatches ~rng ~samples ~chip ~candidate ~drive ~fixed ~missing =
  if samples <= 0 then []
  else begin
    let drive = Array.of_list drive in
    let nx = Array.length drive in
    (* every sample's draws, packed in [drive] order *)
    let draws =
      Array.init samples (fun _ ->
          let d = Bytes.make (Bitpack.bytes nx) '\000' in
          for j = 0 to nx - 1 do
            if Random.State.bool rng then set d j
          done;
          Bytes.unsafe_to_string d)
    in
    let named d = List.init nx (fun j -> (drive.(j), bit d j)) in
    let rs =
      Oracle.query_packed chip (Array.map (Oracle.packer chip (Array.to_list drive)) draws)
    in
    let got =
      let pack = Oracle.packer candidate (Array.to_list drive @ List.map fst fixed) in
      (* a sample's draws followed by the [fixed] values *)
      let with_fixed d =
        if fixed = [] then d
        else begin
          let v = Bytes.make (Bitpack.bytes (nx + List.length fixed)) '\000' in
          Bytes.blit_string d 0 v 0 (String.length d);
          List.iteri (fun k (_, b) -> if b then set v (nx + k)) fixed;
          Bytes.unsafe_to_string v
        end
      in
      Oracle.query_packed candidate (Array.map (fun d -> pack (with_fixed d)) draws)
    in
    (* the candidate's reply position of an output name, [-1] if it has
       none; the last of duplicate names wins *)
    let cand_outs = Oracle.output_names candidate in
    let index = Hashtbl.create 64 in
    List.iteri (fun i po -> Hashtbl.replace index po i) cand_outs;
    let position po = Option.value (Hashtbl.find_opt index po) ~default:(-1) in
    let outs = Array.of_list (Oracle.output_names chip) in
    let map = Array.map position outs in
    let reply s = List.init (Array.length outs) (fun oi -> (outs.(oi), bit rs.(s) oi)) in
    let differs =
      if
        Array.length map = List.length cand_outs
        && Array.for_all2 ( = ) map (Array.init (Array.length map) Fun.id)
      then
        (* the same outputs in the same order: equal replies *)
        fun s -> not (String.equal rs.(s) got.(s))
      else
        let rec from r g oi =
          oi < Array.length map
          && ((let ci = map.(oi) in
               if ci < 0 then missing else bit r oi <> bit g ci)
             || from r g (oi + 1))
        in
        fun s -> from rs.(s) got.(s) 0
    in
    List.filter_map
      (fun s -> if differs s then Some (lazy (named draws.(s), reply s)) else None)
      (List.init samples Fun.id)
  end
