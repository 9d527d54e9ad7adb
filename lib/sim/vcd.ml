(* Short identifier codes in bijective base 94 over printable ASCII
   33..126: "!" .. "~", then "!!" .. "~~", then "!!!" and so on — one
   character for the first 94 signals, two for the next 94², the standard
   scheme, with as many characters as the signal count needs. *)
let code i =
  let base = 94 in
  let rec digits i acc =
    let acc = Char.chr (33 + (i mod base)) :: acc in
    if i < base then acc else digits ((i / base) - 1) acc
  in
  String.of_seq (List.to_seq (digits i []))

let char_of = function
  | Logic.F -> '0'
  | Logic.T -> '1'
  | Logic.X -> 'x'

(* $var reference names must be single whitespace-free tokens, and a
   leading '$' collides with the keyword namespace some readers use.
   Netlist_gen's adversarial shapes produce names with spaces and '$';
   map every offending character to '_' (keeping printable ASCII
   otherwise) and uniquify collisions with a numeric suffix. *)
let sanitize_names names =
  let clean name =
    let s =
      String.map
        (fun c ->
          match c with
          | ' ' | '\t' | '\n' | '\r' | '$' -> '_'
          | c when Char.code c < 0x21 || Char.code c > 0x7e -> '_'
          | c -> c)
        name
    in
    if s = "" then "_" else s
  in
  let used = Hashtbl.create 16 in
  List.map
    (fun name ->
      let base = clean name in
      let unique =
        if not (Hashtbl.mem used base) then base
        else
          let rec probe k =
            let candidate = Printf.sprintf "%s_%d" base k in
            if Hashtbl.mem used candidate then probe (k + 1) else candidate
          in
          probe 2
      in
      Hashtbl.replace used unique ();
      unique)
    names

let of_result net result ~signals =
  let ids =
    match signals with
    | [] ->
      List.filter_map
        (fun id ->
          let nd = Netlist.node net id in
          match nd.Netlist.kind with
          | Netlist.Dead -> None
          | _ -> Some (nd.Netlist.name, id))
        (List.init (Netlist.num_nodes net) Fun.id)
    | names ->
      List.map
        (fun name ->
          match Netlist.find net name with
          | Some id -> (name, id)
          | None -> invalid_arg ("Vcd.of_result: unknown signal " ^ name))
        names
  in
  let var_names = sanitize_names (List.map fst ids) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date gklock $end\n";
  Buffer.add_string buf "$version gklock timing simulator $end\n";
  Buffer.add_string buf "$timescale 1ps $end\n";
  Printf.bprintf buf "$scope module %s $end\n"
    (match sanitize_names [ Netlist.name net ] with
    | [ m ] -> m
    | _ -> assert false);
  List.iteri
    (fun i name -> Printf.bprintf buf "$var wire 1 %s %s $end\n" (code i) name)
    var_names;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let waves = List.map (fun (_, id) -> Timing_sim.wave result id) ids in
  (* initial values *)
  Buffer.add_string buf "#0\n";
  List.iteri
    (fun i w -> Printf.bprintf buf "%c%s\n" (char_of (Waveform.initial w)) (code i))
    waves;
  (* merge all transitions in time order *)
  let events =
    List.concat
      (List.mapi
         (fun i w -> List.map (fun (t, v) -> (t, i, v)) (Waveform.transitions w))
         waves)
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let current_time = ref (-1) in
  List.iter
    (fun (t, i, v) ->
      if t <> !current_time then begin
        Printf.bprintf buf "#%d\n" t;
        current_time := t
      end;
      Printf.bprintf buf "%c%s\n" (char_of v) (code i))
    events;
  Buffer.contents buf

let write_file net result ~signals path =
  let oc = open_out path in
  output_string oc (of_result net result ~signals);
  close_out oc
