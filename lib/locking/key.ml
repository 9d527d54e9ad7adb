type assignment = (string * bool) list

let random ~seed names =
  let rng = Random.State.make [| seed; 0x4b45 |] in
  List.map (fun n -> (n, Random.State.bool rng)) names

let flip a name =
  if not (List.mem_assoc name a) then raise Not_found;
  List.map (fun (n, b) -> if n = name then (n, not b) else (n, b)) a

let random_wrong ~seed correct =
  match correct with
  | [] -> invalid_arg "Key.random_wrong: empty key"
  | _ ->
    let rng = Random.State.make [| seed; 0x77 |] in
    let names = List.map fst correct in
    let rec draw () =
      let a = List.map (fun n -> (n, Random.State.bool rng)) names in
      if List.for_all2 (fun (_, x) (_, y) -> x = y) a correct then draw ()
      else a
    in
    draw ()

let to_string a =
  String.concat " " (List.map (fun (n, b) -> Printf.sprintf "%s=%d" n (Bool.to_int b)) a)

let enumerate names =
  let n = List.length names in
  if n > 20 then invalid_arg "Key.enumerate: too many key bits";
  Seq.init (1 lsl n) (fun v ->
      List.mapi (fun i name -> (name, v land (1 lsl i) <> 0)) names)

let equal a b =
  List.length a = List.length b
  && List.for_all
       (fun (n, v) -> match List.assoc_opt n b with Some w -> v = w | None -> false)
       a
