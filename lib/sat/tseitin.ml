(* The encoder is written once against an abstract sink so the Solver and
   Cnf backends share the gate clauses. *)
type sink = { fresh : unit -> int; clause : Lit.t list -> unit }

(* Binary XOR/XNOR clause group: o <-> a xor b (xnor via sign flip). *)
let xor_clauses sink o a b positive =
  let oo = if positive then o else Lit.negate o in
  sink.clause [ Lit.negate oo; a; b ];
  sink.clause [ Lit.negate oo; Lit.negate a; Lit.negate b ];
  sink.clause [ oo; Lit.negate a; b ];
  sink.clause [ oo; a; Lit.negate b ]

let encode_with sink net ~shared =
  if Netlist.ffs net <> [] then
    invalid_arg "Tseitin: netlist has flip-flops (combinationalize first)";
  let n = Netlist.num_nodes net in
  let vars = Array.make n (-1) in
  let var_of id =
    if vars.(id) >= 0 then vars.(id)
    else begin
      let v = match shared id with Some v -> v | None -> sink.fresh () in
      vars.(id) <- v;
      v
    end
  in
  let xor_clauses = xor_clauses sink in
  (* o <-> AND(ins) with optional output inversion (NAND). *)
  let and_clauses o ins positive =
    let oo = if positive then o else Lit.negate o in
    Array.iter (fun a -> sink.clause [ Lit.negate oo; a ]) ins;
    sink.clause (oo :: Array.to_list (Array.map Lit.negate ins))
  in
  let or_clauses o ins positive =
    let oo = if positive then o else Lit.negate o in
    Array.iter (fun a -> sink.clause [ oo; Lit.negate a ]) ins;
    sink.clause (Lit.negate oo :: Array.to_list ins)
  in
  let encode_node id =
    let nd = Netlist.node net id in
    let o = Lit.pos (var_of id) in
    let ins = Array.map (fun f -> Lit.pos (var_of f)) nd.Netlist.fanins in
    match nd.Netlist.kind with
    | Netlist.Input -> ()
    | Netlist.Dead -> ()
    | Netlist.Const b -> sink.clause [ (if b then o else Lit.negate o) ]
    | Netlist.Ff -> assert false
    | Netlist.Gate fn -> (
      match fn with
      | Cell.Buf ->
        sink.clause [ Lit.negate o; ins.(0) ];
        sink.clause [ o; Lit.negate ins.(0) ]
      | Cell.Not ->
        sink.clause [ Lit.negate o; Lit.negate ins.(0) ];
        sink.clause [ o; ins.(0) ]
      | Cell.And -> and_clauses o ins true
      | Cell.Nand -> and_clauses o ins false
      | Cell.Or -> or_clauses o ins true
      | Cell.Nor -> or_clauses o ins false
      | Cell.Xor | Cell.Xnor ->
        (* Chain wide parities through fresh intermediates. *)
        let rec chain acc k =
          if k = Array.length ins - 1 then acc
          else begin
            let t = Lit.pos (sink.fresh ()) in
            xor_clauses t acc ins.(k) true;
            chain t (k + 1)
          end
        in
        let last = Array.length ins - 1 in
        let acc = chain ins.(0) 1 in
        xor_clauses o acc ins.(last) (fn = Cell.Xor)
      | Cell.Mux ->
        let s = ins.(0) and a = ins.(1) and b = ins.(2) in
        sink.clause [ s; Lit.negate a; o ];
        sink.clause [ s; a; Lit.negate o ];
        sink.clause [ Lit.negate s; Lit.negate b; o ];
        sink.clause [ Lit.negate s; b; Lit.negate o ])
    | Netlist.Lut truth ->
      Array.iteri
        (fun row out_val ->
          let body =
            List.mapi
              (fun i l ->
                if row land (1 lsl i) <> 0 then Lit.negate l else l)
              (Array.to_list ins)
          in
          sink.clause ((if out_val then o else Lit.negate o) :: body))
        truth
  in
  (* Sources first (so shared vars bind), then gates in dependency order. *)
  for id = 0 to n - 1 do
    match (Netlist.node net id).Netlist.kind with
    | Netlist.Input | Netlist.Const _ ->
      ignore (var_of id);
      encode_node id
    | Netlist.Gate _ | Netlist.Lut _ | Netlist.Ff | Netlist.Dead -> ()
  done;
  List.iter encode_node (Netlist.comb_topo_order net);
  vars

let solver_sink solver =
  {
    fresh = (fun () -> Solver.new_var solver);
    clause = (fun c -> ignore (Solver.add_clause solver c));
  }

let encode solver net ~shared = encode_with (solver_sink solver) net ~shared

let miter solver pairs =
  let sink = solver_sink solver in
  let diffs =
    List.map
      (fun (a, b) ->
        let d = Lit.pos (Solver.new_var solver) in
        xor_clauses sink d (Lit.pos a) (Lit.pos b) true;
        d)
      pairs
  in
  sink.clause diffs

let encode_simple solver net = encode solver net ~shared:(fun _ -> None)

let to_cnf net =
  let cnf = Cnf.create () in
  let sink =
    { fresh = (fun () -> Cnf.new_var cnf); clause = Cnf.add_clause cnf }
  in
  let vars = encode_with sink net ~shared:(fun _ -> None) in
  (cnf, vars)
