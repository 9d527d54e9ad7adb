(* Tests for the SAT stack: literals, CNF, the CDCL solver (cross-checked
   against brute force), Tseitin encoding and equivalence checking. *)

let tc = Alcotest.test_case

let qcheck ?(count = 100) name arb law = Qc.qcheck ~count name arb law

(* ----- Lit ----- *)

let test_lit_roundtrips () =
  for v = 0 to 20 do
    let p = Lit.pos v and n = Lit.neg v in
    Alcotest.(check int) "var pos" v (Lit.var p);
    Alcotest.(check int) "var neg" v (Lit.var n);
    Alcotest.(check bool) "polarity" true (Lit.is_pos p && not (Lit.is_pos n));
    Alcotest.(check int) "negate" n (Lit.negate p);
    Alcotest.(check int) "dimacs pos" p (Lit.of_dimacs (Lit.to_dimacs p));
    Alcotest.(check int) "dimacs neg" n (Lit.of_dimacs (Lit.to_dimacs n))
  done;
  Alcotest.check_raises "dimacs 0" (Invalid_argument "Lit.of_dimacs: zero")
    (fun () -> ignore (Lit.of_dimacs 0))

(* ----- Cnf ----- *)

let test_cnf_eval () =
  let f = Cnf.create () in
  let a = Cnf.new_var f and b = Cnf.new_var f in
  Cnf.add_clause f [ Lit.pos a; Lit.pos b ];
  Cnf.add_clause f [ Lit.neg a ];
  Alcotest.(check bool) "sat assignment" true
    (Cnf.eval f (fun v -> v = b));
  Alcotest.(check bool) "unsat assignment" false (Cnf.eval f (fun _ -> false));
  (match Cnf.brute_force f with
  | Some model ->
    Alcotest.(check bool) "model" true (model.(b) && not model.(a))
  | None -> Alcotest.fail "should be sat")

(* ----- Solver ----- *)

let test_solver_trivial () =
  let s = Solver.create () in
  Alcotest.(check bool) "empty sat" true (Solver.solve s = Solver.Sat);
  let a = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a ]);
  Alcotest.(check bool) "unit sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "value" true (Solver.value s a);
  Alcotest.(check bool) "conflicting unit" false
    (Solver.add_clause s [ Lit.neg a ]);
  Alcotest.(check bool) "now unsat" true (Solver.solve s = Solver.Unsat)

let test_solver_empty_clause () =
  let s = Solver.create () in
  Alcotest.(check bool) "empty clause" false (Solver.add_clause s []);
  Alcotest.(check bool) "unsat forever" true (Solver.solve s = Solver.Unsat)

let test_solver_tautology_dup () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Alcotest.(check bool) "tautology ok" true
    (Solver.add_clause s [ Lit.pos a; Lit.neg a ]);
  Alcotest.(check bool) "dup lits ok" true
    (Solver.add_clause s [ Lit.pos a; Lit.pos a ]);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "forced" true (Solver.value s a)

let pigeonhole holes =
  (* holes+1 pigeons into `holes` holes: unsatisfiable *)
  let s = Solver.create () in
  let v = Array.init (holes + 1) (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  Array.iter
    (fun row -> ignore (Solver.add_clause s (Array.to_list (Array.map Lit.pos row))))
    v;
  for h = 0 to holes - 1 do
    for p1 = 0 to holes do
      for p2 = p1 + 1 to holes do
        ignore (Solver.add_clause s [ Lit.neg v.(p1).(h); Lit.neg v.(p2).(h) ])
      done
    done
  done;
  s

let test_solver_pigeonhole () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "php %d" n)
        true
        (Solver.solve (pigeonhole n) = Solver.Unsat))
    [ 2; 3; 4; 5 ]

let test_solver_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.neg a; Lit.pos b ]);
  Alcotest.(check bool) "a & ~b unsat" true
    (Solver.solve ~assumptions:[ Lit.pos a; Lit.neg b ] s = Solver.Unsat);
  Alcotest.(check bool) "a sat" true
    (Solver.solve ~assumptions:[ Lit.pos a ] s = Solver.Sat);
  Alcotest.(check bool) "implied" true (Solver.value s b);
  Alcotest.(check bool) "assumptions retract" true (Solver.solve s = Solver.Sat)

let random_cnf_arb =
  QCheck.make
    ~print:(fun (nv, cls) ->
      Printf.sprintf "%d vars, %d clauses" nv (List.length cls))
    QCheck.Gen.(
      int_range 3 10 >>= fun nv ->
      list_size (int_range 1 (4 * nv))
        (list_size (int_range 1 3)
           (map2 (fun v pos -> Lit.make (v mod nv) pos) (int_bound (nv - 1)) bool))
      >>= fun cls -> return (nv, cls))

let solver_vs_brute_law (nv, cls) =
  let cnf = Cnf.create () in
  for _ = 1 to nv do ignore (Cnf.new_var cnf) done;
  let s = Solver.create () in
  for _ = 1 to nv do ignore (Solver.new_var s) done;
  let ok = ref true in
  List.iter
    (fun c ->
      Cnf.add_clause cnf c;
      if not (Solver.add_clause s c) then ok := false)
    cls;
  let expected = Cnf.brute_force cnf <> None in
  let got = !ok && Solver.solve s = Solver.Sat in
  expected = got
  && ((not got) || Cnf.eval cnf (fun v -> Solver.value s v))

let solver_incremental_law (nv, cls) =
  (* Adding clauses one solve at a time agrees with adding them all. *)
  let mk () =
    let s = Solver.create () in
    for _ = 1 to nv do ignore (Solver.new_var s) done;
    s
  in
  let s_all = mk () and s_inc = mk () in
  let ok_all = List.for_all (fun c -> Solver.add_clause s_all c) cls in
  let r_all = if ok_all then Solver.solve s_all else Solver.Unsat in
  let r_inc =
    List.fold_left
      (fun acc c ->
        if acc = Solver.Unsat then Solver.Unsat
        else if not (Solver.add_clause s_inc c) then Solver.Unsat
        else Solver.solve s_inc)
      Solver.Sat cls
  in
  r_all = r_inc

(* Assumptions on top of a random CNF: the brute-force reference takes
   them as extra unit clauses. *)
let assumptions_arb =
  QCheck.make
    ~print:(fun ((nv, cls), asm) ->
      Printf.sprintf "%d vars, %d clauses, assumptions [%s]" nv
        (List.length cls)
        (String.concat "; " (List.map string_of_int asm)))
    QCheck.Gen.(
      QCheck.gen random_cnf_arb >>= fun (nv, cls) ->
      list_size (int_range 0 4)
        (map2 (fun v pos -> Lit.make (v mod nv) pos) (int_bound (nv - 1)) bool)
      >>= fun asm -> return ((nv, cls), asm))

let solver_assumptions_law ((nv, cls), asm) =
  let cnf = Cnf.create () in
  for _ = 1 to nv do ignore (Cnf.new_var cnf) done;
  List.iter (Cnf.add_clause cnf) cls;
  let with_units = Cnf.create () in
  for _ = 1 to nv do ignore (Cnf.new_var with_units) done;
  List.iter (Cnf.add_clause with_units) cls;
  List.iter (fun a -> Cnf.add_clause with_units [ a ]) asm;
  let s = Solver.create () in
  for _ = 1 to nv do ignore (Solver.new_var s) done;
  let ok = List.for_all (fun c -> Solver.add_clause s c) cls in
  let expected = Cnf.brute_force with_units <> None in
  let got = ok && Solver.solve ~assumptions:asm s = Solver.Sat in
  expected = got
  && ((not got)
     || Cnf.eval cnf (Solver.value s)
        && List.for_all (fun a -> Solver.value s (Lit.var a) = Lit.is_pos a) asm)

(* One solver driven through a random interleaving of add_clause,
   solve ~assumptions and plain solve; each answer must match a fresh
   solver given the clauses so far and the same assumptions. *)
type op = Add of Lit.t list | Solve of Lit.t list

let interleaved_arb =
  let open QCheck.Gen in
  let gen =
    int_range 3 8 >>= fun nv ->
    let lit = map2 (fun v pos -> Lit.make (v mod nv) pos) (int_bound (nv - 1)) bool in
    let op =
      frequency
        [
          (3, map (fun c -> Add c) (list_size (int_range 1 3) lit));
          (1, map (fun a -> Solve a) (list_size (int_range 0 3) lit));
        ]
    in
    list_size (int_range 1 30) op >>= fun ops -> return (nv, ops)
  in
  QCheck.make
    ~print:(fun (nv, ops) ->
      let lits l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf "%d vars: %s" nv
        (String.concat " "
           (List.map
              (function
                | Add c -> "add[" ^ lits c ^ "]"
                | Solve a -> "solve[" ^ lits a ^ "]")
              ops)))
    gen

let solver_interleaved_law (nv, ops) =
  let mk () =
    let s = Solver.create () in
    for _ = 1 to nv do ignore (Solver.new_var s) done;
    s
  in
  let s = mk () in
  let ok = ref true in
  let added = ref [] in
  List.for_all
    (function
      | Add c ->
        if not (Solver.add_clause s c) then ok := false;
        added := c :: !added;
        true
      | Solve asm ->
        let got = if !ok then Solver.solve ~assumptions:asm s else Solver.Unsat in
        let fresh = mk () in
        let fresh_ok =
          List.for_all (fun c -> Solver.add_clause fresh c) (List.rev !added)
        in
        let expected =
          if fresh_ok then Solver.solve ~assumptions:asm fresh else Solver.Unsat
        in
        got = expected
        && (got = Solver.Unsat
           || List.for_all
                (List.exists (fun l -> Solver.value s (Lit.var l) = Lit.is_pos l))
                !added
              && List.for_all
                   (fun a -> Solver.value s (Lit.var a) = Lit.is_pos a)
                   asm))
    ops

(* ----- Search identity -----

   The solver's exact search (every decision, conflict and propagation)
   pinned on fixed instances.  A change to the kernel's data layout or
   mechanics must reproduce these counts exactly; a change to the search
   itself (heuristics, learning, restarts) must re-pin them on purpose. *)

let verdict_name = function Solver.Sat -> "sat" | Solver.Unsat -> "unsat"

let search_row name s r =
  (name ^ " " ^ verdict_name r, Solver.conflicts s, Solver.propagations s)

let random_3sat ~seed ~nv ~nc =
  let rng = Random.State.make [| seed; 0x3353 |] in
  let s = Solver.create () in
  for _ = 1 to nv do ignore (Solver.new_var s) done;
  for _ = 1 to nc do
    let a = Lit.make (Random.State.int rng nv) (Random.State.bool rng) in
    let b = Lit.make (Random.State.int rng nv) (Random.State.bool rng) in
    let c = Lit.make (Random.State.int rng nv) (Random.State.bool rng) in
    ignore (Solver.add_clause s [ a; b; c ])
  done;
  s

(* The SAT attack's DIP miter, written out against Solver and Tseitin:
   two full copies of [locked] over shared X variables and distinct key
   vectors, and a miter over their outputs.  [fm_constrain dip outs]
   adds one full I/O-constraint copy per key vector. *)
type full_miter = {
  fm_solver : Solver.t;
  fm_xs : (int * int) list;  (* X input id, variable *)
  fm_dip : unit -> (string * bool) list;  (* the model's X values *)
  fm_constrain : (string * bool) list -> (string * bool) list -> unit;
}

let full_miter locked key_inputs =
  let s = Solver.create () in
  let input_name pi = (Netlist.node locked pi).Netlist.name in
  let x_pis, key_pis =
    List.partition
      (fun pi -> not (List.mem (input_name pi) key_inputs))
      (Netlist.inputs locked)
  in
  let fresh pis = List.map (fun pi -> (pi, Solver.new_var s)) pis in
  let xs = fresh x_pis in
  let k1 = fresh key_pis in
  let k2 = fresh key_pis in
  let encode shared =
    Tseitin.encode s locked ~shared:(fun id -> List.assoc_opt id shared)
  in
  let v1 = encode (xs @ k1) in
  let v2 = encode (xs @ k2) in
  Tseitin.miter s (List.map (fun (_, d) -> (v1.(d), v2.(d))) (Netlist.outputs locked));
  let constrain dip outs =
    List.iter
      (fun keys ->
        let vars = encode keys in
        List.iter2
          (fun (pi, _) (_, b) -> ignore (Solver.add_clause s [ Lit.make vars.(pi) b ]))
          xs dip;
        List.iter
          (fun (po, d) ->
            ignore (Solver.add_clause s [ Lit.make vars.(d) (List.assoc po outs) ]))
          (Netlist.outputs locked))
      [ k1; k2 ]
  in
  {
    fm_solver = s;
    fm_xs = xs;
    fm_dip = (fun () -> List.map (fun (pi, v) -> (input_name pi, Solver.value s v)) xs);
    fm_constrain = constrain;
  }

(* The DIP loop over [full_miter].  Returns the row for the final solver
   state. *)
let dip_loop_row name locked key_inputs chip =
  let oracle = Oracle.query (Oracle.of_netlist ~partial:true chip) in
  let fm = full_miter locked key_inputs in
  let s = fm.fm_solver in
  let rec loop dips =
    match Solver.solve s with
    | Solver.Unsat -> (dips, Solver.Unsat)
    | Solver.Sat ->
      let dip = fm.fm_dip () in
      fm.fm_constrain dip (oracle dip);
      loop (dips + 1)
  in
  let dips, r = loop 0 in
  search_row (Printf.sprintf "%s %d dips" name dips) s r

let gk2_tiny () =
  let net = Benchmarks.tiny () in
  let clock = Sta.clock_for net ~margin:4.5 in
  let d = Insertion.lock ~seed:3 net ~clock_ps:clock ~n_gks:2 in
  let stripped, keys = Insertion.strip_keygens d in
  let locked, _ = Combinationalize.run stripped in
  let chip, _ = Combinationalize.run net in
  (locked, keys, chip)

let sarlock4 () =
  let chip =
    Generator.generate
      {
        Generator.gen_name = "si";
        seed = 17;
        n_pi = 8;
        n_po = 4;
        n_ff = 0;
        n_gates = 60;
        depth = 6;
        ff_depth_bias = 0.0;
      }
  in
  let lk = Sarlock.lock ~seed:4 chip ~n_keys:4 in
  (lk.Locked.net, lk.Locked.key_inputs, chip)

let search_rows () =
  let solved name s = search_row name s (Solver.solve s) in
  let php =
    List.map (fun n -> solved (Printf.sprintf "php%d" n) (pigeonhole n)) [ 5; 6 ]
  in
  let random =
    List.init 8 (fun seed ->
        solved (Printf.sprintf "3sat%d" seed) (random_3sat ~seed ~nv:60 ~nc:256))
  in
  let assumed =
    let s = random_3sat ~seed:100 ~nv:50 ~nc:160 in
    List.mapi
      (fun i asm ->
        search_row (Printf.sprintf "asm%d" i) s (Solver.solve ~assumptions:asm s))
      [
        [ Lit.pos 0; Lit.neg 1; Lit.pos 2 ];
        [ Lit.neg 0; Lit.neg 3 ];
        [];
        List.init 12 (fun v -> Lit.make (3 * v) (v mod 2 = 0));
        [ Lit.pos 5 ];
      ]
  in
  let gk_locked, gk_keys, gk_chip = gk2_tiny () in
  let sar_locked, sar_keys, sar_chip = sarlock4 () in
  php @ random @ assumed
  @ [
      dip_loop_row "gk2-tiny" gk_locked gk_keys gk_chip;
      dip_loop_row "sarlock4" sar_locked sar_keys sar_chip;
    ]

let expected_search_rows =
  [
    ("php5 unsat", 149, 1735);
    ("php6 unsat", 1020, 13420);
    ("3sat0 sat", 15, 334);
    ("3sat1 unsat", 58, 1039);
    ("3sat2 sat", 42, 664);
    ("3sat3 unsat", 74, 1223);
    ("3sat4 unsat", 25, 350);
    ("3sat5 unsat", 54, 851);
    ("3sat6 sat", 1, 67);
    ("3sat7 unsat", 41, 733);
    ("asm0 unsat", 3, 64);
    ("asm1 sat", 15, 242);
    ("asm2 sat", 15, 292);
    ("asm3 unsat", 16, 309);
    ("asm4 sat", 17, 373);
    ("gk2-tiny 0 dips unsat", 150, 3058);
    ("sarlock4 15 dips unsat", 141, 34838);
  ]

let test_search_identity () =
  let rows = search_rows () in
  Alcotest.(check (list (triple string int int)))
    "conflicts and propagations" expected_search_rows rows

let xor8 () =
  let chip =
    Generator.generate
      {
        Generator.gen_name = "sx";
        seed = 23;
        n_pi = 10;
        n_po = 5;
        n_ff = 0;
        n_gates = 80;
        depth = 7;
        ff_depth_bias = 0.0;
      }
  in
  let lk = Xor_lock.lock ~seed:5 chip ~n_keys:8 in
  (lk.Locked.net, lk.Locked.key_inputs, chip)

(* The solver's clients, through their public entry points: outcomes
   that depend on which model each solve returns.  gk2-tiny is one miter
   solve, so it pins the kernel, Tseitin.encode and the DIP miter's
   formula (the key-cone copy and its guard); the sarlock4 DIP loops also
   pin the I/O constraint encoding (Tseitin.assert_io) and the key read
   from the miter's solver.  Each moves only when an attack's formula
   changes on purpose. *)
let expected_attack_rows =
  [
    "gk2-tiny sat iterations=0 conflicts=18";
    "sarlock4 sat iterations=15 conflicts=37";
    "sarlock4 appsat dips=12 queries=150 key=sk0=1 sk1=0 sk2=0 sk3=1";
    "xor8 sensitization patterns=4 recovered=xk2=0 xk7=1";
    "xor8 equiv witness=0100111111";
  ]

let test_attack_search_identity () =
  let oracle chip = Oracle.of_netlist ~partial:true chip in
  let sat name (locked, key_inputs, chip) =
    let o =
      Sat_attack.exec ~budget:(Budget.create ~max_iterations:4096 ()) ~locked
        ~key_inputs ~oracle:(oracle chip) ()
    in
    Printf.sprintf "%s sat iterations=%d conflicts=%d" name o.Sat_attack.iterations
      o.Sat_attack.conflicts
  in
  let appsat =
    let locked, key_inputs, chip = sarlock4 () in
    let o =
      Appsat.exec ~seed:7 ~budget:(Budget.create ~max_iterations:512 ()) ~locked
        ~key_inputs ~oracle:(oracle chip) ()
    in
    Printf.sprintf "sarlock4 appsat dips=%d queries=%d key=%s" o.Appsat.dips
      o.Appsat.random_queries (Key.to_string o.Appsat.key)
  in
  let locked, key_inputs, chip = xor8 () in
  let sensitization =
    let o =
      Sensitization.exec ~seed:7 ~budget:(Budget.unlimited ()) ~locked
        ~key_inputs ~oracle:(oracle chip) ()
    in
    Printf.sprintf "xor8 sensitization patterns=%d recovered=%s"
      o.Sensitization.patterns_used (Key.to_string o.Sensitization.recovered)
  in
  let equiv =
    let zero_key = List.map (fun k -> (k, false)) key_inputs in
    match Equiv.check ~fixed_b:zero_key chip locked with
    | Equiv.Equivalent -> "xor8 equiv equivalent"
    | Equiv.Different w ->
      "xor8 equiv witness="
      ^ String.concat "" (List.map (fun (_, b) -> if b then "1" else "0") w)
  in
  Alcotest.(check (list string))
    "attack outcomes"
    expected_attack_rows
    [
      sat "gk2-tiny" (gk2_tiny ());
      sat "sarlock4" (sarlock4 ());
      appsat;
      sensitization;
      equiv;
    ]

(* AppSAT counts an estimate batch once the chip has answered it: under
   a query cap that refuses the batch, the refused batch (and the
   pessimistic re-estimate that the cap refuses too) counts nothing. *)
let test_appsat_counts_answered_batches () =
  let locked, key_inputs, chip = sarlock4 () in
  let run max_queries =
    let budget = Budget.create ~max_iterations:512 ~max_queries () in
    let oracle = Oracle.with_budget budget (Oracle.of_netlist ~partial:true chip) in
    let o = Appsat.exec ~seed:7 ~budget ~locked ~key_inputs ~oracle () in
    (o.Appsat.dips, o.Appsat.random_queries, Oracle.queries oracle, o.Appsat.error_rate)
  in
  let dips, random, answered, err = run 30 in
  Alcotest.(check (list int)) "cap 30: dips, random queries, chip queries" [ 4; 0; 4 ]
    [ dips; random; answered ];
  Alcotest.(check (float 0.0)) "cap 30: pessimistic error" 1.0 err;
  let dips, random, answered, _ = run 60 in
  Alcotest.(check (list int)) "cap 60: one estimate answered" [ 8; 50 ]
    [ dips; random ];
  Alcotest.(check bool) "cap 60: the chip answered it" true (answered > 4 && answered <= 60)

(* ----- Tseitin ----- *)

let exhaustive_gate_check fn arity =
  let net = Netlist.create "g" in
  let pis = Array.init arity (fun i -> Netlist.add_input net (Printf.sprintf "i%d" i)) in
  let g = Netlist.add_gate net fn pis in
  Netlist.add_output net "y" g;
  let ok = ref true in
  for row = 0 to (1 lsl arity) - 1 do
    let bit i = row land (1 lsl i) <> 0 in
    let solver = Solver.create () in
    let vars = Tseitin.encode_simple solver net in
    Array.iteri
      (fun i pi -> ignore (Solver.add_clause solver [ Lit.make vars.(pi) (bit i) ]))
      pis;
    (match Solver.solve solver with
    | Solver.Sat ->
      let expected = Cell.eval fn (Array.init arity bit) in
      if Solver.value solver vars.(g) <> expected then ok := false
    | Solver.Unsat -> ok := false)
  done;
  !ok

let test_tseitin_gates () =
  List.iter
    (fun (fn, arity) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%d" (Cell.fn_name fn) arity)
        true
        (exhaustive_gate_check fn arity))
    [
      (Cell.Not, 1); (Cell.Buf, 1); (Cell.And, 2); (Cell.And, 4);
      (Cell.Or, 3); (Cell.Nand, 2); (Cell.Nand, 3); (Cell.Nor, 2);
      (Cell.Xor, 2); (Cell.Xor, 3); (Cell.Xor, 4); (Cell.Xnor, 2);
      (Cell.Xnor, 3); (Cell.Mux, 3);
    ]

let test_tseitin_lut () =
  let net = Netlist.create "l" in
  let a = Netlist.add_input net "a" in
  let b = Netlist.add_input net "b" in
  let c = Netlist.add_input net "c" in
  let truth = Array.init 8 (fun i -> i = 1 || i = 6 || i = 7) in
  let l = Netlist.add_lut net ~truth [| a; b; c |] in
  Netlist.add_output net "y" l;
  let ok = ref true in
  for row = 0 to 7 do
    let bit i = row land (1 lsl i) <> 0 in
    let solver = Solver.create () in
    let vars = Tseitin.encode_simple solver net in
    List.iteri
      (fun i pi -> ignore (Solver.add_clause solver [ Lit.make vars.(pi) (bit i) ]))
      [ a; b; c ];
    (match Solver.solve solver with
    | Solver.Sat -> if Solver.value solver vars.(l) <> truth.(row) then ok := false
    | Solver.Unsat -> ok := false)
  done;
  Alcotest.(check bool) "lut rows" true !ok

let test_tseitin_rejects_ffs () =
  let net = Benchmarks.s27 () in
  let solver = Solver.create () in
  Alcotest.check_raises "ff guard"
    (Invalid_argument "Tseitin: netlist has flip-flops (combinationalize first)")
    (fun () -> ignore (Tseitin.encode_simple solver net))

let tseitin_vs_eval_law seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = "tv";
        seed;
        n_pi = 5;
        n_po = 3;
        n_ff = 0;
        n_gates = 20;
        depth = 5;
        ff_depth_bias = 0.0;
      }
  in
  let rng = Random.State.make [| seed; 5 |] in
  let assignment = List.map (fun pi -> (pi, Random.State.bool rng)) (Netlist.inputs net) in
  let solver = Solver.create () in
  let vars = Tseitin.encode_simple solver net in
  List.iter
    (fun (pi, b) -> ignore (Solver.add_clause solver [ Lit.make vars.(pi) b ]))
    assignment;
  Solver.solve solver = Solver.Sat
  &&
  let values = Netlist.eval_comb net (fun id -> List.assoc id assignment) in
  List.for_all
    (fun (_, d) -> values.(d) = Solver.value solver vars.(d))
    (Netlist.outputs net)

let test_to_cnf () =
  let net = Netlist.create "c" in
  let a = Netlist.add_input net "a" in
  let g = Netlist.add_gate net Cell.Not [| a |] in
  Netlist.add_output net "y" g;
  let cnf, vars = Tseitin.to_cnf net in
  Alcotest.(check int) "clauses" 2 (Cnf.num_clauses cnf);
  Alcotest.(check bool) "vars assigned" true (vars.(a) >= 0 && vars.(g) >= 0)

let test_tseitin_miter () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Tseitin.miter s [ (a, a); (b, c) ];
  Alcotest.(check int) "one difference variable: (a, a) dropped" 4 (Solver.num_vars s);
  Alcotest.(check bool) "some pair differs" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "b <> c" true (Solver.value s b <> Solver.value s c);
  ignore (Solver.add_clause s [ Lit.pos b ]);
  ignore (Solver.add_clause s [ Lit.pos c ]);
  Alcotest.(check bool) "no pair can differ" true (Solver.solve s = Solver.Unsat);
  let empty = Solver.create () in
  Tseitin.miter empty [];
  Alcotest.(check bool) "no pairs" true (Solver.solve empty = Solver.Unsat);
  let shared = Solver.create () in
  let a = Solver.new_var shared in
  Tseitin.miter shared [ (a, a) ];
  Alcotest.(check int) "only a shared pair: no variable" 1 (Solver.num_vars shared);
  Alcotest.(check bool) "only a shared pair: UNSAT" true
    (Solver.solve shared = Solver.Unsat)

(* With a guard the miter clause binds under the guard only. *)
let test_tseitin_miter_guard () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  let g = Lit.pos (Solver.new_var s) in
  Tseitin.miter ~guard:g s [ (a, b) ];
  ignore (Solver.add_clause s [ Lit.pos a ]);
  ignore (Solver.add_clause s [ Lit.pos b ]);
  Alcotest.(check bool) "guarded: a = b refutes it" true
    (Solver.solve ~assumptions:[ g ] s = Solver.Unsat);
  Alcotest.(check bool) "switched off: SAT" true
    (Solver.solve ~assumptions:[ Lit.negate g ] s = Solver.Sat);
  let none = Solver.create () in
  let a = Solver.new_var none in
  let g = Lit.pos (Solver.new_var none) in
  Tseitin.miter ~guard:g none [ (a, a) ];
  Alcotest.(check bool) "no pairs, guarded: UNSAT" true
    (Solver.solve ~assumptions:[ g ] none = Solver.Unsat);
  Alcotest.(check bool) "no pairs, switched off: SAT" true
    (Solver.solve ~assumptions:[ Lit.negate g ] none = Solver.Sat)

(* A second copy that takes a gate's variable from the first adds no
   clauses for it, only for the gates over it that it encodes afresh. *)
let test_tseitin_shared_gate () =
  let net = Netlist.create "sh" in
  let a = Netlist.add_input net "a" and k = Netlist.add_input net "k" in
  let g = Netlist.add_gate net Cell.Not [| a |] in
  let h = Netlist.add_gate net Cell.And [| g; k |] in
  Netlist.add_output net "h" h;
  let s = Solver.create () in
  let v1 = Tseitin.encode_simple s net in
  let vars0 = Solver.num_vars s and clauses0 = Solver.num_clauses s in
  let v2 =
    Tseitin.encode s net ~shared:(fun id ->
        if id = a || id = g then Some v1.(id) else None)
  in
  Alcotest.(check int) "the shared gate keeps the first copy's variable" v1.(g) v2.(g);
  Alcotest.(check int) "fresh variables: k and h" (vars0 + 2) (Solver.num_vars s);
  Alcotest.(check int) "clauses: h's AND only" (clauses0 + 3) (Solver.num_clauses s);
  List.iter
    (fun (va, vk) ->
      let pins = [ Lit.make v1.(a) va; Lit.make v2.(k) vk ] in
      Alcotest.(check bool) "SAT" true (Solver.solve ~assumptions:pins s = Solver.Sat);
      Alcotest.(check bool) "h = not a and k" ((not va) && vk) (Solver.value s v2.(h)))
    [ (false, false); (false, true); (true, false); (true, true) ]

(* ----- folded I/O constraints (Tseitin.assert_io) ----- *)

(* The law for one I/O constraint: under every key K over [keys], the
   folded constraint, the full encoding plus unit pins, and the engine
   agree on whether locked(x, K) = y.  [x] pins every other input.
   Returns the keys (as bit masks) where they disagree. *)
let folded_disagreements locked ~keys ~x ~y =
  let key_index = Hashtbl.create 8 in
  Array.iteri (fun i id -> Hashtbl.replace key_index id i) keys;
  let with_keys s =
    let kv = Array.map (fun _ -> Solver.new_var s) keys in
    (kv, fun id -> Option.map (fun i -> kv.(i)) (Hashtbl.find_opt key_index id))
  in
  let folded = Solver.create () in
  let kf, shared = with_keys folded in
  Tseitin.assert_io folded locked ~shared ~inputs:x ~outputs:y;
  let full = Solver.create () in
  let kfull, shared = with_keys full in
  let vars = Tseitin.encode full locked ~shared in
  Array.iter
    (fun (id, b) -> ignore (Solver.add_clause full [ Lit.make vars.(id) b ]))
    (Array.append x y);
  let value = Array.make (Netlist.num_nodes locked) false in
  Array.iter (fun (id, b) -> value.(id) <- b) x;
  List.filter
    (fun k ->
      let bit i = k land (1 lsl i) <> 0 in
      Array.iteri (fun i id -> value.(id) <- bit i) keys;
      let sat s kv =
        Solver.solve ~assumptions:(List.init (Array.length kv) (fun i -> Lit.make kv.(i) (bit i))) s
        = Solver.Sat
      in
      let values = Netlist.eval_comb locked (fun id -> value.(id)) in
      let engine = Array.for_all (fun (d, b) -> values.(d) = b) y in
      sat folded kf <> engine || sat full kfull <> engine)
    (List.init (1 lsl Array.length keys) Fun.id)

(* A seeded Netlist_gen circuit (half of them adversarial: LUTs, MUXes,
   constants, wide gates, repeated fanins), combinationalized, and its
   XOR, SARLock or MUX lock with 1 to 6 key bits; [None] when the circuit
   is too small to host the lock.  Also returns the seed's generator for
   further draws. *)
let locked_case seed =
  let rng = Random.State.make [| seed; 0x464f |] in
  let chip = fst (Combinationalize.run (Netlist_gen.net rng)) in
  let n_keys = 1 + Random.State.int rng 6 in
  let lock =
    match Random.State.int rng 3 with
    | 0 -> Xor_lock.lock
    | 1 -> Sarlock.lock
    | _ -> Mux_lock.lock
  in
  match lock ~seed chip ~n_keys with
  | exception Invalid_argument _ -> None
  | lk -> Some (rng, chip, lk)

(* A [locked_case]; a random DIP; the chip's outputs, or the same with one
   bit flipped. *)
let folded_law seed =
  match locked_case seed with
  | None -> true
  | Some (rng, chip, lk) ->
    let locked = lk.Locked.net in
    let keys =
      Array.of_list
        (List.map (fun k -> Option.get (Netlist.find locked k)) lk.Locked.key_inputs)
    in
    let x =
      Array.of_list
        (List.map
           (fun pi -> (pi, Random.State.bool rng))
           (Dip_miter.x_inputs locked ~key_inputs:lk.Locked.key_inputs))
    in
    let reply =
      let o = Oracle.of_netlist ~partial:true chip in
      Oracle.query o
        (Array.to_list
           (Array.map (fun (pi, b) -> ((Netlist.node locked pi).Netlist.name, b)) x))
    in
    let y =
      Array.of_list
        (List.map (fun (po, d) -> (d, List.assoc po reply)) (Netlist.outputs locked))
    in
    if Array.length y > 0 && Random.State.bool rng then begin
      let i = Random.State.int rng (Array.length y) in
      y.(i) <- (fst y.(i), not (snd y.(i)))
    end;
    folded_disagreements locked ~keys ~x ~y = []

(* The key-cone DIP miter against the full-copy reference, over a whole
   DIP loop on a [locked_case]: the first search agrees with the
   reference's, the first DIP pinned into the reference leaves it SAT (a
   DIP of the full-copy miter), the reference under the same I/O
   constraints is UNSAT when the loop ends, and the final key matches
   the chip on random samples. *)
let key_cone_miter_law seed =
  match locked_case seed with
  | None -> true
  | Some (_, chip, lk) ->
    let locked = lk.Locked.net and key_inputs = lk.Locked.key_inputs in
    let oracle = Oracle.of_netlist ~partial:true chip in
    let m = Dip_miter.create locked ~key_inputs in
    let fm = full_miter locked key_inputs in
    let pins dip = List.map2 (fun (_, v) (_, b) -> Lit.make v b) fm.fm_xs dip in
    let rec loop iter =
      match Dip_miter.solve m ~iter with
      | Solver.Unsat -> (
        Solver.solve fm.fm_solver = Solver.Unsat
        &&
        match Dip_miter.key m with
        | Some key -> Sat_attack.verify_key ~locked ~key_inputs ~oracle key = 0
        | None -> false)
      | Solver.Sat ->
        let dip = Dip_miter.dip m in
        (iter > 0 || Solver.solve ~assumptions:(pins dip) fm.fm_solver = Solver.Sat)
        &&
        let reply = Oracle.query oracle dip in
        Dip_miter.constrain m (Dip_miter.io m dip reply);
        fm.fm_constrain dip reply;
        loop (iter + 1)
    in
    loop 0

(* Every gate function, wide parities and LUTs over fanins drawn (with
   repetition) from a 0 input, a 1 input and two key bits: constant
   selects and data on MUXes, LUTs with mixed constant inputs, gates left
   with one unknown input (the aliasing rules) and gates with none. *)
let test_assert_io_single_gates () =
  let rng = Random.State.make [| 0x5347 |] in
  let tables arity =
    if arity <= 2 then
      List.init (1 lsl (1 lsl arity)) (fun t ->
          Array.init (1 lsl arity) (fun r -> t land (1 lsl r) <> 0))
    else List.init 8 (fun _ -> Array.init (1 lsl arity) (fun _ -> Random.State.bool rng))
  in
  let shapes =
    List.concat_map
      (fun (fn, arities) -> List.map (fun a -> (`Gate fn, a)) arities)
      [
        (Cell.Not, [ 1 ]); (Cell.Buf, [ 1 ]); (Cell.And, [ 2; 3 ]);
        (Cell.Nand, [ 2; 3 ]); (Cell.Or, [ 2; 3 ]); (Cell.Nor, [ 2; 3 ]);
        (Cell.Xor, [ 2; 3; 5 ]); (Cell.Xnor, [ 2; 3; 5 ]); (Cell.Mux, [ 3 ]);
      ]
    @ List.concat_map
        (fun a -> List.map (fun t -> (`Lut t, a)) (tables a))
        [ 1; 2; 3; 4 ]
  in
  let checked = ref 0 in
  List.iter
    (fun (shape, arity) ->
      for pick = 0 to (1 lsl (2 * arity)) - 1 do
        let net = Netlist.create "g" in
        let x0 = Netlist.add_input net "x0" and x1 = Netlist.add_input net "x1" in
        let k0 = Netlist.add_input net "k0" and k1 = Netlist.add_input net "k1" in
        let srcs = [| x0; x1; k0; k1 |] in
        let fanins = Array.init arity (fun i -> srcs.((pick lsr (2 * i)) land 3)) in
        let g =
          match shape with
          | `Gate fn -> Netlist.add_gate net fn fanins
          | `Lut truth -> Netlist.add_lut net ~truth fanins
        in
        Netlist.add_output net "y" g;
        List.iter
          (fun want ->
            incr checked;
            let bad =
              folded_disagreements net ~keys:[| k0; k1 |]
                ~x:[| (x0, false); (x1, true) |]
                ~y:[| (g, want) |]
            in
            if bad <> [] then
              Alcotest.failf "%s/%d fanins %s, y=%b: disagrees under key %d"
                (match shape with
                | `Gate fn -> Cell.fn_name fn
                | `Lut _ -> "LUT")
                arity
                (String.concat ","
                   (Array.to_list (Array.map (fun f -> (Netlist.node net f).Netlist.name) fanins)))
                want (List.hd bad))
          [ false; true ]
      done)
    shapes;
  Alcotest.(check bool) "cases checked" true (!checked > 10_000)

(* An output the DIP's X values already decide, against the oracle: the
   constraint is UNSAT outright, and neither it nor an agreeing one
   allocates a variable. *)
let test_assert_io_constant_output () =
  let net = Netlist.create "c" in
  let x = Netlist.add_input net "x" and k = Netlist.add_input net "k" in
  let g = Netlist.add_gate net Cell.And [| x; k |] in
  let h = Netlist.add_gate net Cell.Xor [| g; k |] in
  Netlist.add_output net "g" g;
  Netlist.add_output net "h" h;
  let run want_g =
    let s = Solver.create () in
    let kv = Solver.new_var s in
    Tseitin.assert_io s net
      ~shared:(fun id -> if id = k then Some kv else None)
      ~inputs:[| (x, false) |]
      ~outputs:[| (g, want_g); (h, true) |];
    (Solver.num_vars s, Solver.solve s)
  in
  Alcotest.(check bool) "disagreeing constant output: UNSAT" true
    (snd (run true) = Solver.Unsat);
  let vars, verdict = run false in
  Alcotest.(check bool) "agreeing: SAT" true (verdict = Solver.Sat);
  Alcotest.(check int) "h aliases the key: no fresh variable" 1 vars

(* ----- Equiv ----- *)

let test_equiv_basic () =
  let mk invert =
    let n = Netlist.create (if invert then "b" else "a") in
    let x = Netlist.add_input n "x" in
    let y = Netlist.add_input n "y" in
    let g = Netlist.add_gate n Cell.And [| x; y |] in
    let out = if invert then Netlist.add_gate n Cell.Not [| g |] else g in
    Netlist.add_output n "o" out;
    n
  in
  Alcotest.(check bool) "equal" true (Equiv.check (mk false) (mk false) = Equiv.Equivalent);
  (match Equiv.check (mk false) (mk true) with
  | Equiv.Different w -> Alcotest.(check int) "witness arity" 2 (List.length w)
  | Equiv.Equivalent -> Alcotest.fail "inverted said equivalent")

let test_equiv_fixed_keys () =
  (* y = x xor k: equivalent to buffer iff k = 0 *)
  let locked = Netlist.create "lk" in
  let x = Netlist.add_input locked "x" in
  let k = Netlist.add_input locked "k" in
  let g = Netlist.add_gate locked Cell.Xor [| x; k |] in
  Netlist.add_output locked "o" g;
  let plain = Netlist.create "pl" in
  let x2 = Netlist.add_input plain "x" in
  let b = Netlist.add_gate plain Cell.Buf [| x2 |] in
  Netlist.add_output plain "o" b;
  Alcotest.(check bool) "k=0 equivalent" true
    (Equiv.check ~fixed_a:[ ("k", false) ] locked plain = Equiv.Equivalent);
  Alcotest.(check bool) "k=1 different" true
    (Equiv.check ~fixed_a:[ ("k", true) ] locked plain <> Equiv.Equivalent)

let test_equiv_po_mismatch () =
  let a = Netlist.create "a" in
  let x = Netlist.add_input a "x" in
  Netlist.add_output a "o1" x;
  let b = Netlist.create "b" in
  let y = Netlist.add_input b "x" in
  Netlist.add_output b "o2" y;
  Alcotest.check_raises "po names"
    (Invalid_argument "Equiv.check: primary-output name sets differ")
    (fun () -> ignore (Equiv.check a b))

(* ----- Dimacs ----- *)

let test_dimacs_roundtrip () =
  let cnf = Cnf.create () in
  let a = Cnf.new_var cnf and b = Cnf.new_var cnf and c = Cnf.new_var cnf in
  Cnf.add_clause cnf [ Lit.pos a; Lit.neg b ];
  Cnf.add_clause cnf [ Lit.neg a; Lit.pos b; Lit.pos c ];
  Cnf.add_clause cnf [ Lit.neg c ];
  let text = Dimacs.to_string cnf in
  let cnf2 = Dimacs.of_string text in
  Alcotest.(check int) "vars" (Cnf.num_vars cnf) (Cnf.num_vars cnf2);
  Alcotest.(check int) "clauses" (Cnf.num_clauses cnf) (Cnf.num_clauses cnf2);
  Alcotest.(check string) "stable" text (Dimacs.to_string cnf2)

let test_dimacs_parse () =
  let cnf = Dimacs.of_string "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  Alcotest.(check int) "vars" 3 (Cnf.num_vars cnf);
  Alcotest.(check int) "clauses" 2 (Cnf.num_clauses cnf)

let suites =
  [
    ("sat.lit", [ tc "round trips" `Quick test_lit_roundtrips ]);
    ("sat.cnf", [ tc "eval/brute" `Quick test_cnf_eval ]);
    ( "sat.solver",
      [
        tc "trivial" `Quick test_solver_trivial;
        tc "empty clause" `Quick test_solver_empty_clause;
        tc "tautology/dups" `Quick test_solver_tautology_dup;
        tc "pigeonhole" `Quick test_solver_pigeonhole;
        tc "assumptions" `Quick test_solver_assumptions;
        qcheck ~count:300 "agrees with brute force" random_cnf_arb
          solver_vs_brute_law;
        qcheck ~count:100 "incremental = batch" random_cnf_arb
          solver_incremental_law;
        qcheck ~count:300 "assumptions agree with brute force" assumptions_arb
          solver_assumptions_law;
        qcheck ~count:200 "interleaved add/solve = fresh solver" interleaved_arb
          solver_interleaved_law;
        tc "search identity" `Quick test_search_identity;
        tc "attack search identity" `Quick test_attack_search_identity;
        tc "appsat counts answered estimates only" `Quick
          test_appsat_counts_answered_batches;
      ] );
    ( "sat.tseitin",
      [
        tc "all gate types (exhaustive)" `Quick test_tseitin_gates;
        tc "lut" `Quick test_tseitin_lut;
        tc "rejects flip-flops" `Quick test_tseitin_rejects_ffs;
        tc "to_cnf" `Quick test_to_cnf;
        tc "miter" `Quick test_tseitin_miter;
        tc "miter guard" `Quick test_tseitin_miter_guard;
        tc "shared gate adds no clauses" `Quick test_tseitin_shared_gate;
        qcheck ~count:50 "encoding matches eval"
          (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 500))
          tseitin_vs_eval_law;
        tc "assert_io: single gates (exhaustive)" `Quick test_assert_io_single_gates;
        tc "assert_io: constant output vs oracle" `Quick test_assert_io_constant_output;
        qcheck ~count:200 "assert_io = encode + pins = engine" Netlist_gen.arb_seed
          folded_law;
        qcheck ~count:400 "key-cone DIP miter = full-copy miter" Netlist_gen.arb_seed
          key_cone_miter_law;
      ] );
    ( "sat.equiv",
      [
        tc "basic" `Quick test_equiv_basic;
        tc "fixed keys" `Quick test_equiv_fixed_keys;
        tc "po mismatch" `Quick test_equiv_po_mismatch;
      ] );
    ( "sat.dimacs",
      [
        tc "round trip" `Quick test_dimacs_roundtrip;
        tc "parse" `Quick test_dimacs_parse;
      ] );
  ]
