(* The DIP loop's search, pinned DIP by DIP.  A change to the SAT
   kernel, the Tseitin encoders or the DIP miter that is meant to keep
   the search must keep every row: per DIP, the variables and clauses
   its I/O constraints added and the conflicts, propagations and learnt
   clauses of the search that found it, and the key the attack ends
   with.  The rows are read from the attack's own trace (the
   [attack.iteration] and [attack.solve] spans), so the attacks run
   through their public entry points.

   The differential tests compare the key-cone constraint encoder and
   the kernel with test-local copies of the code before them
   ([Ref_assert_io], [Ref_solver]): the same variables, clauses,
   models and counts. *)

let tc = Alcotest.test_case

let md5 s = Digest.to_hex (Digest.string s)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* [f ()] traced; its result and the "E" records of its DIP-loop spans,
   in file order: [(name, args)]. *)
let traced f =
  let path = Filename.temp_file "gklock_dip_loop" ".jsonl" in
  Obs.Trace.enable ~file:path ();
  let r = Fun.protect ~finally:Obs.Trace.disable f in
  let ends =
    List.filter_map
      (fun line ->
        match Cjson.of_string line with
        | Ok j -> (
          match (Cjson.mem_str "name" j, Cjson.mem_str "ph" j, Cjson.member "args" j) with
          | Some ("attack.solve" | "attack.iteration" as name), Some "E", Some args ->
            Some (name, args)
          | _ -> None)
        | Error e -> Alcotest.fail e)
      (read_lines path)
  in
  Sys.remove path;
  (r, ends)

(* One line per span: "s c p l" for a search, "i v c" for a DIP's
   constraints. *)
let trajectory ends =
  let arg args k = Option.value ~default:(-1) (Cjson.mem_int k args) in
  List.map
    (fun (name, args) ->
      if name = "attack.solve" then
        Printf.sprintf "s %d %d %d" (arg args "conflicts") (arg args "propagations")
          (arg args "learnts")
      else Printf.sprintf "i %d %d" (arg args "vars") (arg args "clauses"))
    ends

(* A case's summary: DIPs, totals of every counter, the key, and the
   MD5 of the whole trajectory. *)
let summary name ends key =
  let lines = trajectory ends in
  let sum tag i =
    List.fold_left
      (fun acc l ->
        match String.split_on_char ' ' l with
        | t :: fields when t = tag -> acc + int_of_string (List.nth fields i)
        | _ -> acc)
      0 lines
  in
  let row =
    Printf.sprintf "%s dips=%d vars=%d clauses=%d conflicts=%d propagations=%d learnts=%d key=%s md5=%s"
      name
      (List.length (List.filter (fun (n, _) -> n = "attack.iteration") ends))
      (sum "i" 0) (sum "i" 1) (sum "s" 0) (sum "s" 1) (sum "s" 2) key
      (md5 (String.concat "\n" lines))
  in
  (row, lines)

let sat_key o =
  match o.Sat_attack.status with
  | Sat_attack.Key_recovered k -> Key.to_string k
  | Sat_attack.Unsat_at_first_iteration k -> "unsat0 " ^ Key.to_string k
  | Sat_attack.Budget_exhausted -> "exhausted"

let sarlock6_s1238 seed =
  let comb = fst (Combinationalize.run (Benchmarks.by_name "s1238")) in
  let lk = Sarlock.lock ~seed comb ~n_keys:6 in
  let o, ends =
    traced (fun () ->
        Sat_attack.exec ~budget:(Budget.unlimited ()) ~locked:lk.Locked.net
          ~key_inputs:lk.Locked.key_inputs ~oracle:(Oracle.of_netlist comb) ())
  in
  summary (Printf.sprintf "sarlock6-s1238-%d" seed) ends (sat_key o)

let xor16_s5378 () =
  let comb = fst (Combinationalize.run (Benchmarks.by_name "s5378")) in
  let lk = Xor_lock.lock ~seed:5 comb ~n_keys:16 in
  let o, ends =
    traced (fun () ->
        Sat_attack.exec ~budget:(Budget.unlimited ()) ~locked:lk.Locked.net
          ~key_inputs:lk.Locked.key_inputs ~oracle:(Oracle.of_netlist comb) ())
  in
  summary "xor16-s5378-5" ends (sat_key o)

(* sat.solver's "attack search identity" AppSAT row. *)
let appsat_sarlock4 () =
  let locked, key_inputs, chip = Test_sat.sarlock4 () in
  let o, ends =
    traced (fun () ->
        Appsat.exec ~seed:7 ~budget:(Budget.create ~max_iterations:512 ()) ~locked
          ~key_inputs ~oracle:(Oracle.of_netlist ~partial:true chip) ())
  in
  summary "appsat-sarlock4" ends
    (Printf.sprintf "%s queries=%d" (Key.to_string o.Appsat.key) o.Appsat.random_queries)

(* attacks.tcf's "cracks XOR" case. *)
let tcf2_xor4 () =
  let comb = Test_attacks.comb_circuit 56 in
  let lk = Xor_lock.lock ~seed:56 comb ~n_keys:4 in
  let o, ends =
    traced (fun () ->
        Tcf.exec ~budget:(Test_attacks.sat_budget ()) ~locked:lk.Locked.net
          ~key_inputs:lk.Locked.key_inputs ~oracle:(Oracle.of_netlist comb) ())
  in
  summary "tcf2-xor4-56" ends (sat_key o.Tcf.sat)

let expected_rows =
  [
    "sarlock6-s1238-1 dips=63 vars=1386 clauses=4142 conflicts=127 propagations=84906 \
     learnts=126 key=sk0=0 sk1=1 sk2=0 sk3=1 sk4=1 sk5=0 md5=c81aca9a39288e338b97467597fe5b19";
    "sarlock6-s1238-2 dips=63 vars=1386 clauses=4158 conflicts=121 propagations=83071 \
     learnts=120 key=sk0=1 sk1=1 sk2=0 sk3=0 sk4=1 sk5=1 md5=b08ef6764be68772380a4d1a73ef07ae";
    "sarlock6-s1238-3 dips=63 vars=1386 clauses=4158 conflicts=130 propagations=86231 \
     learnts=129 key=sk0=1 sk1=1 sk2=1 sk3=1 sk4=1 sk5=1 md5=c7e1f2ffc0cfe4c76c50df6fc15d2983";
    "xor16-s5378-5 dips=4 vars=366 clauses=544 conflicts=3795 propagations=467947 \
     learnts=3794 key=xk0=1 xk1=1 xk2=0 xk3=1 xk4=1 xk5=0 xk6=0 xk7=1 xk8=1 xk9=0 xk10=0 \
     xk11=0 xk12=0 xk13=1 xk14=0 xk15=0 md5=29d626baa9cc45872c82fb9fa1f82dbc";
    "appsat-sarlock4 dips=12 vars=168 clauses=502 conflicts=29 propagations=3916 learnts=29 \
     key=sk0=1 sk1=0 sk2=0 sk3=1 queries=150 md5=04715528fde3517b76631cb15d0f5f4f";
    "tcf2-xor4-56 dips=3 vars=18 clauses=20 conflicts=43 propagations=1729 learnts=42 \
     key=xk0=1 xk1=1 xk2=0 xk3=1 md5=554d2c36f1150abb05fb1d9f6e4df99f";
  ]

let test_trajectory_identity () =
  let cases =
    [
      sarlock6_s1238 1; sarlock6_s1238 2; sarlock6_s1238 3; xor16_s5378 ();
      appsat_sarlock4 (); tcf2_xor4 ();
    ]
  in
  let rows = List.map fst cases in
  if rows <> expected_rows then
    List.iter
      (fun (row, lines) -> Printf.eprintf "%s\n  %s\n" row (String.concat "\n  " lines))
      cases;
  Alcotest.(check (list string)) "DIP-loop trajectories" expected_rows rows

(* ----- the key-cone encoder against one call per key vector ----- *)

(* Three DIPs on a [Test_sat.locked_case] through one [io_cone], each
   asserted on two key vectors by one [Tseitin.assert_io] call and by
   two [Ref_assert_io] calls, on two solvers built alike.  A DIP pins
   every X input or (half the time) all but one, which stays symbolic
   with a fresh variable per copy; the reply is the chip's, or (half
   the time) one with a bit flipped.  After each DIP both solvers have
   the same variable and clause counts, and three solves under the same
   random key assumptions give the same answers, models and counts. *)
let io_law seed =
  match Test_sat.locked_case seed with
  | None -> true
  | Some (rng, chip, lk) ->
    let locked = lk.Locked.net and key_inputs = lk.Locked.key_inputs in
    let keys = Array.of_list (List.map (fun k -> Option.get (Netlist.find locked k)) key_inputs) in
    let xs = Array.of_list (Dip_miter.x_inputs locked ~key_inputs) in
    let pinned =
      if Array.length xs > 1 && Random.State.bool rng then begin
        let drop = Random.State.int rng (Array.length xs) in
        Array.of_list (List.filteri (fun i _ -> i <> drop) (Array.to_list xs))
      end
      else xs
    in
    let cone = Tseitin.io_cone locked ~pinned in
    let key_vars new_var =
      let k1 = Array.map (fun _ -> new_var ()) keys and k2 = Array.map (fun _ -> new_var ()) keys in
      let shared kv id =
        let r = ref None in
        Array.iteri (fun i k -> if k = id then r := Some kv.(i)) keys;
        !r
      in
      (k1, shared k1, shared k2)
    in
    let a = Solver.create () and b = Solver.create () in
    let ka, a1, a2 = key_vars (fun () -> Solver.new_var a) in
    let _, b1, b2 = key_vars (fun () -> Solver.new_var b) in
    let chip_o = Oracle.of_netlist ~partial:true chip in
    let names ids = List.map (fun id -> (Netlist.node locked id).Netlist.name) ids in
    let same = ref true in
    let check ok = if not ok then same := false in
    for _ = 1 to 3 do
      let x = Array.map (fun _ -> Random.State.bool rng) pinned in
      let reply = Oracle.query chip_o (List.combine (names (Array.to_list pinned)) (Array.to_list x)) in
      let y =
        Array.of_list (List.map (fun (po, d) -> (d, List.assoc po reply)) (Netlist.outputs locked))
      in
      if Array.length y > 0 && Random.State.bool rng then begin
        let i = Random.State.int rng (Array.length y) in
        y.(i) <- (fst y.(i), not (snd y.(i)))
      end;
      Tseitin.assert_io a cone ~copies:[ a1; a2 ] ~x ~outputs:y;
      List.iter
        (fun shared ->
          Ref_assert_io.assert_io b locked ~shared
            ~inputs:(Array.mapi (fun i id -> (id, x.(i))) pinned)
            ~outputs:y)
        [ b1; b2 ];
      check (Solver.num_vars a = Solver.num_vars b);
      check (Solver.num_clauses a = Solver.num_clauses b);
      for _ = 1 to 3 do
        let assumptions =
          List.filter_map
            (fun v -> if Random.State.bool rng then Some (Lit.make v (Random.State.bool rng)) else None)
            (Array.to_list ka)
        in
        let ra = Solver.solve ~assumptions a and rb = Solver.solve ~assumptions b in
        check (ra = rb);
        check (Solver.conflicts a = Solver.conflicts b);
        check (Solver.propagations a = Solver.propagations b);
        if ra = Solver.Sat && rb = Solver.Sat then
          for v = 0 to Solver.num_vars a - 1 do
            check (Solver.value a v = Solver.value b v)
          done
      done
    done;
    !same

(* ----- the kernel against the list-based, recursive-heap one ----- *)

(* A random clause over [nv] variables: a unit (which fixes a literal at
   level 0), a tautology, one with duplicates, or up to four random
   literals. *)
let random_clause rng nv =
  let lit () = Lit.make (Random.State.int rng nv) (Random.State.bool rng) in
  match Random.State.int rng 8 with
  | 0 -> [ lit () ]
  | 1 ->
    let l = lit () in
    [ lit (); l; Lit.negate l ]
  | 2 ->
    let l = lit () in
    [ l; lit (); l; l ]
  | _ -> List.init (2 + Random.State.int rng 3) (fun _ -> lit ())

(* Every count and, after a [Sat] answer, every model value agree. *)
let same_state a b =
  Solver.num_vars a = Ref_solver.num_vars b
  && Solver.num_clauses a = Ref_solver.num_clauses b
  && Solver.conflicts a = Ref_solver.conflicts b
  && Solver.propagations a = Ref_solver.propagations b
  && Solver.learnts a = Ref_solver.learnts b

let same_solve ?assumptions a b =
  let ra = Solver.solve ?assumptions a and rb = Ref_solver.solve ?assumptions b in
  (ra = Solver.Sat) = (rb = Ref_solver.Sat)
  && same_state a b
  && (ra = Solver.Unsat
     || List.for_all
          (fun v -> Solver.value a v = Ref_solver.value b v)
          (List.init (Solver.num_vars a) Fun.id))

(* [add_clause] on random clauses with duplicates, tautologies,
   literals fixed at level 0 and (rarely) an unknown variable, with
   solves in between: the same return values (or the same exception),
   the same clause counts, the same UNSAT flag (a tautology is refused
   exactly when the solver is UNSAT) and the same next solve. *)
let add_clause_law seed =
  let rng = Random.State.make [| seed; 0xadd |] in
  let nv = 3 + Random.State.int rng 10 in
  let a = Solver.create () and b = Ref_solver.create () in
  for _ = 1 to nv do
    ignore (Solver.new_var a);
    ignore (Ref_solver.new_var b)
  done;
  let ok = ref true in
  for _ = 1 to 30 do
    let clause =
      if Random.State.int rng 40 = 0 then [ Lit.pos nv; Lit.pos 0 ] else random_clause rng nv
    in
    let add f = match f clause with r -> Ok r | exception Invalid_argument m -> Error m in
    let ra = add (Solver.add_clause a) and rb = add (Ref_solver.add_clause b) in
    if ra <> rb || not (same_state a b) then ok := false;
    if Random.State.int rng 6 = 0 && not (same_solve a b) then ok := false
  done;
  let probe = [ Lit.pos 0; Lit.neg 0 ] in
  !ok
  && Solver.add_clause a probe = Ref_solver.add_clause b probe
  && same_solve a b

(* Incremental solving under assumptions, with variables added between
   solves: the same decisions, so the same counts and models. *)
let kernel_law seed =
  let rng = Random.State.make [| seed; 0x6b72 |] in
  let a = Solver.create () and b = Ref_solver.create () in
  let nv = ref 0 in
  let ok = ref true in
  for _ = 1 to 6 do
    for _ = 1 to 4 + Random.State.int rng 8 do
      ignore (Solver.new_var a);
      ignore (Ref_solver.new_var b);
      incr nv
    done;
    for _ = 1 to 3 * !nv do
      let c = List.init 3 (fun _ -> Lit.make (Random.State.int rng !nv) (Random.State.bool rng)) in
      if Solver.add_clause a c <> Ref_solver.add_clause b c then ok := false
    done;
    let assumptions =
      List.init (Random.State.int rng 4) (fun _ ->
          Lit.make (Random.State.int rng !nv) (Random.State.bool rng))
    in
    if not (same_solve ~assumptions a b) then ok := false
  done;
  !ok

(* The model array is reused across answers: a variable made after the
   last answer still has no value. *)
let test_value_after_new_var () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  ignore (Solver.add_clause s [ Lit.pos a; Lit.neg b ]);
  Alcotest.(check bool) "SAT" true (Solver.solve s = Solver.Sat);
  let c = Solver.new_var s in
  Alcotest.check_raises "a variable made after the answer"
    (Invalid_argument "Solver.value: unknown variable") (fun () -> ignore (Solver.value s c));
  ignore (Solver.add_clause s [ Lit.pos c ]);
  Alcotest.(check bool) "SAT again" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "now it has one" true (Solver.value s c);
  Alcotest.(check bool) "SAT under a" true (Solver.solve ~assumptions:[ Lit.pos a ] s = Solver.Sat);
  Alcotest.(check bool) "the model is the last answer's" true (Solver.value s a)

let qcheck ?(count = 100) name arb law = Qc.qcheck ~count name arb law
let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let suites =
  [
    ( "sat.dip_loop",
      [
        tc "trajectory identity" `Quick test_trajectory_identity;
        qcheck ~count:200 "key-cone assert_io = one call per key vector" Netlist_gen.arb_seed
          io_law;
        qcheck ~count:300 "add_clause = list-based reference" seed_arb add_clause_law;
        qcheck ~count:200 "kernel = recursive-heap reference" seed_arb kernel_law;
        tc "value after a new variable raises" `Quick test_value_after_new_var;
      ] );
  ]
