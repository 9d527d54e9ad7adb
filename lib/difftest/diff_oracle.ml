type oracle =
  | Engine_scalar
  | Engine_lanes
  | Engine_block
  | Timing
  | Sat_roundtrip
  | Bdd_probe
  | Opt_equiv

let all_oracles =
  [
    Engine_scalar; Engine_lanes; Engine_block; Timing; Sat_roundtrip;
    Bdd_probe; Opt_equiv;
  ]

let oracle_name = function
  | Engine_scalar -> "engine-scalar"
  | Engine_lanes -> "engine-lanes"
  | Engine_block -> "engine-block"
  | Timing -> "timing"
  | Sat_roundtrip -> "sat-roundtrip"
  | Bdd_probe -> "bdd-probe"
  | Opt_equiv -> "opt-equiv"

let oracle_of_name s =
  List.find_opt (fun o -> oracle_name o = s) all_oracles

type mismatch = {
  mm_oracle : string;
  mm_cycle : int;
  mm_signal : string;
  mm_lane : int;
  mm_detail : string;
}

let pp_mismatch ppf m =
  Format.fprintf ppf "[%s] signal %s" m.mm_oracle m.mm_signal;
  if m.mm_cycle >= 0 then Format.fprintf ppf " cycle %d" m.mm_cycle;
  if m.mm_lane >= 0 then Format.fprintf ppf " lane %d" m.mm_lane;
  if m.mm_detail <> "" then Format.fprintf ppf ": %s" m.mm_detail

let mismatch_to_string m = Format.asprintf "%a" pp_mismatch m

let mismatch ~oracle ?(cycle = -1) ?(lane = -1) ?(detail = "") signal =
  {
    mm_oracle = oracle;
    mm_cycle = cycle;
    mm_signal = signal;
    mm_lane = lane;
    mm_detail = detail;
  }

let mk ?(cycle = -1) ?(lane = -1) ?(detail = "") oracle signal =
  {
    mm_oracle = oracle_name oracle;
    mm_cycle = cycle;
    mm_signal = signal;
    mm_lane = lane;
    mm_detail = detail;
  }

let ff_name net id = (Netlist.node net id).Netlist.name

(* ----- oracle 1: eval_comb (one pattern) vs the naive reference ----- *)

let check_engine_scalar ?fault (c : Fuzz_case.t) =
  let net = c.Fuzz_case.net in
  let reference = Ref_sim.run ?fault c in
  let sim = Cycle_sim.create ~init:(Fuzz_case.init_fn c) net in
  let out = ref [] in
  (try
     for k = 0 to c.Fuzz_case.cycles - 1 do
       let values = Cycle_sim.step sim ~inputs:(Fuzz_case.input_fn c k) in
       let ref_pos, ref_ffs = reference.(k) in
       List.iter
         (fun (po, drv) ->
           let v = values.(drv) in
           let rv = List.assoc po ref_pos in
           if v <> rv && !out = [] then
             out :=
               [
                 mk Engine_scalar po ~cycle:k
                   ~detail:
                     (Printf.sprintf "engine=%b reference=%b" v rv);
               ])
         (Netlist.outputs net);
       List.iter
         (fun (ff, rv) ->
           let v = List.assoc ff (Cycle_sim.state sim) in
           if v <> rv && !out = [] then
             out :=
               [
                 mk Engine_scalar (ff_name net ff) ~cycle:k
                   ~detail:
                     (Printf.sprintf "ff state engine=%b reference=%b" v rv);
               ])
         ref_ffs
     done
   with e ->
     out :=
       [
         mk Engine_scalar "<exception>"
           ~detail:(Printexc.to_string e);
       ]);
  !out

(* ----- oracle 2: bit-parallel lanes vs eval_comb, per lane ----- *)

let check_engine_lanes ~rng (c : Fuzz_case.t) =
  let net = c.Fuzz_case.net in
  if c.Fuzz_case.cycles = 0 then []
  else begin
    let w = Netlist.Engine.word_bits in
    let n_pi = List.length (Netlist.inputs net) in
    let n_ff = List.length (Netlist.ffs net) in
    (* lane 0 carries the case stimulus; every other lane an independent
       random stream, so the packing is exercised across the full word *)
    let lane_stim =
      Array.init w (fun l ->
          if l = 0 then c.Fuzz_case.stim
          else
            Array.init c.Fuzz_case.cycles (fun _ ->
                Array.init n_pi (fun _ -> Random.State.bool rng)))
    in
    let lane_init =
      Array.init w (fun l ->
          if l = 0 then c.Fuzz_case.init
          else Array.init n_ff (fun _ -> Random.State.bool rng))
    in
    let pi_index = Hashtbl.create 16 and ff_index = Hashtbl.create 16 in
    List.iteri (fun i id -> Hashtbl.replace pi_index id i) (Netlist.inputs net);
    List.iteri (fun i id -> Hashtbl.replace ff_index id i) (Netlist.ffs net);
    let pack per_lane id =
      match Hashtbl.find_opt pi_index id with
      | Some i ->
        let word = ref 0 in
        for l = 0 to w - 1 do
          if per_lane l i then word := !word lor (1 lsl l)
        done;
        !word
      | None -> 0
    in
    let batch =
      Cycle_sim.run_batch net
        ~init:(fun id ->
          match Hashtbl.find_opt ff_index id with
          | Some i ->
            let word = ref 0 in
            for l = 0 to w - 1 do
              if lane_init.(l).(i) then word := !word lor (1 lsl l)
            done;
            !word
          | None -> 0)
        ~cycles:c.Fuzz_case.cycles
        ~stimulus:(fun cy id -> pack (fun l i -> lane_stim.(l).(cy).(i)) id)
    in
    (* compare a handful of lanes scalar-side: the case lane, the word
       edges, and a few random interior lanes *)
    let lanes =
      List.sort_uniq compare
        (0 :: (w - 1) :: (w / 2)
        :: List.init 4 (fun _ -> Random.State.int rng w))
    in
    let out = ref [] in
    List.iter
      (fun l ->
        if !out = [] then
          let scalar =
            Cycle_sim.run net
              ~init:(fun id ->
                match Hashtbl.find_opt ff_index id with
                | Some i -> lane_init.(l).(i)
                | None -> false)
              ~cycles:c.Fuzz_case.cycles
              ~stimulus:(fun cy id ->
                match Hashtbl.find_opt pi_index id with
                | Some i -> lane_stim.(l).(cy).(i)
                | None -> false)
          in
          Array.iteri
            (fun k pos ->
              List.iter
                (fun (po, v) ->
                  let word = List.assoc po batch.(k) in
                  let lane_v = word land (1 lsl l) <> 0 in
                  if lane_v <> v && !out = [] then
                    out :=
                      [
                        mk Engine_lanes po ~cycle:k ~lane:l
                          ~detail:
                            (Printf.sprintf "lane=%b scalar=%b" lane_v v);
                      ])
                pos)
            scalar)
      lanes;
    !out
  end

(* ----- oracle 2b: multi-word block evaluation vs one-word blocks /
   eval_comb / reference.  One combinational frame (inputs and FF
   outputs driven freely), random block geometry with a partial final
   word, checked three ways: every word against a one-word block over
   that word's stimulus, and sampled lanes against eval_comb and the
   naive reference walk. ----- *)

let check_engine_block ~rng (c : Fuzz_case.t) =
  let net = c.Fuzz_case.net in
  let eng = Netlist.Engine.get net in
  let w = Netlist.Engine.word_bits in
  let srcs = Netlist.Engine.sources eng in
  let n_src = Array.length srcs in
  let n_slots = Netlist.Engine.n_slots eng in
  let slot_of = Netlist.Engine.slot_of_id eng in
  let name_of_slot s =
    let found = ref "<slot>" in
    Array.iteri (fun id sl -> if sl = s then found := ff_name net id) slot_of;
    !found
  in
  let src_index = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace src_index id i) srcs;
  (* random geometry, biased toward a partial final word; lanes beyond
     [lanes] are left unfilled and must evaluate as all-false stimulus *)
  let n_words = 1 + Random.State.int rng 3 in
  let lanes = 1 + Random.State.int rng (n_words * w) in
  let stim = Array.make (max 1 (n_src * n_words)) 0 in
  for si = 0 to n_src - 1 do
    for wi = 0 to n_words - 1 do
      let live = max 0 (min w (lanes - (wi * w))) in
      let mask = if live = w then -1 else (1 lsl live) - 1 in
      stim.((si * n_words) + wi) <-
        Netlist.Engine.random_word rng land mask
    done
  done;
  let block_scratch = Netlist.Engine.create_scratch eng in
  let word_scratch = Netlist.Engine.create_scratch eng in
  let blk =
    Netlist.Engine.eval_block ~scratch:block_scratch eng ~n_words
      ~fill:(fun buf -> Array.blit stim 0 buf 0 (n_src * n_words))
  in
  let out = ref [] in
  (* law 1: each word of the block agrees with a one-word block over
     that word's stimulus *)
  for wi = 0 to n_words - 1 do
    if !out = [] then begin
      let values =
        Netlist.Engine.eval_block ~scratch:word_scratch eng ~n_words:1
          ~fill:(fun buf ->
            for si = 0 to n_src - 1 do
              buf.(si) <- stim.((si * n_words) + wi)
            done)
      in
      for s = 0 to n_slots - 1 do
        if values.(s) <> blk.((s * n_words) + wi) && !out = [] then
          out :=
            [
              mk Engine_block (name_of_slot s)
                ~detail:
                  (Printf.sprintf "word %d: block=%x one-word=%x" wi
                     blk.((s * n_words) + wi)
                     values.(s));
            ]
      done
    end
  done;
  (* law 2: sampled lanes agree with eval_comb and Ref_sim *)
  let sample_lanes =
    List.sort_uniq compare
      (0 :: (lanes - 1) :: List.init 2 (fun _ -> Random.State.int rng lanes))
  in
  List.iter
    (fun l ->
      if !out = [] then begin
        let assignment id =
          let si = Hashtbl.find src_index id in
          (stim.((si * n_words) + (l / w)) lsr (l mod w)) land 1 = 1
        in
        let scalar = Netlist.eval_comb net assignment in
        let reference = Ref_sim.eval_comb net assignment in
        for id = 0 to Array.length slot_of - 1 do
          let s = slot_of.(id) in
          if s >= 0 && !out = [] then begin
            let bv = (blk.((s * n_words) + (l / w)) lsr (l mod w)) land 1 = 1 in
            if bv <> scalar.(id) || bv <> reference.(id) then
              out :=
                [
                  mk Engine_block (ff_name net id) ~lane:l
                    ~detail:
                      (Printf.sprintf "block=%b scalar=%b reference=%b" bv
                         scalar.(id) reference.(id));
                ]
          end
        done
      end)
    sample_lanes;
  !out

(* ----- oracle 3: timing simulator vs cycle-accurate sim ----- *)

(* Constant primary inputs (stimulus row 0): no input-induced hazards, so
   every capture must agree with the zero-delay semantics.  Convention
   (see test_sim's law): with captures from edge 0, recorded timing
   sample [k] equals the cycle-sim state after [k+2] steps. *)
let check_timing (c : Fuzz_case.t) =
  let net = c.Fuzz_case.net in
  if c.Fuzz_case.cycles = 0 || Netlist.ffs net = [] then []
  else begin
    let floor_ps =
      Cell_lib.dff_setup_ps + Cell_lib.dff_hold_ps + Cell_lib.dff_clk2q_ps + 10
    in
    let clock_ps = max floor_ps (Sta.clock_for net ~margin:1.5) in
    let cycles = min c.Fuzz_case.cycles 8 in
    let pi_vals = Fuzz_case.input_fn c 0 in
    let r =
      Timing_sim.run
        ~init:(Fuzz_case.init_fn c)
        ~drive:(fun pi -> Timing_sim.Const (pi_vals pi))
        net
        { Timing_sim.clock_ps; cycles }
    in
    if r.Timing_sim.violations <> [] then
      (* constant inputs can never legally trip a capture window *)
      [
        mk Timing
          (match r.Timing_sim.violations with
          | v :: _ -> v.Timing_sim.v_ff_name
          | [] -> "?")
          ~detail:"capture violation under constant inputs";
      ]
    else begin
      let sim = Cycle_sim.create ~init:(Fuzz_case.init_fn c) net in
      ignore (Cycle_sim.step sim ~inputs:pi_vals);
      let out = ref [] in
      for k = 0 to cycles - 1 do
        ignore (Cycle_sim.step sim ~inputs:pi_vals);
        let state = Cycle_sim.state sim in
        Array.iteri
          (fun i ff ->
            let expected = Logic.of_bool (List.assoc ff state) in
            let got = r.Timing_sim.ff_samples.(i).(k) in
            if (not (Logic.equal got expected)) && !out = [] then
              out :=
                [
                  mk Timing (ff_name net ff) ~cycle:k
                    ~detail:
                      (Printf.sprintf "timing=%c cycle-sim=%c"
                         (Logic.to_char got)
                         (Logic.to_char expected));
                ])
          r.Timing_sim.ff_ids
      done;
      !out
    end
  end

(* ----- oracle 4: SAT miter against the bench round-trip ----- *)

let unrolled net =
  if Netlist.ffs net = [] then net
  else Unroll.frames net ~k:2 ~share:(fun _ -> false) ~init:`Free

let check_sat_roundtrip (c : Fuzz_case.t) =
  let net = c.Fuzz_case.net in
  match Bench_format.parse ~name:(Netlist.name net) (Bench_format.print net) with
  | exception e ->
    [ mk Sat_roundtrip "<parse>" ~detail:(Printexc.to_string e) ]
  | round_tripped -> (
    match Equiv.check (unrolled net) (unrolled round_tripped) with
    | Equiv.Equivalent -> []
    | Equiv.Different witness ->
      [
        mk Sat_roundtrip "<miter>"
          ~detail:
            ("bench round-trip changed the function at "
            ^ String.concat ","
                (List.map
                   (fun (n, v) -> Printf.sprintf "%s=%b" n v)
                   witness));
      ]
    | exception Invalid_argument msg ->
      [ mk Sat_roundtrip "<outputs>" ~detail:msg ])

(* ----- oracle 5: BDD build vs the reference walk, sampled ----- *)

let check_bdd ~rng (c : Fuzz_case.t) =
  let net = unrolled c.Fuzz_case.net in
  let inputs = Netlist.inputs net in
  let nvars = List.length inputs in
  if nvars = 0 || nvars > 18 || Netlist.num_nodes net > 600 then []
  else begin
    let var_index = Hashtbl.create 16 in
    List.iteri (fun i id -> Hashtbl.replace var_index id i) inputs;
    let man = Bdd.manager ~nvars in
    match Bdd.of_netlist man net ~var_of_input:(Hashtbl.find var_index) with
    | exception e -> [ mk Bdd_probe "<build>" ~detail:(Printexc.to_string e) ]
    | bdds ->
      let out = ref [] in
      for _probe = 1 to 32 do
        if !out = [] then begin
          let bits = Array.init nvars (fun _ -> Random.State.bool rng) in
          let assignment id = bits.(Hashtbl.find var_index id) in
          let reference = Ref_sim.eval_comb net assignment in
          List.iter
            (fun (po, drv) ->
              let bv = Bdd.eval man bdds.(drv) (Array.get bits) in
              if bv <> reference.(drv) && !out = [] then
                out :=
                  [
                    mk Bdd_probe po
                      ~detail:
                        (Printf.sprintf "bdd=%b reference=%b" bv
                           reference.(drv));
                  ])
            (Netlist.outputs net)
        end
      done;
      !out
  end

(* ----- oracle 6: the Opt front-end's twin is the same function ----- *)

(* [Opt.run] promises a fresh netlist with the identical pin interface
   (input / FF / output names and order) computing the same function.
   Both halves are checked: the interface syntactically, the function by
   a SAT miter over the 2-frame unrolling plus a few concrete vectors
   through the reference walk (matched by input name — catching an
   interface bug a name-matching miter would mask). *)
let check_opt_equiv ~rng (c : Fuzz_case.t) =
  let net = c.Fuzz_case.net in
  match Opt.run net with
  | exception e -> [ mk Opt_equiv "<run>" ~detail:(Printexc.to_string e) ]
  | opt, _stats ->
    let names f n = List.map (ff_name n) (f n) in
    if names Netlist.inputs opt <> names Netlist.inputs net then
      [ mk Opt_equiv "<inputs>" ~detail:"primary inputs renamed or reordered" ]
    else if names Netlist.ffs opt <> names Netlist.ffs net then
      [ mk Opt_equiv "<ffs>" ~detail:"flip-flops renamed or reordered" ]
    else if
      List.map fst (Netlist.outputs opt) <> List.map fst (Netlist.outputs net)
    then
      [
        mk Opt_equiv "<outputs>" ~detail:"primary outputs renamed or reordered";
      ]
    else begin
      let a = unrolled net and b = unrolled opt in
      match Equiv.check a b with
      | Equiv.Different witness ->
        [
          mk Opt_equiv "<miter>"
            ~detail:
              ("opt changed the function at "
              ^ String.concat ","
                  (List.map
                     (fun (n, v) -> Printf.sprintf "%s=%b" n v)
                     witness));
        ]
      | exception Invalid_argument msg -> [ mk Opt_equiv "<miter>" ~detail:msg ]
      | Equiv.Equivalent ->
        let vals = Hashtbl.create 16 in
        let assignment n id =
          let name = ff_name n id in
          match Hashtbl.find_opt vals name with
          | Some v -> v
          | None ->
            let v = Random.State.bool rng in
            Hashtbl.replace vals name v;
            v
        in
        let out = ref [] in
        for _probe = 1 to 8 do
          if !out = [] then begin
            Hashtbl.reset vals;
            let ra = Ref_sim.eval_comb a (assignment a) in
            let rb = Ref_sim.eval_comb b (assignment b) in
            List.iter
              (fun (po, drv_b) ->
                if !out = [] then
                  let va = ra.(List.assoc po (Netlist.outputs a)) in
                  let vb = rb.(drv_b) in
                  if va <> vb then
                    out :=
                      [
                        mk Opt_equiv po
                          ~detail:
                            (Printf.sprintf "original=%b optimized=%b" va vb);
                      ])
              (Netlist.outputs b)
          end
        done;
        !out
    end

let check ?(oracles = all_oracles) ?fault ~seed (c : Fuzz_case.t) =
  let rng = Random.State.make [| seed; 0x0_5ac1e |] in
  List.concat_map
    (fun o ->
      match o with
      | Engine_scalar -> check_engine_scalar ?fault c
      | Engine_lanes -> check_engine_lanes ~rng c
      | Engine_block -> check_engine_block ~rng c
      | Timing -> check_timing c
      | Sat_roundtrip -> check_sat_roundtrip c
      | Bdd_probe -> check_bdd ~rng c
      | Opt_equiv -> check_opt_equiv ~rng c)
    oracles
