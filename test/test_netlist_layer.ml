(* The netlist layer's byte-identity pins.  Generating, grouping,
   locking and combinationalizing must keep producing the same netlists
   (ids, names, fanins, cells, outputs) and the same flip-flop groups,
   whatever algorithm computes them: every downstream number — Table I,
   GK placements, SAT-attack formulas, BENCH rows — is a function of
   these bytes. *)

let tc = Alcotest.test_case

let md5 s = Digest.to_hex (Digest.string s)

let groups_text groups =
  String.concat "\n"
    (List.map (fun g -> String.concat " " (List.map string_of_int g)) groups)

(* GK-8 lock at [seed] → strip the KEYGENs → combinationalize: the
   netlist the SAT attack of Sec. VI reads. *)
let gk8_comb spec net ~seed =
  let clock_ps = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
  let d = Insertion.lock ~seed net ~clock_ps ~n_gks:8 in
  let stripped, _ = Insertion.strip_keygens d in
  fst (Combinationalize.run stripped)

(* name, design, combinationalized, GK-8 seed 1, GK-8 seed 2, groups *)
let design_pins =
  [
    ("s1238", "bf56144de032fd58dbce37badb69c15f", "5f9def4eb901918a2241a370ba701a87",
     "44a01562b802fb6904bb5fdf798d1a1a", "ecde95ae4896ef70d4bb8a241f4ae1a5",
     "ba6e8a5841d7f165953239a410d95b25");
    ("s5378", "f3b36c0328f6ad73561d5ed991e2e75f", "33cddea221daed1d22ae0bc407d6672b",
     "bdc89a4048499ca42bcbda54f057dd5b", "a7e230c42a4e84a4a11fc82ec9f6e494",
     "a25a2469440a55d4d7bb0313bccc2b3c");
    ("s9234", "1345608cab9cf67a8c5e44db5c280052", "c207214706b81c4cf22303e9191aa835",
     "72cc33562866fec02b6e4f33ec1b160a", "99c5baa67a030329110d701ed8516550",
     "d571a4dffb9124853c1ea905a8a03a6d");
    ("s13207", "40f0f4b8f09e60c2ebf132637f0aa19b", "b9f9f5858017421ed6b09f99a83a3008",
     "971ebb61e0cdd7aeec8ea9c99ac56bc9", "74823ff5c3f2e43318ecc2e35d3200a4",
     "6d87df3f4abfe51b1e84b2efb1fc5a9f");
    ("s15850", "7bd7633929ddb320a22e2aba26e79e42", "6d4d0d77eba92ab305eae5c20ab87c38",
     "26f2316e9c876edcded8b5dd9162029e", "d4fa483b719d4c6cee311d4dd65957a6",
     "2119b9ffe173f1990e76419d5f5a7071");
    ("s38417", "33b357c36756f29c7aaed1fe6f3d5109", "55fee3c696a3697017651280afe61e6c",
     "3b2636bccc224921950723c4a2fee1c7", "8e3cbfa2a5350197bba47ba6bf706d0c",
     "44d0c15dd0b4256a5b5082122c77fecf");
    ("s38584", "512249588ec622fa158c786527615d29", "ca565ef66479e6c4c8d6b67f519d2f3b",
     "6bb0d39e9fdf0e73b49381a70a3f600a", "6430342342e76ce5560639d2d7b03d47",
     "76d7ebe73a2137ca2aff05ba983be019");
  ]

let generated_pin = "13e67fc5dc9a451be7e322e70d3bc2ec"

let test_design_pins () =
  Alcotest.(check (list string)) "every design pinned"
    (List.map (fun s -> s.Benchmarks.bname) Benchmarks.specs)
    (List.map (fun (n, _, _, _, _, _) -> n) design_pins);
  List.iter2
    (fun spec (name, design, comb, lock1, lock2, groups) ->
      let net = Benchmarks.load spec in
      let check what want text = Alcotest.(check string) (name ^ " " ^ what) want (md5 text) in
      check "design" design (Bench_format.print net);
      check "combinationalized" comb (Bench_format.print (fst (Combinationalize.run net)));
      check "GK-8 seed 1" lock1 (Bench_format.print (gk8_comb spec net ~seed:1));
      check "GK-8 seed 2" lock2 (Bench_format.print (gk8_comb spec net ~seed:2));
      check "flip-flop groups" groups (groups_text (Topo.group_ffs_by_cone net)))
    Benchmarks.specs design_pins

(* 30 small generated netlists: every generator branch (liveness
   widening, extra outputs, sampled flip-flop D pins) at sizes the
   benchmark specs do not reach. *)
let test_generated_pin () =
  let rng = Random.State.make [| 27 |] in
  let text =
    String.concat ""
      (List.init 30 (fun _ -> Bench_format.print (Netlist_gen.generated rng)))
  in
  Alcotest.(check string) "30 generated netlists" generated_pin (md5 text)

(* ----- differential: the one-pass code against per-item references ----- *)

(* Reference copies of the per-flip-flop algorithms the one-pass code
   replaced: one breadth-first walk per flip-flop for its combinational
   output cone, and one whole-netlist redirect per flip-flop or key bit. *)
module Per_item = struct
  let comb_output_cone t start =
    let fanouts = Netlist.fanout_table t in
    let seen = Array.make (Netlist.num_nodes t) false in
    let queue = Queue.create () in
    Queue.push start queue;
    seen.(start) <- true;
    while not (Queue.is_empty queue) do
      List.iter
        (fun (consumer, _pin) ->
          match (Netlist.node t consumer).Netlist.kind with
          | (Netlist.Gate _ | Netlist.Lut _) when not seen.(consumer) ->
            seen.(consumer) <- true;
            Queue.push consumer queue
          | _ -> ())
        fanouts.(Queue.pop queue)
    done;
    List.filter_map
      (fun (po_name, driver) -> if seen.(driver) then Some po_name else None)
      (Netlist.outputs t)

  let group_ffs_by_cone t =
    let buckets = Hashtbl.create 16 in
    List.iter
      (fun ff ->
        let signature = String.concat "\x00" (List.sort compare (comb_output_cone t ff)) in
        let existing = Option.value (Hashtbl.find_opt buckets signature) ~default:[] in
        Hashtbl.replace buckets signature (ff :: existing))
      (Netlist.ffs t);
    Hashtbl.fold (fun _ ffs acc -> List.rev ffs :: acc) buckets []
    |> List.sort (fun a b -> compare (List.length b) (List.length a))

  let combinationalize net =
    let comb = Netlist.copy net in
    let ffs = Netlist.ffs comb in
    let with_ppis =
      List.map
        (fun ff ->
          let ff_name = (Netlist.node comb ff).Netlist.name in
          let ppi = "ppi_" ^ ff_name in
          let pi = Netlist.add_input comb ppi in
          Netlist.replace_uses comb [ (ff, pi) ];
          (ff, ff_name, ppi))
        ffs
    in
    let mappings =
      List.map
        (fun (ff, ff_name, ppi) ->
          let d = (Netlist.node comb ff).Netlist.fanins.(0) in
          let ppo = "ppo_" ^ ff_name in
          Netlist.add_output comb ppo d;
          { Combinationalize.ff_name; ppi; ppo })
        with_ppis
    in
    List.iter (fun ff -> Netlist.kill comb ff) ffs;
    let comb, _ = Netlist.compact comb in
    Netlist.validate comb;
    (comb, mappings)

  let with_key_fixed (lk : Locked.t) key =
    let net = Netlist.copy lk.Locked.net in
    List.iter
      (fun name ->
        let id = Option.get (Netlist.find net name) in
        let c = Netlist.add_const net (List.assoc name key) in
        Netlist.replace_uses net [ (id, c) ])
      lk.Locked.key_inputs;
    net
end

(* Same ids, names, kinds, fanins, cells and outputs. *)
let check_same what a b =
  let nodes t = List.init (Netlist.num_nodes t) (Netlist.node t) in
  Alcotest.(check int) (what ^ ": node count") (Netlist.num_nodes a) (Netlist.num_nodes b);
  List.iter2
    (fun x y ->
      if x <> y then
        Alcotest.failf "%s: node %a differs from %a" what Netlist.pp_node x Netlist.pp_node y)
    (nodes a) (nodes b);
  Alcotest.(check (list (pair string int))) (what ^ ": outputs") (Netlist.outputs a) (Netlist.outputs b)

(* The [k]-th wide netlist: a generated one topped up with outputs on
   random nodes to a total just below, at or just above one or two full
   63-bit bitset words, so cones span several words and many outputs
   share a driver. *)
let wide k rng =
  let totals = [| 62; 63; 64; 125; 126; 127; 128 |] in
  let net = Netlist_gen.generated rng in
  let n = Netlist.num_nodes net in
  for i = List.length (Netlist.outputs net) to totals.(k mod Array.length totals) - 1 do
    Netlist.add_output net (Printf.sprintf "w%d" i) (Random.State.int rng n)
  done;
  net

(* Generated netlists (the benchmark generator's shapes), adversarial
   ones (flip-flop self-loops, flip-flop to flip-flop paths, flip-flops
   and inputs driving outputs directly, several outputs on one driver,
   LUTs, repeated fanins) and wide ones (multi-word cones). *)
let corpus =
  lazy
    (let rng = Random.State.make [| 0x1a7e |] in
     List.concat_map
       (fun (kind, gen) -> List.init 60 (fun i -> (Printf.sprintf "%s %d" kind i, gen i rng)))
       [
         ("generated", fun _ -> Netlist_gen.generated);
         ("adversarial", fun _ -> Netlist_gen.adversarial);
         ("wide", wide);
       ])

let test_groups_match_per_ff_walk () =
  List.iter
    (fun (what, net) ->
      Alcotest.(check (list (list int))) what (Per_item.group_ffs_by_cone net)
        (Topo.group_ffs_by_cone net))
    (Lazy.force corpus)

let test_combinationalize_matches_per_ff () =
  List.iter
    (fun (what, net) ->
      let want, want_maps = Per_item.combinationalize net in
      let got, got_maps = Combinationalize.run net in
      check_same what want got;
      if want_maps <> got_maps then Alcotest.failf "%s: mappings differ" what)
    (Lazy.force corpus)

let test_key_fixing_matches_per_bit () =
  List.iteri
    (fun i (what, net) ->
      let lk = Xor_lock.lock ~seed:i net ~n_keys:(1 + (i mod 6)) in
      let rng = Random.State.make [| i |] in
      let key = List.map (fun k -> (k, Random.State.bool rng)) lk.Locked.key_inputs in
      check_same what (Per_item.with_key_fixed lk key) (Locked.with_key_fixed lk key))
    (List.filter (fun (what, _) -> String.starts_with ~prefix:"generated" what) (Lazy.force corpus))

(* ----- the output-name index and the one-pass redirect ----- *)

let test_output_index () =
  let net = Netlist.create "outs" in
  let a = Netlist.add_input net "a" and b = Netlist.add_input net "b" in
  Netlist.add_output net "y" a;
  Netlist.add_output net "z" a;
  Alcotest.check_raises "duplicate output raises"
    (Invalid_argument "Netlist: duplicate output \"y\"") (fun () -> Netlist.add_output net "y" b);
  Netlist.remove_output net "y";
  Alcotest.check_raises "removed output is gone"
    (Invalid_argument "Netlist: no output named \"y\"") (fun () -> Netlist.set_output_driver net "y" b);
  Netlist.add_output net "y" b;
  Alcotest.(check (list (pair string int))) "re-added after the others" [ ("z", a); ("y", b) ]
    (Netlist.outputs net);
  Netlist.set_output_driver net "z" b;
  let copy = Netlist.copy net in
  Alcotest.check_raises "the copy keeps the index"
    (Invalid_argument "Netlist: duplicate output \"z\"") (fun () -> Netlist.add_output copy "z" a);
  let compacted, _ = Netlist.compact net in
  Alcotest.check_raises "the compacted netlist keeps the index"
    (Invalid_argument "Netlist: duplicate output \"y\"") (fun () -> Netlist.add_output compacted "y" a)

let test_replace_uses_one_pass () =
  let net = Netlist.create "redirect" in
  let a = Netlist.add_input net "a" and b = Netlist.add_input net "b" in
  let c = Netlist.add_input net "c" in
  let g = Netlist.add_gate net Cell.And [| a; b; a |] in
  Netlist.add_output net "ya" a;
  Netlist.add_output net "yb" b;
  (* simultaneous: a -> b and b -> c do not chain a -> c *)
  Netlist.replace_uses net [ (a, b); (b, c) ];
  Alcotest.(check (array int)) "pins" [| b; c; b |] (Netlist.node net g).Netlist.fanins;
  Alcotest.(check (list (pair string int))) "outputs" [ ("ya", b); ("yb", c) ] (Netlist.outputs net);
  Alcotest.check_raises "an old id listed twice"
    (Invalid_argument (Printf.sprintf "Netlist.replace_uses: node %d redirected twice" b))
    (fun () -> Netlist.replace_uses net [ (b, a); (b, c) ]);
  Netlist.replace_uses net [];
  Alcotest.(check (array int)) "no pairs, no change" [| b; c; b |] (Netlist.node net g).Netlist.fanins

let suites =
  [
    ( "netlist.identity",
      [
        tc "seven designs, combinationalized, GK-8 locked, grouped" `Quick
          test_design_pins;
        tc "generated netlists" `Quick test_generated_pin;
      ] );
    ( "netlist.linear",
      [
        tc "cone groups = per-flip-flop walks" `Quick test_groups_match_per_ff_walk;
        tc "combinationalize = per-flip-flop redirects" `Quick
          test_combinationalize_matches_per_ff;
        tc "with_key_fixed = per-bit redirects" `Quick test_key_fixing_matches_per_bit;
        tc "output-name index" `Quick test_output_index;
        tc "replace_uses: many pairs, one pass" `Quick test_replace_uses_one_pass;
      ] );
  ]
