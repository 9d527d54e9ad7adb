(* Micro-benchmarks for the bit-parallel evaluation engine: one pattern
   ([Netlist.eval_comb]), one word and an 8-word block through
   [Netlist.Engine.eval_block], on three seed benchmarks; the
   event-driven [Timing_sim] on GK-8 locked designs; and the netlist
   layer every experiment starts with (generate, flip-flop grouping,
   GK-8 locking, combinationalization) on all seven designs.  Prints a
   human-readable table and writes machine-readable results to
   BENCH_eval.json (or the path given as the last argument) so later PRs
   can track the perf trajectory:

     dune exec bench/bench_eval.exe            # or: make bench-eval
     dune exec bench/bench_eval.exe -- --smoke # CI-sized, seconds

   Every seed benchmark is first checked lane by lane against the naive
   reference walk [Ref_sim.eval_comb]. *)

(* ----- measurement ----- *)

let time_reps ?(min_time = 0.3) f =
  (* warm up once, then repeat until [min_time] elapsed *)
  f ();
  Gc.compact ();
  let reps = ref 0 in
  let t0 = Unix.gettimeofday () in
  let elapsed = ref 0.0 in
  while !elapsed < min_time do
    f ();
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  (!reps, !elapsed)

let throughput ?min_time ~patterns_per_call f =
  let reps, elapsed = time_reps ?min_time f in
  float_of_int (reps * patterns_per_call) /. elapsed

(* Interleaved best-of-N windows: single-vCPU CI boxes show wall-clock
   noise of tens of percent, so when two paths are compared head to head
   they are timed in alternating windows and each reports its best one —
   steady-state throughput rather than scheduler luck.  Each path is
   given as (reps per window, patterns per call, call). *)
let throughput_pair ?(windows = 6) f g =
  List.iter (fun (_, _, fn) -> fn ()) [ f; g ];
  Gc.compact ();
  let best = [| 0.0; 0.0 |] in
  for _w = 1 to windows do
    List.iteri
      (fun i (reps, patterns_per_call, fn) ->
        let t0 = Unix.gettimeofday () in
        for _r = 1 to reps do
          fn ()
        done;
        let dt = Unix.gettimeofday () -. t0 in
        let pps = float_of_int (reps * patterns_per_call) /. dt in
        if pps > best.(i) then best.(i) <- pps)
      [ f; g ]
  done;
  (best.(0), best.(1))

(* words per block on the throughput row — the oracle's default *)
let block_words = 8

type row = {
  r_name : string;
  r_cells : int;
  r_scalar_pps : float;
  r_word_pps : float;
  r_block_pps : float;
  r_strash_reduction : float;
}

let bench_spec ?min_time spec =
  let net = Benchmarks.load spec in
  let n = Netlist.num_nodes net in
  let rng = Random.State.make [| 0xB17; Hashtbl.hash spec.Benchmarks.bname |] in
  let stim = Array.init n (fun _ -> Random.State.bool rng) in
  let eng = Netlist.Engine.get net in
  let n_srcs = Array.length (Netlist.Engine.sources eng) in
  let block_stim =
    Array.init (n_srcs * block_words) (fun _ -> Netlist.Engine.random_word rng)
  in
  let scratch = Netlist.Engine.create_scratch eng in
  let scalar_pps =
    throughput ?min_time ~patterns_per_call:1 (fun () ->
        ignore (Netlist.eval_comb net (Array.get stim)))
  in
  (* one word and the oracle's 8-word block, both as the library's hot
     paths drive the engine (reused scratch, sources filled straight into
     the slot-dense block buffer), timed head to head over the same
     stimulus *)
  let run n_words () =
    ignore
      (Netlist.Engine.eval_block ~scratch eng ~n_words ~fill:(fun buf ->
           Array.blit block_stim 0 buf 0 (n_srcs * n_words)))
  in
  let reps =
    match min_time with
    | Some t when t < 0.1 -> Stdlib.max 10 (500 / block_words)
    | _ -> Stdlib.max 20 (2000 / block_words)
  in
  let word_pps, block_pps =
    let w = Netlist.Engine.word_bits in
    throughput_pair
      (reps * block_words, w, run 1)
      (reps, block_words * w, run block_words)
  in
  {
    r_name = spec.Benchmarks.bname;
    r_cells = spec.Benchmarks.cells;
    r_scalar_pps = scalar_pps;
    r_word_pps = word_pps;
    r_block_pps = block_pps;
    r_strash_reduction = Opt.reduction (snd (Opt.run net));
  }

(* ----- equivalence: engine vs. the reference walk, all seed benchmarks ----- *)

let check_equivalence specs =
  List.iter
    (fun spec ->
      let net = Benchmarks.load spec in
      let eng = Netlist.Engine.get net in
      let slot_of = Netlist.Engine.slot_of_id eng in
      let n = Netlist.num_nodes net in
      let rng = Random.State.make [| 0xE9; spec.Benchmarks.config.Generator.seed |] in
      let vectors =
        Array.init Netlist.Engine.word_bits (fun _ ->
            Array.init n (fun _ -> Random.State.bool rng))
      in
      (* word per source packing vector v into lane v *)
      let blk =
        Netlist.Engine.eval_block eng ~n_words:1 ~fill:(fun buf ->
            Array.iteri
              (fun i id ->
                Array.iteri
                  (fun v vec -> if vec.(id) then buf.(i) <- buf.(i) lor (1 lsl v))
                  vectors)
              (Netlist.Engine.sources eng))
      in
      Array.iteri
        (fun v vec ->
          let scalar = Netlist.eval_comb net (Array.get vec) in
          let reference = Ref_sim.eval_comb net (Array.get vec) in
          for id = 0 to n - 1 do
            if scalar.(id) <> reference.(id) then
              failwith
                (Printf.sprintf "%s: eval_comb disagrees with Ref_sim at node %d"
                   spec.Benchmarks.bname id);
            let s = slot_of.(id) in
            if s >= 0 && blk.(s) land (1 lsl v) <> 0 <> reference.(id) then
              failwith
                (Printf.sprintf "%s: lane %d disagrees with Ref_sim at node %d"
                   spec.Benchmarks.bname v id)
          done)
        vectors;
      Printf.printf "equivalence %-8s OK (%d lanes x %d nodes)\n%!"
        spec.Benchmarks.bname Netlist.Engine.word_bits n)
    specs

(* ----- timing simulation: GK-8 under the correct key ----- *)

type sim_row = {
  s_name : string;
  s_events : int;  (* events one run pops: exact, gated like a verdict *)
  s_events_per_sec : float;
  s_minor_words_per_event : float;
}

let sim_cycles = 24

let m_events = Obs.Metrics.counter "sim.events_popped"

(* The paper's key check as gk_sat runs it: GK-8 at lock seed 1, the
   correct key, 24 cycles of edge-aligned stimulus.  The run must first
   reproduce the unlocked design's PO and FF samples after two warm-up
   cycles. *)
let bench_timing_sim ~min_time bname =
  let spec = Option.get (Benchmarks.find_spec bname) in
  let net = Benchmarks.load spec in
  let clock_ps = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
  let cfg = { Timing_sim.clock_ps; cycles = sim_cycles } in
  let stim n = Stimuli.edge_aligned ~seed:1 n ~clock_ps ~cycles:sim_cycles in
  let d = Insertion.lock ~seed:1 net ~clock_ps ~n_gks:8 in
  let lnet = d.Insertion.lnet in
  let run () =
    Timing_sim.run
      ~drive:(Insertion.timing_drive ~other:(stim lnet) d d.Insertion.correct_key)
      ~captures_from:(Insertion.capture_policy d) lnet cfg
  in
  let base = Timing_sim.run ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg in
  let e0 = Obs.Metrics.value m_events in
  let r = run () in
  let events = Obs.Metrics.value m_events - e0 in
  let mismatches = Stimuli.state_mismatches ~skip:2 net base lnet r in
  if mismatches > 0 then
    failwith
      (Printf.sprintf "%s: GK-8 under the correct key differs from the unlocked design \
                       in %d samples"
         bname mismatches);
  let reps, elapsed = time_reps ~min_time (fun () -> ignore (run ())) in
  let w0 = Gc.minor_words () in
  ignore (run ());
  let words = Gc.minor_words () -. w0 in
  {
    s_name = bname;
    s_events = events;
    s_events_per_sec = float_of_int (reps * events) /. elapsed;
    s_minor_words_per_event = words /. float_of_int events;
  }

(* ----- netlist layer: generate, group, lock, combinationalize ----- *)

type netlist_row = {
  n_name : string;
  n_nodes : int;  (* exact, gated like a verdict *)
  n_ffs : int;  (* exact *)
  n_generate_ms : float;
  n_group_ms : float;
  n_lock_ms : float;
  n_comb_ms : float;
  n_comb_md5 : string;  (* of the printed combinationalized design: exact *)
}

(* The median over [reps] samples of one call's time, in ms.  A sample
   repeats the call for at least 5 ms and takes the mean, so a step
   that runs in microseconds on a small design is not timer noise. *)
let median_ms reps f =
  let sample () =
    let t0 = Unix.gettimeofday () in
    let calls = ref 0 in
    while
      ignore (Sys.opaque_identity (f ()));
      incr calls;
      Unix.gettimeofday () -. t0 < 0.005
    do
      ()
    done;
    1000.0 *. (Unix.gettimeofday () -. t0) /. float_of_int !calls
  in
  let times = Array.init reps (fun _ -> sample ()) in
  Array.sort compare times;
  times.(reps / 2)

(* Each step timed alone: generating the design, grouping its
   flip-flops by output cone (Table I's FF grouping), a GK-8 lock at
   seed 1 (which groups again, then places and inserts the GKs; the
   clock is computed outside the timer), and combinationalizing the
   unlocked design. *)
let bench_netlist ~reps spec =
  let net = Benchmarks.load spec in
  let clock_ps = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
  let comb = fst (Combinationalize.run net) in
  {
    n_name = spec.Benchmarks.bname;
    n_nodes = Netlist.num_nodes net;
    n_ffs = List.length (Netlist.ffs net);
    n_generate_ms = median_ms reps (fun () -> Benchmarks.load spec);
    n_group_ms = median_ms reps (fun () -> Topo.group_ffs_by_cone net);
    n_lock_ms = median_ms reps (fun () -> Insertion.lock ~seed:1 net ~clock_ps ~n_gks:8);
    n_comb_ms = median_ms reps (fun () -> Combinationalize.run net);
    n_comb_md5 = Digest.to_hex (Digest.string (Bench_format.print comb));
  }

(* ----- output ----- *)

let json_of_row r =
  Printf.sprintf
    "    {\"name\": %S, \"cells\": %d, \"scalar_patterns_per_sec\": %.1f, \
     \"word_patterns_per_sec\": %.1f, \"block_patterns_per_sec\": %.1f, \
     \"block_speedup_vs_word\": %.2f, \"strash_reduction\": %.4f}"
    r.r_name r.r_cells r.r_scalar_pps r.r_word_pps r.r_block_pps
    (r.r_block_pps /. r.r_word_pps)
    r.r_strash_reduction

let json_of_netlist_row r =
  Printf.sprintf
    "    {\"name\": %S, \"nodes\": %d, \"ffs\": %d, \"generate_ms\": %.2f, \
     \"group_ms\": %.2f, \"lock_ms\": %.2f, \"combinationalize_ms\": %.2f, \
     \"comb_md5\": %S}"
    r.n_name r.n_nodes r.n_ffs r.n_generate_ms r.n_group_ms r.n_lock_ms r.n_comb_ms
    r.n_comb_md5

let json_of_sim_row r =
  Printf.sprintf
    "    {\"name\": %S, \"cycles\": %d, \"events\": %d, \"events_per_sec\": %.1f, \
     \"minor_words_per_event\": %.2f}"
    r.s_name sim_cycles r.s_events r.s_events_per_sec r.s_minor_words_per_event

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out_path =
    let last = Sys.argv.(Array.length Sys.argv - 1) in
    if Array.length Sys.argv > 1 && last <> "--smoke" then last
    else "BENCH_eval.json"
  in
  let min_time = if smoke then 0.05 else 0.3 in
  let names =
    if smoke then [ "s1238"; "s5378" ] else [ "s1238"; "s5378"; "s38417" ]
  in
  let specs = List.filter_map Benchmarks.find_spec names in
  check_equivalence (if smoke then specs else Benchmarks.specs);
  let rows = List.map (bench_spec ~min_time) specs in
  Printf.printf "\n%-8s %6s %13s %13s %13s %8s %7s\n" "bench" "cells"
    "scalar p/s" "word p/s" "block p/s" "blk/wrd" "strash";
  List.iter
    (fun r ->
      Printf.printf "%-8s %6d %13.0f %13.0f %13.0f %7.2fx %6.1f%%\n" r.r_name
        r.r_cells r.r_scalar_pps r.r_word_pps r.r_block_pps
        (r.r_block_pps /. r.r_word_pps)
        (100. *. r.r_strash_reduction))
    rows;
  (* the block path exists to amortize per-pass overhead; it must not
     lose to the single-word path it generalizes *)
  List.iter
    (fun r ->
      if r.r_block_pps < r.r_word_pps then
        failwith
          (Printf.sprintf
             "%s: block path regressed below single-word path (%.2fx)"
             r.r_name
             (r.r_block_pps /. r.r_word_pps)))
    rows;
  let sim_rows =
    List.map (bench_timing_sim ~min_time) [ "s5378"; "s13207"; "s38417" ]
  in
  Printf.printf "\n%-8s %8s %13s %10s   (Timing_sim, GK-8, correct key, %d cycles)\n"
    "bench" "events" "events/s" "words/ev" sim_cycles;
  List.iter
    (fun r ->
      Printf.printf "%-8s %8d %13.0f %10.2f\n" r.s_name r.s_events r.s_events_per_sec
        r.s_minor_words_per_event)
    sim_rows;
  let netlist_rows =
    List.map (bench_netlist ~reps:(if smoke then 1 else 7)) Benchmarks.specs
  in
  Printf.printf "\n%-8s %6s %5s %9s %9s %9s %9s  %s   (netlist layer, ms)\n" "bench"
    "nodes" "ffs" "generate" "group" "GK-8 lock" "comb" "comb md5";
  List.iter
    (fun r ->
      Printf.printf "%-8s %6d %5d %9.2f %9.2f %9.2f %9.2f  %s\n" r.n_name r.n_nodes r.n_ffs
        r.n_generate_ms r.n_group_ms r.n_lock_ms r.n_comb_ms r.n_comb_md5)
    netlist_rows;
  let doc =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"gklock/bench_eval/v1\",\n\
      \  \"smoke\": %b,\n\
      \  \"word_bits\": %d,\n\
      \  \"block_words\": %d,\n\
      \  \"benchmarks\": [\n\
       %s\n\
      \  ],\n\
      \  \"timing_sim\": [\n\
       %s\n\
      \  ],\n\
      \  \"netlist\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      smoke Netlist.Engine.word_bits block_words
      (String.concat ",\n" (List.map json_of_row rows))
      (String.concat ",\n" (List.map json_of_sim_row sim_rows))
      (String.concat ",\n" (List.map json_of_netlist_row netlist_rows))
  in
  (* round-trip the hand-rolled printer through the repo's JSON parser *)
  (match Cjson.of_string doc with
  | Ok (Cjson.Obj _) -> ()
  | Ok _ -> failwith (out_path ^ ": emitted JSON is not an object")
  | Error e -> failwith (out_path ^ ": emitted invalid JSON: " ^ e));
  let oc = open_out out_path in
  output_string oc doc;
  close_out oc;
  Printf.printf "\nwrote %s\n" out_path
