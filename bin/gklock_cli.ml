(* gklock — command-line front end.

   Subcommands:
     info     print netlist statistics
     gen      materialize a built-in benchmark as a .bench file
     opt      strash/rewrite optimization pass (pin interface preserved)
     encrypt  lock a design (gk / xor / mux / sarlock / antisat / tdk / hybrid)
     attack   run the SAT attack against a locked .bench
     serve    run the oracle-as-a-service daemon (also built as gklockd)
     sim      timing-simulate a design and report captures/violations
     sta      static timing report
     tables   regenerate the paper's tables
     figs     regenerate the paper's figures *)

open Cmdliner

(* ----- shared arguments and helpers ----- *)

let load_design = Cli_common.load_design

let design_arg =
  let doc =
    "Input design: a .bench or structural-Verilog (.v) file, a built-in \
     benchmark name (s1238, s5378, s9234, s13207, s15850, s38417, s38584), \
     or 's27' / 'tiny'."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)

let output_arg =
  let doc = "Write the resulting netlist to $(docv) (.bench format)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "Random seed (experiments are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let clock_arg =
  let doc =
    "Clock period in ps.  Default: critical path with a 1.3x margin."
  in
  Arg.(value & opt (some int) None & info [ "clock" ] ~docv:"PS" ~doc)

let clock_of net = function
  | Some ps -> ps
  | None -> Sta.clock_for net ~margin:1.3

let emit output net =
  match output with
  | None -> print_string (Bench_format.print net)
  | Some path ->
    if Filename.check_suffix path ".v" then Verilog.write_file net path
    else Bench_format.write_file net path;
    Printf.printf "wrote %s\n" path

(* ----- info ----- *)

let info_cmd =
  let run design =
    let net = load_design design in
    let st = Stats.of_netlist net in
    Format.printf "%s: %a@." (Netlist.name net) Stats.pp st;
    Format.printf "critical path: %d ps; min clock: %d ps@."
      (Sta.critical_path_ps net) (Sta.min_clock_ps net);
    let groups = Topo.group_ffs_by_cone net in
    Format.printf "FF cone groups: %d (largest %d)@." (List.length groups)
      (match groups with g :: _ -> List.length g | [] -> 0)
  in
  Cmd.v (Cmd.info "info" ~doc:"Print netlist statistics")
    Term.(const run $ design_arg)

(* ----- gen ----- *)

let gen_cmd =
  let run design output =
    let net = load_design design in
    emit output net
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Materialize a built-in benchmark as .bench text")
    Term.(const run $ design_arg $ output_arg)

(* ----- opt ----- *)

let opt_cmd =
  let check_arg =
    let doc =
      "Verify the optimized netlist against the original with a SAT miter \
       (combinational designs only; sequential designs are compared on \
       their combinationalized view)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run design check output =
    let net = load_design design in
    let opt, stats = Opt.run net in
    Format.printf "%a@." Opt.pp_stats stats;
    Printf.printf "reduction: %.1f%% of combinational nodes removed\n"
      (100. *. Opt.reduction stats);
    if check then begin
      let comb n = if Netlist.ffs n = [] then n else fst (Combinationalize.run n) in
      match Equiv.check (comb net) (comb opt) with
      | Equiv.Equivalent -> print_endline "check: SAT miter equivalent"
      | Equiv.Different w ->
        Printf.eprintf "check FAILED: functions differ at %s\n"
          (String.concat ","
             (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) w));
        exit 1
    end;
    emit output opt
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:
         "Optimize a netlist (strash, constant folding, rewrites, dead \
          sweep); the pin interface is preserved")
    Term.(const run $ design_arg $ check_arg $ output_arg)

(* ----- encrypt ----- *)

let scheme_arg =
  let schemes =
    [
      ("gk", `Gk); ("xor", `Xor); ("mux", `Mux); ("sarlock", `Sarlock);
      ("antisat", `Antisat); ("tdk", `Tdk); ("hybrid", `Hybrid);
      ("fault", `Fault);
    ]
  in
  let doc =
    "Locking scheme: gk, xor, mux, sarlock, antisat, tdk, hybrid or fault \
     (fault-impact-guided XOR insertion)."
  in
  Arg.(value & opt (enum schemes) `Gk & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let nkeys_arg =
  let doc =
    "Number of key-gates (GKs count two key-inputs each; hybrid splits \
     between 8 GKs and N XORs)."
  in
  Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc)

let encrypt_cmd =
  let run design scheme n seed clock output =
    let net = load_design design in
    let clock_ps = clock_of net clock in
    let print_key correct = Printf.printf "key: %s\n" (Key.to_string correct) in
    match scheme with
    | `Gk ->
      let d = Insertion.lock ~seed net ~clock_ps ~n_gks:n in
      let c, a = Insertion.overhead d in
      Printf.printf "gk: %d GKs @ clock %d ps; overhead cell %.2f%% area %.2f%%\n"
        n clock_ps c a;
      print_key d.Insertion.correct_key;
      emit output d.Insertion.lnet
    | `Hybrid ->
      let h = Hybrid.lock ~seed net ~clock_ps ~n_gks:8 ~n_xors:n in
      let c, a = Hybrid.overhead h in
      Printf.printf "hybrid: 8 GKs + %d XORs; overhead cell %.2f%% area %.2f%%\n"
        n c a;
      print_key h.Hybrid.all_correct_key;
      emit output h.Hybrid.design.Insertion.lnet
    | `Tdk ->
      let t = Tdk.lock ~seed net ~clock_ps ~n_sites:n in
      print_key t.Tdk.locked.Locked.correct_key;
      emit output t.Tdk.locked.Locked.net
    | (`Xor | `Mux | `Sarlock | `Antisat | `Fault) as s ->
      let comb, _ = Combinationalize.run net in
      let lk =
        match s with
        | `Xor -> Xor_lock.lock ~seed comb ~n_keys:n
        | `Mux -> Mux_lock.lock ~seed comb ~n_keys:n
        | `Sarlock -> Sarlock.lock ~seed comb ~n_keys:n
        | `Antisat -> Antisat.lock ~seed comb ~n:n
        | `Fault -> Fault_lock.lock ~seed comb ~n_keys:n
      in
      Printf.printf "%s: %d key-inputs (combinational view)\n"
        lk.Locked.scheme (List.length lk.Locked.key_inputs);
      print_key lk.Locked.correct_key;
      emit output lk.Locked.net
  in
  Cmd.v
    (Cmd.info "encrypt" ~doc:"Lock a design with a chosen scheme")
    Term.(const run $ design_arg $ scheme_arg $ nkeys_arg $ seed_arg
          $ clock_arg $ output_arg)

(* ----- attack ----- *)

let keys_arg =
  let doc = "Comma-separated key-input names of the locked design." in
  Arg.(required & opt (some string) None & info [ "keys" ] ~docv:"K0,K1,.." ~doc)

let oracle_arg =
  let doc =
    "The functionally correct chip: a design (.bench or builtin), or a \
     running gklockd daemon as $(b,unix:PATH) / $(b,tcp:HOST:PORT)."
  in
  Arg.(required & opt (some string) None & info [ "oracle" ] ~docv:"DESIGN" ~doc)

let oracle_design_arg =
  let doc =
    "Design name on the remote oracle daemon (default: the only design it \
     hosts).  Ignored for local oracles."
  in
  Arg.(
    value & opt (some string) None
    & info [ "oracle-design" ] ~docv:"NAME" ~doc)

let remote_oracle_addr s =
  let pre p =
    String.length s > String.length p && String.sub s 0 (String.length p) = p
  in
  if pre "unix:" || pre "tcp:" then
    match Frame_io.parse_addr s with
    | Ok a -> Some a
    | Error e -> Cli_common.die "--oracle %s: %s" s e
  else None

let method_arg =
  let doc =
    "Attack name from the registry (see $(b,gklock attacks) for the list)."
  in
  Arg.(value & opt string "sat" & info [ "method" ] ~docv:"NAME" ~doc)

let max_iterations_arg =
  let doc = "Budget: maximum attack iterations (DIPs, candidates, ...)." in
  Arg.(value & opt int 4096 & info [ "max-iterations" ] ~docv:"N" ~doc)

let max_queries_arg =
  let doc = "Budget: maximum chip (oracle) queries." in
  Arg.(value & opt (some int) None & info [ "max-queries" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Budget: wall-clock deadline in seconds." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S" ~doc)

let metrics_out_arg =
  let doc =
    "Write the process-global metrics registry (oracle queries, memo hits, \
     engine evals, budget trips, ...) as one JSON object to $(docv) after \
     the run."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let write_metrics = function
  | None -> ()
  | Some path ->
    Obs.Metrics.write_file path;
    Printf.printf "wrote %s\n" path

let attack_cmd =
  let run design keys oracle_path oracle_design name max_iterations max_queries
      deadline seed metrics_out =
    let locked = load_design design in
    let locked, _ =
      if Netlist.ffs locked = [] then (locked, [])
      else Combinationalize.run locked
    in
    let remote, oracle =
      match remote_oracle_addr oracle_path with
      | Some addr ->
        let r = Remote_oracle.connect ?design:oracle_design addr in
        Printf.printf "oracle: %s design %s via %s\n"
          (Remote_oracle.server_name r)
          (Remote_oracle.design r) oracle_path;
        (Some r, Remote_oracle.oracle r)
      | None ->
        let oracle_net = load_design oracle_path in
        let oracle_net, _ =
          if Netlist.ffs oracle_net = [] then (oracle_net, [])
          else Combinationalize.run oracle_net
        in
        (None, Oracle.of_netlist oracle_net)
    in
    let key_inputs = String.split_on_char ',' keys in
    let budget =
      Budget.create ~max_iterations ?max_queries ?deadline_s:deadline ()
    in
    let o = Attack.run ~budget ~seed ~name ~locked ~key_inputs ~oracle () in
    Option.iter Remote_oracle.close remote;
    Printf.printf "%s: %s\n" name (Attack.verdict_name o.Attack.verdict);
    (match o.Attack.verdict with
    | Attack.Key_recovered k ->
      Printf.printf "key recovered after %d iterations: %s\n"
        o.Attack.iterations (Key.to_string k)
    | Attack.Wrong_key { key; mismatches } ->
      Printf.printf "claimed key %s refuted by the chip on %d/64 samples\n"
        (Key.to_string key) mismatches
    | Attack.No_dip { key; mismatches } ->
      Printf.printf
        "unsatisfiable at the first DIP search — the attack learned nothing\n";
      Printf.printf
        "an arbitrary consistent key (%s) mismatches the chip on %d/64 \
         samples\n"
        (Key.to_string key) mismatches
    | Attack.Approx_key { key; error_rate } ->
      Printf.printf "approximate key (error %.3f): %s\n" error_rate
        (Key.to_string key)
    | Attack.Partial_key { recovered; unresolved } ->
      Printf.printf "%d bits recovered, %d unresolved\n"
        (List.length recovered) unresolved;
      if recovered <> [] then
        Printf.printf "bits: %s\n" (Key.to_string recovered)
    | Attack.Recovered_netlist net ->
      Printf.printf "recovered a key-free netlist (%d nodes)\n"
        (Netlist.num_nodes net)
    | Attack.Gave_up r ->
      Printf.printf "the attack gave up (%s)\n" (Attack.gave_up_reason_name r)
    | Attack.Skipped -> ()
    | Attack.Out_of_budget r ->
      Printf.printf "budget exhausted (%s) after %d iterations\n"
        (Budget.reason_name r) o.Attack.iterations);
    Printf.printf
      "iterations: %d   oracle queries: %d   CDCL conflicts: %d   %.2fs\n"
      o.Attack.iterations o.Attack.queries o.Attack.conflicts
      o.Attack.elapsed_s;
    Printf.printf "replay with: --seed %d\n" seed;
    write_metrics metrics_out
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run a registered oracle-guided attack against a locked design")
    Term.(const run $ design_arg $ keys_arg $ oracle_arg $ oracle_design_arg
          $ method_arg $ max_iterations_arg $ max_queries_arg $ deadline_arg
          $ seed_arg $ metrics_out_arg)

let attacks_cmd =
  let run markdown =
    if markdown then print_string (Attack.markdown_table ())
    else
      List.iter
        (fun (e : Attack.entry) ->
          Printf.printf "%-17s %-55s budget unit: %s\n" e.Attack.name
            e.Attack.threat_model e.Attack.budget_unit)
        Attack.registry
  in
  let markdown_arg =
    let doc = "Emit the registry as a markdown table (README format)." in
    Arg.(value & flag & info [ "markdown" ] ~doc)
  in
  Cmd.v
    (Cmd.info "attacks" ~doc:"List the attack registry")
    Term.(const run $ markdown_arg)

(* ----- serve (the oracle daemon, also built standalone as gklockd) ----- *)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve" ~doc:Cli_common.serve_doc ~man:Cli_common.serve_man)
    Cli_common.serve_term

(* ----- sim ----- *)

let cycles_arg =
  let doc = "Number of clock cycles to simulate." in
  Arg.(value & opt int 16 & info [ "cycles" ] ~docv:"N" ~doc)

let vcd_arg =
  let doc = "Also dump every net's waveform to $(docv) in VCD format." in
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc)

let sim_cmd =
  let run design cycles clock seed vcd =
    let net = load_design design in
    let clock_ps = clock_of net clock in
    let drive = Stimuli.edge_aligned ~seed net ~clock_ps ~cycles in
    let r = Timing_sim.run ~drive net { Timing_sim.clock_ps; cycles } in
    Printf.printf "%s: %d cycles @ %d ps\n" (Netlist.name net) cycles clock_ps;
    List.iter
      (fun (po, samples) ->
        Printf.printf "%-12s %s\n" po
          (String.init (Array.length samples) (fun i ->
               Logic.to_char samples.(i))))
      r.Timing_sim.po_samples;
    Printf.printf "violations: %d\n" (List.length r.Timing_sim.violations);
    List.iteri
      (fun i v ->
        if i < 10 then
          Printf.printf "  %s cycle %d %s @ %d ps\n" v.Timing_sim.v_ff_name
            v.Timing_sim.v_cycle
            (match v.Timing_sim.v_kind with
            | Timing_sim.Setup_violation -> "setup"
            | Timing_sim.Hold_violation -> "hold")
            v.Timing_sim.v_time)
      r.Timing_sim.violations;
    match vcd with
    | None -> ()
    | Some path ->
      Vcd.write_file net r ~signals:[] path;
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Timing-accurate simulation with glitch propagation")
    Term.(const run $ design_arg $ cycles_arg $ clock_arg $ seed_arg $ vcd_arg)

(* ----- sta ----- *)

let sta_cmd =
  let run design clock =
    let net = load_design design in
    let clock_ps = clock_of net clock in
    let sta = Sta.analyze net ~clock_ps in
    Printf.printf "%s @ %d ps (critical %d ps)\n" (Netlist.name net) clock_ps
      (Sta.critical_path_ps net);
    let worst =
      List.sort
        (fun a b -> compare (Sta.setup_slack sta a) (Sta.setup_slack sta b))
        (Netlist.ffs net)
    in
    List.iteri
      (fun i ff ->
        if i < 15 then
          let arr = Sta.ff_d_arrival sta ff in
          Printf.printf "%-12s arrival [%d, %d] ps  setup slack %d  hold slack %d\n"
            (Netlist.node net ff).Netlist.name arr.Sta.amin arr.Sta.amax
            (Sta.setup_slack sta ff) (Sta.hold_slack sta ff))
      worst;
    let sites = Insertion.available_sites net ~clock_ps ~l_glitch_ps:1000 in
    Printf.printf "GK sites (1 ns glitch): %d / %d FFs\n" (List.length sites)
      (List.length (Netlist.ffs net))
  in
  Cmd.v (Cmd.info "sta" ~doc:"Static timing report and GK site feasibility")
    Term.(const run $ design_arg $ clock_arg)

(* ----- flow ----- *)

let flow_cmd =
  let run design n seed =
    let net = load_design design in
    let margin = if Stats.(of_netlist net).Stats.cells < 100 then 4.5 else 1.2 in
    let design', report = Design_flow.run ~seed ~clock_margin:margin net ~n_gks:n in
    Format.printf "%a@." Design_flow.pp_report report;
    Format.printf "key: %s@." (Key.to_string design'.Insertion.correct_key)
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:"Run the full Sec. IV-B design flow (synthesize, place, insert, audit)")
    Term.(const run $ design_arg $ nkeys_arg $ seed_arg)

(* ----- fuzz ----- *)

let die fmt = Printf.ksprintf (fun msg -> Printf.eprintf "%s\n" msg; exit 1) fmt

let fuzz_cmd =
  let cases_arg =
    let doc = "Number of fuzz cases to run." in
    Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let time_arg =
    let doc = "Wall-clock budget in seconds (checked between batches)." in
    Arg.(value & opt (some float) None & info [ "time" ] ~docv:"SECONDS" ~doc)
  in
  let fuzz_seed_arg =
    let doc = "Run seed (default: GKLOCK_SEED, else 42)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
  in
  let corpus_arg =
    let doc = "Persist shrunk failures as .bench/.stim pairs into $(docv)." in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let fuzz_workers_arg =
    let doc = "Worker domains (default: GKLOCK_DOMAINS or cores)." in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let inject_arg =
    let doc =
      "Mutation-testing mode: inject a known bug into the reference \
       interpreter ("
      ^ String.concat ", " (List.map Ref_sim.fault_name Ref_sim.all_faults)
      ^ ") — the fuzzer must then find and shrink failures."
    in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"FAULT" ~doc)
  in
  let families_arg =
    let doc =
      "Comma-separated case families ("
      ^ String.concat ", " (List.map Fuzz.family_name Fuzz.all_families)
      ^ ").  Default: all."
    in
    Arg.(value & opt (some string) None & info [ "families" ] ~docv:"LIST" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress the per-batch progress line." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let run cases time seed corpus workers inject families quiet =
    let seed = match seed with Some s -> s | None -> Fuzz_seed.value () in
    let fault =
      match inject with
      | None -> None
      | Some name -> (
        match Ref_sim.fault_of_string name with
        | Some f -> Some f
        | None ->
          die "unknown fault %S (known: %s)" name
            (String.concat ", " (List.map Ref_sim.fault_name Ref_sim.all_faults)))
    in
    let families =
      match families with
      | None -> None
      | Some spec ->
        Some
          (String.split_on_char ',' spec
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
          |> List.map (fun s ->
                 match
                   List.find_opt
                     (fun f -> Fuzz.family_name f = s)
                     Fuzz.all_families
                 with
                 | Some f -> f
                 | None ->
                   die "unknown family %S (known: %s)" s
                     (String.concat ", "
                        (List.map Fuzz.family_name Fuzz.all_families))))
    in
    let progress n =
      if not quiet then (
        Printf.printf "\rfuzz: %d/%d cases%!" n cases;
        if n = cases then print_newline ())
    in
    let report =
      Fuzz.run ?fault ?families ?corpus_dir:corpus ?workers
        ?time_budget_s:time ~progress ~seed ~cases ()
    in
    if (not quiet) && report.Fuzz.r_cases_run < cases then print_newline ();
    Printf.printf "fuzz: seed %d, %d/%d cases in %.1fs, %d failure(s)\n"
      report.Fuzz.r_seed report.Fuzz.r_cases_run cases
      report.Fuzz.r_elapsed_s
      (List.length report.Fuzz.r_failures);
    List.iter
      (fun f ->
        Format.printf "@[<v>%a@]@." Fuzz.pp_failure f;
        Printf.printf "  replay: %s\n" (Fuzz.replay_command report f))
      report.Fuzz.r_failures;
    if report.Fuzz.r_failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random/adversarial/mutated netlists and \
          locking-scheme properties checked across the engine, the naive \
          reference, the timing simulator, SAT miters and BDDs; failures \
          are shrunk to replayable .bench + .stim counterexamples")
    Term.(const run $ cases_arg $ time_arg $ fuzz_seed_arg $ corpus_arg
          $ fuzz_workers_arg $ inject_arg $ families_arg $ quiet_arg)

(* ----- campaign ----- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let campaign_name_arg =
  let doc =
    "Built-in campaign matrix: " ^ String.concat ", " Campaign_job.builtin_names
    ^ "."
  in
  Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)

let campaign_spec_arg =
  let doc = "Campaign matrix as a JSON file (see DESIGN.md §6c)." in
  Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)

let campaign_dir_arg =
  let doc =
    "Campaign directory (default: campaigns/<name>).  Holds the job store, \
     telemetry and report; re-running against the same directory resumes."
  in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let workers_arg =
  let doc = "Concurrent worker domains (default: GKLOCK_DOMAINS or cores)." in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc = "Per-job wall-clock timeout in seconds (0 = none)." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc = "Extra attempts for transient job failures." in
  Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)

(* A matrix comes from --spec (JSON file), --name (built-in), or — for
   status/report — the matrix.json a previous run left in --dir. *)
let campaign_matrix name spec dir =
  match spec with
  | Some path -> (
    match Cjson.of_string (read_file path) with
    | Error e -> die "%s: invalid JSON: %s" path e
    | Ok j -> (
      match Campaign_job.matrix_of_json j with
      | Ok m -> m
      | Error e -> die "%s: %s" path e))
  | None -> (
    match name with
    | Some n -> (
      match Campaign_job.builtin n with
      | Some m -> m
      | None ->
        die "unknown campaign %S (built-ins: %s)" n
          (String.concat ", " Campaign_job.builtin_names))
    | None -> (
      match dir with
      | Some d -> (
        match Campaign.load_matrix ~dir:d with
        | Ok m -> m
        | Error e -> die "%s" e)
      | None -> die "campaign: need --name, --spec or --dir"))

let campaign_dir dir (m : Campaign_job.matrix) =
  match dir with
  | Some d -> d
  | None -> Campaign.dir_for m.Campaign_job.m_name

(* SIGINT stops a campaign gracefully: the handler only flips a flag,
   the scheduler drains in-flight jobs, checkpoints them and writes the
   report, and the process exits 3 — so a resumed run converges on the
   byte-identical report an uninterrupted run produces.  A second ^C
   while draining kills immediately. *)
let interrupted = Atomic.make false

let install_sigint_abort () =
  match
    Sys.signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           if Atomic.get interrupted then exit 130;
           Atomic.set interrupted true;
           prerr_endline
             "gklock: SIGINT — draining in-flight jobs, checkpointing (^C \
              again to kill)"))
  with
  | _ -> ()
  | exception Invalid_argument _ -> ()

let campaign_run_cmd =
  let run name spec dir workers timeout retries metrics_out =
    let m = campaign_matrix name spec dir in
    let dir = campaign_dir dir m in
    install_sigint_abort ();
    let stats =
      Campaign.run ?workers ?timeout_s:timeout ?retries
        ~should_abort:(fun () -> Atomic.get interrupted)
        ~dir m
    in
    Printf.printf
      "campaign %s in %s: %d ran (%d ok, %d failed, %d timed out), %d \
       skipped, %d retries%s\n"
      m.Campaign_job.m_name dir stats.Campaign_runner.ran
      stats.Campaign_runner.ok stats.Campaign_runner.failed
      stats.Campaign_runner.timed_out stats.Campaign_runner.skipped
      stats.Campaign_runner.retries
      (if stats.Campaign_runner.aborted then " [aborted]" else "");
    print_string (Campaign.report ~dir m);
    write_metrics metrics_out;
    if stats.Campaign_runner.aborted then exit 3
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run (or resume) a campaign: completed jobs are skipped, failures \
          and timeouts are recorded as data")
    Term.(const run $ campaign_name_arg $ campaign_spec_arg $ campaign_dir_arg
          $ workers_arg $ timeout_arg $ retries_arg $ metrics_out_arg)

let campaign_status_cmd =
  let run name spec dir =
    let m = campaign_matrix name spec dir in
    print_string (Campaign.status ~dir:(campaign_dir dir m) m)
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Progress and failure summary of a campaign")
    Term.(const run $ campaign_name_arg $ campaign_spec_arg $ campaign_dir_arg)

let campaign_report_cmd =
  let run name spec dir =
    let m = campaign_matrix name spec dir in
    print_string (Campaign.report ~dir:(campaign_dir dir m) m)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Deterministic report of the stored results (tables + matrix)")
    Term.(const run $ campaign_name_arg $ campaign_spec_arg $ campaign_dir_arg)

(* ----- campaign store maintenance ----- *)

let store_arg =
  let doc =
    "Content-addressed store root (default: campaigns/store, the store \
     shared by every campaign under campaigns/; GKLOCK_STORE overrides the \
     default)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let resolve_store store =
  match store with
  | Some s -> s
  | None -> (
    match Sys.getenv_opt "GKLOCK_STORE" with
    | Some s when s <> "" -> s
    | _ -> Filename.concat Campaign.default_root "store")

let bytes_human n =
  if n >= 1 lsl 20 then Printf.sprintf "%.1f MiB" (float_of_int n /. 1048576.0)
  else if n >= 1 lsl 10 then
    Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.0)
  else Printf.sprintf "%d B" n

let open_store store =
  let root = resolve_store store in
  if not (Sys.file_exists root) then die "no store at %s" root;
  Cas.open_ root

let campaign_gc_cmd =
  let run store =
    let cas = open_store store in
    let g = Cas.gc cas in
    Cas.close cas;
    print_string
      (Report.kv_table
         ~title:(Printf.sprintf "store gc — %s" (resolve_store store))
         ([
            ("live objects", string_of_int g.Cas.gc_live_objects);
            ("swept objects", string_of_int g.Cas.gc_swept_objects);
            ("swept bytes", bytes_human g.Cas.gc_swept_bytes);
            ("index entries", string_of_int g.Cas.gc_index_entries);
          ]
         @ List.map
             (fun m -> ("dropped manifest", m))
             g.Cas.gc_dropped_manifests))
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Sweep store objects unreachable from any live campaign manifest \
          (manifests of deleted campaign directories are dropped first)")
    Term.(const run $ store_arg)

let campaign_fsck_cmd =
  let run store =
    let cas = open_store store in
    let f = Cas.fsck cas in
    Cas.close cas;
    print_string
      (Report.kv_table
         ~title:(Printf.sprintf "store fsck — %s" (resolve_store store))
         ([
            ("objects scanned", string_of_int f.Cas.f_objects);
            ("corrupt (quarantined)", string_of_int (List.length f.Cas.f_corrupt));
            ("index entries dropped", string_of_int f.Cas.f_index_dropped);
            ("index torn bytes", string_of_int f.Cas.f_index_torn_bytes);
            ("verdict", if f.Cas.f_ok then "clean" else "repaired");
          ]
         @ List.map (fun (p, why) -> ("quarantined", p ^ ": " ^ why))
             f.Cas.f_corrupt
         @ List.map
             (fun (m, n) -> ("manifest " ^ m, Printf.sprintf "%d dropped" n))
             f.Cas.f_manifest_dropped));
    if not f.Cas.f_ok then exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify every store object against its digest (corrupt objects are \
          quarantined), repair a torn index and drop dangling entries; exits \
          1 when anything needed repair")
    Term.(const run $ store_arg)

let campaign_dedup_cmd =
  let run store =
    let cas = open_store store in
    let s = Cas.stats cas in
    Cas.close cas;
    print_string
      (Report.kv_table
         ~title:(Printf.sprintf "store — %s" (resolve_store store))
         ([
            ("objects", string_of_int s.Cas.st_objects);
            ("bytes", bytes_human s.Cas.st_bytes);
            ("index entries", string_of_int s.Cas.st_index_entries);
            ("blobs", string_of_int s.Cas.st_blobs);
            ("blob refs", string_of_int s.Cas.st_blob_refs);
            ("shared blobs", string_of_int s.Cas.st_shared_blobs);
            ("bytes saved by sharing", bytes_human s.Cas.st_saved_bytes);
          ]
         @ List.map
             (fun (name, n) ->
               ("manifest " ^ name, Printf.sprintf "%d results" n))
             s.Cas.st_manifests))
  in
  Cmd.v
    (Cmd.info "dedup"
       ~doc:
         "Structural-sharing view of the store: object counts, per-campaign \
          manifests, and the bytes blob sharing avoided writing")
    Term.(const run $ store_arg)

let campaign_cmd =
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Resumable experiment campaigns: a declarative job matrix executed \
          by a worker pool with per-job timeouts, checkpointed to a \
          content-addressed result store shared across campaigns, with a \
          telemetry trace")
    [
      campaign_run_cmd;
      campaign_status_cmd;
      campaign_report_cmd;
      campaign_gc_cmd;
      campaign_fsck_cmd;
      campaign_dedup_cmd;
    ]

(* ----- tables / figs ----- *)

let table_arg =
  let doc = "Which table: 1, 2, sat, comparison, ablation, corruption, all." in
  Arg.(value & opt string "all" & info [ "table" ] ~docv:"WHICH" ~doc)

let tables_campaign_arg =
  let doc =
    "Render tables 1 and 2 as views over a campaign store in $(docv) \
     instead of recomputing them (populate it with 'gklock campaign run \
     --name paper')."
  in
  Arg.(value & opt (some string) None & info [ "campaign" ] ~docv:"DIR" ~doc)

let tables_cmd =
  let run which campaign =
    let t1 () =
      match campaign with
      | None -> print_string (Report.table1 (Experiments.table1 ()))
      | Some dir -> (
        match Campaign.table1_view dir with
        | [] -> die "%s: no completed table1 jobs in the store" dir
        | rows -> print_string (Report.table1 rows))
    in
    let t2 () =
      match campaign with
      | None -> print_string (Report.table2 (Experiments.table2 ()))
      | Some dir -> (
        match Campaign.table2_view dir with
        | [] -> die "%s: no completed table2 jobs in the store" dir
        | rows -> print_string (Report.table2 rows))
    in
    let sat () = print_string (Report.sat_attack (Experiments.sat_attack_table ())) in
    let cmp () = print_string (Report.comparison (Experiments.attack_comparison ())) in
    let abl () =
      print_string (Report.ablation_glitch (Experiments.ablation_glitch_length ()));
      print_string (Report.ablation_profile (Experiments.ablation_delay_profile ()))
    in
    let cor () = print_string (Report.corruptibility (Experiments.corruptibility ())) in
    match which with
    | "1" -> t1 ()
    | "2" -> t2 ()
    | "sat" -> sat ()
    | "comparison" -> cmp ()
    | "ablation" -> abl ()
    | "corruption" -> cor ()
    | "all" -> t1 (); t2 (); sat (); cmp (); abl (); cor ()
    | other -> Printf.eprintf "unknown table %S\n" other; exit 1
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables (and ablations)")
    Term.(const run $ table_arg $ tables_campaign_arg)

let figs_cmd =
  let run () =
    print_string (Experiments.fig4 ());
    print_newline ();
    print_string (Experiments.fig6 ());
    print_newline ();
    print_string (Experiments.fig7 ());
    print_newline ();
    print_string (Experiments.fig9 ())
  in
  Cmd.v (Cmd.info "figs" ~doc:"Regenerate the paper's figures")
    Term.(const run $ const ())

(* ----- trace ----- *)

(* `gklock trace [--out FILE] CMD ARGS...` wraps any other subcommand
   under tracing, then validates the file it wrote.  The wrapped
   command's arguments must pass through untouched (including its own
   --flags), which cmdliner's positional parsing does not allow, so this
   subcommand is dispatched by hand from [main]: flags before the first
   positional token belong to trace, everything from that token on is
   re-evaluated as a fresh gklock command line.  [trace_stub_cmd] exists
   so `gklock --help` documents the subcommand. *)
let trace_stub_cmd =
  let run () =
    prerr_endline
      "gklock trace: give a subcommand to run under tracing, e.g.\n\
      \  gklock trace --out run.jsonl attack LOCKED --keys k0,k1 --oracle \
       CHIP\n\
      \  gklock trace --check run.jsonl";
    exit 2
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run any gklock subcommand under span tracing (JSONL, Chrome Trace \
          Event schema), or validate a trace file with --check")
    Term.(const run $ const ())

let run_trace eval args =
  let out = ref "gklock_trace.jsonl" in
  let check = ref None in
  let rec parse = function
    | "--out" :: v :: rest | "-o" :: v :: rest ->
      out := v;
      parse rest
    | "--check" :: v :: rest ->
      check := Some v;
      parse rest
    | rest -> rest
  in
  let rest = parse args in
  let report path =
    match Obs.Trace.validate_file path with
    | Ok c ->
      Printf.printf "%s: valid — %d events, %d spans, max depth %d\n" path
        c.Obs.Trace.v_events c.Obs.Trace.v_spans c.Obs.Trace.v_max_depth;
      0
    | Error e ->
      Printf.eprintf "%s: INVALID trace: %s\n" path e;
      1
  in
  match !check with
  | Some path -> report path
  | None ->
    if rest = [] then (
      Printf.eprintf
        "gklock trace: nothing to run (expected a subcommand, e.g. `gklock \
         trace attack ...`)\n";
      2)
    else begin
      Obs.Trace.enable ~file:!out ();
      let code = eval (Array.of_list ("gklock" :: rest)) in
      Obs.Trace.disable ();
      let vcode = report !out in
      if code <> 0 then code else vcode
    end

let () =
  let doc = "Glitch key-gate logic locking — paper reproduction toolkit" in
  let info = Cmd.info "gklock" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        info_cmd; gen_cmd; opt_cmd; encrypt_cmd; attack_cmd; attacks_cmd;
        serve_cmd;
        sim_cmd; sta_cmd; flow_cmd; tables_cmd; figs_cmd; campaign_cmd;
        fuzz_cmd; trace_stub_cmd;
      ]
  in
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "trace" then
    exit
      (run_trace
         (fun argv -> Cmd.eval ~argv group)
         (Array.to_list (Array.sub argv 2 (Array.length argv - 2))))
  else exit (Cmd.eval group)
