(* systest — the system-test front end.

   Subcommands:
     run    execute the scenario catalogue against the built binaries
     list   print the catalogue
     load   sustained-load measurement of gklockd (writes BENCH_load.json)
     gate   perf regression gate: committed BENCH_*.json vs fresh numbers

   The scenario catalogue lives in Systest_scenarios (linked into this
   executable; registration happens at module-initialization time). *)

open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "systest: %s\n" msg;
      exit 2)
    fmt

let abs p =
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* The built binaries normally sit next to this executable in
   _build/default/bin; --gklock / --gklockd override for odd layouts. *)
let sibling name = Filename.concat (Filename.dirname Sys.executable_name) name

let binary_arg name ~default ~doc =
  Arg.(value & opt string default & info [ name ] ~docv:"BIN" ~doc)

let gklock_arg =
  binary_arg "gklock" ~default:(sibling "gklock_cli.exe")
    ~doc:"Path of the gklock CLI binary under test."

let gklockd_arg =
  binary_arg "gklockd" ~default:(sibling "gklockd.exe")
    ~doc:"Path of the gklockd daemon binary under test."

let resolve_binary what path =
  let path = abs path in
  if not (Sys.file_exists path) then
    die "%s binary not found at %s (build first, or pass --%s)" what path what;
  path

(* ----- run ----- *)

let profile_arg =
  let doc = "Scenario profile: $(b,smoke) (CI default) or $(b,full)." in
  Arg.(value & opt string "smoke" & info [ "profile" ] ~docv:"NAME" ~doc)

let only_arg =
  let doc =
    "Run only scenarios whose name contains $(docv) (repeatable, \
     comma-separable)."
  in
  Arg.(value & opt_all string [] & info [ "only" ] ~docv:"SUBSTR" ~doc)

let dir_arg =
  let doc =
    "Sandbox root for scenario directories (default: a fresh directory under \
     the system temp dir)."
  in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let keep_arg =
  let doc = "Keep the sandboxes of passing scenarios too." in
  Arg.(value & flag & info [ "keep" ] ~doc)

let scenario_timeout_arg =
  let doc = "Per-scenario wall-clock watchdog in seconds." in
  Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let repo_root_arg =
  let doc =
    "Repository root — where the committed BENCH_*.json baselines live."
  in
  Arg.(value & opt string "." & info [ "repo-root" ] ~docv:"DIR" ~doc)

let run_cmd =
  let run profile only dir keep timeout gklock gklockd repo_root =
    let profile =
      match Systest.profile_of_string profile with
      | Ok p -> p
      | Error e -> die "%s" e
    in
    let filter =
      List.concat_map (String.split_on_char ',') only
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let _results, ok =
      Systest.run_all ~filter ?root:(Option.map abs dir) ~keep
        ~timeout_s:timeout
        ~gklock:(resolve_binary "gklock" gklock)
        ~gklockd:(resolve_binary "gklockd" gklockd)
        ~systest:(abs Sys.executable_name)
        ~repo_root:(abs repo_root) ~profile ()
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the end-to-end scenario catalogue against the real binaries")
    Term.(const run $ profile_arg $ only_arg $ dir_arg $ keep_arg
          $ scenario_timeout_arg $ gklock_arg $ gklockd_arg $ repo_root_arg)

(* ----- list ----- *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, tags, full_only) ->
        Printf.printf "%-28s %s%s\n" name (String.concat "," tags)
          (if full_only then " [full]" else ""))
      (Systest.scenarios ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the scenario catalogue")
    Term.(const run $ const ())

(* ----- load ----- *)

let load_design_arg =
  let doc = "Builtin benchmark the daemon serves." in
  Arg.(value & opt string Load_gen.default_cfg.Load_gen.l_design
       & info [ "design" ] ~docv:"NAME" ~doc)

let clients_arg =
  let doc = "Concurrent closed-loop clients." in
  Arg.(value & opt int Load_gen.default_cfg.Load_gen.l_clients
       & info [ "clients" ] ~docv:"N" ~doc)

let duration_arg =
  let doc =
    "Measured window per (transport x mode) row in seconds (default: 5, or \
     1 with $(b,--smoke))."
  in
  Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"SECONDS" ~doc)

let flush_delay_arg =
  let doc = "Daemon max coalescing delay in seconds." in
  Arg.(value & opt float Load_gen.default_cfg.Load_gen.l_flush_delay_s
       & info [ "flush-delay" ] ~docv:"SECONDS" ~doc)

let smoke_arg =
  let doc =
    "Smoke profile: short windows, for the regression gate — not for \
     refreshing the committed baseline."
  in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let out_arg =
  let doc = "Write the load document to $(docv)." in
  Arg.(value & opt string "BENCH_load.json" & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let load_dir_arg =
  let doc = "Scratch directory (default: fresh under the system temp dir)." in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let load_cmd =
  let run design clients duration flush_delay smoke out dir gklockd =
    let gklockd = resolve_binary "gklockd" gklockd in
    let cfg =
      {
        Load_gen.l_design = design;
        l_clients = clients;
        l_duration_s =
          (match duration with
          | Some d -> d
          | None -> if smoke then 1.0 else 5.0);
        l_flush_delay_s = flush_delay;
      }
    in
    let dir =
      match dir with
      | Some d ->
        let d = abs d in
        Systest.mkdir_p d;
        d
      | None ->
        let d =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "gklock-load-%d" (Unix.getpid ()))
        in
        Systest.rm_rf d;
        Systest.mkdir_p d;
        d
    in
    let rows =
      List.concat_map
        (fun transport ->
          List.map
            (fun mode ->
              let row = Load_gen.run ~gklockd ~dir cfg transport mode in
              Printf.printf
                "%-5s %-8s %8.0f q/s   p50 %7.1f us   p99 %8.1f us   %d \
                 queries%s\n%!"
                (Load_gen.transport_name transport)
                (Load_gen.mode_name mode) row.Load_gen.r_qps
                row.Load_gen.r_p50_us row.Load_gen.r_p99_us
                row.Load_gen.r_queries
                (if row.Load_gen.r_errors > 0 then
                   Printf.sprintf "   %d ERRORS" row.Load_gen.r_errors
                 else "");
              row)
            [ `Scalar; `Batch ])
        [ `Unix; `Tcp ]
    in
    let doc = Load_gen.to_json ~smoke cfg rows in
    let oc = open_out_bin out in
    output_string oc (Cjson.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" out;
    Systest.rm_rf dir;
    if List.exists (fun r -> r.Load_gen.r_errors > 0) rows then exit 1
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Sustained-load measurement: spawn gklockd and hammer it with \
          concurrent clients over unix and tcp, scalar and batch")
    Term.(const run $ load_design_arg $ clients_arg $ duration_arg
          $ flush_delay_arg $ smoke_arg $ out_arg
          $ load_dir_arg $ gklockd_arg)

(* ----- gate ----- *)

let baseline_dir_arg =
  let doc = "Directory holding the committed BENCH_*.json baselines." in
  Arg.(value & opt string "." & info [ "baseline-dir" ] ~docv:"DIR" ~doc)

let fresh_dir_arg =
  let doc =
    "Directory holding freshly measured BENCH_*.json documents (individual \
     $(b,--fresh-*) flags override per file)."
  in
  Arg.(value & opt (some string) None & info [ "fresh-dir" ] ~docv:"DIR" ~doc)

let fresh_file_arg which =
  let doc = Printf.sprintf "Freshly measured %s." which in
  let name = "fresh-" ^ which in
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let max_slowdown_arg =
  let doc =
    "Fail when a fresh throughput (latency) is worse than baseline / $(docv) \
     (baseline x $(docv))."
  in
  Arg.(value & opt float 1.5 & info [ "max-slowdown" ] ~docv:"FACTOR" ~doc)

let ratio_tolerance_arg =
  let doc =
    "Tolerance factor for dimensionless speedup ratios (machine-independent \
     checks)."
  in
  Arg.(value & opt float 2.0 & info [ "ratio-tolerance" ] ~docv:"FACTOR" ~doc)

let inject_slowdown_arg =
  let doc =
    "Self-test hook: pretend every fresh throughput is $(docv)x slower (and \
     every latency $(docv)x higher) before comparing."
  in
  Arg.(value & opt float 1.0 & info [ "inject-slowdown" ] ~docv:"FACTOR" ~doc)

let read_json what path =
  if not (Sys.file_exists path) then die "%s: %s does not exist" what path;
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Cjson.of_string s with
  | Ok j -> j
  | Error e -> die "%s: %s: invalid JSON: %s" what path e

let gate_cmd =
  let run baseline_dir fresh_dir fresh_eval fresh_attacks fresh_load
      max_slowdown ratio_tolerance inject_slowdown =
    let fresh_path name = function
      | Some f -> Some f
      | None -> (
        match fresh_dir with
        | None -> None
        | Some d ->
          let p = Filename.concat d name in
          if Sys.file_exists p then Some p else None)
    in
    let pair file name fresh =
      match fresh_path name fresh with
      | None -> None
      | Some fresh_file ->
        let base_file = Filename.concat baseline_dir name in
        if not (Sys.file_exists base_file) then begin
          Printf.printf "gate: no baseline %s — skipping %s\n" base_file name;
          None
        end
        else
          Some
            ( file,
              read_json "baseline" base_file,
              read_json "fresh" fresh_file )
    in
    let pairs =
      List.filter_map Fun.id
        [
          pair `Eval "BENCH_eval.json" fresh_eval;
          pair `Attacks "BENCH_attacks.json" fresh_attacks;
          pair `Load "BENCH_load.json" fresh_load;
        ]
    in
    if pairs = [] then
      die
        "nothing to gate: give --fresh-dir or --fresh-eval/--fresh-attacks/\
         --fresh-load";
    let report =
      Perf_gate.compare_docs ~max_slowdown ~ratio_tolerance ~inject_slowdown
        pairs
    in
    print_string (Perf_gate.render report);
    if not report.Perf_gate.g_ok then exit 1
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "Perf regression gate: compare fresh BENCH_*.json measurements \
          against the committed baselines")
    Term.(const run $ baseline_dir_arg $ fresh_dir_arg
          $ fresh_file_arg "eval" $ fresh_file_arg "attacks"
          $ fresh_file_arg "load" $ max_slowdown_arg $ ratio_tolerance_arg
          $ inject_slowdown_arg)

(* ----- main ----- *)

let () =
  (* scenario registration lives in its own module; make sure the
     linker keeps it *)
  Systest_scenarios.status_str (Unix.WEXITED 0) |> ignore;
  let doc = "gklock system tests, load generator and perf regression gate" in
  let info = Cmd.info "systest" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; list_cmd; load_cmd; gate_cmd ]))
