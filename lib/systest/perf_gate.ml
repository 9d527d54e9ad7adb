type kind = Throughput | Latency | Ratio | Verdict

let kind_name = function
  | Throughput -> "throughput"
  | Latency -> "latency"
  | Ratio -> "ratio"
  | Verdict -> "verdict"

type check = {
  c_id : string;
  c_kind : kind;
  c_base : float;
  c_fresh : float;
  c_base_s : string;
  c_fresh_s : string;
  c_ok : bool;
}

type report = { g_checks : check list; g_skipped : string list; g_ok : bool }

(* ----- metric extraction per schema ----- *)

let num row field = Cjson.mem_float field row

let rows_of j field =
  match Cjson.mem_list field j with Some l -> l | None -> []

let keyed prefix row name_field fields ratios =
  match Cjson.mem_str name_field row with
  | None -> []
  | Some name ->
    List.filter_map
      (fun (field, kind) ->
        Option.map
          (fun v -> (Printf.sprintf "%s.%s.%s" prefix name field, kind, `Num v))
          (num row field))
      (List.map (fun f -> (f, Throughput)) fields
      @ List.map (fun f -> (f, Ratio)) ratios)

let metrics_of ~file j =
  match file with
  | `Eval ->
    List.concat_map
      (fun row ->
        keyed "eval" row "name"
          [
            "scalar_patterns_per_sec"; "word_patterns_per_sec";
            "block_patterns_per_sec";
          ]
          [ "block_speedup_vs_word"; "strash_reduction" ])
      (rows_of j "benchmarks")
  | `Attacks ->
    List.concat_map
      (fun row ->
        keyed "attacks" row "name"
          [
            "scalar_queries_per_sec"; "batch_queries_per_sec";
            "remote_scalar_queries_per_sec"; "remote_batch_queries_per_sec";
          ]
          [
            "batch_speedup_vs_scalar"; "remote_batch_speedup_vs_remote_scalar";
          ])
      (rows_of j "oracle")
    @ List.filter_map
        (fun row ->
          match
            ( Cjson.mem_str "bench" row,
              Cjson.mem_str "attack" row,
              Cjson.mem_str "verdict" row )
          with
          | Some bench, Some attack, Some verdict ->
            Some
              ( Printf.sprintf "attacks.%s.%s.verdict" bench attack,
                Verdict,
                `Verdict verdict )
          | _ -> None)
        (rows_of j "attacks")
  | `Load ->
    List.concat_map
      (fun row ->
        match (Cjson.mem_str "transport" row, Cjson.mem_str "mode" row) with
        | Some t, Some m ->
          let id field = Printf.sprintf "load.%s.%s.%s" t m field in
          List.filter_map
            (fun (field, kind) ->
              Option.map (fun v -> (id field, kind, `Num v)) (num row field))
            [ ("qps", Throughput); ("p50_us", Latency); ("p99_us", Latency) ]
        | _ -> [])
      (rows_of j "rows")

(* ----- comparison ----- *)

let compare_docs ?(max_slowdown = 1.5) ?(ratio_tolerance = 2.0)
    ?(inject_slowdown = 1.0) pairs =
  if max_slowdown < 1.0 then
    invalid_arg "Perf_gate.compare_docs: max_slowdown must be >= 1";
  if ratio_tolerance < 1.0 then
    invalid_arg "Perf_gate.compare_docs: ratio_tolerance must be >= 1";
  let checks = ref [] and skipped = ref [] in
  List.iter
    (fun (file, base_j, fresh_j) ->
      let base = metrics_of ~file base_j in
      let fresh = metrics_of ~file fresh_j in
      let fresh_tbl = Hashtbl.create 64 in
      List.iter (fun (id, _, v) -> Hashtbl.replace fresh_tbl id v) fresh;
      (* fresh-only metrics: report as skipped so a widened fresh run is
         visible, not silently ignored *)
      let base_ids = List.map (fun (id, _, _) -> id) base in
      List.iter
        (fun (id, _, _) ->
          if not (List.mem id base_ids) then
            skipped := (id ^ " (fresh only)") :: !skipped)
        fresh;
      List.iter
        (fun (id, kind, base_v) ->
          match (base_v, Hashtbl.find_opt fresh_tbl id) with
          | _, None -> skipped := (id ^ " (baseline only)") :: !skipped
          | `Num b, Some (`Num f) ->
            if b <= 0.0 then skipped := (id ^ " (non-positive baseline)") :: !skipped
            else begin
              (* the synthetic-slowdown hook scales only the
                 machine-dependent kinds: a uniform slowdown leaves
                 dimensionless ratios untouched, and the gate's job is
                 to model exactly that uniform slowdown *)
              let f =
                match kind with
                | Throughput -> f /. inject_slowdown
                | Latency -> f *. inject_slowdown
                | Ratio | Verdict -> f
              in
              let ok =
                match kind with
                | Throughput -> f *. max_slowdown >= b
                | Latency -> f <= b *. max_slowdown
                | Ratio -> f *. ratio_tolerance >= b
                | Verdict -> true
              in
              checks :=
                {
                  c_id = id;
                  c_kind = kind;
                  c_base = b;
                  c_fresh = f;
                  c_base_s = "";
                  c_fresh_s = "";
                  c_ok = ok;
                }
                :: !checks
            end
          | `Verdict b, Some (`Verdict f) ->
            checks :=
              {
                c_id = id;
                c_kind = Verdict;
                c_base = 0.0;
                c_fresh = 0.0;
                c_base_s = b;
                c_fresh_s = f;
                c_ok = b = f;
              }
              :: !checks
          | `Num _, Some (`Verdict _) | `Verdict _, Some (`Num _) ->
            skipped := (id ^ " (kind mismatch)") :: !skipped)
        base)
    pairs;
  let checks = List.rev !checks in
  {
    g_checks = checks;
    g_skipped = List.rev !skipped;
    g_ok = List.for_all (fun c -> c.c_ok) checks;
  }

(* ----- rendering ----- *)

let fmt_num kind v =
  match kind with
  | Ratio -> Printf.sprintf "%.2fx" v
  | Latency -> Printf.sprintf "%.0fus" v
  | _ -> Printf.sprintf "%.1f" v

let render r =
  let t =
    Ascii_table.create ~title:"Perf gate"
      ~columns:
        [
          ("metric", Ascii_table.Left);
          ("kind", Ascii_table.Left);
          ("baseline", Ascii_table.Right);
          ("fresh", Ascii_table.Right);
          ("change", Ascii_table.Right);
          ("status", Ascii_table.Left);
        ]
  in
  List.iter
    (fun c ->
      let base, fresh, change =
        if c.c_kind = Verdict then
          (c.c_base_s, c.c_fresh_s, if c.c_ok then "same" else "FLIPPED")
        else
          ( fmt_num c.c_kind c.c_base,
            fmt_num c.c_kind c.c_fresh,
            Printf.sprintf "%.2fx" (c.c_fresh /. c.c_base) )
      in
      Ascii_table.add_row t
        [
          c.c_id; kind_name c.c_kind; base; fresh; change;
          (if c.c_ok then "ok" else "FAIL");
        ])
    r.g_checks;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Ascii_table.render t);
  if r.g_skipped <> [] then
    Buffer.add_string buf
      (Printf.sprintf "skipped (one-sided): %s\n"
         (String.concat ", " r.g_skipped));
  let failed = List.filter (fun c -> not c.c_ok) r.g_checks in
  if failed = [] then
    Buffer.add_string buf
      (Printf.sprintf "gate: %d metrics OK\n" (List.length r.g_checks))
  else begin
    Buffer.add_string buf
      (Printf.sprintf "gate: %d/%d metrics FAILED:\n" (List.length failed)
         (List.length r.g_checks));
    List.iter
      (fun c ->
        Buffer.add_string buf
          (if c.c_kind = Verdict then
             Printf.sprintf "  %s: verdict flipped %s -> %s\n" c.c_id
               c.c_base_s c.c_fresh_s
           else
             Printf.sprintf "  %s: %s -> %s (%.2fx)\n" c.c_id
               (fmt_num c.c_kind c.c_base)
               (fmt_num c.c_kind c.c_fresh)
               (c.c_fresh /. c.c_base)))
      failed
  end;
  Buffer.contents buf
