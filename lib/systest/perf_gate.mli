(** The perf regression gate: committed BENCH_*.json trajectory vs a
    fresh measurement.

    The repo commits its performance record — [BENCH_eval.json]
    (engine throughput), [BENCH_attacks.json] (oracle/attack
    throughput and verdicts) and [BENCH_load.json] (daemon sustained
    load).  [systest gate] re-measures smoke-profile versions of the
    same numbers and compares, so a refactor that silently loses the
    speed those files record fails [make check] / CI instead of
    landing.

    Metrics come in four kinds, each with its own comparison rule:

    - {b Throughput} (queries/sec, patterns/sec): fresh must be at
      least [baseline / max_slowdown];
    - {b Latency} (p50/p99 µs): fresh must be at most
      [baseline * max_slowdown];
    - {b Ratio} (dimensionless speedups, e.g. batch-vs-scalar): fresh
      must be at least [baseline / ratio_tolerance].  Ratios are
      machine-independent, so they stay meaningful even when absolute
      numbers are measured on different hardware than the baseline;
    - {b Verdict} (attack outcomes with their DIP, chip-query and
      conflict counts in BENCH_attacks' [attacks] rows, the events one
      [Timing_sim] run pops in BENCH_eval's [timing_sim] rows, each
      design's node and flip-flop counts and combinationalized MD5 in
      BENCH_eval's [netlist] rows (their times are not gated), and the
      mismatches one key verification counts in BENCH_attacks' [verify]
      rows, and the DIPs and solver counts of a SARLock-6 DIP loop in
      its [dip_loop] rows, whose phase times are not gated): must match
      exactly — an attack whose verdict or count
      moves, or a simulator or key check whose count moves, is a
      correctness regression wearing a perf benchmark's clothes.

    A metric present in only one file (e.g. a benchmark the smoke
    profile skips) is reported as skipped, never failed.
    [inject_slowdown] divides fresh throughputs and multiplies fresh
    latencies before comparison — the self-test hook that proves the
    gate actually trips ([systest gate --inject-slowdown 2]). *)

type kind = Throughput | Latency | Ratio | Verdict

val kind_name : kind -> string

type check = {
  c_id : string;  (** e.g. ["attacks.s5378.batch_queries_per_sec"] *)
  c_kind : kind;
  c_base : float;  (** for [Verdict], 0.0 — see [c_base_s] *)
  c_fresh : float;
  c_base_s : string;  (** verdict strings ([""] for numeric kinds) *)
  c_fresh_s : string;
  c_ok : bool;
}

type report = {
  g_checks : check list;
  g_skipped : string list;  (** metric ids present on only one side *)
  g_ok : bool;
}

(** [metrics_of ~file j] extracts [(id, kind, number-or-verdict)]
    triples from one BENCH document.  [file] selects the schema:
    [`Eval], [`Attacks] or [`Load]. *)
val metrics_of :
  file:[ `Eval | `Attacks | `Load ] ->
  Cjson.t ->
  (string * kind * [ `Num of float | `Verdict of string ]) list

(** [compare_docs ?max_slowdown ?ratio_tolerance ?inject_slowdown
    pairs] gates every [(file, baseline_json, fresh_json)] pair.
    Defaults: [max_slowdown = 1.5] (fail on >50% throughput loss or
    latency growth), [ratio_tolerance = 2.0], [inject_slowdown = 1.0]
    (off). *)
val compare_docs :
  ?max_slowdown:float ->
  ?ratio_tolerance:float ->
  ?inject_slowdown:float ->
  ([ `Eval | `Attacks | `Load ] * Cjson.t * Cjson.t) list ->
  report

(** Human-readable gate report (ASCII table + failure lines). *)
val render : report -> string
