(** The instrumented chip oracle every attack in the framework queries.

    An [Oracle.t] wraps either a combinational netlist (the simulated
    unlocked chip) or an arbitrary query function, and adds the three
    things the attack literature measures and the ad-hoc closures lost:

    - {b query counting}: AppSAT and the SAT attack define their cost in
      oracle queries; {!queries} reports real evaluations, with memo
      hits tracked separately ({!memo_hits}).
    - {b memoization}: repeated queries (DIP re-checks, verify samples)
      hit a canonical-form cache instead of re-simulating — and do not
      recount.
    - {b budget charging}: when constructed with a {!Budget.t}, every
      real evaluation is charged, so a query cap or deadline stops the
      attack with [Budget.Exhausted] instead of letting it run away.

    Netlist-backed oracles also {b validate queries}: a name that is not
    one of the netlist's sources, or a source left unassigned, raises
    [Invalid_argument] — the silent read-as-false that used to hide
    mistyped key names is now an error.  [~partial:true] (or {!relax})
    restores the permissive semantics for attacks that genuinely cannot
    name every pin (e.g. the scan attack's undriveable key inputs).

    {b Partial-read rule.} Under [~partial:true] every source the query
    does not mention — ordinary primary inputs {e and} the [ppi_*]
    pseudo-inputs standing in for flip-flops whose initial state the
    source netlist leaves undefined — reads as a deterministic [false].
    The same rule applies on both the scalar ({!query}) and batched
    ({!query_batch}) paths, and a relaxed query therefore shares its
    memo entry with the equivalent strict query that names those pins
    [false] explicitly.  Defaulted reads are never silent: each one is
    counted in the [oracle.partial_defaults] metric (see [Obs.Metrics]),
    so a run that leaned on the default is distinguishable from one that
    pinned every pin.

    Every evaluation goes through {!Netlist.Engine.eval_block}: a single
    query is lane 0 of a one-word block, and batched queries
    ({!query_batch}) bit-transpose distinct memo misses into blocks of
    8 words (504 stimulus lanes on 64-bit hosts), each block evaluated
    in one pass over the compiled instruction stream, and
    on large engines pending blocks are sharded across a bounded domain
    pool ({!Parallel.map} semantics — nested use degrades to sequential).
    This is the fast path for sampling workloads (brute force, AppSAT
    error estimation, removal-equivalence checks, [verify_key]). *)

type t

(** [of_netlist ?partial ?budget ?memo ?memo_cap ?shards net] wraps [net]
    (combinational, or any netlist whose FF outputs are to be driven
    directly) as an oracle.

    [partial] (default false): read unmentioned sources as false instead
    of raising.  [memo] (default true): cache query results.  [memo_cap]
    (default unbounded): maximum resident memo entries; when full, the
    {e oldest inserted} entry is evicted (FIFO) and counted in
    {!memo_evictions} / the [oracle.memo_evictions] metric.  A capped
    memo keeps {!queries} monotone but can re-evaluate (and re-charge)
    a vector whose entry was evicted.

    [shards] forces the batch domain-pool width; by default sharding
    engages only on engines of a few thousand slots and uses
    [Parallel.default_domains ()].  [~shards:1] disables sharding.

    The netlist must not be mutated while wrapped.
    @raise Invalid_argument if [memo_cap] or [shards] is [< 1]. *)
val of_netlist :
  ?partial:bool ->
  ?budget:Budget.t ->
  ?memo:bool ->
  ?memo_cap:int ->
  ?shards:int ->
  Netlist.t ->
  t

(** [of_fn ?budget ?memo ?memo_cap ?batch fn] wraps a black-box query
    function (e.g. a frame-regrouping wrapper around another oracle, or
    a remote oracle speaking a wire protocol).  No validation is
    possible; [fn] must be deterministic if [memo] is on (default).
    [memo_cap] bounds the memo as in {!of_netlist}.

    When [batch] is given, {!query_batch} routes through it instead of
    falling back to scalar [fn] calls: memo misses are deduplicated on
    their canonical keys and shipped in one [batch] call (which must
    return exactly one result per query, in order), so a transport that
    can pack many queries per round trip — like {!Remote_oracle} — gets
    word-at-a-time batching end to end. *)
val of_fn :
  ?budget:Budget.t ->
  ?memo:bool ->
  ?memo_cap:int ->
  ?batch:((string * bool) list list -> (string * bool) list list) ->
  ((string * bool) list -> (string * bool) list) ->
  t

(** [query t inputs] is the chip's output assignment for [inputs].
    @raise Invalid_argument on unknown or missing input names (strict
    netlist-backed oracles only).
    @raise Budget.Exhausted past the attached budget. *)
val query : t -> (string * bool) list -> (string * bool) list

(** [query_batch t qs] evaluates all of [qs] — duplicate and memoized
    vectors cost nothing; distinct misses are packed 8 words of lanes
    per engine pass and sharded across domains on large engines.
    Results are in request order.  The whole batch of misses is charged
    to the budget {e before} evaluation starts, so [Budget.Exhausted]
    trips without a partial parallel pass. *)
val query_batch :
  t -> (string * bool) list list -> (string * bool) list list

(** [relax t] is [t] with permissive validation (shares counters, memo
    and budget with [t]). *)
val relax : t -> t

(** [differs net ~missing] compares the chip's replies with those of
    [of_netlist net], whose outputs come in {!Netlist.outputs} order:
    [differs net ~missing exp got] is true when some output of [exp]
    has another value in [got].  An output of [exp] that [net] lacks
    counts as a difference exactly when [missing].  The partial
    application builds the output-name index and the one value buffer
    every later comparison refills, so a reply costs one pass over each
    list and allocates no table. *)
val differs :
  Netlist.t ->
  missing:bool ->
  (string * bool) list ->
  (string * bool) list ->
  bool

(** [as_fn t] is [query t] as a bare closure, for legacy signatures. *)
val as_fn : t -> (string * bool) list -> (string * bool) list

(** Real evaluations performed (memo hits excluded). *)
val queries : t -> int

(** Queries answered from the memo. *)
val memo_hits : t -> int

(** Memo entries evicted under [~memo_cap] (0 when unbounded). *)
val memo_evictions : t -> int

(** Source (input + FF) names of a netlist-backed oracle, in declaration
    order; [[]] for black-box oracles. *)
val input_names : t -> string list
