(** The instrumented chip oracle every attack in the framework queries.

    An [Oracle.t] wraps a combinational netlist (the simulated unlocked
    chip) or a positional black box (the chip behind a [gklockd] socket,
    or a wrapper that answers an unrolled netlist's queries frame by
    frame), and adds the three things the attack literature measures and
    the ad-hoc closures lost:

    - {b query counting}: AppSAT and the SAT attack define their cost in
      oracle queries; {!queries} reports real evaluations, with memo
      hits tracked separately ({!memo_hits}).  A batch the budget
      refuses is never evaluated and never counted.
    - {b memoization}: repeated queries (DIP re-checks, verify samples)
      hit a canonical-form cache instead of re-simulating — and do not
      recount.
    - {b budget charging}: once bound to a {!Budget.t} with
      {!with_budget} (as {!Attack.run} binds its own budget), every real
      evaluation is charged, so a query cap or deadline stops the attack
      with [Budget.Exhausted] instead of letting it run away.

    {b Positional core.}  Every oracle, a netlist ({!of_netlist}) or a
    positional black box ({!of_packed}), knows its input and output
    names, and answers in packed bits ({!Bitpack}): a query is its input
    bits, LSB-first in {!input_names} order, and a reply is its output
    bits in output order ({!Netlist.outputs} for a netlist).  The memo
    maps packed inputs to packed outputs, about 0.5 KB per entry on
    s38417's 1,592 inputs and 1,672 outputs.  {!query_packed} runs packed
    queries directly.  {!query} and {!query_batch} are the named edge:
    they resolve each named query to its packed bits once, run the same
    pipeline, and unpack the replies into [(name, value)] lists whose
    pairs are preallocated and shared.

    Oracles also {b validate named queries}: a name that is
    not one of the inputs, or an input left unassigned, raises
    [Invalid_argument] — the silent read-as-false that used to hide
    mistyped key names is now an error.  [~partial:true] (or {!relax})
    restores the permissive semantics for attacks that genuinely cannot
    name every pin (e.g. the scan attack's undriveable key inputs).

    {b Partial-read rule.} Under [~partial:true] every input the query
    does not mention — ordinary primary inputs {e and} the [ppi_*]
    pseudo-inputs standing in for flip-flops whose initial state the
    source netlist leaves undefined — reads as a deterministic [false].
    {!query} and {!query_batch} share one path, so the rule is the same
    for both, and a relaxed query shares its memo entry with the
    equivalent strict query that names those pins [false] explicitly.
    Defaulted reads are never silent: each one is counted in the
    [oracle.partial_defaults] metric (see [Obs.Metrics]) of the process
    that resolves the names, so a run that leaned on the default is
    distinguishable from one that pinned every pin.

    {b One query path.}  {!query}, {!query_batch} and {!query_packed}
    run one pipeline.  Each (1) computes canonical keys (the packed
    inputs), (2) answers memo hits and deduplicates the misses within
    the call, with or without a memo (a lone query skips the
    dedup table), (3) charges the distinct misses in one go before any
    of them is evaluated, (4) evaluates the misses, (5) writes them back
    to the memo, and returns the replies in request order.  A netlist
    oracle evaluates through {!Netlist.Engine.eval_block}: the misses
    are bit-transposed into blocks of 8 words (504 stimulus lanes on
    64-bit hosts), so a single query is lane 0 of a one-word block, and
    on large engines key resolution and evaluation are sharded across a
    bounded domain pool ({!Parallel.map} semantics — nested use degrades
    to sequential).  A black box answers {!query} with its scalar
    function and {!query_batch} / {!query_packed} with its [batch].

    {b Sampling.}  Every sampled key check ([Sat_attack.verify_key], and
    through it brute force; AppSAT's error estimate; the removal
    attack's check) runs in {!Sampler}: it resolves its pin names once
    with {!packer}, draws its random vectors into packed queries and
    sends them to {!query_packed}, so no name is looked up per query and
    no reply is unpacked. *)

type t

(** [of_netlist ?partial ?memo ?memo_cap ?shards net] wraps [net]
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
  ?memo:bool ->
  ?memo_cap:int ->
  ?shards:int ->
  Netlist.t ->
  t

(** [of_packed ?memo ?memo_cap ~name ~inputs ~outputs ~batch fn] wraps
    a positional black box whose input and output names are known, such
    as {!Remote_oracle}'s chip or the frame-by-frame chip of an unrolled
    netlist ({!Dip_miter.named_oracle}).  [fn] answers one packed query
    and [batch] an array of them, in order, each reply being the packed
    output bits.  Named queries are validated against [inputs] exactly as
    {!of_netlist} validates them (strict until {!relax}ed); [name]
    (e.g. ["remote design s27"]) names the chip in those errors.  The
    memo is as in {!of_netlist}; [fn] must be deterministic if it is on
    (default).
    @raise Invalid_argument if [memo_cap < 1], or, from a query, if a
    reply is not a packed vector of [List.length outputs] bits. *)
val of_packed :
  ?memo:bool ->
  ?memo_cap:int ->
  name:string ->
  inputs:string list ->
  outputs:string list ->
  batch:(string array -> string array) ->
  (string -> string) ->
  t

(** [query t inputs] is the chip's output assignment for [inputs].
    @raise Invalid_argument on unknown or missing input names (strict
    oracles only).
    @raise Budget.Exhausted past the bound budget. *)
val query : t -> (string * bool) list -> (string * bool) list

(** [query_batch t qs] evaluates all of [qs] — duplicate and memoized
    vectors cost nothing; distinct misses are packed 8 words of lanes
    per engine pass and sharded across domains on large engines.
    Results are in request order, even when a capped memo evicts some
    of them within the call.  The whole batch of misses is charged to
    the budget {e before} evaluation starts, so [Budget.Exhausted]
    trips without a partial parallel pass, and a refused batch adds
    nothing to {!queries}. *)
val query_batch :
  t -> (string * bool) list list -> (string * bool) list list

(** [query_packed t qs] runs the packed queries [qs] (each a
    {!Bitpack} vector of [List.length (input_names t)] bits) through the
    pipeline and returns the packed replies in request order.  Charging,
    memo and dedup are exactly those of {!query_batch}, whose memo
    entries it shares; no name is resolved and nothing is unpacked.
    @raise Invalid_argument on a vector of the wrong width or with a
    nonzero padding bit.
    @raise Budget.Exhausted past the bound budget. *)
val query_packed : t -> string array -> string array

(** [relax t] is [t] with permissive validation (shares counters, memo
    and budget with [t]). *)
val relax : t -> t

(** [with_budget budget t] is [t] charging every real evaluation to
    [budget] (shares counters and memo with [t]; memo hits stay free).
    It replaces any budget [t] was bound to. *)
val with_budget : Budget.t -> t -> t

(** [packer t names] resolves the pins of a named query listing [names]
    in that order to [t]'s input positions once, under the rules of
    {!query}: on a strict [t] a name that is not one of the inputs, or an
    input that no name assigns, raises [Invalid_argument] here; a
    relaxed [t] ignores unknown names, and the last of duplicate names
    wins.  [pack v], for [v] a {!Bitpack} vector holding the value of
    the [k]-th name in bit [k], is then the packed query
    ({!query_packed}) that the named query resolves to, and each such
    query adds the inputs it leaves unassigned to
    [oracle.partial_defaults], as {!query} does.  When [names] are
    exactly {!input_names}, [pack v] is [v].
    @raise Invalid_argument from [pack] on a vector that is not
    [List.length names] packed bits. *)
val packer : t -> string list -> string -> string

(** Real evaluations performed (memo hits and refused batches
    excluded). *)
val queries : t -> int

(** Queries answered from the memo. *)
val memo_hits : t -> int

(** Memo entries evicted under [~memo_cap] (0 when unbounded). *)
val memo_evictions : t -> int

(** Input names, in packing order: a netlist's sources (inputs + FF
    pseudo-inputs) in declaration order, or the [inputs] of
    {!of_packed}. *)
val input_names : t -> string list

(** Output names, in reply order: a netlist's {!Netlist.outputs}, or
    the [outputs] of {!of_packed}. *)
val output_names : t -> string list
