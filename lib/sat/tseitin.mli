(** Tseitin encoding of combinational netlists into a {!Solver}.

    Each node gets one solver variable; every gate contributes the standard
    constraint clauses.  Sharing is explicit: the [shared] callback lets the
    SAT attack put two copies of a locked netlist over the same primary
    input variables while keeping their key variables distinct. *)

(** [encode solver net ~shared] adds clauses for every live node of the
    combinational netlist [net] and returns the node-id → variable map.
    [shared id] may return an existing solver variable to use for node [id]
    (only sensible for [Input] nodes); otherwise fresh variables are
    allocated.  Constants are pinned with unit clauses.

    @raise Invalid_argument if [net] still contains flip-flops. *)
val encode : Solver.t -> Netlist.t -> shared:(int -> int option) -> int array

(** [miter solver pairs] asserts that at least one pair of variables
    differs: for each [(a, b)] in order it allocates a fresh [d] with
    [d <-> a xor b], then adds the clause over every [d].  The SAT attack
    and its relatives pass the outputs of two circuit copies.  With no
    pairs the added clause is empty, so the solver becomes UNSAT. *)
val miter : Solver.t -> (int * int) list -> unit

(** [encode_simple solver net] is {!encode} with no sharing. *)
val encode_simple : Solver.t -> Netlist.t -> int array

(** [assert_io solver net ~shared ~inputs ~outputs] asserts one I/O
    constraint [net(x, K) = y]: [inputs] pairs input node ids with their
    values in the pattern [x], and [outputs] pairs output driver ids with
    their required values [y].  An input outside [inputs] is symbolic:
    [shared id] may bind it to an existing variable (a key bit), and
    otherwise it gets a fresh one.

    The pattern's values are folded in before anything is encoded.  A
    forward pass propagates them as constants, a reverse pass marks the
    fan-in cone of the outputs that still depend on a symbolic input,
    and a forward pass encodes only the non-constant nodes of that cone:
    a node equal to one symbolic fanin up to a sign ([Buf], [Not], a gate
    whose other fanins are all known) reuses that fanin's literal, and
    every other node gets one fresh variable and the {!encode} clauses
    over its symbolic fanins.  Each symbolic output then gets one unit
    clause; a known output that disagrees with [y] makes [solver] UNSAT.
    For every assignment of the symbolic inputs the result is satisfiable
    exactly when {!encode} plus unit pins on [x] and [y] is.

    @raise Invalid_argument if [net] still contains flip-flops. *)
val assert_io :
  Solver.t ->
  Netlist.t ->
  shared:(int -> int option) ->
  inputs:(int * bool) array ->
  outputs:(int * bool) array ->
  unit

(** [to_cnf net] encodes into a fresh passive {!Cnf} (for DIMACS export and
    tests); returns the formula and the node → variable map. *)
val to_cnf : Netlist.t -> Cnf.t * int array
