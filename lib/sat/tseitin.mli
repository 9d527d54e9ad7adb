(** Tseitin encoding of combinational netlists into a {!Solver}.

    Each node gets one solver variable; every gate contributes the standard
    constraint clauses.  Sharing is explicit: the [shared] callback lets the
    SAT attack put two copies of a locked netlist over the same primary
    input variables while keeping their key variables distinct, and lets
    the second copy reuse every node of the first that the keys cannot
    reach. *)

(** [encode solver net ~shared] adds clauses for every live node of the
    combinational netlist [net] and returns the node-id → variable map.
    [shared id] may return an existing solver variable to use for node
    [id]; otherwise a fresh variable is allocated and the node's gate
    clauses are added over its fanins' variables.  A node whose variable
    [shared] supplies gets no clauses: the caller has already constrained
    that variable, for instance as the same node of an earlier copy over
    the same fanins.  An [Input] node has no clauses either way.
    Constants are pinned with unit clauses.

    @raise Invalid_argument if [net] still contains flip-flops. *)
val encode : Solver.t -> Netlist.t -> shared:(int -> int option) -> int array

(** [miter ?guard solver pairs] asserts that at least one pair of
    variables differs: for each [(a, b)] in order with [a <> b] it
    allocates a fresh [d] with [d <-> a xor b], then adds the clause over
    every [d].  A pair of one variable can never differ and is dropped.
    The SAT attack and its relatives pass the outputs of two circuit
    copies.  With no pairs left the added clause is empty, so the solver
    becomes UNSAT.

    With [guard] the clause also holds [not guard]: it binds only while
    [guard] is assumed true, and solving under [not guard] leaves the rest
    of the formula free of it.  With no pairs left it is then the unit
    [not guard], and only a solve under [guard] is UNSAT. *)
val miter : ?guard:Lit.t -> Solver.t -> (int * int) list -> unit

(** [encode_simple solver net] is {!encode} with no sharing. *)
val encode_simple : Solver.t -> Netlist.t -> int array

(** The fixed part of a run of I/O constraints on one netlist: which
    inputs a pattern assigns, the forward cone of every other input (the
    only nodes whose value a pattern can leave open), and the scratch
    arrays a constraint folds into.  Built once per attack; not safe to
    share between domains. *)
type io_cone

(** [io_cone net ~pinned] prepares I/O constraints on the combinational
    [net] whose patterns assign the inputs [pinned], in that order.
    Every other input is symbolic.  The cone is the symbolic inputs and
    every gate or LUT over one of its nodes.
    @raise Invalid_argument if [net] still contains flip-flops or a
    [pinned] node is not an input. *)
val io_cone : Netlist.t -> pinned:int array -> io_cone

(** Whether node [id] is in the cone: the forward cone of the inputs
    with no value. *)
val in_cone : io_cone -> int -> bool

(** [assert_io solver c ~copies ~x ~outputs] asserts the I/O constraint
    [net(x, K) = y] once per element of [copies]: [x.(i)] is the value of
    the [i]th pinned input of [c], and [outputs] pairs output driver ids
    with their required values [y].  In copy [shared], [shared id] may
    bind a symbolic input to an existing variable (a key bit), and
    otherwise it gets a fresh one.

    The pattern's values are folded in once, before anything is
    encoded.  One {!Netlist.Engine} evaluation gives every node outside
    the cone its value, and a forward pass over the cone propagates them
    as constants.  Then, per copy, a reverse pass marks the fan-in cone
    of the outputs that still depend on a symbolic input, and a forward
    pass encodes only the non-constant nodes of that cone: a node equal
    to one symbolic fanin up to a sign ([Buf], [Not], a gate whose other
    fanins are all known) reuses that fanin's literal, and every other
    node gets one fresh variable and the {!encode} clauses over its
    symbolic fanins.  Each symbolic output then gets one unit clause; a
    known output that disagrees with [y] makes [solver] UNSAT.  For every
    assignment of the symbolic inputs each copy is satisfiable exactly
    when {!encode} plus unit pins on [x] and [y] is.  The copies are
    encoded one after the other, each exactly as it would be alone.

    @raise Invalid_argument if [x] has not one value per pinned input. *)
val assert_io :
  Solver.t ->
  io_cone ->
  copies:(int -> int option) list ->
  x:bool array ->
  outputs:(int * bool) array ->
  unit

(** [to_cnf net] encodes into a fresh passive {!Cnf} (for DIMACS export and
    tests); returns the formula and the node → variable map. *)
val to_cnf : Netlist.t -> Cnf.t * int array
