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

(** [to_cnf net] encodes into a fresh passive {!Cnf} (for DIMACS export and
    tests); returns the formula and the node → variable map. *)
val to_cnf : Netlist.t -> Cnf.t * int array
