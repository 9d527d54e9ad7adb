(** Structural analyses on netlists: levelization, cones, reachability.

    These are the graph queries the locking and attack code shares: logic
    levels feed the synthetic benchmark generator's depth control, output
    cones implement the Encrypt-Flip-Flop FF-grouping algorithm [4]
    (Table I's last column), and transitive fanin cones let the removal
    attack excise located security structures. *)

(** [levels t] assigns each node a logic level: sources (inputs, constants,
    flip-flop outputs) are level 0, a gate is one more than its deepest
    fanin.  Dead nodes get level [-1]. *)
val levels : Netlist.t -> int array

(** [depth t] is the largest level of any node feeding a primary output or a
    flip-flop D pin — the combinational depth of the circuit. *)
val depth : Netlist.t -> int

(** [output_cone t id] is the set of primary-output names transitively
    reachable from node [id], crossing flip-flop boundaries (a FF's Q
    output is reachable from its D fanin).  This is the "fanout PO set" of
    [4]. *)
val output_cone : Netlist.t -> int -> string list

(** [fanin_cone t id] is the set of node ids in the transitive combinational
    fanin of [id], including [id] itself, stopping at sources. *)
val fanin_cone : Netlist.t -> int -> int list

(** [group_ffs_by_cone t] buckets flip-flop ids by the primary outputs
    each one's Q reaches combinationally (propagation stops at flip-flop
    D pins), largest bucket first — the FF grouping of [4].  Buckets of
    equal size keep a fixed order, and each lists its flip-flops in
    declaration order, so [Ff_select] sees the same
    groups on every run.  All cones come from one reverse-topological
    pass over a flat bitset (one bit per output per node), so the cost
    is O(pins x outputs / 63), not one graph walk per flip-flop.
    @raise Failure on a combinational cycle. *)
val group_ffs_by_cone : Netlist.t -> int list list
