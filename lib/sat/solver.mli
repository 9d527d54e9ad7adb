(** A CDCL SAT solver.

    Stand-in for the MiniSat-class solver inside the SAT-attack tool of
    Subramanyan et al. [11]: two-watched-literal propagation, first-UIP
    conflict learning, VSIDS branching with phase saving, and Luby
    restarts.  Clauses may be added between [solve] calls (the attack adds
    two circuit copies per DIP iteration), and [solve] accepts assumptions
    for one-off queries.

    Layout.  A clause is one plain [int array] of literals ({!Lit.t}
    encoding: [2v] / [2v+1]); a clause ref is its index in a growable
    array of clauses, and each variable's reason is such a ref (or -1).
    Watch lists are per-literal [int array]s of refs with separate
    lengths, compacted in place during propagation, which reports a
    conflict as a ref rather than an exception.  Values are kept per
    literal (-1 unassigned, 0 false, 1 true); the trail, the decision
    level starts and the conflict-analysis buffer are owned int arrays.
    The hot loops allocate nothing and call nothing outside this module.

    The search is the original one of this solver, decision for
    decision: the watch-visit order, watch-list order, learnt-literal
    order, activity-bump order and heap are fixed, so {!conflicts} and
    {!propagations} on a given input never change with the layout
    (pinned by the "search identity" tests). *)

type t

type result = Sat | Unsat

val create : unit -> t

(** [new_var s] allocates a fresh variable. *)
val new_var : t -> int

val num_vars : t -> int
val num_clauses : t -> int

(** [add_clause s lits] adds a clause.  Returns [false] when the clause
    makes the formula trivially unsatisfiable (empty, or conflicting unit
    at level 0) — the solver is then permanently UNSAT. *)
val add_clause : t -> Lit.t list -> bool

(** [solve ?assumptions s] decides satisfiability of all clauses added so
    far, under the given assumption literals. *)
val solve : ?assumptions:Lit.t list -> t -> result

(** [value s v] is variable [v]'s value in the model of the last [Sat]
    answer.  @raise Invalid_argument if the last call was not [Sat]. *)
val value : t -> int -> bool

(** Number of conflicts encountered so far (for reporting). *)
val conflicts : t -> int

(** Number of unit propagations performed so far. *)
val propagations : t -> int
