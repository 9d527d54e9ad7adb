(** AppSAT — approximate SAT attack (Shamsi et al. [10]).

    The paper cites AppSAT as the attack that "exploited the dependence on
    other encryption techniques" of SARLock/Anti-SAT-style compound
    locking: instead of pruning every wrong key (exponential against
    point functions), AppSAT runs the DIP loop but periodically extracts
    the current candidate key and estimates its error rate on random
    oracle queries, stopping as soon as the candidate is almost-correct.
    Against SARLock + conventional locking this recovers the conventional
    part in a handful of iterations, reducing the compound scheme to its
    point-function rump.

    Failing random queries are added to the constraint store (the AppSAT
    refinement), so the candidate improves monotonically. *)

type outcome = {
  key : Key.assignment;          (** the approximate key *)
  error_rate : float;            (** estimated on fresh random queries *)
  dips : int;
  random_queries : int;
  exact : bool;                  (** the miter went UNSAT: key is exact *)
}

(** [exec ~budget ~locked ~key_inputs ~oracle ()] runs the DIP loop and
    stops when the candidate key's estimated error rate is at most
    [error_threshold] (default 0.01), on exact convergence, or when
    [budget] runs out (one {!Budget.tick} per DIP; queries are charged
    by an oracle bound to [budget]).  Checks every [check_every] DIPs
    (default 4) with [queries_per_check] random queries (default 50),
    batched through the 63-lane engine path.  [seed] defaults to
    {!Fuzz_seed.value}.
    @raise Invalid_argument on a sequential [locked]. *)
val exec :
  ?check_every:int ->
  ?error_threshold:float ->
  ?queries_per_check:int ->
  ?seed:int ->
  budget:Budget.t ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:Oracle.t ->
  unit ->
  outcome
