(** Exhaustive oracle-guided key search, for validating the smarter
    attacks on small keys (≤ 20 bits). *)

type outcome = {
  keys_tested : int;
  found : Key.assignment option;  (** first key consistent on all samples *)
}

(** [exec ~budget ~locked ~key_inputs ~oracle ()] tests every key vector
    against the chip on [samples] random input vectors each (batched
    through the 63-lane engine path), charging one {!Budget.tick} per
    key.  [seed] defaults to {!Fuzz_seed.value}. *)
val exec :
  ?samples:int ->
  ?seed:int ->
  budget:Budget.t ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:Oracle.t ->
  unit ->
  outcome
