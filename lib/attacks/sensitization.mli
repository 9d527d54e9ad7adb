(** Key-sensitization attack (Rajendran et al., the pre-SAT classic).

    For each key bit in isolation, search for an input pattern that
    propagates that bit's value to a primary output while the remaining
    key bits cannot interfere; apply the pattern to the working chip and
    read the bit off the response.  Implemented SAT-style: a candidate
    pattern must make the outputs differ under the two values of the
    target bit for several sampled assignments of the other keys
    {i simultaneously} (approximating the ∀ with sampling), and the
    inferred value must be consistent across those samples.

    Conventional XOR/XNOR locking with isolated key-gates falls bit by
    bit.  GK locking is immune at a more basic level than SAT resistance:
    no output depends on the key at all in stable logic, so no pattern
    sensitizes anything — every bit comes back [unresolved]. *)

type outcome = {
  recovered : Key.assignment;    (** bits read off the chip *)
  unresolved : string list;      (** bits with no sensitizing pattern *)
  patterns_used : int;
}

(** [exec ~budget ~locked ~key_inputs ~oracle ()] attacks each key bit
    in turn, one {!Budget.tick} per bit.  Chip queries go through
    [oracle] (charged when it is bound to [budget]); attacker-side
    simulations of the locked netlist are free.  [seed] defaults to
    {!Fuzz_seed.value}.
    @raise Invalid_argument on a sequential [locked]. *)
val exec :
  ?samples_other:int ->
  ?seed:int ->
  budget:Budget.t ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:Oracle.t ->
  unit ->
  outcome
