(** Timed-characteristic-function style two-pattern SAT (Sec. V-B).

    Ho et al. [3] extend SAT-based test generation to delay defects by
    modelling two consecutive input patterns (the launch and capture
    frames) so rising/falling transitions become visible to the solver.
    The paper's Sec. V-B argues even this cannot model a glitch: the value
    "on the level of the glitch" exists in neither stable frame.

    We reproduce the argument constructively: {!exec} runs the
    SAT attack on a two-frame unrolling of the locked netlist — every
    primary input appears as a launch-frame and a capture-frame copy
    sharing one key vector, and outputs of both frames are observable.
    This gives the attacker strictly more distinguishing power than the
    single-frame attack (it can see transitions); on XOR/MUX-locked
    circuits it recovers keys just as well, and on GK-locked circuits it
    still finds no DIP, because both frames see the same stable inverter. *)

type outcome = {
  sat : Sat_attack.outcome;
  frame_inputs : int;  (** PIs of the unrolled netlist (2× the original) *)
}

(** [exec ~budget ~locked ~key_inputs ~oracle ()] runs the SAT attack
    on [unroll locked ~key_inputs] under [budget].  [oracle] is the
    single-frame chip oracle; the two-frame oracle
    ({!Dip_miter.named_oracle} over the unrolled netlist) is derived by
    querying it on each frame, so each unrolled query fans out into one
    (counted, memoized) chip query per frame, [f1]'s first. *)
val exec :
  budget:Budget.t ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle:Oracle.t ->
  unit ->
  outcome

(** [unroll locked ~key_inputs] is the two-frame netlist: inputs
    [f0_<pi>] / [f1_<pi>], outputs [f0_<po>] / [f1_<po>], key inputs
    shared under their original names.  Every input of [locked] is a
    pin of each frame, one that reaches no output too. *)
val unroll : Netlist.t -> key_inputs:string list -> Netlist.t
