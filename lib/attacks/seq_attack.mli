(** Sequential SAT attack — no scan access required.

    The classic SAT attack assumes scan access (load/observe flip-flop
    state).  Without it, the attacker can still unroll the locked design
    over [k] time frames ({!Unroll}) and run the same DIP loop against
    {i input/output sequences} of the working chip started from reset.
    This is the standard "sequential SAT" / model-checking-flavoured
    variant; its power grows with [k].

    Against GK locking the conclusion is unchanged: every frame sees the
    same stable inverter whatever the key, so the unrolled miter is
    unsatisfiable at the first DIP search for every [k]. *)

type outcome = {
  sat : Sat_attack.outcome;
  frames : int;
  unrolled_inputs : int;
}

(** [exec ~budget ~k ~locked ~key_inputs ~oracle_step ()] attacks a
    {i sequential} locked netlist unrolled over [k] frames from reset;
    the unrolled DIP loop runs under [budget].  [oracle_step
    inputs_per_frame] must return the chip's output sequence: it is
    handed, for each frame, the primary-input assignment, and returns
    the per-frame outputs (a cycle-accurate black box — use
    {!oracle_of_netlist}).  Sequence queries are counted through the
    {!Oracle.of_fn} oracle that wraps it. *)
val exec :
  budget:Budget.t ->
  k:int ->
  locked:Netlist.t ->
  key_inputs:string list ->
  oracle_step:((string * bool) list list -> (string * bool) list list) ->
  unit ->
  outcome

(** [oracle_of_netlist net] wraps the original sequential design as the
    sequence oracle: cycle-simulate from the all-zero state. *)
val oracle_of_netlist :
  Netlist.t -> (string * bool) list list -> (string * bool) list list
