(** The sampled key check every oracle-guided attack ends with: random
    input vectors run through the chip and through a candidate netlist,
    and compared output by output.  [Sat_attack.verify_key] (every
    [sat] / [tcf2] / [enhanced-removal] verdict and each brute-force
    candidate), AppSAT's error estimate and the removal attack's check
    are this one function with their own seeds and rules.

    {b Packed end to end.}  The pin names are resolved once per call
    ({!Oracle.packer}, under the named edge's strict/partial rules); the
    random values are drawn into packed vectors and both sides run
    through {!Oracle.query_packed}; replies are compared bit by bit
    through an output map built once.  The draws, memo keys, charges,
    replies and [oracle.partial_defaults] counts are those of the named
    queries [List.map (fun n -> (n, Random.State.bool rng)) drive] (one
    per sample, drawn in order) sent to [Oracle.query_batch] on the chip
    and, with [fixed] appended, on the candidate. *)

(** [mismatches ~rng ~samples ~chip ~candidate ~drive ~fixed ~missing]
    draws [samples] vectors over the input names [drive] from [rng],
    asks [chip] for them and [candidate] for them with the assignment
    [fixed] appended (a key; later names win), and returns the samples
    on which the two replies differ, in sample order.  A reply differs
    when some output of the chip has another value in the candidate's
    reply; a chip output the candidate lacks is a difference exactly
    when [missing].  Each sample comes as its named vector over [drive]
    and the chip's named reply, built only when forced.

    The chip is asked first and the candidate's names are resolved only
    after the chip has answered, so a budget that refuses the chip's
    batch leaves the candidate untouched.
    @raise Invalid_argument as {!Oracle.query_batch} would on a strict
    oracle that the names do not fit.
    @raise Budget.Exhausted past either oracle's bound budget. *)
val mismatches :
  rng:Random.State.t ->
  samples:int ->
  chip:Oracle.t ->
  candidate:Oracle.t ->
  drive:string list ->
  fixed:(string * bool) list ->
  missing:bool ->
  ((string * bool) list * (string * bool) list) Lazy.t list
