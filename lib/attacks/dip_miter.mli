(** The DIP miter that {!Sat_attack} and {!Appsat} share.

    Two {!Tseitin.encode} copies of the locked netlist over shared X
    input variables, each with its own key vector, required by
    {!Tseitin.miter} to disagree on some output: a model is a
    distinguishing input pattern (DIP).  Each DIP and the chip's reply
    become one I/O constraint per key vector, encoded by
    {!Tseitin.assert_io} under the DIP's X values, so a constraint costs
    only the key cone that the DIP leaves undecided.  The cone
    ({!Tseitin.io_cone} with the X inputs pinned) is built once per
    miter, and each DIP folds it once for both key vectors.

    Only the key inputs' forward cone can differ between the copies, so
    the second copy is that cone alone: every node outside it takes the
    first copy's variable and adds no clauses, and an output outside it
    drops out of the miter.  The miter is equisatisfiable with one over
    two full copies, and every DIP it returns is a DIP of that one.  On
    a GK lock (the paper's Sec. VI) the first solve is still the whole
    attack (UNSAT, no DIP, no constraint), but it no longer has to prove
    the copies' key-independent logic equal.

    The miter clause is guarded by an activation literal.  {!solve}
    assumes it; {!key} solves the same solver under its negation, where
    only the I/O constraints bind the key vectors. *)

type t

(** [x_inputs locked ~key_inputs] is every input of [locked] not named in
    [key_inputs], in {!Netlist.inputs} order: the X inputs a DIP assigns. *)
val x_inputs : Netlist.t -> key_inputs:string list -> int list

(** [named_oracle locked ~key_inputs f] is the chip of [locked] that the
    named function [f] answers (the frame-by-frame chips of {!Tcf} and
    {!Seq_attack}): an {!Oracle.of_packed} over the {!x_inputs} and the
    outputs of [locked].  A query runs [f] on its X values, named in
    {!x_inputs} order, and packs [f]'s reply by output name, the first
    of duplicate names winning.
    @raise Invalid_argument from a query whose reply lacks an output,
    naming it, as {!io} does. *)
val named_oracle :
  Netlist.t ->
  key_inputs:string list ->
  ((string * bool) list -> (string * bool) list) ->
  Oracle.t

(** [create locked ~key_inputs] builds the miter over the
    {!x_inputs}; [locked] must be combinational. *)
val create : Netlist.t -> key_inputs:string list -> t

(** The X input names, in {!Netlist.inputs} order: the order of a DIP. *)
val x_names : t -> string list

(** [solve t ~iter] searches for the next DIP, in an [attack.solve] span
    that closes with the search's [conflicts], [propagations] and
    [learnts]. *)
val solve : t -> iter:int -> Solver.result

(** The DIP of the last [Sat] answer of {!solve}. *)
val dip : t -> (string * bool) list

(** CDCL conflicts of the DIP searches ({!solve}) so far. *)
val conflicts : t -> int

(** The miter's solver, for its counters ({!Solver.num_vars},
    {!Solver.propagations}, ...).  A clause added to it binds the
    attack. *)
val solver : t -> Solver.t

(** [key t] solves the miter's solver under the guard's negation, so
    only the I/O constraints bind the keys, and returns the first key
    vector of the model, in [key_inputs] order: a key consistent with
    every DIP and reply so far.  [None] if there is none (the chip's
    replies contradict the netlist).  Its conflicts do not count in
    {!conflicts}, and it runs in no span.  Invalidates {!dip}. *)
val key : t -> Key.assignment option

(** One DIP and the chip's reply to it, as the encoder's pins. *)
type io

(** [io t dip reply] pins [dip] (X values in {!x_names} order) and the
    reply's value of every output of the locked netlist.
    @raise Invalid_argument if [reply] lacks one of those outputs. *)
val io : t -> (string * bool) list -> (string * bool) list -> io

(** [constrain t io] asserts [io] on both key vectors of the miter: one
    {!Tseitin.assert_io} call with one copy per key vector. *)
val constrain : t -> io -> unit

(** [iteration t ~args f] runs [f ()], one DIP's work, in an
    [attack.iteration] span that closes with the [vars] and [clauses] it
    added to the miter solver (also when [f] raises). *)
val iteration : t -> args:(string * Cjson.t) list -> (unit -> unit) -> unit
