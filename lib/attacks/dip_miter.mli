(** The DIP miter that {!Sat_attack} and {!Appsat} share.

    Two full {!Tseitin.encode} copies of the locked netlist over shared X
    input variables, each with its own key vector, required by
    {!Tseitin.miter} to disagree on some output: a model is a
    distinguishing input pattern (DIP).  Each DIP and the chip's reply
    become one I/O constraint per key vector, encoded by
    {!Tseitin.assert_io} under the DIP's X values, so a constraint costs
    only the key cone that the DIP leaves undecided.

    The miter copies stay full: their X inputs are free, so nothing
    folds.  A first solve therefore depends on the miter alone, and on a
    GK lock (the paper's Sec. VI) that first solve is the whole attack:
    UNSAT, no DIP, no constraint. *)

type t

(** [x_inputs locked ~key_inputs] is every input of [locked] not named in
    [key_inputs], in {!Netlist.inputs} order: the X inputs a DIP assigns. *)
val x_inputs : Netlist.t -> key_inputs:string list -> int list

(** [create locked ~key_inputs] builds the miter over the
    {!x_inputs}; [locked] must be combinational. *)
val create : Netlist.t -> key_inputs:string list -> t

(** The X input names, in {!Netlist.inputs} order: the order of a DIP. *)
val x_names : t -> string list

(** [solve t ~iter] searches for the next DIP, in an [attack.solve] span
    that closes with the search's [conflicts] and [propagations]. *)
val solve : t -> iter:int -> Solver.result

(** The DIP of the last [Sat] answer of {!solve}. *)
val dip : t -> (string * bool) list

(** CDCL conflicts of the miter solver so far. *)
val conflicts : t -> int

(** One DIP and the chip's reply to it, as the encoder's pins. *)
type io

(** [io t dip reply] pins [dip] (X values in {!x_names} order) and the
    reply's value of every output of the locked netlist.
    @raise Invalid_argument if [reply] lacks one of those outputs. *)
val io : t -> (string * bool) list -> (string * bool) list -> io

(** [constrain t io] asserts [io] on both key vectors of the miter. *)
val constrain : t -> io -> unit

(** [iteration t ~args f] runs [f ()], one DIP's work, in an
    [attack.iteration] span that closes with the [vars] and [clauses] it
    added to the miter solver (also when [f] raises). *)
val iteration : t -> args:(string * Cjson.t) list -> (unit -> unit) -> unit

(** A key store: a solver holding one key vector and I/O constraints
    only, from which a key consistent with every constraint is read. *)
type store

val store : t -> store

(** [add store io] asserts [io] on the store's key vector. *)
val add : store -> io -> unit

(** A key satisfying every constraint added so far, in [key_inputs]
    order; [None] if there is none. *)
val key : store -> Key.assignment option
