(** Gate-level sequential netlists.

    A netlist is a mutable graph of nodes identified by dense integer ids.
    Node kinds are primary inputs, constants, combinational gates, withheld
    LUTs (Sec. V-D of the paper), and D flip-flops.  A flip-flop node's
    single fanin is its D pin and the node's own value is its Q output; all
    flip-flops share one implicit clock.  Primary outputs are named pointers
    to driver nodes.

    The locking transforms of {!Gklock_locking} work by splicing nodes into
    fanin arrays ({!set_fanin}) and by redirecting outputs; they never need
    to delete nodes.  Optimization passes that do remove logic
    ({!Gklock_flow.Synth}) mark nodes [Dead] and then {!compact}. *)

type kind =
  | Input
  | Const of bool
  | Gate of Cell.gate_fn
  | Lut of bool array
      (** withheld lookup table; [Lut tt] with [n] fanins has
          [Array.length tt = 1 lsl n], indexed with fanin 0 as the least
          significant bit *)
  | Ff  (** D flip-flop: fanins = [[| d |]], value is Q *)
  | Dead  (** removed by an optimization pass; never referenced *)

type node = private {
  id : int;
  mutable name : string;
  mutable kind : kind;
  mutable fanins : int array;
  mutable cell : Cell.t option;
}

type t

(** {1 Construction} *)

(** [create name] is an empty netlist called [name]. *)
val create : string -> t

val name : t -> string

(** [add_input t n] adds primary input [n].
    @raise Invalid_argument if the name is taken. *)
val add_input : t -> string -> int

(** [add_const t b] adds (or reuses) the constant-[b] node. *)
val add_const : t -> bool -> int

(** [add_gate t ?name ?cell fn fanins] adds a combinational gate.  When
    [cell] is omitted the default library cell for [fn] and the arity is
    bound.  @raise Invalid_argument on an illegal arity or unknown fanin. *)
val add_gate : t -> ?name:string -> ?cell:Cell.t -> Cell.gate_fn -> int array -> int

(** [add_lut t ?name ~truth fanins] adds a withheld LUT node. *)
val add_lut : t -> ?name:string -> truth:bool array -> int array -> int

(** [add_ff t ?name d] adds a D flip-flop fed by node [d]. *)
val add_ff : t -> ?name:string -> int -> int

(** [add_output t n driver] declares primary output [n] driven by [driver].
    The duplicate check is one lookup in an output-name index, so adding
    [k] outputs costs O(k), not O(k{^ 2}).  A name freed by
    {!remove_output} can be added again.
    @raise Invalid_argument if an output named [n] exists. *)
val add_output : t -> string -> int -> unit

(** {1 Access} *)

val node : t -> int -> node

(** Number of node slots, including dead ones; valid ids are
    [0 .. num_nodes - 1]. *)
val num_nodes : t -> int

(** [find t n] is the id of the node named [n]. *)
val find : t -> string -> int option

val outputs : t -> (string * int) list

(** [set_output_driver t po_name driver] redirects a primary output. *)
val set_output_driver : t -> string -> int -> unit

(** [remove_output t po_name] deletes a primary-output declaration (the
    driver node itself is untouched).  @raise Invalid_argument if no such
    output exists. *)
val remove_output : t -> string -> unit

val inputs : t -> int list
(** Primary-input ids in declaration order. *)

val ffs : t -> int list
(** Flip-flop ids in declaration order. *)

val is_comb : node -> bool
(** True for [Gate] and [Lut] nodes. *)

(** {1 Mutation} *)

(** [set_fanin t ~node_id ~pin ~driver] rewires one fanin pin. *)
val set_fanin : t -> node_id:int -> pin:int -> driver:int -> unit

(** [widen_gate t ~node_id ~extra_driver] appends one fanin to a variadic
    gate ([And]/[Or]/[Nand]/[Nor]/[Xor]/[Xnor]) and rebinds its cell for
    the new arity.  @raise Invalid_argument on fixed-arity kinds. *)
val widen_gate : t -> node_id:int -> extra_driver:int -> unit

(** [set_gate_fn t ~node_id fn] replaces a [Gate] node's function in place
    (same fanins) and rebinds its default library cell — the "swap cell
    type" mutation of the differential fuzzer.  @raise Invalid_argument on
    non-gates or an illegal arity for [fn]. *)
val set_gate_fn : t -> node_id:int -> Cell.gate_fn -> unit

(** [rename t id n] renames a node.  @raise Invalid_argument if taken. *)
val rename : t -> int -> string -> unit

(** [kill t id] marks a node [Dead].  The caller must have removed every
    reference first ({!fanout_table} helps). *)
val kill : t -> int -> unit

(** [replace_uses t [(old, new); ...]] redirects every fanin pin and
    output that references an [old] id to its [new] id, for all pairs in
    one pass over the netlist — O(nodes + pins + outputs + pairs) however
    many pairs there are.  The substitution is simultaneous: a [new] id
    that is also some pair's [old] id is not redirected again, so for
    pairs whose [new] ids are not [old] ids the result equals one call per
    pair in any order.  Callers that redirect many nodes at once
    ({!Combinationalize.run}, KEYGEN stripping, key fixing) pass them all
    in one call; a pass whose next redirect depends on the previous one
    (constant folding) calls it once per redirect.
    @raise Invalid_argument on an unknown id or an [old] id listed twice. *)
val replace_uses : t -> (int * int) list -> unit

(** {1 Whole-netlist operations} *)

(** Deep copy (ids preserved). *)
val copy : t -> t

(** [compact t] is a fresh netlist without [Dead] slots.  Returns the new
    netlist and the old-id → new-id mapping ([-1] for dead nodes). *)
val compact : t -> t * int array

(** [fanout_table t] maps each id to the list of (consumer id, pin)
    pairs; primary outputs are not included.  The array is memoized inside
    the netlist (see {!generation}) and shared between callers — treat it
    as read-only. *)
val fanout_table : t -> (int * int) list array

(** {1 Memoized analyses}

    Structural analyses ({!comb_topo_order}, {!fanout_table}, {!levels})
    and the compiled {!Engine} are cached inside the netlist record.  Every
    mutation (adding nodes or outputs, rewiring fanins or output drivers,
    renaming, killing) bumps a generation counter which lazily invalidates
    all caches, so repeated queries between mutations cost one array
    read. *)

(** [generation t] is the mutation counter; it increases on every
    structural change.  Snapshot it to detect staleness of derived data. *)
val generation : t -> int

(** [levels t] is the combinational depth per node id: 0 for sources
    (inputs, constants, flip-flop Q pins), [1 + max fanin level] for
    gates/LUTs, and [-1] for dead nodes.  Memoized; treat as read-only. *)
val levels : t -> int array

(** [validate t] checks arities, fanin references, LUT sizes, and
    combinational acyclicity.  @raise Failure with a diagnostic if broken. *)
val validate : t -> unit

(** [comb_topo_order t] lists every combinational node ([Gate]/[Lut]) such
    that each appears after all of its combinational fanins.  Sources
    (inputs, constants, flip-flop Q outputs) are omitted.  Sequential loops
    through flip-flops are legal; a purely combinational cycle raises
    [Failure].  Memoized. *)
val comb_topo_order : t -> int list

(** Same order as {!comb_topo_order}, as a memoized array — the form the
    inner evaluation loops want.  Treat as read-only. *)
val comb_topo_array : t -> int array

(** [eval_comb t assignment] evaluates every node given Boolean values for
    inputs, constants and flip-flop outputs: [assignment id] must be
    provided for [Input] and [Ff] nodes, and is the node's value.  The
    result array is indexed by id (dead nodes map to [false]).  Used as the
    zero-delay functional semantics and as the SAT-attack oracle.
    Implemented as lane 0 of a one-word {!Engine.eval_block} in a fresh
    buffer, so it is safe on a shared engine. *)
val eval_comb : t -> (int -> bool) -> bool array

(** {1 Bit-parallel evaluation engine}

    The engine compiles a netlist once into a flat instruction stream
    (fused arity-specialised opcodes, pre-resolved fanin offsets, LUT
    tables) and evaluates [n_words * ]{!Engine.word_bits} stimulus
    patterns per pass with {!Engine.eval_block}, one pattern per bit of
    a native [int].  That is the engine's only evaluation function;
    {!eval_comb} is its one-pattern, node-id-indexed convenience.
    Compilation is memoized behind the netlist's {!generation} counter:
    {!Engine.get} recompiles only after a mutation.

    {2 Slot-dense layout}

    Values live in dense {e slots} ordered like the instruction stream,
    not in node-id order: sources take slots [0 .. n_srcs - 1] in
    declaration order (so source [i] of {!Engine.sources} is slot [i]),
    constants the next few, and instruction [i] writes the next slot
    after those — the hot loop writes memory sequentially and every
    fanin read is a lower slot.  Instructions are emitted in an
    opcode-affinity order (a topological order that runs instructions of
    the same fused opcode back to back), so slots follow that order, not
    {!comb_topo_order}.  Every slot, interior ones included, is readable
    after a pass (translate with {!Engine.slot_of_id}); buffers come from
    reusable {!Engine.scratch}es, so steady-state evaluation allocates
    nothing. *)
module Engine : sig
  type engine

  (** Reusable slot-indexed evaluation buffers tied to one engine.  The
      engine lazily owns one (used when [?scratch] is omitted); create
      independent scratches with {!create_scratch} to evaluate the same
      engine from several domains at once.  Opaque: only the engine
      writes into it. *)
  type scratch

  (** Lanes per word = [Sys.int_size] (63 on 64-bit platforms). *)
  val word_bits : int

  (** [get t] is the compiled engine for [t], memoized until the next
      mutation of [t]. *)
  val get : t -> engine

  (** The netlist generation the engine was compiled at. *)
  val generation : engine -> int

  (** Ids of the [Input] and [Ff] nodes, in declaration order — exactly the
      sources {!eval_block}'s [fill] writes.  Source [i] occupies slot
      [i]. *)
  val sources : engine -> int array

  (** Number of live value slots (sources + constants + instructions).
      Slot-indexed result buffers have at least this many slots. *)
  val n_slots : engine -> int

  (** [slot_of_id e] maps node id to slot ([-1] for dead nodes).
      Memoized inside the engine — treat as read-only. *)
  val slot_of_id : engine -> int array

  (** A fresh scratch for [e] — required when several domains evaluate
      the same engine concurrently (the engine-owned default scratch is
      not domain-safe).
      @raise Invalid_argument when passed to a different engine. *)
  val create_scratch : engine -> scratch

  (** [eval_block ?scratch e ~n_words ~fill] evaluates
      [n_words * word_bits] stimulus lanes in one pass over the
      instruction stream.  The block buffer packs [n_words] consecutive
      words per slot: word [k] of slot [s] lives at [s * n_words + k].
      [fill buf] must write the stimulus words for each source [i] of
      {!sources} at [i * n_words + k]; the source region is pre-zeroed,
      so unfilled words evaluate with all-false inputs.  Constants
      broadcast to every lane.  Returns the scratch's block buffer,
      valid until the next evaluation on that scratch.
      @raise Invalid_argument if [n_words < 1]. *)
  val eval_block :
    ?scratch:scratch -> engine -> n_words:int -> fill:(int array -> unit) ->
    int array

  (** Number of set bits in a word (lanes at 1).  Branch-free SWAR. *)
  val popcount : int -> int

  (** [random_word rng] draws {!word_bits} uniform stimulus bits. *)
  val random_word : Random.State.t -> int
end

val pp_kind : Format.formatter -> kind -> unit
val pp_node : Format.formatter -> node -> unit
