let m_queries = Obs.Metrics.counter "oracle.queries"
let m_memo_hits = Obs.Metrics.counter "oracle.memo_hits"
let m_memo_evictions = Obs.Metrics.counter "oracle.memo_evictions"
let m_batch_words = Obs.Metrics.counter "oracle.batch_words"
let m_batch_lanes = Obs.Metrics.counter "oracle.batch_lanes"
let m_batch_blocks = Obs.Metrics.counter "oracle.batch_blocks"
let m_shard_batches = Obs.Metrics.counter "oracle.shard_batches"
let m_shard_jobs = Obs.Metrics.counter "oracle.shard_jobs"
let m_partial_defaults = Obs.Metrics.counter "oracle.partial_defaults"

type stats = {
  mutable evals : int;
  mutable hits : int;
  mutable evictions : int;
}

(* Bounded memo: FIFO eviction (oldest inserted entry goes first) once
   [cap] entries are resident.  [fifo] mirrors the table's keys in
   insertion order exactly — a key is queued when inserted and dequeued
   only when evicted — so eviction is O(1). *)
type memo = {
  tbl : (string, string) Hashtbl.t;
  fifo : string Queue.t;
  cap : int;  (* max_int = unbounded *)
}

(* A netlist compiled for evaluation. *)
type engine_chip = {
  eng : Netlist.Engine.engine;
  sc : Netlist.Engine.scratch;  (* calling-domain scratch *)
  out_slots : int array;  (* driver slot per output, engine slot space *)
  shards : int option;  (* forced shard count; None = size-gated auto *)
}

(* What answers an oracle's misses: a query and its reply are
   packed bits ([Bitpack]), inputs in [in_names] order and outputs in
   [out_pins] order. *)
type chip =
  | Engine of engine_chip
  | Black_box of {
      one : string -> string;
      many : string array -> string array;
    }

type pos = {
  what : string;  (* "netlist s27", for messages *)
  relax_with : string;  (* how to relax it, for messages *)
  in_names : string array;
  idx_of_name : (string, int) Hashtbl.t;
  (* the only two possible entries per output of a named reply,
     preallocated and shared by every reply — replies are immutable, so
     unpacking one allocates cons cells only: output [oi] at value [b]
     is entry [2 * oi + b] *)
  out_pins : (string * bool) array;
  chip : chip;
  memo : memo option;  (* packed inputs -> packed outputs *)
}

(* [pos] is shared by every view of the oracle ({!relax},
   {!with_budget}); only the validation rule and the budget differ. *)
type t = {
  pos : pos;
  partial : bool;
  budget : Budget.t option;
  stats : stats;
}

(* Words per eval_block pass: 8 * 63 = 504 lanes per instruction-stream
   walk — deep enough to amortize the walk, shallow enough that the block
   buffer of a multi-thousand-slot engine stays cache-resident. *)
let block_words = 8

(* Auto-sharding engages when (miss lanes x engine slots) is big enough
   that per-lane work dwarfs the domain spawns. *)
let shard_work_min = 1 lsl 18

let mk_memo memo memo_cap =
  (match memo_cap with
  | Some c when c < 1 ->
    invalid_arg "Oracle: memo_cap must be >= 1 (use ~memo:false to disable)"
  | _ -> ());
  if not memo then None
  else
    Some
      {
        tbl = Hashtbl.create 256;
        fifo = Queue.create ();
        cap = (match memo_cap with Some c -> c | None -> max_int);
      }

let mk_stats () = { evals = 0; hits = 0; evictions = 0 }

let make ~partial ~what ~relax_with ~inputs ~outputs ~memo chip =
  let idx_of_name = Hashtbl.create (2 * Array.length inputs) in
  Array.iteri (fun i n -> Hashtbl.replace idx_of_name n i) inputs;
  {
    pos =
      {
        what;
        relax_with;
        in_names = inputs;
        idx_of_name;
        out_pins =
          Array.init (2 * Array.length outputs) (fun i -> (outputs.(i / 2), i land 1 = 1));
        chip;
        memo;
      };
    partial;
    budget = None;
    stats = mk_stats ();
  }

let of_netlist ?(partial = false) ?(memo = true) ?memo_cap ?shards net =
  (match shards with
  | Some s when s < 1 -> invalid_arg "Oracle.of_netlist: shards must be >= 1"
  | _ -> ());
  let memo = mk_memo memo memo_cap in
  let eng = Netlist.Engine.get net in
  let outs = Netlist.outputs net in
  let slot_of_id = Netlist.Engine.slot_of_id eng in
  make ~partial ~what:("netlist " ^ Netlist.name net)
    ~relax_with:"~partial:true"
    ~inputs:
      (Array.map
         (fun id -> (Netlist.node net id).Netlist.name)
         (Netlist.Engine.sources eng))
    ~outputs:(Array.of_list (List.map fst outs))
    ~memo
    (Engine
       {
         eng;
         sc = Netlist.Engine.create_scratch eng;
         out_slots =
           Array.of_list (List.map (fun (_, d) -> slot_of_id.(d)) outs);
         shards;
       })

let of_packed ?(memo = true) ?memo_cap ~name ~inputs ~outputs ~batch fn =
  make ~partial:false ~what:name ~relax_with:"Oracle.relax"
    ~inputs:(Array.of_list inputs) ~outputs:(Array.of_list outputs)
    ~memo:(mk_memo memo memo_cap)
    (Black_box { one = fn; many = batch })

let relax t = { t with partial = true }
let with_budget budget t = { t with budget = Some budget }
let queries t = t.stats.evals
let memo_hits t = t.stats.hits
let memo_evictions t = t.stats.evictions

let n_outputs p = Array.length p.out_pins / 2

let input_names t = Array.to_list t.pos.in_names
let output_names t = List.init (n_outputs t.pos) (fun oi -> fst t.pos.out_pins.(2 * oi))

(* ----- the named edge ----- *)

(* The input position that a named query's pin [name] assigns, [-1] for
   a name [p] lacks.  [next] is one past the previous pin's position:
   queries are usually built by mapping over {!input_names}, i.e. pins
   arrive in declaration order, so the next expected source is checked
   before paying a hash lookup. *)
let position p next name =
  if next < Array.length p.in_names
     && String.equal (Array.unsafe_get p.in_names next) name
  then next
  else match Hashtbl.find_opt p.idx_of_name name with Some i -> i | None -> -1

let unknown_input p name =
  invalid_arg
    (Printf.sprintf
       "Oracle.query: unknown input %S for %s (use %s to ignore stray names)"
       name p.what p.relax_with)

let no_value p i =
  invalid_arg
    (Printf.sprintf
       "Oracle.query: no value for input %S of %s (use %s to read missing \
        inputs as false)"
       p.in_names.(i) p.what p.relax_with)

(* A named query's packed input bits, which are also its memo key: two
   queries that resolve to the same effective assignment share an entry
   whatever order (or duplicates, last one wins) the caller listed the
   pins in. *)
let resolve t p q =
  let n = Array.length p.in_names in
  let vals = Bytes.make (Bitpack.bytes n) '\000' in
  (* [seen] is tracked even in partial mode so defaulted reads are
     counted rather than silently folded into the key: a relaxed query
     that omits an FF pseudo-input (whose init is undefined in the
     source netlist) still reads a deterministic false, but every such
     read now shows up in oracle.partial_defaults. *)
  let seen = Bytes.make n '\000' in
  let next = ref 0 in
  List.iter
    (fun (name, v) ->
      let i = position p !next name in
      if i >= 0 then begin
        next := i + 1;
        (* the bit is cleared, then set from [v] with a mask: a random
           pin value costs no mispredicted branch *)
        let byte = i lsr 3 and m = 1 lsl (i land 7) in
        let c = Char.code (Bytes.unsafe_get vals byte) in
        Bytes.unsafe_set vals byte
          (Char.unsafe_chr (c land lnot m lor (-Bool.to_int v land m)));
        Bytes.unsafe_set seen i '\001'
      end
      else if not t.partial then unknown_input p name)
    q;
  if t.partial then begin
    let defaulted = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get seen i = '\000' then incr defaulted
    done;
    if !defaulted > 0 then Obs.Metrics.add m_partial_defaults !defaulted
  end
  else
    for i = 0 to n - 1 do
      if Bytes.get seen i = '\000' then no_value p i
    done;
  Bytes.unsafe_to_string vals

let packer t names =
  let p = t.pos in
  let n = Array.length p.in_names in
  let names = Array.of_list names in
  let next = ref 0 in
  let pos =
    Array.map
      (fun name ->
        let i = position p !next name in
        if i >= 0 then next := i + 1
        else if not t.partial then unknown_input p name;
        i)
      names
  in
  (* only the last name that assigns a position writes it *)
  let seen = Bytes.make n '\000' in
  for k = Array.length pos - 1 downto 0 do
    let i = pos.(k) in
    if i >= 0 then
      if Bytes.get seen i = '\001' then pos.(k) <- -1
      else Bytes.set seen i '\001'
  done;
  let defaulted = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get seen i = '\000' then
      if t.partial then incr defaulted else no_value p i
  done;
  let defaulted = !defaulted in
  let width = Array.length pos in
  let check v =
    if not (Bitpack.well_formed width v) then
      invalid_arg
        (Printf.sprintf "Oracle.packer: a vector of %d bytes is not %d packed values"
           (String.length v) width);
    if defaulted > 0 then Obs.Metrics.add m_partial_defaults defaulted
  in
  if width = n && Array.for_all2 ( = ) pos (Array.init n Fun.id) then
    (* the names are the inputs, in order: the values are the query *)
    fun v -> check v; v
  else
    fun v ->
      check v;
      let vals = Bytes.make (Bitpack.bytes n) '\000' in
      for k = 0 to width - 1 do
        let i = Array.unsafe_get pos k in
        if
          i >= 0
          && Char.code (String.unsafe_get v (k lsr 3)) land (1 lsl (k land 7)) <> 0
        then
          Bytes.unsafe_set vals (i lsr 3)
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get vals (i lsr 3)) lor (1 lsl (i land 7))))
      done;
      Bytes.unsafe_to_string vals

(* A packed reply as a named one, in output order; each bit indexes
   its output's entry rather than choosing one by a branch. *)
let unpack p r =
  let l = ref [] in
  for oi = n_outputs p - 1 downto 0 do
    let bit = (Char.code (String.unsafe_get r (oi lsr 3)) lsr (oi land 7)) land 1 in
    l := Array.unsafe_get p.out_pins ((2 * oi) + bit) :: !l
  done;
  !l

(* The budget is asked first, so a batch it refuses is neither evaluated
   nor counted. *)
let charge t n =
  (match t.budget with Some b -> Budget.note_queries b n | None -> ());
  t.stats.evals <- t.stats.evals + n;
  Obs.Metrics.add m_queries n

let memo_find t memo key =
  match memo with
  | None -> None
  | Some m ->
    let r = Hashtbl.find_opt m.tbl key in
    if r <> None then begin
      t.stats.hits <- t.stats.hits + 1;
      Obs.Metrics.incr m_memo_hits
    end;
    r

let memo_add t memo key r =
  match memo with
  | None -> ()
  | Some m ->
    if not (Hashtbl.mem m.tbl key) then begin
      if m.cap < max_int then begin
        while Hashtbl.length m.tbl >= m.cap && not (Queue.is_empty m.fifo) do
          Hashtbl.remove m.tbl (Queue.pop m.fifo);
          t.stats.evictions <- t.stats.evictions + 1;
          Obs.Metrics.incr m_memo_evictions
        done;
        Queue.push key m.fifo
      end;
      Hashtbl.replace m.tbl key r
    end

(* ----- netlist evaluation -----

   Distinct misses are bit-transposed into multi-word blocks
   (block_words * 63 lanes per pass over the compiled instruction
   stream); a lone query is lane 0 of a one-word block.  When a batch is
   big enough, key resolution and block evaluation with reply packing
   are sharded across a bounded domain pool; each shard evaluates with
   its own engine scratch and allocates replies in its own minor heap,
   and all memo / stat mutation stays on the calling domain. *)

(* Bit-transpose repack, lane-major: each packed key is read
   sequentially once, and bit j of word wi of source si accumulates at
   buf.(si * nw + wi), shifted in whatever its value (no branch on a
   random bit). *)
let transpose_fill (misses : string array) ~b0 ~lanes ~nw ~n_src buf =
  let w = Netlist.Engine.word_bits in
  for wi = 0 to nw - 1 do
    let j0 = wi * w in
    let jn = min w (lanes - j0) in
    for j = 0 to jn - 1 do
      let key = misses.(b0 + j0 + j) in
      for si = 0 to n_src - 1 do
        let b = (Char.code (String.unsafe_get key (si lsr 3)) lsr (si land 7)) land 1 in
        Array.unsafe_set buf
          ((si * nw) + wi)
          (Array.unsafe_get buf ((si * nw) + wi) lor (b lsl j))
      done
    done
  done

(* Evaluate miss lanes [lane_lo, lane_hi) in blocks of at most
   [block_words] words each, writing each lane's packed reply into
   [computed].  [scratch] must be private to the caller; [computed]
   writes are race-free because lane ranges are disjoint. *)
let process_lanes e scratch ~n_src (misses : string array) ~lane_lo ~lane_hi
    computed =
  let w = Netlist.Engine.word_bits in
  let n_outs = Array.length e.out_slots in
  let lanes_per_block = block_words * w in
  let base = ref lane_lo in
  while !base < lane_hi do
    let b0 = !base in
    let lanes = min lanes_per_block (lane_hi - b0) in
    let nw = (lanes + w - 1) / w in
    let blk =
      Netlist.Engine.eval_block ~scratch e.eng ~n_words:nw
        ~fill:(transpose_fill misses ~b0 ~lanes ~nw ~n_src)
    in
    for j = 0 to lanes - 1 do
      let wi = j / w and bit = j mod w in
      let r = Bytes.create (Bitpack.bytes n_outs) in
      let byte = ref 0 in
      for oi = 0 to n_outs - 1 do
        let word =
          Array.unsafe_get blk ((Array.unsafe_get e.out_slots oi * nw) + wi)
        in
        byte := !byte lor (((word lsr bit) land 1) lsl (oi land 7));
        if oi land 7 = 7 || oi = n_outs - 1 then begin
          Bytes.unsafe_set r (oi lsr 3) (Char.unsafe_chr !byte);
          byte := 0
        end
      done;
      computed.(b0 + j) <- Bytes.unsafe_to_string r
    done;
    Obs.Metrics.incr m_batch_blocks;
    Obs.Metrics.add m_batch_words nw;
    Obs.Metrics.add m_batch_lanes lanes;
    base := b0 + lanes
  done

(* Domain pool width for a stage over [n_items] lanes: forced by
   [~shards] if given, otherwise engaged only when lanes x engine size
   is big enough to amortize the domain spawns.  A black box runs on
   the calling domain. *)
let domains_for p n_items =
  match p.chip with
  | Black_box _ -> 1
  | Engine e ->
    let wanted =
      match e.shards with
      | Some s -> s
      | None ->
        if n_items * Netlist.Engine.n_slots e.eng >= shard_work_min then
          Parallel.default_domains ()
        else 1
    in
    max 1 (min wanted n_items)

(* [f] over [0, n) in [d] disjoint ranges, one per domain. *)
let sharded d n f =
  if d <= 1 then f (0, n)
  else
    ignore
      (Parallel.map ~domains:d f
         (List.init d (fun s -> (s * n / d, (s + 1) * n / d))))

(* ----- the query pipeline -----

   Every query runs (1) canonical keys, its packed input bits, then
   [answer]:
   (2) memo lookup and in-batch dedup; (3) one charge for the distinct
   misses, before any evaluation; (4) the backend evaluates the misses;
   (5) memo write-back; then the replies are reassembled in request
   order from the evaluated array, never by re-reading the memo, which
   a capped memo may already have evicted them from.  [eval miss]
   answers the queries whose indices [miss] lists, in [miss] order. *)

(* A lone query: nothing to deduplicate, so no index table and no
   slot arrays. *)
let answer_one t memo key eval =
  match memo_find t memo key with
  | Some r -> r
  | None ->
    charge t 1;
    let r = (eval [| 0 |]).(0) in
    memo_add t memo key r;
    r

let answer t memo keys eval =
  let nq = Array.length keys in
  if nq = 1 then [| answer_one t memo keys.(0) eval |]
  else begin
    (* memo hits go straight into [replies]; every other query records
       in [slot] the distinct miss it maps to, and [miss] lists each
       distinct miss's first query *)
    let replies = Array.make nq "" in
    let slot = Array.make nq (-1) in
    let index = Hashtbl.create (2 * nq) in
    let order = ref [] and count = ref 0 in
    Array.iteri
      (fun i key ->
        match memo_find t memo key with
        | Some r -> replies.(i) <- r
        | None -> (
          match Hashtbl.find_opt index key with
          | Some mi -> slot.(i) <- mi
          | None ->
            Hashtbl.replace index key !count;
            slot.(i) <- !count;
            order := i :: !order;
            incr count))
      keys;
    let miss = Array.of_list (List.rev !order) in
    if Array.length miss > 0 then begin
      (* charged before any evaluation, so a budget cap trips without
         a wasted (possibly parallel) pass *)
      charge t (Array.length miss);
      let computed = eval miss in
      (* memo writes, on the calling domain only *)
      Array.iteri (fun mi r -> memo_add t memo keys.(miss.(mi)) r) computed;
      Array.iteri
        (fun i mi -> if mi >= 0 then replies.(i) <- computed.(mi))
        slot
    end;
    replies
  end

(* 4. the chip evaluates the misses.  A black box answers a [query]
   with [one] and everything else with [many]; its replies are checked,
   because the named edge unpacks them unchecked. *)
let eval_packed p ~scalar keys miss =
  let n_outs = n_outputs p in
  match p.chip with
  | Engine e ->
    let misses = Array.map (Array.get keys) miss in
    let n_miss = Array.length miss in
    let computed = Array.make n_miss "" in
    let ed = domains_for p n_miss in
    if ed > 1 then begin
      Obs.Metrics.incr m_shard_batches;
      Obs.Metrics.add m_shard_jobs ed
    end;
    sharded ed n_miss (fun (lo, hi) ->
        let scratch =
          if ed > 1 then Netlist.Engine.create_scratch e.eng else e.sc
        in
        process_lanes e scratch
          ~n_src:(Array.length p.in_names)
          misses ~lane_lo:lo ~lane_hi:hi computed);
    computed
  | Black_box b ->
    let rs =
      if scalar then Array.map (fun mi -> b.one keys.(mi)) miss
      else b.many (Array.map (Array.get keys) miss)
    in
    if Array.length rs <> Array.length miss then
      invalid_arg "Oracle: batch backend returned a result array of wrong size";
    Array.iter
      (fun r ->
        if not (Bitpack.well_formed n_outs r) then
          invalid_arg
            (Printf.sprintf "Oracle: %s replied with a vector of %d bytes, \
                             not %d outputs"
               p.what (String.length r) n_outs))
      rs;
    rs

let answer_packed t keys =
  answer t t.pos.memo keys (eval_packed t.pos ~scalar:false keys)

let query_packed t qs =
  let p = t.pos in
  let n = Array.length p.in_names in
  Array.iter
    (fun q ->
      if not (Bitpack.well_formed n q) then
        invalid_arg
          (Printf.sprintf
             "Oracle.query_packed: a vector of %d bytes is not %d packed \
              inputs of %s"
             (String.length q) n p.what))
    qs;
  answer_packed t qs

let query t q =
  let p = t.pos in
  let key = resolve t p q in
  unpack p (answer_one t p.memo key (eval_packed p ~scalar:true [| key |]))

let query_batch t qs =
  let p = t.pos in
  let qs = Array.of_list qs in
  let nq = Array.length qs in
  let keys = Array.make nq "" in
  sharded (domains_for p nq) nq (fun (lo, hi) ->
      for i = lo to hi - 1 do
        keys.(i) <- resolve t p qs.(i)
      done);
  Array.to_list (Array.map (unpack p) (answer_packed t keys))
