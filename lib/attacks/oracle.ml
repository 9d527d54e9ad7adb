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
  tbl : (string, (string * bool) list) Hashtbl.t;
  fifo : string Queue.t;
  cap : int;  (* max_int = unbounded *)
}

type net_backend = {
  net : Netlist.t;
  eng : Netlist.Engine.engine;
  sc : Netlist.Engine.scratch;  (* calling-domain scratch *)
  srcs : int array;
  src_names : string array;
  idx_of_name : (string, int) Hashtbl.t;
  outs : (string * int) list;  (* po name, driver node id *)
  out_slots : int array;  (* driver slot per output, engine slot space *)
  (* the only two possible response entries per output, preallocated and
     shared by every response list — responses are immutable, so a query
     allocates cons cells only, halving the per-query garbage *)
  out_t : (string * bool) array;
  out_f : (string * bool) array;
  shards : int option;  (* forced shard count; None = size-gated auto *)
}

(* Canonical-key state for black-box oracles: the distinct sorted name
   sets seen so far, each with a prebuilt name -> position index.  A
   query is resolved against a known set in O(n) lookups instead of the
   per-query sort + string concatenation the old fn_key paid. *)
type fn_set = {
  fs_id : int;
  fs_size : int;
  fs_idx : (string, int) Hashtbl.t;
}

type fn_backend = {
  fn : (string * bool) list -> (string * bool) list;
  fn_batch :
    ((string * bool) list list -> (string * bool) list list) option;
  mutable fn_sets : fn_set list;
  mutable fn_next_id : int;
}

type backend =
  | Net of net_backend
  | Fn of fn_backend

type t = {
  backend : backend;
  partial : bool;
  budget : Budget.t option;
  memo : memo option;
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

let of_netlist ?(partial = false) ?budget ?(memo = true) ?memo_cap ?shards net
    =
  (match shards with
  | Some s when s < 1 -> invalid_arg "Oracle.of_netlist: shards must be >= 1"
  | _ -> ());
  let eng = Netlist.Engine.get net in
  let srcs = Netlist.Engine.sources eng in
  let src_names =
    Array.map (fun id -> (Netlist.node net id).Netlist.name) srcs
  in
  let idx_of_name = Hashtbl.create (2 * Array.length srcs) in
  Array.iteri (fun i n -> Hashtbl.replace idx_of_name n i) src_names;
  let outs = Netlist.outputs net in
  let slot_of_id = Netlist.Engine.slot_of_id eng in
  let out_names = Array.of_list (List.map fst outs) in
  let out_slots =
    Array.of_list (List.map (fun (_, d) -> slot_of_id.(d)) outs)
  in
  {
    backend =
      Net
        {
          net;
          eng;
          sc = Netlist.Engine.create_scratch eng;
          srcs;
          src_names;
          idx_of_name;
          outs;
          out_slots;
          out_t = Array.map (fun n -> (n, true)) out_names;
          out_f = Array.map (fun n -> (n, false)) out_names;
          shards;
        };
    partial;
    budget;
    memo = mk_memo memo memo_cap;
    stats = { evals = 0; hits = 0; evictions = 0 };
  }

let of_fn ?budget ?(memo = true) ?memo_cap ?batch fn =
  {
    backend = Fn { fn; fn_batch = batch; fn_sets = []; fn_next_id = 0 };
    partial = true;
    budget;
    memo = mk_memo memo memo_cap;
    stats = { evals = 0; hits = 0; evictions = 0 };
  }

let relax t = { t with partial = true }
let queries t = t.stats.evals
let memo_hits t = t.stats.hits
let memo_evictions t = t.stats.evictions

let input_names t =
  match t.backend with
  | Net b -> Array.to_list b.src_names
  | Fn _ -> []

(* Canonical memo key: one char per source in id order, so two queries
   that resolve to the same effective assignment share an entry whatever
   order (or duplicates) the caller listed the pins in. *)
let resolve t b q =
  let n = Array.length b.srcs in
  let vals = Bytes.make n '0' in
  (* [seen] is tracked even in partial mode so defaulted reads are
     counted rather than silently folded into the key: a relaxed query
     that omits an FF pseudo-input (whose init is undefined in the
     source netlist) still reads a deterministic false, but every such
     read now shows up in oracle.partial_defaults. *)
  let seen = Bytes.make n '\000' in
  (* positional fast path: queries are usually built by mapping over
     {!input_names}, i.e. pins arrive in declaration order — check the
     next expected source before paying a hash lookup *)
  let next = ref 0 in
  List.iter
    (fun (name, v) ->
      let i =
        let g = !next in
        if g < n && String.equal (Array.unsafe_get b.src_names g) name then g
        else
          match Hashtbl.find_opt b.idx_of_name name with
          | Some i -> i
          | None -> -1
      in
      if i >= 0 then begin
        next := i + 1;
        Bytes.unsafe_set vals i (if v then '1' else '0');
        Bytes.unsafe_set seen i '\001'
      end
      else if not t.partial then
        invalid_arg
          (Printf.sprintf
             "Oracle.query: unknown input %S for netlist %s (use \
              ~partial:true to ignore stray names)"
             name (Netlist.name b.net)))
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
      if Bytes.get seen i = '\000' then
        invalid_arg
          (Printf.sprintf
             "Oracle.query: no value for input %S of netlist %s (use \
              ~partial:true to read missing inputs as false)"
             b.src_names.(i) (Netlist.name b.net))
    done;
  Bytes.unsafe_to_string vals

(* Canonical key for a black-box oracle: the query's effective
   assignment in sorted-name order (duplicates last-wins), prefixed by
   the id of its name set.  The sorted order is computed once per
   distinct name set and reused, so the steady state is O(n) hash
   lookups per query instead of a sort + concatenation. *)
let fn_key_with set q =
  let n = set.fs_size in
  let vals = Bytes.make n '0' in
  let seen = Bytes.make n '\000' in
  let ok = ref true in
  List.iter
    (fun (name, v) ->
      if !ok then
        match Hashtbl.find_opt set.fs_idx name with
        | Some i ->
          Bytes.set vals i (if v then '1' else '0');
          Bytes.set seen i '\001'
        | None -> ok := false)
    q;
  if !ok then begin
    for i = 0 to n - 1 do
      if Bytes.get seen i = '\000' then ok := false
    done;
    if !ok then
      Some (string_of_int set.fs_id ^ ":" ^ Bytes.unsafe_to_string vals)
    else None
  end
  else None

let fn_key fb q =
  let rec try_sets = function
    | [] -> None
    | s :: rest -> (
      match fn_key_with s q with Some k -> Some k | None -> try_sets rest)
  in
  match try_sets fb.fn_sets with
  | Some k -> k
  | None ->
    let names = List.sort_uniq compare (List.map fst q) in
    let idx = Hashtbl.create (2 * List.length names) in
    List.iteri (fun i n -> Hashtbl.replace idx n i) names;
    let set =
      { fs_id = fb.fn_next_id; fs_size = List.length names; fs_idx = idx }
    in
    fb.fn_next_id <- fb.fn_next_id + 1;
    fb.fn_sets <- set :: fb.fn_sets;
    (match fn_key_with set q with
    | Some k -> k
    | None -> assert false (* the set was built from exactly q's names *))

let charge t n =
  t.stats.evals <- t.stats.evals + n;
  Obs.Metrics.add m_queries n;
  match t.budget with Some b -> Budget.note_queries b n | None -> ()

let memo_find t key =
  match t.memo with
  | None -> None
  | Some m ->
    let r = Hashtbl.find_opt m.tbl key in
    if r <> None then begin
      t.stats.hits <- t.stats.hits + 1;
      Obs.Metrics.incr m_memo_hits
    end;
    r

let memo_add t key r =
  match t.memo with
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

(* One query is lane 0 of a one-word block; sources are engine slots
   0..n_src-1 in the same order as [srcs], i.e. as the key's chars. *)
let eval_key b key =
  let blk =
    Netlist.Engine.eval_block ~scratch:b.sc b.eng ~n_words:1 ~fill:(fun buf ->
        String.iteri (fun i c -> if c = '1' then buf.(i) <- 1) key)
  in
  let r = ref [] in
  for oi = Array.length b.out_slots - 1 downto 0 do
    r :=
      (if blk.(b.out_slots.(oi)) land 1 = 1 then b.out_t.(oi)
       else b.out_f.(oi))
      :: !r
  done;
  !r

let query t q =
  match t.backend with
  | Net b -> (
    let key = resolve t b q in
    match memo_find t key with
    | Some r -> r
    | None ->
      charge t 1;
      let r = eval_key b key in
      memo_add t key r;
      r)
  | Fn fb -> (
    let key = fn_key fb q in
    match memo_find t key with
    | Some r -> r
    | None ->
      charge t 1;
      let r = fb.fn q in
      memo_add t key r;
      r)

(* ----- batched path -----

   Distinct memo misses are bit-transposed into multi-word blocks
   (block_words * 63 lanes per pass over the compiled instruction
   stream).  When the batch is big enough, every per-lane stage —
   canonical-key resolution, block evaluation, and response-list
   construction, which dominates on many-output circuits — is sharded
   across a bounded domain pool; each shard evaluates with its own
   engine scratch and allocates responses in its own minor heap, and
   all memo / stat mutation stays on the calling domain. *)

(* Evaluate miss lanes [lane_lo, lane_hi) in blocks of at most
   [block_words] words each, writing each lane's response list into
   [computed].  [scratch] must be private to the caller; [computed]
   writes are race-free because lane ranges are disjoint. *)
(* Bit-transpose repack, lane-major: each key string is read
   sequentially once (no per-character re-indexing of the miss array),
   and bit j of word wi of source si accumulates at buf.(si * nw + wi). *)
let transpose_fill (misses : string array) ~b0 ~lanes ~nw ~n_src buf =
  let w = Netlist.Engine.word_bits in
  for wi = 0 to nw - 1 do
    let j0 = wi * w in
    let jn = min w (lanes - j0) in
    for j = 0 to jn - 1 do
      let key = misses.(b0 + j0 + j) in
      let bit = 1 lsl j in
      for si = 0 to n_src - 1 do
        if String.unsafe_get key si = '1' then
          Array.unsafe_set buf
            ((si * nw) + wi)
            (Array.unsafe_get buf ((si * nw) + wi) lor bit)
      done
    done
  done

let process_lanes b scratch (misses : string array) ~lane_lo ~lane_hi computed
    =
  let w = Netlist.Engine.word_bits in
  let n_src = Array.length b.srcs in
  let n_outs = Array.length b.out_slots in
  let lanes_per_block = block_words * w in
  let base = ref lane_lo in
  while !base < lane_hi do
    let b0 = !base in
    let lanes = min lanes_per_block (lane_hi - b0) in
    let nw = (lanes + w - 1) / w in
    let blk =
      Netlist.Engine.eval_block ~scratch b.eng ~n_words:nw
        ~fill:(transpose_fill misses ~b0 ~lanes ~nw ~n_src)
    in
    for j = 0 to lanes - 1 do
      let wi = j / w and bit = j mod w in
      let r = ref [] in
      for oi = n_outs - 1 downto 0 do
        let word =
          Array.unsafe_get blk ((Array.unsafe_get b.out_slots oi * nw) + wi)
        in
        r :=
          (if (word lsr bit) land 1 = 1 then Array.unsafe_get b.out_t oi
           else Array.unsafe_get b.out_f oi)
          :: !r
      done;
      computed.(b0 + j) <- !r
    done;
    Obs.Metrics.incr m_batch_blocks;
    Obs.Metrics.add m_batch_words nw;
    Obs.Metrics.add m_batch_lanes lanes;
    base := b0 + lanes
  done

(* Batched path for black-box oracles that advertise a bulk transport
   (e.g. a remote oracle packing a whole word per round trip): dedup
   memo misses on their canonical keys, ship the distinct queries in one
   [fn_batch] call, then reassemble in request order. *)
let fn_query_batch t fb bf qs =
  match t.memo with
  | None ->
    let n = List.length qs in
    if n = 0 then []
    else begin
      charge t n;
      let rs = bf qs in
      if List.length rs <> n then
        invalid_arg "Oracle: batch backend returned a result list of wrong size";
      rs
    end
  | Some _ ->
    (* each entry keeps its query alongside its key so the miss list and
       the eviction fallback never have to search for it again (remote
       chunks run to thousands of queries, so an assoc scan per miss
       would be quadratic in batch size) *)
    let cached =
      List.map
        (fun q ->
          let key = fn_key fb q in
          (key, q, memo_find t key))
        qs
    in
    let miss_tbl = Hashtbl.create 64 in
    let misses =
      (* first occurrence of each distinct missing key, in order *)
      List.filter
        (fun (key, _, r) ->
          r = None
          && (not (Hashtbl.mem miss_tbl key))
          && (Hashtbl.replace miss_tbl key ();
              true))
        cached
    in
    if misses <> [] then begin
      charge t (List.length misses);
      let rs = bf (List.map (fun (_, q, _) -> q) misses) in
      if List.length rs <> List.length misses then
        invalid_arg "Oracle: batch backend returned a result list of wrong size";
      List.iter2 (fun (key, _, _) r -> memo_add t key r) misses rs
    end;
    (* all keys are resident now (memo_add just ran with room for each:
       cap evictions can push *older* entries out, so re-query misses
       via the memo and fall back to a direct call if one was evicted) *)
    List.map
      (fun (key, q, cached_r) ->
        match cached_r with
        | Some r -> r
        | None -> (
          match t.memo with
          | Some m -> (
            match Hashtbl.find_opt m.tbl key with
            | Some r -> r
            | None ->
              (* evicted within this very batch (tiny cap): recompute *)
              charge t 1;
              let r = fb.fn q in
              memo_add t key r;
              r)
          | None -> assert false))
      cached

let query_batch t qs =
  match t.backend with
  | Fn ({ fn_batch = Some bf; _ } as fb) -> fn_query_batch t fb bf qs
  | Fn { fn_batch = None; _ } -> List.map (query t) qs
  | Net b ->
    let qarr = Array.of_list qs in
    let nq = Array.length qarr in
    if nq = 0 then []
    else begin
      (* domain pool width for a stage over [n_items] lanes: forced by
         [~shards] if given, otherwise engaged only when lanes x engine
         size is big enough to amortize the domain spawns *)
      let domains_for n_items =
        let wanted =
          match b.shards with
          | Some s -> s
          | None ->
            if n_items * Netlist.Engine.n_slots b.eng >= shard_work_min then
              Parallel.default_domains ()
            else 1
        in
        max 1 (min wanted n_items)
      in
      (* 1. canonical keys (validation + Bytes packing), sharded *)
      let keys = Array.make nq "" in
      let resolve_range (lo, hi) =
        for i = lo to hi - 1 do
          keys.(i) <- resolve t b qarr.(i)
        done
      in
      let rd = domains_for nq in
      if rd <= 1 then resolve_range (0, nq)
      else
        ignore
          (Parallel.map ~domains:rd resolve_range
             (List.init rd (fun s -> (s * nq / rd, (s + 1) * nq / rd))));
      (* 2. memo lookup + dedup, on the calling domain only.  Each query
         records the miss slot it maps to ([miss_of_query]) so the final
         fill needs no second round of string hashing. *)
      let hits = Array.make nq None in
      let miss_of_query = Array.make nq (-1) in
      let miss_index = Hashtbl.create (2 * nq) in
      let order = ref [] in
      let count = ref 0 in
      Array.iteri
        (fun i key ->
          match memo_find t key with
          | Some r -> hits.(i) <- Some r
          | None -> (
            match Hashtbl.find_opt miss_index key with
            | Some mi -> miss_of_query.(i) <- mi
            | None ->
              Hashtbl.replace miss_index key !count;
              miss_of_query.(i) <- !count;
              order := key :: !order;
              incr count))
        keys;
      let misses = Array.of_list (List.rev !order) in
      let n_miss = Array.length misses in
      let computed = Array.make (max 1 n_miss) [] in
      if n_miss > 0 then begin
        (* 3. every real evaluation is charged before any engine work, so
           a budget cap trips without wasting a partial parallel pass *)
        charge t n_miss;
        (* 4. evaluate + build responses, sharded over lane ranges *)
        let ed = domains_for n_miss in
        if ed <= 1 then
          process_lanes b b.sc misses ~lane_lo:0 ~lane_hi:n_miss computed
        else begin
          Obs.Metrics.incr m_shard_batches;
          Obs.Metrics.add m_shard_jobs ed;
          ignore
            (Parallel.map ~domains:ed
               (fun (lo, hi) ->
                 let scratch = Netlist.Engine.create_scratch b.eng in
                 process_lanes b scratch misses ~lane_lo:lo ~lane_hi:hi
                   computed)
               (List.init ed (fun s ->
                    (s * n_miss / ed, (s + 1) * n_miss / ed))))
        end;
        (* 5. memo writes, on the calling domain only *)
        if t.memo <> None then
          Array.iteri (fun mi r -> memo_add t misses.(mi) r) computed
      end;
      List.init nq (fun i ->
          match hits.(i) with
          | Some r -> r
          | None -> computed.(miss_of_query.(i)))
    end

let as_fn t q = query t q

let differs net ~missing =
  let outs = Netlist.outputs net in
  let index = Hashtbl.create (List.length outs) in
  List.iteri (fun i (po, _) -> Hashtbl.replace index po i) outs;
  let buf = Bytes.make (List.length outs) '\000' in
  fun exp got ->
    List.iteri (fun i (_, w) -> Bytes.set buf i (if w then '\001' else '\000')) got;
    List.exists
      (fun (po, v) ->
        match Hashtbl.find_opt index po with
        | Some i -> v <> (Bytes.get buf i = '\001')
        | None -> missing)
      exp
