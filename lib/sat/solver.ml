type result = Sat | Unsat

(* Literal arithmetic is spelled out locally ([l lsr 1] is the variable,
   [l lxor 1] the negation; see {!Lit}) so the hot loops make no
   cross-module calls. *)

(* Variable order: binary max-heap on activity with position tracking. *)
module Heap = struct
  type t = {
    mutable data : int array;  (* variable indices *)
    mutable len : int;
    mutable pos : int array;   (* var -> index in data, -1 if absent *)
    activity : float array ref;
  }

  let create activity = { data = [||]; len = 0; pos = [||]; activity }

  let ensure h nvars =
    let old = Array.length h.pos in
    if nvars > old then begin
      let pos' = Array.make (max nvars (2 * max old 16)) (-1) in
      Array.blit h.pos 0 pos' 0 old;
      h.pos <- pos';
      let data' = Array.make (Array.length h.pos) 0 in
      Array.blit h.data 0 data' 0 h.len;
      h.data <- data'
    end

  let better h a b = !(h.activity).(a) > !(h.activity).(b)

  let swap h i j =
    let a = h.data.(i) and b = h.data.(j) in
    h.data.(i) <- b;
    h.data.(j) <- a;
    h.pos.(b) <- i;
    h.pos.(a) <- j

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if better h h.data.(i) h.data.(p) then begin
        swap h i p;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < h.len && better h h.data.(l) h.data.(!best) then best := l;
    if r < h.len && better h h.data.(r) h.data.(!best) then best := r;
    if !best <> i then begin
      swap h i !best;
      sift_down h !best
    end

  let mem h v = v < Array.length h.pos && h.pos.(v) >= 0

  let insert h v =
    if not (mem h v) then begin
      h.data.(h.len) <- v;
      h.pos.(v) <- h.len;
      h.len <- h.len + 1;
      sift_up h (h.len - 1)
    end

  let decrease h v = if mem h v then sift_up h h.pos.(v)

  (* The most active variable, or -1 when the heap is empty. *)
  let pop h =
    if h.len = 0 then -1
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      h.pos.(top) <- -1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        h.pos.(h.data.(0)) <- 0;
        sift_down h 0
      end;
      top
    end
end

type t = {
  mutable nvars : int;
  mutable clauses : int array array;  (* clause ref -> its literals *)
  mutable n_clauses : int;
  mutable watches : int array array;  (* per literal: clauses to visit when it turns true *)
  mutable n_watches : int array;      (* per literal: used length of [watches] *)
  mutable vals : int array;           (* per literal: -1 undef, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : int array;         (* per var: clause ref or -1 *)
  mutable polarity : bool array;      (* saved phases *)
  activity : float array ref;
  mutable var_inc : float;
  order : Heap.t;
  mutable trail : int array;          (* assigned literals in order; one slot per var *)
  mutable trail_len : int;
  mutable trail_lim : int array;      (* trail length at the start of each level *)
  mutable n_levels : int;
  mutable qhead : int;
  mutable unsat : bool;
  mutable units : int array;          (* level-0 facts added via add_clause or learnt *)
  mutable n_units : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable model : bool array;
  mutable have_model : bool;
  mutable seen : bool array;          (* scratch for analyze *)
  mutable learnt : int array;         (* scratch for analyze: lower-level literals *)
}

let create () =
  let activity = ref [||] in
  {
    nvars = 0;
    clauses = [||];
    n_clauses = 0;
    watches = [||];
    n_watches = [||];
    vals = [||];
    level = [||];
    reason = [||];
    polarity = [||];
    activity;
    var_inc = 1.0;
    order = Heap.create activity;
    trail = [||];
    trail_len = 0;
    trail_lim = [||];
    n_levels = 0;
    qhead = 0;
    unsat = false;
    units = [||];
    n_units = 0;
    n_conflicts = 0;
    n_propagations = 0;
    model = [||];
    have_model = false;
    seen = [||];
    learnt = [||];
  }

(* [push a n x] stores [x] at [a.(n)], doubling [a] when full; returns the
   (possibly new) array.  The caller bumps its length. *)
let push a n x =
  let a =
    if n < Array.length a then a
    else begin
      let a' = Array.make (max 8 (2 * n)) 0 in
      Array.blit a 0 a' 0 n;
      a'
    end
  in
  a.(n) <- x;
  a

let grow_arrays s =
  let cap = Array.length s.level in
  if s.nvars > cap then begin
    let cap' = max s.nvars (max 16 (2 * cap)) in
    let grow a n def =
      let a' = Array.make n def in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    s.vals <- grow s.vals (2 * cap') (-1);
    s.level <- grow s.level cap' 0;
    s.reason <- grow s.reason cap' (-1);
    s.polarity <- grow s.polarity cap' false;
    s.activity := grow !(s.activity) cap' 0.0;
    s.seen <- grow s.seen cap' false;
    s.trail <- grow s.trail cap' 0;
    s.watches <- grow s.watches (2 * cap') [||];
    s.n_watches <- grow s.n_watches (2 * cap') 0
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  grow_arrays s;
  Heap.ensure s.order s.nvars;
  Heap.insert s.order v;
  v

let num_vars s = s.nvars
let num_clauses s = s.n_clauses

let enqueue s l reason =
  (* Precondition: l is unassigned. *)
  let v = l lsr 1 in
  s.vals.(l) <- 1;
  s.vals.(l lxor 1) <- 0;
  s.level.(v) <- s.n_levels;
  s.reason.(v) <- reason;
  s.polarity.(v) <- l land 1 = 0;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

let new_level s =
  s.trail_lim <- push s.trail_lim s.n_levels s.trail_len;
  s.n_levels <- s.n_levels + 1

let var_bump s v =
  let a = !(s.activity) in
  a.(v) <- a.(v) +. s.var_inc;
  if a.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      a.(i) <- a.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Heap.decrease s.order v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let watch s l cr =
  let n = s.n_watches.(l) in
  s.watches.(l) <- push s.watches.(l) n cr;
  s.n_watches.(l) <- n + 1

(* Store a clause (two or more literals) and watch its first two. *)
let attach s lits =
  let cr = s.n_clauses in
  if cr = Array.length s.clauses then begin
    let a = Array.make (max 1024 (2 * cr)) [||] in
    Array.blit s.clauses 0 a 0 cr;
    s.clauses <- a
  end;
  s.clauses.(cr) <- lits;
  s.n_clauses <- cr + 1;
  watch s (lits.(0) lxor 1) cr;
  watch s (lits.(1) lxor 1) cr;
  cr

(* Unit propagation over the two watched literals.  Each watch list is
   compacted in place (read index [i], write index [j]), keeping the
   visit order; returns the conflicting clause ref, or -1.  The unchecked
   accesses on the fast path are in range by construction: [qhead <
   trail_len], [i < n_watches.(p)], every watched ref is below
   [n_clauses], every stored clause has at least two literals, and every
   literal is below [2 * nvars]. *)
let propagate s =
  let confl = ref (-1) in
  let vals = s.vals in
  while !confl < 0 && s.qhead < s.trail_len do
    let p = Array.unsafe_get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    (* p became true; visit the clauses watching ~p *)
    let false_lit = p lxor 1 in
    let ws = s.watches.(p) in
    let n = s.n_watches.(p) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cr = Array.unsafe_get ws !i in
      incr i;
      let lits = Array.unsafe_get s.clauses cr in
      (* Keep the false literal at position 1. *)
      if Array.unsafe_get lits 0 = false_lit then begin
        Array.unsafe_set lits 0 (Array.unsafe_get lits 1);
        Array.unsafe_set lits 1 false_lit
      end;
      let first = Array.unsafe_get lits 0 in
      if Array.unsafe_get vals first = 1 then begin
        Array.unsafe_set ws !j cr;
        incr j
      end
      else begin
        (* Look for a new watch: the first literal that is not false. *)
        let len = Array.length lits in
        let k = ref 2 in
        while !k < len && Array.unsafe_get vals (Array.unsafe_get lits !k) = 0 do
          incr k
        done;
        if !k < len then begin
          let l = lits.(!k) in
          lits.(1) <- l;
          lits.(!k) <- false_lit;
          watch s (l lxor 1) cr
        end
        else begin
          ws.(!j) <- cr;
          incr j;
          if vals.(first) = 0 then begin
            confl := cr;
            (* Conflict: keep the unvisited watches. *)
            while !i < n do
              ws.(!j) <- ws.(!i);
              incr i;
              incr j
            done
          end
          else enqueue s first cr
        end
      end
    done;
    s.n_watches.(p) <- !j
  done;
  !confl

let backtrack s lvl =
  if s.n_levels > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_len - 1 downto bound do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      s.vals.(l) <- -1;
      s.vals.(l lxor 1) <- -1;
      s.reason.(v) <- -1;
      Heap.insert s.order v
    done;
    s.trail_len <- bound;
    s.n_levels <- lvl;
    s.qhead <- bound
  end

(* First-UIP conflict analysis.  Returns the learnt clause (asserting
   literal first, then the lower-level literals latest-found first, with
   one of the backjump level moved to position 1) and the backjump
   level. *)
let analyze s confl =
  let n_learnt = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let cr = ref confl in
  let trail_idx = ref (s.trail_len - 1) in
  let continue = ref true in
  while !continue do
    let lits = s.clauses.(!cr) in
    for k = 0 to Array.length lits - 1 do
      let q = lits.(k) in
      if q <> !p then begin
        let v = q lsr 1 in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= s.n_levels then incr counter
          else begin
            s.learnt <- push s.learnt !n_learnt q;
            incr n_learnt
          end
        end
      end
    done;
    (* Walk the trail back to the next marked literal. *)
    while not s.seen.(s.trail.(!trail_idx) lsr 1) do
      decr trail_idx
    done;
    let l = s.trail.(!trail_idx) in
    decr trail_idx;
    s.seen.(l lsr 1) <- false;
    decr counter;
    if !counter = 0 then begin
      p := l lxor 1;
      continue := false
    end
    else begin
      p := l;
      cr := s.reason.(l lsr 1)
    end
  done;
  let n = !n_learnt in
  let arr = Array.make (n + 1) !p in
  let bj = ref 0 in
  for k = 0 to n - 1 do
    let l = s.learnt.(k) in
    let v = l lsr 1 in
    s.seen.(v) <- false;
    arr.(n - k) <- l;
    if s.level.(v) > !bj then bj := s.level.(v)
  done;
  (* Put a literal of the backjump level second, so watches are sound. *)
  if n > 0 then begin
    let best = ref 1 in
    for k = 2 to n do
      if s.level.(arr.(k) lsr 1) > s.level.(arr.(!best) lsr 1) then best := k
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp
  end;
  (arr, !bj)

let add_unit s l =
  s.units <- push s.units s.n_units l;
  s.n_units <- s.n_units + 1

let record_learnt s arr =
  if Array.length arr = 1 then begin
    add_unit s arr.(0);
    enqueue s arr.(0) (-1)
  end
  else begin
    let cr = attach s arr in
    enqueue s arr.(0) cr
  end

(* [l] is true or false at level 0 (after [backtrack s 0] every
   assignment is). *)
let fixed s l v = s.vals.(l) = v && s.level.(l lsr 1) = 0

let add_clause s lits =
  if s.unsat then false
  else begin
    (* Deduplicate; drop tautologies.  Sorted, a literal's complement
       ([2v] / [2v+1]) is its neighbour. *)
    let lits = List.sort_uniq Int.compare lits in
    let rec tautology = function
      | a :: (b :: _ as rest) -> (a land 1 = 0 && b = a + 1) || tautology rest
      | _ -> false
    in
    if tautology lits then true
    else begin
      List.iter
        (fun l ->
          if l < 0 || l lsr 1 >= s.nvars then
            invalid_arg "Solver.add_clause: unknown variable")
        lits;
      backtrack s 0;
      (* Remove literals already false at level 0; satisfied clause is a
         no-op. *)
      if List.exists (fun l -> fixed s l 1) lits then true
      else begin
        match List.filter (fun l -> not (fixed s l 0)) lits with
        | [] ->
          s.unsat <- true;
          false
        | [ l ] ->
          add_unit s l;
          if s.vals.(l) = 0 then begin
            s.unsat <- true;
            false
          end
          else begin
            if s.vals.(l) = -1 then begin
              enqueue s l (-1);
              if propagate s >= 0 then begin
                s.unsat <- true;
                false
              end
              else true
            end
            else true
          end
        | lits ->
          ignore (attach s (Array.of_list lits));
          true
      end
    end
  end

(* Luby restart sequence. *)
let rec luby i =
  (* Find the finite subsequence containing i. *)
  let rec size k = if k >= i + 1 then k else size ((2 * k) + 1) in
  let k = size 1 in
  if k = i + 1 then (k + 1) / 2 else luby (i - (k / 2))

(* Branch on the most active unassigned variable, with its saved phase;
   false when every variable is assigned. *)
let decide s =
  let rec pick () =
    let v = Heap.pop s.order in
    if v < 0 || s.vals.(2 * v) < 0 then v else pick ()
  in
  let v = pick () in
  if v < 0 then false
  else begin
    new_level s;
    enqueue s ((2 * v) + if s.polarity.(v) then 0 else 1) (-1);
    true
  end

let save_model s =
  s.model <- Array.init s.nvars (fun v -> s.vals.(2 * v) = 1);
  s.have_model <- true

let solve ?(assumptions = []) s =
  s.have_model <- false;
  if s.unsat then Unsat
  else begin
    backtrack s 0;
    s.qhead <- 0;  (* re-propagate everything, including new clauses *)
    (* Re-assert recorded facts: learnt units may have been retracted by
       backtracking below the level they were asserted at. *)
    let unit_conflict = ref false in
    for k = 0 to s.n_units - 1 do
      if not !unit_conflict then begin
        let l = s.units.(k) in
        match s.vals.(l) with
        | 0 -> unit_conflict := true
        | -1 -> enqueue s l (-1)
        | _ -> ()
      end
    done;
    if !unit_conflict then begin
      s.unsat <- true;
      Unsat
    end
    else if propagate s >= 0 then begin
      s.unsat <- true;
      Unsat
    end
    else begin
      let assumptions = Array.of_list assumptions in
      let n_assumptions = Array.length assumptions in
      let restart_count = ref 0 in
      let conflict_budget = ref (100 * luby !restart_count) in
      let rec loop () =
        let confl = propagate s in
        if confl >= 0 then begin
          s.n_conflicts <- s.n_conflicts + 1;
          decr conflict_budget;
          if s.n_levels <= n_assumptions then Unsat
          else begin
            let learnt, bj = analyze s confl in
            let bj = max bj (min (s.n_levels - 1) n_assumptions) in
            backtrack s bj;
            record_learnt s learnt;
            var_decay s;
            loop ()
          end
        end
        else if !conflict_budget <= 0 && s.n_levels > n_assumptions then begin
          incr restart_count;
          conflict_budget := 100 * luby !restart_count;
          backtrack s n_assumptions;
          loop ()
        end
        else if s.n_levels < n_assumptions then begin
          (* Apply the next assumption. *)
          let a = assumptions.(s.n_levels) in
          match s.vals.(a) with
          | 1 ->
            (* Already true: open an empty decision level for it. *)
            new_level s;
            loop ()
          | 0 -> Unsat
          | _ ->
            new_level s;
            enqueue s a (-1);
            loop ()
        end
        else if decide s then loop ()
        else begin
          save_model s;
          Sat
        end
      in
      let r = loop () in
      backtrack s 0;
      r
    end
  end

let value s v =
  if not s.have_model then invalid_arg "Solver.value: no model";
  if v < 0 || v >= Array.length s.model then
    invalid_arg "Solver.value: unknown variable";
  s.model.(v)

let conflicts s = s.n_conflicts
let propagations s = s.n_propagations
