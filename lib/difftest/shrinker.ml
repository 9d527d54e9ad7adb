(* Greedy minimization: each pass proposes candidates strictly smaller
   than the current case; a candidate is adopted iff the failure
   predicate still holds on it.  The predicate is treated as a black box
   and any exception it raises counts as "no longer failing", so the
   shrinker can only ever weaken the case, never invent a failure. *)

let live_nodes net =
  let n = ref 0 in
  for id = 0 to Netlist.num_nodes net - 1 do
    if (Netlist.node net id).Netlist.kind <> Netlist.Dead then incr n
  done;
  !n

let size (c : Fuzz_case.t) =
  let n_pi = List.length (Netlist.inputs c.Fuzz_case.net) in
  live_nodes c.Fuzz_case.net + Array.length c.Fuzz_case.init
  + (c.Fuzz_case.cycles * n_pi)

let still_fails failing candidate =
  match failing candidate with v -> v | exception _ -> false

(* ----- pass: fewer cycles ----- *)

let truncate (c : Fuzz_case.t) n =
  Fuzz_case.make c.Fuzz_case.net ~cycles:n ~init:c.Fuzz_case.init
    ~stim:(Array.sub c.Fuzz_case.stim 0 n)

let shrink_cycles ~failing (c : Fuzz_case.t) =
  let cur = ref c in
  let progress = ref true in
  while !progress do
    progress := false;
    let n = !cur.Fuzz_case.cycles in
    let candidates = List.filter (fun k -> k >= 1 && k < n) [ n / 2; n - 1 ] in
    List.iter
      (fun k ->
        if (not !progress) && still_fails failing (truncate !cur k) then begin
          cur := truncate !cur k;
          progress := true
        end)
      candidates
  done;
  !cur

(* ----- pass: fewer primary outputs ----- *)

let drop_output (c : Fuzz_case.t) po =
  let net = Netlist.copy c.Fuzz_case.net in
  Netlist.remove_output net po;
  Fuzz_case.with_net c net

let shrink_outputs ~failing (c : Fuzz_case.t) =
  let cur = ref c in
  List.iter
    (fun (po, _) ->
      if List.length (Netlist.outputs !cur.Fuzz_case.net) > 1 then
        let candidate = drop_output !cur po in
        if still_fails failing candidate then cur := candidate)
    (Netlist.outputs c.Fuzz_case.net);
  !cur

(* ----- pass: constant-fold combinational nodes ----- *)

let const_out (c : Fuzz_case.t) id b =
  let net = Netlist.copy c.Fuzz_case.net in
  let cst = Netlist.add_const net b in
  if cst <> id then begin
    Netlist.replace_uses net [ (id, cst) ];
    Netlist.kill net id
  end;
  Netlist.validate net;
  Fuzz_case.with_net c net

let shrink_consts ~failing (c : Fuzz_case.t) =
  let cur = ref c in
  let n = Netlist.num_nodes c.Fuzz_case.net in
  for id = 0 to n - 1 do
    if
      id < Netlist.num_nodes !cur.Fuzz_case.net
      && Netlist.is_comb (Netlist.node !cur.Fuzz_case.net id)
    then
      List.iter
        (fun b ->
          if Netlist.is_comb (Netlist.node !cur.Fuzz_case.net id) then
            match const_out !cur id b with
            | candidate -> if still_fails failing candidate then cur := candidate
            | exception _ -> ())
        [ false; true ]
  done;
  !cur

(* ----- pass: sweep unreachable logic and compact ----- *)

(* Everything not reachable from a primary output (walking fanins,
   through flip-flop D pins) is killed, including inputs and flip-flops;
   the stimulus and init arrays are re-projected onto the survivors. *)
let sweep (c : Fuzz_case.t) =
  let net = Netlist.copy c.Fuzz_case.net in
  let n = Netlist.num_nodes net in
  let reach = Array.make n false in
  let rec mark id =
    if not reach.(id) then begin
      reach.(id) <- true;
      Array.iter mark (Netlist.node net id).Netlist.fanins
    end
  in
  List.iter (fun (_, drv) -> mark drv) (Netlist.outputs net);
  let old_inputs = Netlist.inputs net and old_ffs = Netlist.ffs net in
  let killed = ref false in
  for id = 0 to n - 1 do
    if (not reach.(id)) && (Netlist.node net id).Netlist.kind <> Netlist.Dead
    then begin
      Netlist.kill net id;
      killed := true
    end
  done;
  if not !killed then None
  else begin
    let net', _remap = Netlist.compact net in
    Netlist.validate net';
    let project old_ids row =
      let bits = ref [] in
      List.iteri
        (fun i id -> if reach.(id) then bits := row.(i) :: !bits)
        old_ids;
      Array.of_list (List.rev !bits)
    in
    let init = project old_ffs c.Fuzz_case.init in
    let stim = Array.map (project old_inputs) c.Fuzz_case.stim in
    Some (Fuzz_case.make net' ~cycles:c.Fuzz_case.cycles ~init ~stim)
  end

let shrink_sweep ~failing (c : Fuzz_case.t) =
  match sweep c with
  | None -> c
  | Some candidate -> if still_fails failing candidate then candidate else c
  | exception _ -> c

(* ----- pass: zero stimulus and init bits ----- *)

let with_bit (c : Fuzz_case.t) which =
  let init = Array.copy c.Fuzz_case.init in
  let stim = Array.map Array.copy c.Fuzz_case.stim in
  (match which with
  | `Init i -> init.(i) <- false
  | `Stim (k, i) -> stim.(k).(i) <- false);
  Fuzz_case.make c.Fuzz_case.net ~cycles:c.Fuzz_case.cycles ~init ~stim

let shrink_bits ~failing (c : Fuzz_case.t) =
  let cur = ref c in
  Array.iteri
    (fun i b ->
      if b then
        let candidate = with_bit !cur (`Init i) in
        if still_fails failing candidate then cur := candidate)
    c.Fuzz_case.init;
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun i _ ->
          if !cur.Fuzz_case.stim.(k).(i) then
            let candidate = with_bit !cur (`Stim (k, i)) in
            if still_fails failing candidate then cur := candidate)
        row)
    c.Fuzz_case.stim;
  !cur

(* ----- driver ----- *)

let minimize ?(rounds = 8) ~failing (c : Fuzz_case.t) =
  if not (still_fails failing c) then c
  else begin
    let cur = ref c in
    let continue_ = ref true in
    let round = ref 0 in
    while !continue_ && !round < rounds do
      incr round;
      let before = size !cur in
      cur := shrink_cycles ~failing !cur;
      cur := shrink_outputs ~failing !cur;
      cur := shrink_consts ~failing !cur;
      cur := shrink_sweep ~failing !cur;
      cur := shrink_bits ~failing !cur;
      if size !cur >= before then continue_ := false
    done;
    !cur
  end
