(* Per-run instrumentation: counters are bumped once per run (cheap,
   always on); per-pulse trace records are emitted only when tracing. *)
let m_sim_runs = Obs.Metrics.counter "sim.runs"
let m_sim_events = Obs.Metrics.counter "sim.events_popped"
let m_sim_trans = Obs.Metrics.counter "sim.transitions"
let m_sim_viol = Obs.Metrics.counter "sim.violations"
let m_sim_glitch = Obs.Metrics.counter "sim.glitch_pulses"

type drive = Const of bool | Wave of Waveform.t

type config = { clock_ps : int; cycles : int }

type violation_kind = Setup_violation | Hold_violation

type violation = {
  v_ff : int;
  v_ff_name : string;
  v_cycle : int;
  v_kind : violation_kind;
  v_time : int;
}

(* Every transition of a run in one growable log, in the order they
   happened.  Entry [e] sets a node to value code [value.(e)] at
   [time.(e)]; [prev.(e)] is that node's previous entry and [head.(id)]
   its newest (-1: none), so a node's history is a chain walked from the
   end. *)
type log = {
  initial : int array;
  head : int array;
  mutable time : int array;
  mutable value : int array;
  mutable prev : int array;
  mutable len : int;
}

type result = {
  ff_ids : int array;
  ff_samples : Logic.t array array;
  violations : violation list;
  po_samples : (string * Logic.t array) list;
  log : log;
}

(* Value codes: F = 0, T = 1, X = 2. *)
let code = function Logic.F -> 0 | Logic.T -> 1 | Logic.X -> 2

let of_code = [| Logic.F; Logic.T; Logic.X |]

let log_push l id time v =
  if l.len = Array.length l.time then begin
    let extend a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 l.len;
      b
    in
    l.time <- extend l.time;
    l.value <- extend l.value;
    l.prev <- extend l.prev
  end;
  let e = l.len in
  l.time.(e) <- time;
  l.value.(e) <- v;
  l.prev.(e) <- l.head.(id);
  l.head.(id) <- e;
  l.len <- e + 1

(* From entry [e] back along its node's chain to the newest entry at or
   before [t] (-1: none). *)
let rec at_or_before l e t = if e >= 0 && l.time.(e) > t then at_or_before l l.prev.(e) t else e

(* Node [id]'s value as of its entry [e]. *)
let value_of l id e = if e >= 0 then l.value.(e) else l.initial.(id)

(* The times of the entries from [e] back to, but not including, [stop],
   oldest first. *)
let rec times_back l e stop acc =
  if e = stop then acc else times_back l l.prev.(e) stop (l.time.(e) :: acc)

let log_wave l id =
  let rec collect e acc =
    if e < 0 then acc else collect l.prev.(e) ((l.time.(e), of_code.(l.value.(e))) :: acc)
  in
  Waveform.make ~initial:of_code.(l.initial.(id)) (collect l.head.(id) [])

let wave r id = log_wave r.log id

(* What re-evaluating a node computes; [Inert] nodes (inputs, constants,
   flip-flops, dead nodes) are never re-evaluated by a fanin change. *)
type op = Not | Buf | And | Nand | Or | Nor | Xor | Xnor | Mux | Lut | Inert

let op_of_kind = function
  | Netlist.Gate fn -> (
    match fn with
    | Cell.Not -> Not
    | Cell.Buf -> Buf
    | Cell.And -> And
    | Cell.Nand -> Nand
    | Cell.Or -> Or
    | Cell.Nor -> Nor
    | Cell.Xor -> Xor
    | Cell.Xnor -> Xnor
    | Cell.Mux -> Mux)
  | Netlist.Lut _ -> Lut
  | Netlist.Input | Netlist.Const _ | Netlist.Ff | Netlist.Dead -> Inert

(* Three-valued folds over the value codes of fanins [i, hi) of [fi]: a
   controlling value decides, otherwise any X gives X — Logic's rules. *)
let rec fold_and values fi i hi acc =
  if i = hi then acc
  else
    let v = values.(fi.(i)) in
    if v = 0 then 0 else fold_and values fi (i + 1) hi (if v = 2 then 2 else acc)

let rec fold_or values fi i hi acc =
  if i = hi then acc
  else
    let v = values.(fi.(i)) in
    if v = 1 then 1 else fold_or values fi (i + 1) hi (if v = 2 then 2 else acc)

let rec fold_xor values fi i hi acc =
  if i = hi then acc
  else
    let v = values.(fi.(i)) in
    if v = 2 then 2 else fold_xor values fi (i + 1) hi (acc lxor v)

let not_code v = if v = 2 then 2 else 1 - v

(* Per-node int arrays packed into one: row [id] is
   [data.(start.(id)) .. data.(start.(id + 1) - 1)]. *)
let csr rows =
  let n = Array.length rows in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun id r -> start.(id + 1) <- start.(id) + Array.length r) rows;
  let data = Array.make start.(n) 0 in
  Array.iteri (fun id r -> Array.blit r 0 data start.(id) (Array.length r)) rows;
  (start, data)

let node_delay net id =
  let n = Netlist.node net id in
  match n.Netlist.kind with
  | Netlist.Gate _ -> (
    match n.Netlist.cell with
    | Some c -> c.Cell.delay_ps
    | None -> 0)
  | Netlist.Lut truth ->
    let rec log2 k = if 1 lsl k >= Array.length truth then k else log2 (k + 1) in
    Cell_lib.lut_delay_ps (log2 0)
  | Netlist.Input | Netlist.Const _ | Netlist.Ff | Netlist.Dead -> 0

let run ?(init = fun _ -> false) ?(drive = fun _ -> Const false)
    ?(captures_from = fun _ -> 0) net config =
  if config.clock_ps <= 0 then invalid_arg "Timing_sim.run: clock must be positive";
  if config.cycles <= 0 then invalid_arg "Timing_sim.run: need at least one cycle";
  let setup = Cell_lib.dff_setup_ps
  and hold = Cell_lib.dff_hold_ps
  and clk2q = Cell_lib.dff_clk2q_ps
  and clock = config.clock_ps in
  assert (clk2q >= hold);
  if clock <= setup + hold + clk2q then
    invalid_arg "Timing_sim.run: clock period shorter than FF timing arcs";
  Obs.Metrics.incr m_sim_runs;
  let sp =
    Obs.Trace.span_begin
      ~args:
        [
          ("netlist", Cjson.Str (Netlist.name net));
          ("cycles", Cjson.Int config.cycles);
          ("clock_ps", Cjson.Int clock);
          ("nodes", Cjson.Int (Netlist.num_nodes net));
        ]
      "sim.run"
  in
  let counts = ref [] in
  Fun.protect ~finally:(fun () -> Obs.Trace.span_end ~args:!counts sp) @@ fun () ->
  let n = Netlist.num_nodes net in
  let settled = Array.make n Logic.X in
  (* Initial settle at t = 0: three-valued topological evaluation. *)
  let drive_of = Array.make n (Const false) in
  List.iter (fun pi -> drive_of.(pi) <- drive pi) (Netlist.inputs net);
  for id = 0 to n - 1 do
    let nd = Netlist.node net id in
    match nd.Netlist.kind with
    | Netlist.Input ->
      settled.(id) <-
        (match drive_of.(id) with
        | Const b -> Logic.of_bool b
        | Wave w -> Waveform.value_at w 0)
    | Netlist.Const b -> settled.(id) <- Logic.of_bool b
    | Netlist.Ff -> settled.(id) <- Logic.of_bool (init id)
    | Netlist.Gate _ | Netlist.Lut _ | Netlist.Dead -> ()
  done;
  List.iter
    (fun id ->
      let nd = Netlist.node net id in
      let ins = Array.map (fun f -> settled.(f)) nd.Netlist.fanins in
      settled.(id) <-
        (match nd.Netlist.kind with
        | Netlist.Gate fn -> Logic.eval_fn fn ins
        | Netlist.Lut truth -> Logic.eval_lut truth ins
        | Netlist.Input | Netlist.Const _ | Netlist.Ff | Netlist.Dead ->
          assert false))
    (Netlist.comb_topo_order net);
  let values = Array.map code settled in
  let log =
    {
      initial = Array.copy values;
      head = Array.make n (-1);
      time = Array.make (max 64 n) 0;
      value = Array.make (max 64 n) 0;
      prev = Array.make (max 64 n) 0;
      len = 0;
    }
  in
  (* The netlist, flattened for this run: an op and a delay per node, the
     fanins, and per driver the consumers a change re-evaluates — one
     entry per fanin pin, so a gate reading a driver on two pins is
     scheduled twice, in [Netlist.fanout_table]'s order. *)
  let ops = Array.init n (fun id -> op_of_kind (Netlist.node net id).Netlist.kind) in
  let delays = Array.init n (node_delay net) in
  let fi_start, fi = csr (Array.init n (fun id -> (Netlist.node net id).Netlist.fanins)) in
  let fo_start, fo =
    csr
      (Array.map
         (fun consumers ->
           Array.of_list
             (List.filter_map
                (fun (c, _) -> match ops.(c) with Inert -> None | _ -> Some c)
                consumers))
         (Netlist.fanout_table net))
  in
  let eval c =
    let lo = fi_start.(c) and hi = fi_start.(c + 1) in
    match ops.(c) with
    | Not -> not_code values.(fi.(lo))
    | Buf -> values.(fi.(lo))
    | And -> fold_and values fi lo hi 1
    | Nand -> not_code (fold_and values fi lo hi 1)
    | Or -> fold_or values fi lo hi 0
    | Nor -> not_code (fold_or values fi lo hi 0)
    | Xor -> fold_xor values fi lo hi 0
    | Xnor -> not_code (fold_xor values fi lo hi 0)
    | Mux ->
      let a = values.(fi.(lo + 1)) and b = values.(fi.(lo + 2)) in
      let sel = values.(fi.(lo)) in
      if sel = 0 then a else if sel = 1 then b else if a = b then a else 2
    | Lut -> (
      match (Netlist.node net c).Netlist.kind with
      | Netlist.Lut truth ->
        code (Logic.eval_lut truth (Array.init (hi - lo) (fun k -> of_code.(values.(fi.(lo + k))))))
      | _ -> assert false)
    | Inert -> assert false
  in
  (* Events are ints: [id*4 + code] sets node [id] to [code]; [i*4 + 3]
     is flip-flop [ff_ids.(i)]'s latch, whose edge is [time - clk2q]. *)
  let queue = Event_queue.create () in
  (* Stimulus transitions. *)
  List.iter
    (fun pi ->
      match drive_of.(pi) with
      | Const _ -> ()
      | Wave w ->
        List.iter
          (fun (t, v) -> Event_queue.add queue ~time:t ((pi * 4) + code v))
          (Waveform.transitions w))
    (Netlist.inputs net);
  (* Latch events: active edges at k * clock for k = 0..cycles, Q updates
     clk2q later.  Edge 0 launches the initial state (and in particular
     starts any KEYGEN toggle inside cycle 0); its captures are not
     recorded — recorded sample k corresponds to the edge at
     (k+1) * clock. *)
  let ff_ids = Array.of_list (Netlist.ffs net) in
  for k = 0 to config.cycles do
    Array.iteri
      (fun i _ -> Event_queue.add queue ~time:((k * clock) + clk2q) ((i * 4) + 3))
      ff_ids
  done;
  let d_pins = Array.map (fun ff -> (Netlist.node net ff).Netlist.fanins.(0)) ff_ids in
  let first_capture = Array.map captures_from ff_ids in
  let ff_samples = Array.map (fun _ -> Array.make config.cycles Logic.X) ff_ids in
  let violations = ref [] in
  let set_value time id v =
    if values.(id) <> v then begin
      values.(id) <- v;
      log_push log id time v;
      for k = fo_start.(id) to fo_start.(id + 1) - 1 do
        let c = fo.(k) in
        Event_queue.add queue ~time:(time + delays.(c)) ((c * 4) + eval c)
      done
    end
  in
  let latch time i =
    (* cycle = -1 is the launching edge at t = 0: not recorded.  A
       flip-flop whose capture policy starts later holds its state through
       the early edges (synchronous-reset semantics). *)
    let edge = time - clk2q in
    let cycle = (edge / clock) - 1 in
    if cycle + 1 >= first_capture.(i) then begin
      let d = d_pins.(i) in
      (* Walk D's chain back from its newest entry: past the transitions
         after the hold window, then through the window itself.  Every
         transition inside it is a violation. *)
      let e_hold = at_or_before log log.head.(d) (edge + hold) in
      let e_setup = at_or_before log e_hold (edge - setup - 1) in
      let sampled =
        if e_setup = e_hold then value_of log d e_hold
        else begin
          if cycle >= 0 then
            List.iter
              (fun t ->
                let v_kind = if t < edge then Setup_violation else Hold_violation in
                violations :=
                  {
                    v_ff = ff_ids.(i);
                    v_ff_name = (Netlist.node net ff_ids.(i)).Netlist.name;
                    v_cycle = cycle;
                    v_kind;
                    v_time = t;
                  }
                  :: !violations)
              (times_back log e_hold e_setup []);
          2
        end
      in
      if cycle >= 0 then ff_samples.(i).(cycle) <- of_code.(sampled);
      set_value time ff_ids.(i) sampled
    end
  in
  let horizon = ((config.cycles + 1) * clock) + clk2q in
  let events_popped = ref 0 and pumping = ref true in
  while !pumping && not (Event_queue.is_empty queue) do
    let time = Event_queue.min_time queue in
    let ev = Event_queue.pop queue in
    incr events_popped;
    if time > horizon then pumping := false
    else if ev land 3 = 3 then latch time (ev lsr 2)
    else set_value time (ev lsr 2) (ev land 3)
  done;
  let violations = List.rev !violations in
  let po_samples =
    List.map
      (fun (po, driver) ->
        let s = Array.make config.cycles Logic.X in
        let e = ref log.head.(driver) in
        for k = config.cycles - 1 downto 0 do
          e := at_or_before log !e ((k + 1) * clock);
          s.(k) <- of_code.(value_of log driver !e)
        done;
        (po, s))
      (Netlist.outputs net)
  in
  let n_viol = List.length violations in
  Obs.Metrics.add m_sim_events !events_popped;
  Obs.Metrics.add m_sim_trans log.len;
  Obs.Metrics.add m_sim_viol n_viol;
  counts :=
    [
      ("events_popped", Cjson.Int !events_popped);
      ("transitions", Cjson.Int log.len);
      ("violations", Cjson.Int n_viol);
    ];
  if Obs.Trace.enabled () then begin
    (* Glitch pulses per Eq. 2 on every FF data pin: any value interval
       narrower than the clock period is a capture hazard; start/stop
       are simulation picoseconds carried as attributes (the trace
       timeline itself stays wall-clock).  Only these waves are built. *)
    let pulses = ref 0 in
    Array.iteri
      (fun i ff ->
        let ffn = (Netlist.node net ff).Netlist.name in
        let d = d_pins.(i) in
        List.iter
          (fun p ->
            incr pulses;
            Obs.Trace.instant
              ~args:
                [
                  ("ff", Cjson.Str ffn);
                  ("signal", Cjson.Str (Netlist.node net d).Netlist.name);
                  ("start_ps", Cjson.Int p.Waveform.start_ps);
                  ("stop_ps", Cjson.Int p.Waveform.stop_ps);
                  ("width_ps", Cjson.Int (p.Waveform.stop_ps - p.Waveform.start_ps));
                  ( "level",
                    Cjson.Str (String.make 1 (Logic.to_char p.Waveform.level)) );
                ]
              "sim.glitch")
          (Waveform.pulses ~max_width:(clock - 1) (log_wave log d) ~until:horizon))
      ff_ids;
    Obs.Metrics.add m_sim_glitch !pulses;
    counts := !counts @ [ ("glitch_pulses", Cjson.Int !pulses) ]
  end;
  { ff_ids; ff_samples; violations; po_samples; log }

let wave_of result net name =
  match Netlist.find net name with
  | Some id -> wave result id
  | None -> raise Not_found
