(* Tests for three-valued logic, waveforms, the event queue and both
   simulators — including the glitch semantics everything rests on. *)

let tc = Alcotest.test_case

let qcheck ?(count = 100) name arb law = Qc.qcheck ~count name arb law

let logic_arb =
  QCheck.make
    ~print:(fun v -> String.make 1 (Logic.to_char v))
    QCheck.Gen.(oneofl [ Logic.F; Logic.T; Logic.X ])

(* ----- Logic ----- *)

let test_logic_tables () =
  let open Logic in
  Alcotest.(check char) "not x" 'x' (to_char (lnot X));
  Alcotest.(check char) "0 and x" '0' (to_char (land_ F X));
  Alcotest.(check char) "1 and x" 'x' (to_char (land_ T X));
  Alcotest.(check char) "1 or x" '1' (to_char (lor_ T X));
  Alcotest.(check char) "0 or x" 'x' (to_char (lor_ F X));
  Alcotest.(check char) "x xor 1" 'x' (to_char (lxor_ X T));
  Alcotest.(check char) "mux x same" '1' (to_char (mux X T T));
  Alcotest.(check char) "mux x diff" 'x' (to_char (mux X T F))

let de_morgan_law (a, b) =
  Logic.equal (Logic.lnot (Logic.land_ a b)) (Logic.lor_ (Logic.lnot a) (Logic.lnot b))

let logic_matches_bool_law (a, b) =
  (* On determinate values three-valued ops agree with Cell.eval. *)
  let module L = Logic in
  let ba = Option.get (L.to_bool a) and bb = Option.get (L.to_bool b) in
  List.for_all
    (fun fn ->
      L.equal
        (L.eval_fn fn [| a; b |])
        (L.of_bool (Cell.eval fn [| ba; bb |])))
    [ Cell.And; Cell.Or; Cell.Nand; Cell.Nor; Cell.Xor; Cell.Xnor ]

let test_logic_eval_lut () =
  let xor_tt = [| false; true; true; false |] in
  Alcotest.(check char) "lut 10" '1'
    (Logic.to_char (Logic.eval_lut xor_tt [| Logic.T; Logic.F |]));
  (* one input unknown, rows disagree -> X *)
  Alcotest.(check char) "lut x" 'x'
    (Logic.to_char (Logic.eval_lut xor_tt [| Logic.X; Logic.F |]));
  (* rows agree despite unknown -> determinate *)
  let const_tt = [| true; true; true; true |] in
  Alcotest.(check char) "lut const" '1'
    (Logic.to_char (Logic.eval_lut const_tt [| Logic.X; Logic.X |]))

(* ----- Event_queue ----- *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  let names = [| "e5"; "e1"; "e3a"; "e3b" |] in
  Event_queue.add q ~time:5 0;
  Event_queue.add q ~time:1 1;
  Event_queue.add q ~time:3 2;
  Event_queue.add q ~time:3 3;
  Alcotest.(check int) "peek" 1 (Event_queue.min_time q);
  let order = List.init 4 (fun _ -> names.(Event_queue.pop q)) in
  Alcotest.(check (list string)) "order + ties FIFO" [ "e1"; "e3a"; "e3b"; "e5" ] order;
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let event_queue_sorted_law times =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.add q ~time:t 0) times;
  let rec drain acc =
    if Event_queue.is_empty q then List.rev acc
    else begin
      let t = Event_queue.min_time q in
      ignore (Event_queue.pop q);
      drain (t :: acc)
    end
  in
  drain [] = List.sort compare times

(* ----- Waveform ----- *)

let test_waveform_normalize () =
  let w =
    Waveform.make ~initial:Logic.F
      [ (10, Logic.T); (5, Logic.F); (20, Logic.T); (30, Logic.F) ]
  in
  (* (5,F) is a non-change and (20,T) repeats the current value *)
  Alcotest.(check int) "transition count" 2
    (List.length (Waveform.transitions w));
  Alcotest.(check char) "before" '0' (Logic.to_char (Waveform.value_at w 9));
  Alcotest.(check char) "at" '1' (Logic.to_char (Waveform.value_at w 10));
  Alcotest.(check char) "after fall" '0' (Logic.to_char (Waveform.value_at w 31))

let waveform_value_consistent_law pairs =
  (* value_at after a make sees the last change at or before t. *)
  let trans = List.map (fun (t, b) -> (abs t mod 1000, Logic.of_bool b)) pairs in
  let w = Waveform.make ~initial:Logic.F trans in
  (* transitions are strictly increasing and all change the value *)
  let rec strictly_changing prev = function
    | [] -> true
    | (t, v) :: rest ->
      (match prev with
      | Some (pt, pv) -> t > pt && not (Logic.equal v pv)
      | None -> not (Logic.equal v Logic.F))
      && strictly_changing (Some (t, v)) rest
  in
  strictly_changing None (Waveform.transitions w)

let test_waveform_pulses () =
  let w =
    Waveform.make ~initial:Logic.F
      [ (100, Logic.T); (150, Logic.F); (300, Logic.T); (900, Logic.F) ]
  in
  let all = Waveform.pulses w ~until:1000 in
  (* three closed pulses plus the final interval still open at 1000 *)
  Alcotest.(check int) "pulses incl. open tail" 4 (List.length all);
  let narrow = Waveform.pulses ~max_width:100 w ~until:1000 in
  Alcotest.(check int) "glitches incl. open tail" 2 (List.length narrow);
  let p = List.hd narrow in
  Alcotest.(check int) "start" 100 p.Waveform.start_ps;
  Alcotest.(check int) "stop" 150 p.Waveform.stop_ps;
  (* the open tail is clipped at the trace boundary *)
  let tail = List.nth narrow 1 in
  Alcotest.(check int) "tail start" 900 tail.Waveform.start_ps;
  Alcotest.(check int) "tail stop" 1000 tail.Waveform.stop_ps;
  (* a short bounded window never invents a pulse out of the tail *)
  Alcotest.(check int) "tail too wide for 50"
    1
    (List.length (Waveform.pulses ~max_width:50 w ~until:1000))

let test_waveform_pulses_edges () =
  let w = Waveform.make ~initial:Logic.F [ (100, Logic.T); (130, Logic.F) ] in
  (* the width filter is inclusive: a 30 ps pulse survives max_width 30 *)
  Alcotest.(check int) "width = max_width kept" 1
    (List.length
       (List.filter
          (fun p -> p.Waveform.start_ps = 100)
          (Waveform.pulses ~max_width:30 w ~until:200)));
  Alcotest.(check int) "width > max_width dropped" 0
    (List.length
       (List.filter
          (fun p -> p.Waveform.start_ps = 100)
          (Waveform.pulses ~max_width:29 w ~until:200)));
  (* every interval carries its level, including the low tail *)
  (match Waveform.pulses w ~until:200 with
  | [ hi; lo ] ->
    Alcotest.(check char) "high level" '1' (Logic.to_char hi.Waveform.level);
    Alcotest.(check char) "low tail level" '0' (Logic.to_char lo.Waveform.level);
    Alcotest.(check int) "low tail clipped" 200 lo.Waveform.stop_ps
  | ps -> Alcotest.failf "expected 2 intervals, got %d" (List.length ps));
  (* a closed pulse opening exactly at [until] is reported ... *)
  let at = Waveform.make ~initial:Logic.F [ (200, Logic.T); (260, Logic.F) ] in
  (match Waveform.pulses ~max_width:100 at ~until:200 with
  | [ p ] ->
    Alcotest.(check int) "at-boundary start" 200 p.Waveform.start_ps;
    Alcotest.(check int) "at-boundary true stop" 260 p.Waveform.stop_ps
  | ps -> Alcotest.failf "expected 1 pulse, got %d" (List.length ps));
  (* ... but an open tail starting exactly at [until] is not: it would
     be a zero-width artifact of the clipping *)
  let tail = Waveform.make ~initial:Logic.F [ (200, Logic.T) ] in
  Alcotest.(check int) "zero-width tail suppressed" 0
    (List.length (Waveform.pulses tail ~until:200))

let test_waveform_pulses_boundary () =
  (* A glitch that straddles the observation boundary: starts at 950,
     closes at 1010 > until.  It must be reported with its true width,
     not silently dropped. *)
  let w =
    Waveform.make ~initial:Logic.F
      [ (950, Logic.T); (1010, Logic.F); (1200, Logic.T) ]
  in
  let gl = Waveform.pulses ~max_width:100 w ~until:1000 in
  Alcotest.(check int) "straddling glitch found" 1 (List.length gl);
  let p = List.hd gl in
  Alcotest.(check int) "straddle start" 950 p.Waveform.start_ps;
  Alcotest.(check int) "straddle stop" 1010 p.Waveform.stop_ps;
  Alcotest.(check char) "straddle level" '1' (Logic.to_char p.Waveform.level);
  (* a pulse opened by the very last transition is clipped at [until] *)
  let w2 = Waveform.make ~initial:Logic.F [ (980, Logic.T) ] in
  (match Waveform.pulses ~max_width:100 w2 ~until:1000 with
  | [ p ] ->
    Alcotest.(check int) "open start" 980 p.Waveform.start_ps;
    Alcotest.(check int) "open stop" 1000 p.Waveform.stop_ps
  | l -> Alcotest.failf "expected one open pulse, got %d" (List.length l));
  (* nothing opens after [until] *)
  let w3 = Waveform.make ~initial:Logic.F [ (1050, Logic.T) ] in
  Alcotest.(check int) "no pulse past until" 0
    (List.length (Waveform.pulses w3 ~until:1000))

let test_waveform_toggle_delay () =
  let w = Waveform.toggle ~t0:100 ~period:200 ~start:Logic.F ~until:700 in
  Alcotest.(check int) "toggle count" 4 (List.length (Waveform.transitions w));
  Alcotest.(check char) "after first" '1' (Logic.to_char (Waveform.value_at w 150));
  let d = Waveform.delay w 50 in
  Alcotest.(check char) "delayed still old" '0' (Logic.to_char (Waveform.value_at d 120));
  Alcotest.(check char) "delayed new" '1' (Logic.to_char (Waveform.value_at d 150))

let test_waveform_map2 () =
  let a = Waveform.make ~initial:Logic.F [ (10, Logic.T) ] in
  let b = Waveform.make ~initial:Logic.T [ (20, Logic.F) ] in
  let w = Waveform.map2 Logic.land_ a b in
  Alcotest.(check char) "0&1" '0' (Logic.to_char (Waveform.value_at w 5));
  Alcotest.(check char) "1&1" '1' (Logic.to_char (Waveform.value_at w 15));
  Alcotest.(check char) "1&0" '0' (Logic.to_char (Waveform.value_at w 25))

let test_waveform_stability () =
  let w = Waveform.make ~initial:Logic.F [ (100, Logic.T) ] in
  Alcotest.(check bool) "stable before" true (Waveform.stable_in w ~from_:0 ~until:99);
  Alcotest.(check bool) "unstable across" false (Waveform.stable_in w ~from_:50 ~until:150);
  Alcotest.(check int) "changes" 1
    (List.length (Waveform.changes_in w ~from_:100 ~until:100))

(* ----- Cycle_sim ----- *)

let test_cycle_sim_counter () =
  (* 1-bit toggle counter: ff <- NOT ff *)
  let n = Netlist.create "t" in
  let placeholder = Netlist.add_const n false in
  let f = Netlist.add_ff n ~name:"f" placeholder in
  let inv = Netlist.add_gate n Cell.Not [| f |] in
  Netlist.set_fanin n ~node_id:f ~pin:0 ~driver:inv;
  Netlist.add_output n "q" f;
  let outs = Cycle_sim.run n ~cycles:4 ~stimulus:(fun _ _ -> false) in
  let qs = Array.to_list (Array.map (fun o -> List.assoc "q" o) outs) in
  (* value of Q during each cycle's evaluation: starts 0, then toggles *)
  Alcotest.(check (list bool)) "toggle" [ false; true; false; true ] qs

let test_cycle_sim_comb_guard () =
  let net = Benchmarks.s27 () in
  Alcotest.check_raises "needs comb"
    (Invalid_argument "Cycle_sim.comb_outputs: netlist has flip-flops")
    (fun () -> ignore (Cycle_sim.comb_outputs net ~inputs:(fun _ -> false)))

(* ----- Timing_sim ----- *)

(* A glitch-free pipeline settles to the same per-cycle values as the
   zero-delay simulator (after the edge-0 launch alignment). *)
let timing_matches_cycle_law seed =
  let net =
    Generator.generate
      {
        Generator.gen_name = "tm";
        seed;
        n_pi = 4;
        n_po = 3;
        n_ff = 4;
        n_gates = 18;
        depth = 4;
        ff_depth_bias = 0.2;
      }
  in
  let clock_ps = Sta.clock_for net ~margin:1.5 in
  let cycles = 6 in
  (* constant inputs: no input-induced hazards; FF captures must agree *)
  let rng = Random.State.make [| seed; 99 |] in
  let pi_vals =
    List.map (fun pi -> (pi, Random.State.bool rng)) (Netlist.inputs net)
  in
  let r =
    Timing_sim.run
      ~drive:(fun pi -> Timing_sim.Const (List.assoc pi pi_vals))
      net
      { Timing_sim.clock_ps; cycles }
  in
  (* cycle sim: timing edge k captures what cycle-sim computes in its
     step k+1 (edge 0 loaded step 0's capture) *)
  let sim = Cycle_sim.create net in
  let inputs id = List.assoc id pi_vals in
  ignore (Cycle_sim.step sim ~inputs);
  let ok = ref true in
  for k = 0 to cycles - 1 do
    ignore (Cycle_sim.step sim ~inputs);
    let state = Cycle_sim.state sim in
    Array.iteri
      (fun i ff ->
        let expected = Logic.of_bool (List.assoc ff state) in
        if not (Logic.equal r.Timing_sim.ff_samples.(i).(k) expected) then
          ok := false)
      r.Timing_sim.ff_ids
  done;
  !ok && r.Timing_sim.violations = []

let test_timing_glitch_propagation () =
  (* a pulse travels through a buffer chain, shifted by the chain delay *)
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  let b1 = Netlist.add_gate n Cell.Buf [| a |] in
  let b2 = Netlist.add_gate n Cell.Buf [| b1 |] in
  Netlist.add_output n "y" b2;
  let pulse = Waveform.make ~initial:Logic.F [ (1000, Logic.T); (1100, Logic.F) ] in
  let r =
    Timing_sim.run
      ~drive:(fun _ -> Timing_sim.Wave pulse)
      n
      { Timing_sim.clock_ps = 4000; cycles = 1 }
  in
  let y = Timing_sim.wave_of r n "n2" in
  let d = 2 * (Cell_lib.bind Cell.Buf 1).Cell.delay_ps in
  Alcotest.(check char) "pulse arrives" '1'
    (Logic.to_char (Waveform.value_at y (1050 + d)));
  Alcotest.(check char) "pulse ends" '0'
    (Logic.to_char (Waveform.value_at y (1150 + d)))

let test_timing_violation_detection () =
  (* a D transition inside the capture window must be flagged and latch X *)
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  let f = Netlist.add_ff n ~name:"f" a in
  Netlist.add_output n "q" f;
  let clock = 2000 in
  (* transition exactly at the edge: hold violation *)
  let w = Waveform.make ~initial:Logic.F [ (clock, Logic.T) ] in
  let r =
    Timing_sim.run
      ~drive:(fun _ -> Timing_sim.Wave w)
      n
      { Timing_sim.clock_ps = clock; cycles = 2 }
  in
  Alcotest.(check int) "one violation" 1 (List.length r.Timing_sim.violations);
  let v = List.hd r.Timing_sim.violations in
  Alcotest.(check bool) "hold kind" true
    (v.Timing_sim.v_kind = Timing_sim.Hold_violation);
  Alcotest.(check char) "latched X" 'x'
    (Logic.to_char r.Timing_sim.ff_samples.(0).(0));
  (* a transition comfortably after the hold window is clean *)
  let w2 = Waveform.make ~initial:Logic.F [ (clock + 500, Logic.T) ] in
  let r2 =
    Timing_sim.run
      ~drive:(fun _ -> Timing_sim.Wave w2)
      n
      { Timing_sim.clock_ps = clock; cycles = 2 }
  in
  Alcotest.(check int) "clean" 0 (List.length r2.Timing_sim.violations);
  Alcotest.(check char) "captures late value" '1'
    (Logic.to_char r2.Timing_sim.ff_samples.(0).(1));
  (* the window is closed: a transition exactly hold after the edge
     violates, one a picosecond later does not *)
  let violations_at t =
    let w = Waveform.make ~initial:Logic.F [ (t, Logic.T) ] in
    List.length
      (Timing_sim.run ~drive:(fun _ -> Timing_sim.Wave w) n
         { Timing_sim.clock_ps = clock; cycles = 2 })
        .Timing_sim.violations
  in
  Alcotest.(check int) "at edge + hold" 1 (violations_at (clock + Cell_lib.dff_hold_ps));
  Alcotest.(check int) "past edge + hold" 0 (violations_at (clock + Cell_lib.dff_hold_ps + 1))

let test_timing_setup_violation () =
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  let f = Netlist.add_ff n ~name:"f" a in
  Netlist.add_output n "q" f;
  let clock = 2000 in
  (* transition 30 ps before the edge: inside the 100 ps setup window *)
  let w = Waveform.make ~initial:Logic.F [ (clock - 30, Logic.T) ] in
  let r =
    Timing_sim.run
      ~drive:(fun _ -> Timing_sim.Wave w)
      n
      { Timing_sim.clock_ps = clock; cycles = 1 }
  in
  Alcotest.(check int) "one violation" 1 (List.length r.Timing_sim.violations);
  Alcotest.(check bool) "setup kind" true
    ((List.hd r.Timing_sim.violations).Timing_sim.v_kind = Timing_sim.Setup_violation);
  (* exactly setup before the edge violates, a picosecond earlier does not *)
  let sample_at t =
    let w = Waveform.make ~initial:Logic.F [ (t, Logic.T) ] in
    (Timing_sim.run ~drive:(fun _ -> Timing_sim.Wave w) n
       { Timing_sim.clock_ps = clock; cycles = 1 })
      .Timing_sim.ff_samples.(0).(0)
  in
  Alcotest.(check char) "at edge - setup" 'x'
    (Logic.to_char (sample_at (clock - Cell_lib.dff_setup_ps)));
  Alcotest.(check char) "before edge - setup" '1'
    (Logic.to_char (sample_at (clock - Cell_lib.dff_setup_ps - 1)))

let test_timing_gk_fig4 () =
  (* the exact Fig. 4 waveform: checked as data, not just rendered *)
  let net = Netlist.create "fig4" in
  let x = Netlist.add_input net "x" in
  let key = Netlist.add_input net "key" in
  let gk =
    Gk.insert net ~profile:`Custom ~name:"gk" ~x ~key
      ~variant:Gk.Invert_on_const ~d_path_a_ps:2000 ~d_path_b_ps:3000 ()
  in
  Netlist.add_output net "y" gk.Gk.out;
  let drive pi =
    if pi = x then Timing_sim.Const true
    else
      Timing_sim.Wave
        (Waveform.make ~initial:Logic.F [ (3000, Logic.T); (11000, Logic.F) ])
  in
  let r = Timing_sim.run ~drive net { Timing_sim.clock_ps = 20000; cycles = 1 } in
  let y = Timing_sim.wave_of r net "gk_mux" in
  let d_mux = gk.Gk.d_mux_ps in
  let expected =
    [
      (3000 + d_mux, Logic.T);
      (3000 + 3000 + d_mux, Logic.F);
      (11000 + d_mux, Logic.T);
      (11000 + 2000 + d_mux, Logic.F);
    ]
  in
  Alcotest.(check bool) "fig4 transitions" true
    (Waveform.equal y (Waveform.make ~initial:Logic.F expected))

let test_timing_po_sampling () =
  let n = Netlist.create "t" in
  let a = Netlist.add_input n "a" in
  Netlist.add_output n "y" a;
  let w = Waveform.make ~initial:Logic.F [ (1500, Logic.T) ] in
  let r =
    Timing_sim.run ~drive:(fun _ -> Timing_sim.Wave w) n
      { Timing_sim.clock_ps = 1000; cycles = 3 }
  in
  let samples = List.assoc "y" r.Timing_sim.po_samples in
  Alcotest.(check string) "po samples" "011"
    (String.init 3 (fun i -> Logic.to_char samples.(i)));
  (* a transition takes effect at its timestamp, so one exactly on an
     edge is sampled there *)
  let w = Waveform.make ~initial:Logic.F [ (2000, Logic.T) ] in
  let r =
    Timing_sim.run ~drive:(fun _ -> Timing_sim.Wave w) n
      { Timing_sim.clock_ps = 1000; cycles = 3 }
  in
  let samples = List.assoc "y" r.Timing_sim.po_samples in
  Alcotest.(check string) "edge-aligned po samples" "011"
    (String.init 3 (fun i -> Logic.to_char samples.(i)))

let test_timing_guards () =
  let n = Netlist.create "t" in
  ignore (Netlist.add_input n "a");
  Alcotest.check_raises "bad clock"
    (Invalid_argument "Timing_sim.run: clock period shorter than FF timing arcs")
    (fun () -> ignore (Timing_sim.run n { Timing_sim.clock_ps = 200; cycles = 1 }))

(* ----- Event identity: pinned runs every kernel must reproduce ----- *)

let m_events = Obs.Metrics.counter "sim.events_popped"
let m_trans = Obs.Metrics.counter "sim.transitions"
let m_pulses = Obs.Metrics.counter "sim.glitch_pulses"

let samples_string a = String.init (Array.length a) (fun i -> Logic.to_char a.(i))

(* Long strings are pinned by the first 12 hex digits of their MD5. *)
let pin s =
  if String.length s <= 40 then s
  else "md5:" ^ String.sub (Digest.to_hex (Digest.string s)) 0 12

(* One run reduced to what the simulator promises: the events it popped,
   the transitions it made, every violation, every FF and PO sample, every
   node's waveform and, with tracing on, the Eq. 2 pulses on FF D pins. *)
let identity_row ?drive ?captures_from net cfg =
  let run () = Timing_sim.run ?drive ?captures_from net cfg in
  let e0 = Obs.Metrics.value m_events and t0 = Obs.Metrics.value m_trans in
  let r = run () in
  let events = Obs.Metrics.value m_events - e0
  and trans = Obs.Metrics.value m_trans - t0 in
  let path = Filename.temp_file "gklock_pin" ".jsonl" in
  let p0 = Obs.Metrics.value m_pulses in
  Obs.Trace.enable ~file:path ();
  let traced = Fun.protect ~finally:Obs.Trace.disable run in
  let pulses = Obs.Metrics.value m_pulses - p0 in
  Sys.remove path;
  let viol =
    String.concat ";"
      (List.map
         (fun v ->
           Printf.sprintf "%s@%d%c%d" v.Timing_sim.v_ff_name v.Timing_sim.v_cycle
             (match v.Timing_sim.v_kind with
             | Timing_sim.Setup_violation -> 's'
             | Timing_sim.Hold_violation -> 'h')
             v.Timing_sim.v_time)
         r.Timing_sim.violations)
  in
  let ffs (r : Timing_sim.result) =
    String.concat "|" (Array.to_list (Array.map samples_string r.Timing_sim.ff_samples))
  in
  let pos (r : Timing_sim.result) =
    String.concat "|"
      (List.map (fun (po, s) -> po ^ "=" ^ samples_string s) r.Timing_sim.po_samples)
  in
  if ffs traced <> ffs r || pos traced <> pos r then
    Alcotest.fail "tracing changed the samples";
  let waves =
    String.concat "\n"
      (List.init (Netlist.num_nodes net) (fun id ->
           Format.asprintf "%a" Waveform.pp (Timing_sim.wave r id)))
  in
  Printf.sprintf "events=%d trans=%d viol=%d:%s ff=%s po=%s waves=%s pulses=%d" events
    trans
    (List.length r.Timing_sim.violations)
    (pin viol) (pin (ffs r)) (pin (pos r)) (pin waves) pulses

let identity_cycles = 24

(* GK-8 at lock seed 1 on a benchmark, through the same drive and capture
   policy as the paper's key checks: the unlocked baseline, the correct
   key, a leftover key (k1 = k2 = b, a constant GK key) and the opposite
   delay branch on every GK (mistimed glitches: violations). *)
let gk8_rows bname =
  let spec = Option.get (Benchmarks.find_spec bname) in
  let net = Benchmarks.load spec in
  let clock_ps = Sta.clock_for net ~margin:spec.Benchmarks.clk_margin in
  let cfg = { Timing_sim.clock_ps; cycles = identity_cycles } in
  let stim n = Stimuli.edge_aligned ~seed:1 n ~clock_ps ~cycles:identity_cycles in
  let d = Insertion.lock ~seed:1 net ~clock_ps ~n_gks:8 in
  let locked key =
    identity_row
      ~drive:(Insertion.timing_drive ~other:(stim d.Insertion.lnet) d key)
      ~captures_from:(Insertion.capture_policy d) d.Insertion.lnet cfg
  in
  let leftover =
    List.concat
      (List.mapi
         (fun i p ->
           let b = i mod 2 = 1 in
           [ (p.Insertion.p_k1_name, b); (p.Insertion.p_k2_name, b) ])
         d.Insertion.placements)
  in
  [
    ("baseline", identity_row ~drive:(stim net) ~captures_from:(fun _ -> 1) net cfg);
    ("correct", locked d.Insertion.correct_key);
    ("leftover", locked leftover);
    ("mistimed", locked (List.map (fun (k, b) -> (k, not b)) d.Insertion.correct_key));
  ]

(* Key inputs held at their bits, every other input edge-aligned. *)
let keyed_drive net ~clock_ps key pi =
  match List.assoc_opt (Netlist.node net pi).Netlist.name key with
  | Some b -> Timing_sim.Const b
  | None -> Stimuli.edge_aligned ~seed:1 net ~clock_ps ~cycles:identity_cycles pi

let s1238_clock () =
  let spec = Option.get (Benchmarks.find_spec "s1238") in
  let net = Benchmarks.load spec in
  (net, Sta.clock_for net ~margin:spec.Benchmarks.clk_margin)

let xor_row () =
  let net, clock_ps = s1238_clock () in
  let lk = Xor_lock.lock ~seed:1 net ~n_keys:8 in
  let wrong = List.map (fun (k, b) -> (k, not b)) lk.Locked.correct_key in
  List.map
    (fun (label, key) ->
      ( label,
        identity_row
          ~drive:(keyed_drive lk.Locked.net ~clock_ps key)
          lk.Locked.net
          { Timing_sim.clock_ps; cycles = identity_cycles } ))
    [ ("correct", lk.Locked.correct_key); ("wrong", wrong) ]

let hybrid_row () =
  let net, clock_ps = s1238_clock () in
  let h = Hybrid.lock ~seed:1 net ~clock_ps ~n_gks:4 ~n_xors:8 in
  let d = h.Hybrid.design in
  let lnet = d.Insertion.lnet in
  identity_row
    ~drive:
      (Insertion.timing_drive
         ~other:(keyed_drive lnet ~clock_ps h.Hybrid.all_correct_key)
         d h.Hybrid.all_correct_key)
    ~captures_from:(Insertion.capture_policy d) lnet
    { Timing_sim.clock_ps; cycles = identity_cycles }

(* Mid-cycle input pulses, so setup and hold windows get hit. *)
let pulse_drive ~seed ~clock_ps ~cycles pi =
  let rng = Random.State.make [| seed; pi |] in
  let trans =
    List.init (3 * cycles) (fun _ ->
        (Random.State.int rng (cycles * clock_ps), Logic.of_bool (Random.State.bool rng)))
  in
  Timing_sim.Wave (Waveform.make ~initial:(Logic.of_bool (Random.State.bool rng)) trans)

(* A 3-input LUT between two flip-flops and an input. *)
let lut_row () =
  let n = Netlist.create "lut" in
  let a = Netlist.add_input n "a" and b = Netlist.add_input n "b" in
  let q = Netlist.add_ff n ~name:"q" a in
  let l =
    Netlist.add_lut n ~name:"l"
      ~truth:[| false; true; true; false; true; false; false; true |]
      [| a; b; q |]
  in
  let r = Netlist.add_ff n ~name:"r" l in
  Netlist.set_fanin n ~node_id:q ~pin:0 ~driver:(Netlist.add_gate n Cell.Xor [| a; r |]);
  Netlist.add_output n "y" l;
  Netlist.add_output n "z" r;
  identity_row ~drive:(pulse_drive ~seed:3 ~clock_ps:2000 ~cycles:6) n
    { Timing_sim.clock_ps = 2000; cycles = 6 }

(* Gates reading the same driver on two pins: every change of [a]
   schedules each of them twice.  The MUX's select is [f], which latches
   X on a violation; with both data pins equal it still passes [a]. *)
let dup_pin_row () =
  let n = Netlist.create "dup" in
  let a = Netlist.add_input n "a" and b = Netlist.add_input n "b" in
  let g = Netlist.add_gate n ~name:"g" Cell.And [| a; b; a |] in
  let f = Netlist.add_ff n ~name:"f" g in
  let m = Netlist.add_gate n ~name:"m" Cell.Mux [| f; a; a |] in
  Netlist.add_output n "y" g;
  Netlist.add_output n "q" f;
  Netlist.add_output n "m" m;
  identity_row ~drive:(pulse_drive ~seed:4 ~clock_ps:2000 ~cycles:6) n
    { Timing_sim.clock_ps = 2000; cycles = 6 }

let check_rows name expected got =
  List.iter2
    (fun (label, want) (label', row) ->
      Alcotest.(check string) "row label" label label';
      Alcotest.(check string) (name ^ " " ^ label) want row)
    expected got

let test_identity_gk8_s1238 () =
  check_rows "s1238"
    [
      ( "baseline",
        "events=5684 trans=2585 viol=0: ff=md5:4a1a5e481eb3 po=md5:23f9281c5979 \
         waves=md5:eb51a700c90d pulses=25" );
      ( "correct",
        "events=9941 trans=6425 viol=0: ff=md5:fd79d2eba36d po=md5:23f9281c5979 \
         waves=md5:c6c94d725e6c pulses=446" );
      ( "leftover",
        "events=5900 trans=3633 viol=0: ff=md5:8623d93e1dfa po=md5:390772eb445d \
         waves=md5:6b4ab3fa26de pulses=14" );
      ( "mistimed",
        "events=9596 trans=5954 viol=87:md5:c8f6aabde95e ff=md5:f965207315cb \
         po=md5:f7c6f9d41c42 waves=md5:97c7fb036e57 pulses=252" );
    ]
    (gk8_rows "s1238")

let test_identity_gk8_s5378 () =
  check_rows "s5378"
    [
      ( "baseline",
        "events=16906 trans=7319 viol=0: ff=md5:72a14f031885 po=md5:cc56324e8477 \
         waves=md5:8da136e10dd1 pulses=1604" );
      ( "correct",
        "events=21321 trans=11253 viol=0: ff=md5:7043124126bb po=md5:cc56324e8477 \
         waves=md5:e2b950a567fe pulses=2034" );
      ( "leftover",
        "events=20192 trans=10117 viol=0: ff=md5:3fbe1aa13399 po=md5:847a3f1e8054 \
         waves=md5:b384453c8165 pulses=1900" );
      ( "mistimed",
        "events=18607 trans=9620 viol=90:md5:ae0baf81e566 ff=md5:877185926458 \
         po=md5:afde2ec2ab04 waves=md5:5354f56d8dd5 pulses=731" );
    ]
    (gk8_rows "s5378")

let test_identity_xor () =
  check_rows "xor-8 s1238"
    [
      ( "correct",
        "events=6096 trans=2849 viol=0: ff=md5:4983fba31623 po=md5:90562c101c41 \
         waves=md5:0478902997c1 pulses=34" );
      ( "wrong",
        "events=8251 trans=3975 viol=0: ff=md5:0bcd1da50324 po=md5:7ecd0d675b9c \
         waves=md5:876d9032eb22 pulses=185" );
    ]
    (xor_row ())

let test_identity_hybrid () =
  check_rows "gk-4 + xor-8 s1238"
    [
      ( "correct",
        "events=7909 trans=4557 viol=0: ff=md5:bbb4f5e0a83b po=md5:23f9281c5979 \
         waves=md5:c13f26ef522e pulses=228" );
    ]
    [ ("correct", hybrid_row ()) ]

let test_identity_lut () =
  check_rows "lut"
    [
      ( "row",
        "events=59 trans=50 viol=0: ff=001110|001001 po=y=001001|z=000100 \
         waves=md5:3feee0f0da3b pulses=27" );
    ]
    [ ("row", lut_row ()) ]

let test_identity_dup_pin () =
  check_rows "dup pin"
    [
      ( "row",
        "events=72 trans=40 viol=1:f@0h2040 ff=x11000 po=y=111000|q=0x1100|m=111100 \
         waves=md5:23b6dfdb49b7 pulses=8" );
    ]
    [ ("row", dup_pin_row ()) ]

(* The waveforms agree with the sample path, which reads the same
   transitions another way: each PO sample is its driver's wave at the
   edge, and each FF sample taken without a violation is its D pin's.
   Input transitions sit on a 50 ps grid, so some land exactly on edges
   and on setup/hold window boundaries. *)
let waves_match_samples_law seed =
  let rng = Random.State.make [| seed; 0x5A |] in
  let net = Netlist_gen.net rng in
  let clock_ps = 3000 and cycles = 5 in
  let drive pi =
    let rng = Random.State.make [| seed; pi; 0x50 |] in
    Timing_sim.Wave
      (Waveform.make ~initial:(Logic.of_bool (Random.State.bool rng))
         (List.init (3 * cycles) (fun _ ->
              ( 50 * Random.State.int rng (cycles * clock_ps / 50),
                Logic.of_bool (Random.State.bool rng) ))))
  in
  let r = Timing_sim.run ~drive net { Timing_sim.clock_ps; cycles } in
  let at id k = Waveform.value_at (Timing_sim.wave r id) ((k + 1) * clock_ps) in
  let violated ff k =
    List.exists
      (fun v -> v.Timing_sim.v_ff = ff && v.Timing_sim.v_cycle = k)
      r.Timing_sim.violations
  in
  List.for_all
    (fun (po, driver) ->
      let s = List.assoc po r.Timing_sim.po_samples in
      Array.for_all Fun.id (Array.mapi (fun k v -> Logic.equal v (at driver k)) s))
    (Netlist.outputs net)
  && Array.for_all Fun.id
       (Array.mapi
          (fun i ff ->
            let d = (Netlist.node net ff).Netlist.fanins.(0) in
            Array.for_all Fun.id
              (Array.mapi
                 (fun k v -> violated ff k || Logic.equal v (at d k))
                 r.Timing_sim.ff_samples.(i)))
          r.Timing_sim.ff_ids)

let suites =
  [
    ( "sim.logic",
      [
        tc "tables" `Quick test_logic_tables;
        tc "lut" `Quick test_logic_eval_lut;
        qcheck "de morgan (3-valued)" QCheck.(pair logic_arb logic_arb) de_morgan_law;
        qcheck "agrees with bool eval"
          QCheck.(
            pair
              (map Logic.of_bool bool)
              (map Logic.of_bool bool))
          logic_matches_bool_law;
      ] );
    ( "sim.event_queue",
      [
        tc "order" `Quick test_event_queue_order;
        qcheck "drains sorted" QCheck.(list small_nat) event_queue_sorted_law;
      ] );
    ( "sim.waveform",
      [
        tc "normalize" `Quick test_waveform_normalize;
        tc "pulses" `Quick test_waveform_pulses;
        tc "pulses at trace boundary" `Quick test_waveform_pulses_boundary;
        tc "pulses width/level edges" `Quick test_waveform_pulses_edges;
        tc "toggle/delay" `Quick test_waveform_toggle_delay;
        tc "map2" `Quick test_waveform_map2;
        tc "stability" `Quick test_waveform_stability;
        qcheck "make produces canonical waveforms"
          QCheck.(list (pair int bool))
          waveform_value_consistent_law;
      ] );
    ( "sim.cycle",
      [
        tc "toggle counter" `Quick test_cycle_sim_counter;
        tc "comb guard" `Quick test_cycle_sim_comb_guard;
      ] );
    ( "sim.timing",
      [
        tc "glitch propagation" `Quick test_timing_glitch_propagation;
        tc "hold violation" `Quick test_timing_violation_detection;
        tc "setup violation" `Quick test_timing_setup_violation;
        tc "fig4 GK waveform" `Quick test_timing_gk_fig4;
        tc "po sampling" `Quick test_timing_po_sampling;
        tc "guards" `Quick test_timing_guards;
        qcheck ~count:25 "matches cycle sim on stable inputs"
          (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 500))
          timing_matches_cycle_law;
        tc "event identity: GK-8 s1238" `Quick test_identity_gk8_s1238;
        tc "event identity: GK-8 s5378" `Quick test_identity_gk8_s5378;
        tc "event identity: XOR-8 s1238" `Quick test_identity_xor;
        tc "event identity: GK-4 + XOR-8 s1238" `Quick test_identity_hybrid;
        tc "event identity: LUT" `Quick test_identity_lut;
        tc "event identity: same driver on two pins" `Quick test_identity_dup_pin;
        qcheck ~count:200 "waves agree with the samples" Netlist_gen.arb_seed
          waves_match_samples_law;
      ] );
  ]
