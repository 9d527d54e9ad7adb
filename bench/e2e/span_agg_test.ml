(* Pins Span_agg's self-time arithmetic on a synthetic trace: two
   threads, spans nested three deep, a repeated child, an "X" complete
   event, and a pair of spans closed out of order on one tid (how a
   daemon's reader and flusher threads interleave). *)

let ev ?dur name ph ts tid =
  Printf.sprintf {|{"name":"%s","ph":"%s","ts":%d,"pid":7,"tid":%d%s}|} name ph ts tid
    (match dur with Some d -> Printf.sprintf {|,"dur":%d|} d | None -> "")

let trace =
  [
    ev "a" "B" 0 1;
    ev "a" "B" 5 2;
    ev "b" "B" 10 1;
    ev "c" "B" 10 2;
    ev "c" "B" 20 1;
    ev "c" "E" 30 1;
    ev "c" "E" 40 2;
    ev "a" "E" 45 2;
    ev "b" "E" 60 1;
    ev "b" "B" 70 1;
    ev ~dur:5 "x" "X" 75 1;
    ev "b" "E" 90 1;
    ev "a" "E" 100 1;
    (* tid 3: req opens, flush opens, req closes first *)
    ev "req" "B" 200 3;
    ev "flush" "B" 205 3;
    ev "req" "E" 208 3;
    ev "flush" "E" 220 3;
    "";
    "{torn";
  ]

let failures = ref 0

let check label got want =
  if Float.abs (got -. want) > 1e-9 then begin
    incr failures;
    Printf.printf "FAIL %s: got %g, want %g\n" label got want
  end

let () =
  let t = Span_agg.create () in
  List.iter (Span_agg.add_line t) trace;
  let us x = x /. 1e6 in
  (* tid 1: a[0,100] > b[10,60] > c[20,30]; a > b[70,90] > x[75,80].
     tid 2: a[5,45] > c[10,40]. *)
  check "a total" (Span_agg.total_s t "a") (us 140.);
  check "a self" (Span_agg.self_s t "a") (us (30. +. 10.));
  check "b total" (Span_agg.total_s t "b") (us 70.);
  check "b self" (Span_agg.self_s t "b") (us (40. +. 15.));
  check "c self" (Span_agg.self_s t "c") (us (10. +. 30.));
  check "x self" (Span_agg.self_s t "x") (us 5.);
  check "c under a" (Span_agg.self_under_s t ~root:"a" "c") (us 40.);
  check "b under a" (Span_agg.total_under_s t ~root:"a" "b") (us 70.);
  check "a count" (float_of_int (Span_agg.count t "a")) 2.;
  check "a covered" (Span_agg.covered_s t "a") (us 100.);
  check "req self" (Span_agg.self_s t "req") (us 8.);
  check "flush self" (Span_agg.self_s t "flush") (us 15.);
  if !failures > 0 then exit 1;
  print_endline "span_agg: ok"
