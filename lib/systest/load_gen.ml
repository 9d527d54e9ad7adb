type transport = [ `Unix | `Tcp ]
type mode = [ `Scalar | `Batch ]

let transport_name = function `Unix -> "unix" | `Tcp -> "tcp"
let mode_name = function `Scalar -> "scalar" | `Batch -> "batch63"

type cfg = {
  l_design : string;
  l_clients : int;
  l_duration_s : float;
  l_flush_delay_s : float;
}

let default_cfg =
  {
    l_design = "s27";
    l_clients = 8;
    l_duration_s = 5.0;
    l_flush_delay_s = 0.001;
  }

type row = {
  r_transport : transport;
  r_mode : mode;
  r_clients : int;
  r_duration_s : float;
  r_queries : int;
  r_qps : float;
  r_p50_us : float;
  r_p90_us : float;
  r_p99_us : float;
  r_max_us : float;
  r_errors : int;
}

(* ----- latency accumulation (per-client, merged afterwards) ----- *)

type acc = { mutable buf : float array; mutable n : int }

let acc_create () = { buf = Array.make 4096 0.0; n = 0 }

let acc_add a v =
  if a.n = Array.length a.buf then begin
    let bigger = Array.make (2 * a.n) 0.0 in
    Array.blit a.buf 0 bigger 0 a.n;
    a.buf <- bigger
  end;
  a.buf.(a.n) <- v;
  a.n <- a.n + 1

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* ----- design inputs and stimulus ----- *)

let design_net name =
  match Benchmarks.find_spec name with
  | Some spec -> Benchmarks.load spec
  | None ->
    if name = "s27" then Benchmarks.s27 ()
    else if name = "tiny" then Benchmarks.tiny ()
    else invalid_arg (Printf.sprintf "Load_gen: unknown builtin design %S" name)

let design_inputs name =
  let net = design_net name in
  let comb = if Netlist.ffs net = [] then net else fst (Combinationalize.run net) in
  Oracle.input_names (Oracle.of_netlist comb)

(* Distinct-ish random vectors, regenerated per client from its own
   seed: with the server memo off every call costs an evaluation, so
   repeats would not skew the numbers, but distinct vectors also keep
   any future memo-on comparison honest. *)
let make_vectors ~seed ~inputs n =
  let rng = Random.State.make [| 0x10ad; seed |] in
  Array.init n (fun _ ->
      List.map (fun name -> (name, Random.State.bool rng)) inputs)

(* ----- daemon address discovery ----- *)

(* The daemon prints "gklockd: listening on ADDR" after binding — with
   the real port read back from the listener when it was asked for tcp
   port 0.  Waiting for that line and parsing it is the race-free way
   to learn where to connect. *)
let bound_addr ?timeout_s daemon =
  let ready = Systest_proc.wait_for_log ?timeout_s daemon "listening on " in
  let marker = "listening on " in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length ready then
      Systest.fail "malformed listen line %S" ready
    else if String.sub ready i mlen = marker then i + mlen
    else find (i + 1)
  in
  let i = find 0 in
  match
    Frame_io.parse_addr
      (String.trim (String.sub ready i (String.length ready - i)))
  with
  | Ok a -> a
  | Error e -> Systest.fail "bad daemon address in %S: %s" ready e

(* ----- one measured row ----- *)

let run ~gklockd ~dir cfg transport mode =
  if cfg.l_clients < 1 then invalid_arg "Load_gen.run: clients must be >= 1";
  let tname = transport_name transport and mname = mode_name mode in
  let label = Printf.sprintf "gklockd_load_%s_%s" tname mname in
  let listen =
    match transport with
    | `Unix -> "unix:" ^ Filename.concat dir (label ^ ".sock")
    | `Tcp -> "tcp:127.0.0.1:0"
  in
  let daemon =
    Systest_proc.spawn ~logs_dir:dir ~name:label gklockd
      ([
         cfg.l_design;
         "--listen"; listen;
         "--no-memo";
         "--flush-delay"; Printf.sprintf "%g" cfg.l_flush_delay_s;
       ]
      @ match transport with `Tcp -> [ "--allow-tcp-shutdown" ] | `Unix -> [])
  in
  let addr = bound_addr daemon in
  let inputs = design_inputs cfg.l_design in
  let h_latency =
    Obs.Metrics.histogram
      (Printf.sprintf "systest.load.latency_us.%s.%s" tname mname)
  in
  let c_queries = Obs.Metrics.counter "systest.load.queries" in
  (* warm up: connections, engine, coalescing path *)
  let warm = Remote_oracle.connect ~client:"load-warmup" ~memo:false addr in
  let warm_o = Remote_oracle.oracle warm in
  let warm_vecs = make_vectors ~seed:0 ~inputs 16 in
  Array.iter (fun v -> ignore (Oracle.query warm_o v)) warm_vecs;
  Remote_oracle.close warm;
  (* measured window: every client runs a closed loop until the shared
     deadline, timing each call *)
  let start_t = Unix.gettimeofday () +. 0.05 in
  let deadline = start_t +. cfg.l_duration_s in
  let accs = Array.init cfg.l_clients (fun _ -> acc_create ()) in
  let calls = Array.make cfg.l_clients 0 in
  let errors = Array.make cfg.l_clients 0 in
  let client i () =
    let r =
      Remote_oracle.connect
        ~client:(Printf.sprintf "load-%d" i)
        ~memo:false addr
    in
    Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
    let o = Remote_oracle.oracle r in
    let vecs = make_vectors ~seed:(i + 1) ~inputs 1024 in
    let nv = Array.length vecs in
    let k = ref 0 in
    while Unix.gettimeofday () < start_t do
      Thread.delay 0.001
    done;
    while Unix.gettimeofday () < deadline do
      let t0 = Unix.gettimeofday () in
      (try
         (match mode with
         | `Scalar -> ignore (Oracle.query o vecs.(!k mod nv))
         | `Batch ->
           let qs = List.init 63 (fun j -> vecs.((!k + j) mod nv)) in
           ignore (Oracle.query_batch o qs));
         let dt_us = (Unix.gettimeofday () -. t0) *. 1e6 in
         acc_add accs.(i) dt_us;
         Obs.Metrics.observe h_latency dt_us;
         calls.(i) <- calls.(i) + 1
       with
      | Remote_oracle.Remote_error _ | Unix.Unix_error _ | Sys_error _ ->
        errors.(i) <- errors.(i) + 1;
        Thread.delay 0.005);
      k := !k + (match mode with `Scalar -> 1 | `Batch -> 63)
    done
  in
  let threads =
    List.init cfg.l_clients (fun i -> Thread.create (client i) ())
  in
  List.iter Thread.join threads;
  let measured_s =
    (* the last call may run past the deadline; measure what happened *)
    Unix.gettimeofday () -. start_t
  in
  (* clean daemon shutdown is part of the measurement contract: a row
     from a daemon that then wedges or crashes is not a result *)
  let fin = Remote_oracle.connect ~client:"load-shutdown" ~memo:false addr in
  Remote_oracle.shutdown_server fin;
  Remote_oracle.close fin;
  (match Systest_proc.wait ~timeout_s:30.0 daemon with
  | Unix.WEXITED 0 -> ()
  | st ->
    Systest.fail "load daemon %s did not exit cleanly (%s)" label
      (match st with
      | Unix.WEXITED n -> Printf.sprintf "exit %d" n
      | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
      | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
  let all = Array.concat (Array.to_list (Array.map (fun a -> Array.sub a.buf 0 a.n) accs)) in
  Array.sort compare all;
  let total_calls = Array.fold_left ( + ) 0 calls in
  let lanes_per_call = match mode with `Scalar -> 1 | `Batch -> 63 in
  let queries = total_calls * lanes_per_call in
  Obs.Metrics.add c_queries queries;
  {
    r_transport = transport;
    r_mode = mode;
    r_clients = cfg.l_clients;
    r_duration_s = measured_s;
    r_queries = queries;
    r_qps = (if measured_s > 0.0 then float_of_int queries /. measured_s else 0.0);
    r_p50_us = percentile all 0.50;
    r_p90_us = percentile all 0.90;
    r_p99_us = percentile all 0.99;
    r_max_us = (if Array.length all = 0 then 0.0 else all.(Array.length all - 1));
    r_errors = Array.fold_left ( + ) 0 errors;
  }

(* ----- JSON ----- *)

let row_histogram row =
  let name =
    Printf.sprintf "systest.load.latency_us.%s.%s"
      (transport_name row.r_transport)
      (mode_name row.r_mode)
  in
  match Cjson.member name (Obs.Metrics.snapshot ()) with
  | Some h -> h
  | None -> Cjson.Null

let to_json ~smoke cfg rows =
  Cjson.Obj
    [
      ("schema", Cjson.Str "gklock/bench_load/v1");
      ("smoke", Cjson.Bool smoke);
      ("design", Cjson.Str cfg.l_design);
      ("clients", Cjson.Int cfg.l_clients);
      ("flush_delay_s", Cjson.Float cfg.l_flush_delay_s);
      ( "rows",
        Cjson.List
          (List.map
             (fun r ->
               Cjson.Obj
                 [
                   ("transport", Cjson.Str (transport_name r.r_transport));
                   ("mode", Cjson.Str (mode_name r.r_mode));
                   ("clients", Cjson.Int r.r_clients);
                   ("duration_s", Cjson.Float r.r_duration_s);
                   ("queries", Cjson.Int r.r_queries);
                   ("qps", Cjson.Float r.r_qps);
                   ("p50_us", Cjson.Float r.r_p50_us);
                   ("p90_us", Cjson.Float r.r_p90_us);
                   ("p99_us", Cjson.Float r.r_p99_us);
                   ("max_us", Cjson.Float r.r_max_us);
                   ("errors", Cjson.Int r.r_errors);
                   ("latency_hist", row_histogram r);
                 ])
             rows) );
    ]
