(* The oracle service: wire codec properties, the Oracle.of_packed batch
   transport, and end-to-end tests against an in-process gklockd —
   registry-wide verdict parity, per-client quota exhaustion inside a
   coalesced word, the early flush when no connection can add a lane,
   malformed-frame robustness and clean shutdown.  The checksum and one
   frame's bytes are pinned. *)

let tc = Alcotest.test_case

(* ----- wire codec generators ----- *)

let gen_name =
  (* arbitrary bytes, not just identifiers: the codec must not care *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 12))

(* Packed vectors of 0-200 bits: most widths are not a multiple of 8,
   so most vectors end in padding bits. *)
let gen_width = QCheck.Gen.int_bound 200

let gen_bits n =
  QCheck.Gen.map
    (fun bs -> Bitpack.init n (Array.get bs))
    (QCheck.Gen.array_repeat n QCheck.Gen.bool)

let gen_vector =
  QCheck.Gen.(gen_width >>= fun n -> pair (return n) (gen_bits n))

let gen_batch =
  QCheck.Gen.(
    gen_width >>= fun n ->
    pair (return n) (map Array.of_list (list_size (0 -- 5) (gen_bits n))))

let gen_design_info =
  QCheck.Gen.(
    map
      (fun (d_name, d_inputs, d_outputs, d_cells) ->
        { Wire.d_name; d_inputs; d_outputs; d_cells })
      (quad gen_name
         (list_size (0 -- 6) gen_name)
         (list_size (0 -- 6) gen_name)
         (int_bound 1_000_000)))

let gen_error_code =
  QCheck.Gen.oneofl
    [
      Wire.Bad_frame; Wire.Bad_payload; Wire.Unsupported_version;
      Wire.Unknown_type; Wire.Unknown_design; Wire.Over_quota_queries;
      Wire.Over_quota_deadline; Wire.Bad_query; Wire.Not_permitted;
      Wire.Shutting_down; Wire.Server_error;
    ]

let gen_msg =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun client proto -> Wire.Hello { client; proto })
          gen_name (int_bound 255);
        map2
          (fun server proto -> Wire.Hello_ack { server; proto })
          gen_name (int_bound 255);
        return Wire.List_designs;
        map (fun ds -> Wire.Designs ds) (list_size (0 -- 4) gen_design_info);
        map2
          (fun design (n_bits, bits) -> Wire.Query { design; n_bits; bits })
          gen_name gen_vector;
        map (fun (n_bits, bits) -> Wire.Result { n_bits; bits }) gen_vector;
        map2
          (fun design (n_bits, vectors) ->
            Wire.Query_batch { design; n_bits; vectors })
          gen_name gen_batch;
        map
          (fun (n_bits, vectors) -> Wire.Batch_result { n_bits; vectors })
          gen_batch;
        return Wire.Ping;
        return Wire.Pong;
        return Wire.Shutdown;
        return Wire.Shutdown_ack;
        map2
          (fun code detail -> Wire.Error { code; detail })
          gen_error_code gen_name;
      ])

let print_frame (id, msg) = Printf.sprintf "#%d %s" id (Wire.msg_type_name msg)

let arb_frame =
  QCheck.make ~print:print_frame
    QCheck.Gen.(pair (int_bound 0xFFFFFFF) gen_msg)

let qc_roundtrip =
  Qc.qcheck ~count:500 "wire frame round-trip" arb_frame (fun (id, msg) ->
      match Wire.decode (Wire.encode ~id msg) with
      | Ok { Wire.id = id'; msg = msg' } -> id' = id && msg' = msg
      | Error e -> QCheck.Test.fail_report (Wire.wire_error_message e))

let qc_truncated =
  (* every strict prefix of a valid frame is rejected, never mis-parsed *)
  Qc.qcheck ~count:300 "truncated frames are structured errors"
    (QCheck.make
       ~print:(fun (f, cut) -> print_frame f ^ Printf.sprintf " cut@%f" cut)
       QCheck.Gen.(pair (pair (int_bound 0xFFFFFFF) gen_msg) (float_bound_inclusive 1.0)))
    (fun ((id, msg), cut) ->
      let b = Wire.encode ~id msg in
      let n = Bytes.length b in
      let keep = min (n - 1) (int_of_float (cut *. float_of_int n)) in
      match Wire.decode (Bytes.sub b 0 keep) with
      | Ok _ -> QCheck.Test.fail_report "prefix decoded as a whole frame"
      | Error _ -> true)

let qc_mutated =
  (* flipping any byte never raises: worst case is a *different* valid
     frame (e.g. a type byte landing on another empty-payload type) *)
  Qc.qcheck ~count:500 "mutated frames never raise"
    (QCheck.make
       ~print:(fun ((f, _), _) -> print_frame f)
       QCheck.Gen.(
         pair
           (pair (pair (int_bound 0xFFFFFFF) gen_msg) (int_bound 10_000))
           (int_bound 255)))
    (fun (((id, msg), pos), v) ->
      let b = Wire.encode ~id msg in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr ((Char.code (Bytes.get b pos) + 1 + v) land 0xff));
      match Wire.decode b with _ -> true)

let qc_garbage =
  Qc.qcheck ~count:500 "garbage bytes never raise"
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s))
       QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 80)))
    (fun s ->
      match Wire.decode (Bytes.of_string s) with _ -> true)

(* A set padding bit is not a second encoding of the same vector: with
   the CRC recomputed, so that only the padding is wrong, every packed
   message whose last vector has padding decodes as [Malformed]. *)
let qc_padding =
  Qc.qcheck ~count:300 "a set padding bit decodes as Malformed"
    (QCheck.make
       ~print:(fun ((id, msg), _) -> print_frame (id, msg))
       QCheck.Gen.(
         pair
           (pair (int_bound 0xFFFFFFF)
              (int_range 1 200 >>= fun n ->
               let n = if n land 7 = 0 then n + 1 else n in
               gen_bits n >>= fun bits ->
               oneofl
                 [
                   Wire.Query { design = "d"; n_bits = n; bits };
                   Wire.Result { n_bits = n; bits };
                   Wire.Query_batch
                     { design = "d"; n_bits = n; vectors = [| bits |] };
                   Wire.Batch_result { n_bits = n; vectors = [| bits; bits |] };
                 ]))
           (int_bound 7)))
    (fun ((id, msg), k) ->
      let n_bits =
        match msg with
        | Wire.Query { n_bits; _ } | Wire.Result { n_bits; _ }
        | Wire.Query_batch { n_bits; _ } | Wire.Batch_result { n_bits; _ } ->
          n_bits
        | _ -> assert false
      in
      let b = Wire.encode ~id msg in
      (* the payload ends with the last vector's last byte, whose bits
         from [n_bits mod 8] up are padding *)
      let last = Bytes.length b - 1 in
      let pad = (n_bits land 7) + (k mod (8 - (n_bits land 7))) in
      Bytes.set b last
        (Char.chr (Char.code (Bytes.get b last) lor (1 lsl pad)));
      let len = Bytes.length b - Wire.header_bytes in
      Bytes.set_int32_be b 12 (Wire.crc32 b ~pos:Wire.header_bytes ~len);
      match Wire.decode b with
      | Error (Wire.Malformed _) -> true
      | Ok _ -> QCheck.Test.fail_report "a set padding bit decoded"
      | Error e -> QCheck.Test.fail_report (Wire.wire_error_message e))

(* A frame of type [mtype] around [payload], with a correct CRC. *)
let raw_frame ~mtype payload =
  let len = Bytes.length payload in
  let b = Bytes.create (Wire.header_bytes + len) in
  Bytes.blit_string "GK" 0 b 0 2;
  Bytes.set b 2 (Char.chr Wire.protocol_version);
  Bytes.set b 3 (Char.chr mtype);
  Bytes.set_int32_be b 4 1l;
  Bytes.set_int32_be b 8 (Int32.of_int len);
  Bytes.set_int32_be b 12 (Wire.crc32 payload ~pos:0 ~len);
  Bytes.blit payload 0 b Wire.header_bytes len;
  b

(* A [Batch_result] payload announcing [count] vectors of [n_bits] bits
   but carrying only [have] bytes of them. *)
let batch_result_payload ~count ~n_bits ~have =
  let p = Bytes.make (8 + have) '\000' in
  Bytes.set_int32_be p 0 (Int32.of_int count);
  Bytes.set_int32_be p 4 (Int32.of_int n_bits);
  p

(* The count and width fields are checked against the payload (and the
   count against [max_batch]) before the vector array is allocated: a
   tiny frame announcing 65,536 one-byte vectors, or 65,537 of zero
   width, is rejected having allocated a few kilobytes at most, where
   the array alone would take 512 KB. *)
let test_batch_count_bounded () =
  List.iter
    (fun (what, count, n_bits) ->
      let b =
        raw_frame ~mtype:0x84 (batch_result_payload ~count ~n_bits ~have:3)
      in
      let before = Gc.allocated_bytes () in
      let r = Wire.decode b in
      let bytes = Gc.allocated_bytes () -. before in
      (match r with
      | Error (Wire.Malformed _) -> ()
      | Ok _ -> Alcotest.failf "%s: decoded" what
      | Error e -> Alcotest.failf "%s: %s" what (Wire.wire_error_message e));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f bytes allocated" what bytes)
        true (bytes < 8192.))
    [
      ("65,536 one-byte vectors in 3 bytes", Wire.max_batch, 8);
      ("a 2^32-1-bit vector in 3 bytes", 1, 0xFFFFFFFF);
      ("65,537 zero-width vectors", Wire.max_batch + 1, 0);
    ]

(* ----- the exact max_payload boundary ----- *)

(* A [Batch_result] of one vector whose width is tuned so the encoded
   payload is exactly [bytes]: 4 (vector count) + 4 (bit width) + the
   packed vector. *)
let batch_result_of_bytes bytes =
  let stride = bytes - 8 in
  Wire.Batch_result
    { n_bits = 8 * stride; vectors = [| String.make stride '\xa5' |] }

let qc_payload_boundary =
  (* the cap is exact on both sides of the codec: a payload of
     max_payload - k (k >= 0) encodes and round-trips, max_payload + k
     (k > 0) raises — no off-by-one between encode and decode_header *)
  Qc.qcheck ~count:24 "payload cap is exact at max_payload"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range (-16) 16))
    (fun delta ->
      let target = Wire.max_payload + delta in
      let msg = batch_result_of_bytes target in
      if delta <= 0 then (
        let b = Wire.encode ~id:5 msg in
        if Bytes.length b <> Wire.header_bytes + target then
          QCheck.Test.fail_report "encoded payload size is not as constructed"
        else
          match Wire.decode b with
          | Ok { Wire.id = 5; msg = msg' } -> msg' = msg
          | Ok _ -> QCheck.Test.fail_report "round-trip changed the id"
          | Error e -> QCheck.Test.fail_report (Wire.wire_error_message e))
      else
        match Wire.encode ~id:5 msg with
        | _ -> QCheck.Test.fail_report "payload above the cap encoded"
        | exception Invalid_argument _ -> true)

(* ----- the checksum and the frame bytes are pinned ----- *)

(* The CRC-32 definition itself: one bit at a time, no table. *)
let crc32_bitwise b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let test_crc_known_answers () =
  let crc s = Wire.crc32 (Bytes.of_string s) ~pos:0 ~len:(String.length s) in
  Alcotest.(check int32) "check value of \"123456789\"" 0xCBF43926l
    (crc "123456789");
  Alcotest.(check int32) "empty payload" 0l (crc "")

let qc_crc_vs_bitwise =
  (* offsets 0..7 and lengths 0..40 hit every alignment of the 8-byte
     step and every tail length; slack bytes after the range must not
     change the result *)
  Qc.qcheck ~count:500 "crc32 = bitwise CRC-32 at every offset and length"
    (QCheck.make
       ~print:(fun (pos, len, s) ->
         Printf.sprintf "pos %d len %d of %d bytes" pos len (String.length s))
       QCheck.Gen.(
         int_bound 7 >>= fun pos ->
         int_bound 40 >>= fun len ->
         int_bound 7 >>= fun slack ->
         map
           (fun s -> (pos, len, s))
           (string_size ~gen:(map Char.chr (0 -- 255))
              (return (pos + len + slack)))))
    (fun (pos, len, s) ->
      let b = Bytes.of_string s in
      Wire.crc32 b ~pos ~len = crc32_bitwise b ~pos ~len)

let test_crc_out_of_range () =
  let b = Bytes.of_string "abc" in
  List.iter
    (fun (pos, len) ->
      match Wire.crc32 b ~pos ~len with
      | _ -> Alcotest.failf "crc32 ~pos:%d ~len:%d of 3 bytes returned" pos len
      | exception Invalid_argument _ -> ())
    [ (2, 5); (0, 4); (3, 1); (4, 0); (-1, 1); (0, -1); (max_int, 2) ]

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* Protocol 2: design "s27", then 7 bits, then the byte 0x05 (bits 0
   and 2 set, padding bit 7 clear). *)
let test_golden_frame () =
  Alcotest.(check string) "Query frame bytes"
    "474b0203000000090000000ae17023e600037332370000000705"
    (hex
       (Wire.encode ~id:9
          (Wire.Query
             {
               design = "s27";
               n_bits = 7;
               bits = Bitpack.init 7 (fun i -> i = 0 || i = 2);
             })))

let test_oversized () =
  let b = Wire.encode ~id:7 Wire.Ping in
  Bytes.set_int32_be b 8 (Int32.of_int (Wire.max_payload + 1));
  match Wire.decode b with
  | Error (Wire.Oversized n) ->
    Alcotest.(check int) "announced length" (Wire.max_payload + 1) n
  | Ok _ | Error _ -> Alcotest.fail "oversized frame not rejected as such"

let test_crc_mismatch () =
  let b =
    Wire.encode ~id:9
      (Wire.Query { design = "d"; n_bits = 1; bits = "\001" })
  in
  let pos = Wire.header_bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  match Wire.decode b with
  | Error Wire.Crc_mismatch -> ()
  | Ok _ | Error _ -> Alcotest.fail "corrupt payload not caught by the CRC"

let test_unknown_type () =
  let b = Wire.encode ~id:1 Wire.Ping in
  Bytes.set b 3 '\x42';
  match Wire.decode b with
  | Error (Wire.Unknown_msg_type 0x42) -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown type byte not rejected as such"

let test_bad_magic () =
  let b = Wire.encode ~id:1 Wire.Ping in
  Bytes.set b 0 'X';
  match Wire.decode b with
  | Error Wire.Bad_magic -> ()
  | Ok _ | Error _ -> Alcotest.fail "bad magic not rejected as such"

(* ----- Oracle.of_packed ~batch (no sockets) ----- *)

(* The black boxes below have inputs [a], [b] and the one output
   [y = a || b]. *)
let any_set q = Bitpack.init 1 (fun _ -> Bitpack.get q 0 || Bitpack.get q 1)

let test_packed_batch_dedup () =
  let scalar_calls = ref 0 and batch_calls = ref 0 and batch_qs = ref [||] in
  let o =
    Oracle.of_packed ~name:"box" ~inputs:[ "a"; "b" ] ~outputs:[ "y" ]
      ~batch:(fun qs ->
        incr batch_calls;
        batch_qs := qs;
        Array.map any_set qs)
      (fun q ->
        incr scalar_calls;
        any_set q)
  in
  let q1 = [ ("a", true); ("b", false) ] in
  let q2 = [ ("a", false); ("b", false) ] in
  let q1' = [ ("b", false); ("a", true) ] (* same effective assignment *) in
  let rs = Oracle.query_batch o [ q1; q2; q1'; q1 ] in
  Alcotest.(check int) "one wire batch" 1 !batch_calls;
  Alcotest.(check int) "no scalar fallback" 0 !scalar_calls;
  Alcotest.(check int) "misses deduplicated" 2 (Array.length !batch_qs);
  Alcotest.(check int) "charged distinct queries only" 2 (Oracle.queries o);
  Alcotest.(check (list (list (pair string bool))))
    "responses in request order"
    [ [ ("y", true) ]; [ ("y", false) ]; [ ("y", true) ]; [ ("y", true) ] ]
    rs;
  (* everything is memoized now: a second batch costs nothing *)
  let _ = Oracle.query_batch o [ q1; q2 ] in
  Alcotest.(check int) "memo hit batch is free" 1 !batch_calls;
  Alcotest.(check int) "no extra charges" 2 (Oracle.queries o)

(* Without a memo a batch still dedups within the call: the repeated
   query is evaluated and charged once. *)
let test_packed_batch_no_memo () =
  let batch_calls = ref 0 and scalar_calls = ref 0 in
  let o =
    Oracle.of_packed ~memo:false ~name:"box" ~inputs:[ "a"; "b" ] ~outputs:[ "y" ]
      ~batch:(fun qs ->
        incr batch_calls;
        Array.map any_set qs)
      (fun q ->
        incr scalar_calls;
        any_set q)
  in
  let q i = [ ("a", i land 1 = 1); ("b", i land 2 = 2) ] in
  let _ = Oracle.query_batch o [ q 0; q 0; q 1 ] in
  let _ = Oracle.query_batch o [ q 0 ] in
  Alcotest.(check int) "every batch hits the wire" 2 !batch_calls;
  Alcotest.(check int) "distinct queries of each call charged" 3 (Oracle.queries o);
  let _ = Oracle.query o (q 0) in
  let _ = Oracle.query o (q 0) in
  Alcotest.(check int) "every scalar query hits the wire" 2 !scalar_calls;
  Alcotest.(check int) "and is charged" 5 (Oracle.queries o)

(* Replies are reassembled from the evaluated batch, not re-read from
   the memo: three distinct misses under a one-entry memo take one
   [batch] call and no [fn] call, although writing them back evicts two
   of them at once. *)
let test_packed_batch_capped_memo () =
  let scalar_calls = ref 0 and batch_calls = ref 0 in
  let o =
    Oracle.of_packed ~memo_cap:1 ~name:"box" ~inputs:[ "a"; "b" ] ~outputs:[ "y" ]
      ~batch:(fun qs ->
        incr batch_calls;
        Array.map any_set qs)
      (fun q ->
        incr scalar_calls;
        any_set q)
  in
  let q i = [ ("a", i = 1); ("b", i = 2) ] in
  let rs = Oracle.query_batch o [ q 0; q 1; q 2 ] in
  Alcotest.(check (list (list (pair string bool))))
    "responses in request order"
    [ [ ("y", false) ]; [ ("y", true) ]; [ ("y", true) ] ]
    rs;
  Alcotest.(check int) "one wire batch" 1 !batch_calls;
  Alcotest.(check int) "no scalar call" 0 !scalar_calls;
  Alcotest.(check int) "three queries charged" 3 (Oracle.queries o);
  Alcotest.(check int) "two evictions" 2 (Oracle.memo_evictions o)

(* ----- in-process daemon harness ----- *)

let socket_path () =
  let p = Filename.temp_file "gklockd_test" ".sock" in
  Sys.remove p;
  p

let with_server ?(config = Gkd_server.default_config) designs f =
  let path = socket_path () in
  let t =
    Gkd_server.create ~config ~listen:(Frame_io.Unix_path path) designs
  in
  Gkd_server.start t;
  Fun.protect
    ~finally:(fun () ->
      Gkd_server.stop t;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f t path)

let send fd ~id msg = Frame_io.write_frame fd ~id msg

let recv fd =
  match Frame_io.read_frame fd with
  | Ok f -> f
  | Error e -> Alcotest.fail ("read_frame: " ^ Frame_io.read_error_message e)

let hello fd ~id name =
  send fd ~id (Wire.Hello { client = name; proto = Wire.protocol_version });
  match recv fd with
  | { Wire.id = id'; msg = Wire.Hello_ack _ } when id' = id -> ()
  | _ -> Alcotest.fail "handshake failed"

(* The packed query of [n] inputs whose bit [b] is bit [b] of [i]: the
   packed form of [List.mapi (fun b p -> (p, (i lsr b) land 1 = 1))]
   over the design's inputs. *)
let packed n i = Bitpack.init n (fun b -> (i lsr b) land 1 = 1)

(* ----- registry-wide verdict parity ----- *)

let verdict_repr (o : Attack.outcome) =
  match o.Attack.verdict with
  | Attack.Key_recovered k -> "key_recovered: " ^ Key.to_string k
  | Attack.Wrong_key { key; mismatches } ->
    Printf.sprintf "wrong_key: %s (%d)" (Key.to_string key) mismatches
  | Attack.No_dip { key; mismatches } ->
    Printf.sprintf "no_dip: %s (%d)" (Key.to_string key) mismatches
  | Attack.Approx_key { key; error_rate } ->
    Printf.sprintf "approx_key: %s (%.6f)" (Key.to_string key) error_rate
  | Attack.Partial_key { recovered; unresolved } ->
    Printf.sprintf "partial_key: %s (%d unresolved)" (Key.to_string recovered)
      unresolved
  | Attack.Recovered_netlist net -> "netlist:\n" ^ Bench_format.print net
  | Attack.Gave_up r -> "gave_up:" ^ Attack.gave_up_reason_name r
  | Attack.Skipped -> "skipped"
  | Attack.Out_of_budget r -> "out_of_budget: " ^ Budget.reason_name r

let test_registry_parity () =
  List.iter
    (fun (dname, net) ->
      let comb = fst (Combinationalize.run net) in
      let lk = Xor_lock.lock ~seed:11 comb ~n_keys:4 in
      with_server [ (dname, net) ] (fun _t path ->
          let r =
            Remote_oracle.connect ~client:"parity" ~design:dname
              (Frame_io.Unix_path path)
          in
          Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
          let remote = Remote_oracle.oracle r in
          List.iter
            (fun (e : Attack.entry) ->
              let go oracle =
                Attack.run ~seed:3 ~name:e.Attack.name ~locked:lk.Locked.net
                  ~key_inputs:lk.Locked.key_inputs ~oracle ()
              in
              let local = go (Oracle.of_netlist comb) in
              let viawire = go remote in
              Alcotest.(check string)
                (Printf.sprintf "%s on %s" e.Attack.name dname)
                (verdict_repr local) (verdict_repr viawire))
            Attack.registry))
    [ ("tiny", Benchmarks.tiny ()); ("s27", Benchmarks.s27 ()) ]

(* ----- per-client quota exhaustion inside a coalesced word ----- *)

let histogram_stats name =
  match Obs.Metrics.snapshot () with
  | Cjson.Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some (Cjson.Obj h) -> (
      match (List.assoc_opt "count" h, List.assoc_opt "sum" h) with
      | Some (Cjson.Int c), Some (Cjson.Float s) -> (c, s)
      | _ -> Alcotest.fail (name ^ ": not a histogram"))
    | _ -> Alcotest.fail (name ^ ": not in the registry"))
  | _ -> Alcotest.fail "snapshot is not an object"

let test_quota_mid_word () =
  Obs.Metrics.reset ();
  let config =
    {
      Gkd_server.default_config with
      (* long enough that all 8 pipelined queries coalesce into ONE word *)
      Gkd_server.flush_delay_s = 0.4;
      max_queries_per_client = Some 3;
    }
  in
  with_server ~config [ ("s27", Benchmarks.s27 ()) ] (fun t path ->
      let oracle = Option.get (Gkd_server.design_oracle t "s27") in
      let n = List.length (Oracle.input_names oracle) in
      let query i =
        Wire.Query { design = "s27"; n_bits = n; bits = packed n i }
      in
      let a = Frame_io.connect (Frame_io.Unix_path path) in
      let b = Frame_io.connect (Frame_io.Unix_path path) in
      (* a silent third connection could still add a lane, so the word
         waits out the delay instead of flushing as soon as alice and
         bob both have a query in flight *)
      let c = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ a; b; c ])
      @@ fun () ->
      hello a ~id:900 "alice";
      hello b ~id:901 "bob";
      hello c ~id:902 "carol";
      (* pipeline scalar queries while the flusher sits on its delay:
         alice is 2 over her quota, bob exactly at his *)
      for i = 1 to 5 do
        send a ~id:i (query i)
      done;
      for i = 1 to 3 do
        send b ~id:(10 + i) (query (5 + i))
      done;
      let collect fd n =
        List.init n (fun _ ->
            let { Wire.id; msg } = recv fd in
            (id, msg))
      in
      let ra = collect a 5 in
      let rb = collect b 3 in
      List.iter
        (fun (id, msg) ->
          match msg with
          | Wire.Result _ when id <= 3 -> ()
          | Wire.Error { code = Wire.Over_quota_queries; _ } when id > 3 -> ()
          | m ->
            Alcotest.failf "alice #%d: unexpected %s" id (Wire.msg_type_name m))
        ra;
      List.iter
        (fun (id, msg) ->
          match msg with
          | Wire.Result _ -> ()
          | m ->
            Alcotest.failf "bob #%d: unexpected %s (same-word lanes must be \
                            unaffected)" id (Wire.msg_type_name m))
        rb;
      (* alice's dropped lanes never reached the engine *)
      Alcotest.(check int) "engine evaluated only in-quota lanes" 6
        (Oracle.queries oracle);
      (* batch fill is observed once per flush, not once per query *)
      let count, sum = histogram_stats "gklockd.batch_fill" in
      Alcotest.(check int) "one flush" 1 count;
      Alcotest.(check (float 0.001)) "eight coalesced lanes" 8.0 sum)

(* ----- early flush: no connection can add a lane ----- *)

(* Every part runs with a 1 s delay, so a flush that waited it out is
   plain in the timings. *)
let slow_flush =
  { Gkd_server.default_config with Gkd_server.flush_delay_s = 1.0 }

let s27_vectors () =
  let net = Benchmarks.s27 () in
  let local = Oracle.of_netlist (fst (Combinationalize.run net)) in
  let pins = Oracle.input_names local in
  (net, local, fun i -> List.mapi (fun b p -> (p, (i lsr b) land 1 = 1)) pins)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let test_lone_client_flushes_early () =
  Obs.Metrics.reset ();
  let net, local, asg = s27_vectors () in
  with_server ~config:slow_flush [ ("s27", net) ] (fun _t path ->
      let r =
        Remote_oracle.connect ~client:"lone" (Frame_io.Unix_path path)
      in
      Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
      for i = 1 to 5 do
        let got, dt =
          timed (fun () -> Oracle.query (Remote_oracle.oracle r) (asg i))
        in
        Alcotest.(check bool)
          (Printf.sprintf "query %d answered without the delay (%.3f s)" i dt)
          true (dt < 0.25);
        if got <> Oracle.query local (asg i) then
          Alcotest.failf "query %d: remote result differs from local" i
      done;
      let count, sum = histogram_stats "gklockd.batch_fill" in
      Alcotest.(check int) "five flushes" 5 count;
      Alcotest.(check (float 0.001)) "of one lane each" 5.0 sum)

let test_silent_connection_keeps_delay () =
  let net, _, asg = s27_vectors () in
  with_server ~config:slow_flush [ ("s27", net) ] (fun _t path ->
      let silent = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> try Unix.close silent with Unix.Unix_error _ -> ())
      @@ fun () ->
      hello silent ~id:1 "silent";
      let r =
        Remote_oracle.connect ~client:"busy" (Frame_io.Unix_path path)
      in
      Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
      let _, dt =
        timed (fun () -> Oracle.query (Remote_oracle.oracle r) (asg 1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "query waited out the delay (%.3f s)" dt)
        true (dt >= 1.0))

let test_two_closed_loop_clients () =
  Obs.Metrics.reset ();
  let net, local, asg = s27_vectors () in
  with_server ~config:slow_flush [ ("s27", net) ] (fun _t path ->
      (* both connected before either queries: neither first query can
         flush alone *)
      let clients =
        List.map
          (fun name ->
            Remote_oracle.connect ~client:name (Frame_io.Unix_path path))
          [ "left"; "right" ]
      in
      let expected = Array.init 41 (fun i -> Oracle.query local (asg i)) in
      let errors = ref [] in
      let emu = Mutex.create () in
      let run k r () =
        Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
        try
          for j = 1 to 20 do
            let i = (k * 20) + j in
            if Oracle.query (Remote_oracle.oracle r) (asg i) <> expected.(i)
            then
              failwith
                (Printf.sprintf "client %d: wrong result for input %d" k i)
          done
        with e ->
          Mutex.lock emu;
          errors := Printexc.to_string e :: !errors;
          Mutex.unlock emu
      in
      let (), dt =
        timed (fun () ->
            List.iter Thread.join
              (List.mapi (fun k r -> Thread.create (run k r) ()) clients))
      in
      if !errors <> [] then Alcotest.fail (String.concat "; " !errors);
      Alcotest.(check bool)
        (Printf.sprintf "40 round trips without the delay (%.3f s)" dt)
        true (dt < 1.0);
      let count, sum = histogram_stats "gklockd.batch_fill" in
      Alcotest.(check (float 0.001)) "every query flushed" 40.0 sum;
      Alcotest.(check bool)
        (Printf.sprintf "lanes shared words (%d flushes)" count)
        true (count <= 21))

(* ----- structured errors for unknown designs ----- *)

let test_unknown_design () =
  with_server [ ("s27", Benchmarks.s27 ()) ] (fun _t path ->
      (match
         Remote_oracle.connect ~design:"nope" (Frame_io.Unix_path path)
       with
      | exception Remote_oracle.Remote_error _ -> ()
      | _ -> Alcotest.fail "connect to a design the server does not host");
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      hello fd ~id:1 "probe";
      send fd ~id:2 (Wire.Query { design = "ghost"; n_bits = 0; bits = "" });
      match recv fd with
      | { Wire.id = 2; msg = Wire.Error { code = Wire.Unknown_design; _ } } ->
        ()
      | _ -> Alcotest.fail "expected a structured unknown_design error")

(* ----- malformed-frame fuzz: no crash, no leaked connections ----- *)

let test_malformed_fuzz () =
  with_server [ ("s27", Benchmarks.s27 ()) ] (fun t path ->
      let rng = Fuzz_seed.derive 0x6e6574 in
      for _ = 1 to 1000 do
        let fd = Frame_io.connect (Frame_io.Unix_path path) in
        let n = 1 + Random.State.int rng 64 in
        let garbage =
          Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))
        in
        (try ignore (Unix.write fd garbage 0 n)
         with Unix.Unix_error _ -> ());
        (* half-close so the server always sees EOF and can answer with
           its error frame; drain whatever it says until it hangs up *)
        (try Unix.shutdown fd Unix.SHUTDOWN_SEND
         with Unix.Unix_error _ -> ());
        let rec drain () =
          match Frame_io.read_frame fd with
          | Ok _ -> drain ()
          | Error _ -> ()
        in
        drain ();
        try Unix.close fd with Unix.Unix_error _ -> ()
      done;
      (* the daemon must still be fully alive for honest clients *)
      let r = Remote_oracle.connect (Frame_io.Unix_path path) in
      let rtt = Remote_oracle.ping r in
      Alcotest.(check bool) "daemon answers after the storm" true (rtt >= 0.0);
      let o = Remote_oracle.oracle r in
      let pins =
        match Remote_oracle.designs r with
        | [ d ] -> d.Wire.d_inputs
        | _ -> Alcotest.fail "expected one hosted design"
      in
      let out = Oracle.query o (List.map (fun p -> (p, true)) pins) in
      Alcotest.(check bool) "and still evaluates" true (out <> []);
      Remote_oracle.close r;
      let rec settle n =
        if Gkd_server.live_connections t > 0 && n > 0 then (
          Unix.sleepf 0.01;
          settle (n - 1))
      in
      settle 300;
      Alcotest.(check int) "no leaked connections" 0
        (Gkd_server.live_connections t))

(* ----- concurrent explicit batches on one shared oracle ----- *)

(* Query_batch frames evaluate on reader threads while the flusher
   evaluates coalesced scalar words on the *same* Oracle.t: without the
   per-design oracle mutex this races on the engine scratch and the
   memo table, corrupting answers (or crashing).  Three batch clients
   plus one scalar client hammer s27 and every reply is checked against
   a local oracle. *)
let test_concurrent_batches () =
  let net = Benchmarks.s27 () in
  let comb = fst (Combinationalize.run net) in
  let local = Oracle.of_netlist comb in
  let n = List.length (Oracle.input_names local) in
  let expected = Oracle.query_packed local (Array.init 128 (packed n)) in
  with_server [ ("s27", net) ] (fun _t path ->
      let errors = ref [] in
      let emu = Mutex.create () in
      let report e =
        Mutex.lock emu;
        errors := Printexc.to_string e :: !errors;
        Mutex.unlock emu
      in
      let with_conn name f =
        try
          let fd = Frame_io.connect (Frame_io.Unix_path path) in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              hello fd ~id:0 name;
              f fd)
        with e -> report e
      in
      let batcher k () =
        with_conn (Printf.sprintf "batch%d" k) @@ fun fd ->
        for round = 1 to 20 do
          let idxs =
            List.init 16 (fun j -> ((k * 37) + (round * 11) + (j * 5)) mod 128)
          in
          send fd ~id:round
            (Wire.Query_batch
               {
                 design = "s27";
                 n_bits = n;
                 vectors = Array.of_list (List.map (packed n) idxs);
               });
          match recv fd with
          | { Wire.id; msg = Wire.Batch_result { vectors = rs; _ } }
            when id = round ->
            List.iter2
              (fun i r ->
                if r <> expected.(i) then
                  failwith
                    (Printf.sprintf "batcher %d: wrong result for input %d" k
                       i))
              idxs (Array.to_list rs)
          | { Wire.msg; _ } ->
            failwith
              (Printf.sprintf "batcher %d: unexpected %s" k
                 (Wire.msg_type_name msg))
        done
      in
      let scalars () =
        with_conn "scalar" @@ fun fd ->
        for round = 1 to 40 do
          let i = (round * 29) mod 128 in
          send fd ~id:round
            (Wire.Query { design = "s27"; n_bits = n; bits = packed n i });
          match recv fd with
          | { Wire.id; msg = Wire.Result { bits = r; _ } } when id = round ->
            if r <> expected.(i) then
              failwith (Printf.sprintf "scalar: wrong result for input %d" i)
          | { Wire.msg; _ } ->
            failwith ("scalar: unexpected " ^ Wire.msg_type_name msg)
        done
      in
      let ths =
        Thread.create scalars ()
        :: List.init 3 (fun k -> Thread.create (batcher k) ())
      in
      List.iter Thread.join ths;
      match !errors with
      | [] -> ()
      | es -> Alcotest.fail (String.concat "; " es))

(* ----- oversized replies degrade to structured errors ----- *)

(* [n_ins] inputs, each output a buffer of one of them. *)
let fat_netlist name ~n_ins ~n_outs =
  let n = Netlist.create name in
  let ins =
    Array.init n_ins (fun i -> Netlist.add_input n (Printf.sprintf "i%d" i))
  in
  for o = 0 to n_outs - 1 do
    let g = Netlist.add_gate n Cell.Buf [| ins.(o mod n_ins) |] in
    Netlist.add_output n (Printf.sprintf "o%d" o) g
  done;
  n

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_oversized_reply () =
  (* 4000 outputs pack into 500 bytes per reply: a batch of 34,000
     distinct 16-bit queries is a 68 kB request, while its single
     Batch_result would be 17.0 MB > max_payload.  The reader thread
     must answer with a structured error and keep serving, not die
     mid-write. *)
  with_server [ ("fat", fat_netlist "fat" ~n_ins:16 ~n_outs:4000) ]
    (fun _t path ->
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      hello fd ~id:1 "blob";
      let batch n =
        Wire.Query_batch
          { design = "fat"; n_bits = 16; vectors = Array.init n (packed 16) }
      in
      send fd ~id:2 (batch 34_000);
      (match recv fd with
      | { Wire.id = 2; msg = Wire.Error { code = Wire.Server_error; detail } }
        ->
        Alcotest.(check bool)
          "detail says to split the batch" true
          (contains detail "frame cap")
      | { Wire.msg; _ } ->
        Alcotest.failf "expected a structured error, got %s"
          (Wire.msg_type_name msg));
      (* a smaller batch still fits and works *)
      send fd ~id:3 (batch 4);
      (match recv fd with
      | { Wire.id = 3; msg = Wire.Batch_result { vectors = rs; _ } } ->
        Alcotest.(check int) "batch answered" 4 (Array.length rs)
      | { Wire.msg; _ } ->
        Alcotest.failf "connection unusable after an oversized reply: %s"
          (Wire.msg_type_name msg));
      send fd ~id:4 Wire.Ping;
      match recv fd with
      | { Wire.id = 4; msg = Wire.Pong } -> ()
      | _ -> Alcotest.fail "no pong after an oversized reply")

(* ----- client-side chunk sizing under a wide reply ----- *)

let test_chunk_sizing_wide_reply () =
  (* 16 inputs and 8192 outputs: a query packs into 2 bytes and its
     reply into 1 KB, so the reply side bounds the chunk at 16,383
     queries.  20,000 distinct queries (distinct, because the client
     deduplicates a batch before it ships it) carry 20 MB of replies:
     [Remote_oracle] must split them across two Query_batch frames and
     reassemble the answers in order.  The positional entry keeps the
     replies packed on both sides. *)
  let net = fat_netlist "wide" ~n_ins:16 ~n_outs:8192 in
  let local = Oracle.of_netlist ~memo:false net in
  let n_queries = 20_000 in
  let queries = Array.init n_queries (packed 16) in
  Alcotest.(check bool) "the replies exceed one frame" true
    (n_queries * Bitpack.bytes 8192 > Wire.max_payload);
  let expected = Oracle.query_packed local queries in
  with_server
    ~config:{ Gkd_server.default_config with Gkd_server.oracle_memo = false }
    [ ("wide", net) ]
    (fun _t path ->
      let r =
        Remote_oracle.connect ~client:"wide" ~design:"wide" ~memo:false
          (Frame_io.Unix_path path)
      in
      Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
      let got = Oracle.query_packed (Remote_oracle.oracle r) queries in
      Alcotest.(check int) "every query answered" n_queries (Array.length got);
      Array.iteri
        (fun i want ->
          if want <> got.(i) then
            Alcotest.failf "query %d: remote result differs from local" i)
        expected)

(* ----- protocol 2 at a live server ----- *)

(* A frame whose header says protocol 1 is refused at decode time with a
   structured [unsupported_version] error. *)
let test_old_version_frame () =
  with_server [ ("s27", Benchmarks.s27 ()) ] (fun _t path ->
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      let b = Wire.encode ~id:1 Wire.Ping in
      Bytes.set b 2 '\001';
      ignore (Unix.write fd b 0 (Bytes.length b));
      match recv fd with
      | { Wire.msg = Wire.Error { code = Wire.Unsupported_version; _ }; _ } ->
        ()
      | { Wire.msg; _ } ->
        Alcotest.failf "expected unsupported_version, got %s"
          (Wire.msg_type_name msg))

(* A query or batch whose bit count is not the design's input count is a
   [bad_query], and the connection keeps working. *)
let test_wrong_bit_count () =
  with_server [ ("s27", Benchmarks.s27 ()) ] (fun t path ->
      let oracle = Option.get (Gkd_server.design_oracle t "s27") in
      let n = List.length (Oracle.input_names oracle) in
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      hello fd ~id:1 "wide";
      List.iteri
        (fun i msg ->
          let id = 2 + i in
          send fd ~id msg;
          match recv fd with
          | { Wire.id = id'; msg = Wire.Error { code = Wire.Bad_query; _ } }
            when id' = id ->
            ()
          | { Wire.msg; _ } ->
            Alcotest.failf "frame %d: expected bad_query, got %s" id
              (Wire.msg_type_name msg))
        [
          Wire.Query
            { design = "s27"; n_bits = n + 1; bits = packed (n + 1) 5 };
          Wire.Query
            { design = "s27"; n_bits = n - 1; bits = packed (n - 1) 5 };
          Wire.Query_batch
            {
              design = "s27";
              n_bits = n + 8;
              vectors = [| packed (n + 8) 1 |];
            };
        ];
      send fd ~id:9 Wire.Ping;
      (match recv fd with
      | { Wire.id = 9; msg = Wire.Pong } -> ()
      | _ -> Alcotest.fail "no pong after a bad_query");
      Alcotest.(check int) "nothing evaluated" 0 (Oracle.queries oracle))

(* Names are resolved at the client edge, under the local rules: an
   unknown or missing name raises before a frame is sent, and a relaxed
   remote oracle answers like a relaxed local one. *)
let test_remote_names_checked () =
  let net = Benchmarks.s27 () in
  let local = Oracle.of_netlist (fst (Combinationalize.run net)) in
  let pins = Oracle.input_names local in
  with_server [ ("s27", net) ] (fun t path ->
      let r =
        Remote_oracle.connect ~client:"names" ~memo:false
          (Frame_io.Unix_path path)
      in
      Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
      let remote = Remote_oracle.oracle r in
      Alcotest.(check (list string)) "input_names are d_inputs" pins
        (Oracle.input_names remote);
      let served = Obs.Metrics.counter "gklockd.queries" in
      let before = Obs.Metrics.value served in
      let all = List.map (fun p -> (p, true)) pins in
      List.iter
        (fun (what, q) ->
          (match Oracle.query remote q with
          | _ -> Alcotest.failf "query with %s answered" what
          | exception Invalid_argument _ -> ());
          match Oracle.query_batch remote [ all; q ] with
          | _ -> Alcotest.failf "batch with %s answered" what
          | exception Invalid_argument _ -> ())
        [
          ("an unknown name", ("nope", true) :: all);
          ("a missing name", List.tl all);
        ];
      Alcotest.(check int) "gklockd.queries unchanged" before
        (Obs.Metrics.value served);
      Alcotest.(check int) "nothing evaluated" 0
        (Oracle.queries (Option.get (Gkd_server.design_oracle t "s27")));
      let q = ("nope", true) :: List.tl all in
      Alcotest.(check (list (pair string bool)))
        "relaxed remote = relaxed local"
        (Oracle.query (Oracle.relax local) q)
        (Oracle.query (Oracle.relax remote) q);
      (* [query] sends a [Query] frame, which the coalescer flushes;
         [query_batch] a [Query_batch] frame, which bypasses it *)
      let flushes () = fst (histogram_stats "gklockd.batch_fill") in
      let f0 = flushes () and q0 = Obs.Metrics.value served in
      ignore (Oracle.query remote all);
      Alcotest.(check int) "query: one flush" (f0 + 1) (flushes ());
      ignore
        (Oracle.query_batch remote
           [ all; List.map (fun p -> (p, false)) pins ]);
      Alcotest.(check int) "query_batch: no flush" (f0 + 1) (flushes ());
      Alcotest.(check int) "three queries served" (q0 + 3)
        (Obs.Metrics.value served))

(* ----- every path against the reference walk ----- *)

(* [Ref_sim]'s reply to the packed inputs [q] of [comb], packed in
   output order. *)
let reference_packed comb inputs q =
  let idx = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.replace idx n i) inputs;
  let values =
    Ref_sim.eval_comb comb (fun id ->
        match Hashtbl.find_opt idx (Netlist.node comb id).Netlist.name with
        | Some i -> Bitpack.get q i
        | None -> false)
  in
  let outs = Array.of_list (Netlist.outputs comb) in
  Bitpack.init (Array.length outs) (fun k -> values.(snd outs.(k)))

let test_paths_equal_ref_sim () =
  List.iter
    (fun (name, n_vec) ->
      let net = Benchmarks.by_name name in
      let comb = fst (Combinationalize.run net) in
      let fresh () = Oracle.of_netlist ~memo:false comb in
      let inputs = Oracle.input_names (fresh ()) in
      let outputs = List.map fst (Netlist.outputs comb) in
      let rng = Random.State.make [| 23; Hashtbl.hash name |] in
      let vecs =
        Array.init n_vec (fun _ ->
            Bitpack.init (List.length inputs) (fun _ -> Random.State.bool rng))
      in
      let want = Array.map (reference_packed comb inputs) vecs in
      let named q = List.mapi (fun i n -> (n, Bitpack.get q i)) inputs in
      let unpacked r = List.mapi (fun k o -> (o, Bitpack.get r k)) outputs in
      let check what o =
        let fail path i =
          Alcotest.failf "%s %s %s: vector %d differs from Ref_sim" name what
            path i
        in
        Array.iteri
          (fun i r -> if r <> want.(i) then fail "query_packed" i)
          (Oracle.query_packed o vecs);
        Array.iteri
          (fun i q ->
            if Oracle.query o (named q) <> unpacked want.(i) then
              fail "query" i)
          vecs;
        List.iteri
          (fun i r -> if r <> unpacked want.(i) then fail "query_batch" i)
          (Oracle.query_batch o (List.map named (Array.to_list vecs)))
      in
      check "local" (fresh ());
      with_server [ (name, net) ] (fun _t path ->
          let r =
            Remote_oracle.connect ~client:"ref" ~memo:false
              (Frame_io.Unix_path path)
          in
          Fun.protect ~finally:(fun () -> Remote_oracle.close r) @@ fun () ->
          check "remote" (Remote_oracle.oracle r)))
    [ ("s1238", 64); ("s38417", 16) ]

(* ----- tcp shutdown gating ----- *)

let test_tcp_shutdown_gating () =
  (* default config: a shutdown frame over tcp is refused with a
     structured error and the daemon keeps serving *)
  let t =
    Gkd_server.create ~config:Gkd_server.default_config
      ~listen:(Frame_io.Tcp ("127.0.0.1", 0))
      [ ("s27", Benchmarks.s27 ()) ]
  in
  Gkd_server.start t;
  Fun.protect ~finally:(fun () -> Gkd_server.stop t) (fun () ->
      let fd = Frame_io.connect (Gkd_server.address t) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      hello fd ~id:1 "anyone";
      send fd ~id:2 Wire.Shutdown;
      (match recv fd with
      | { Wire.id = 2; msg = Wire.Error { code = Wire.Not_permitted; _ } } ->
        ()
      | { Wire.msg; _ } ->
        Alcotest.failf "expected not_permitted over tcp, got %s"
          (Wire.msg_type_name msg));
      send fd ~id:3 Wire.Ping;
      match recv fd with
      | { Wire.id = 3; msg = Wire.Pong } -> ()
      | _ -> Alcotest.fail "daemon died after refusing a tcp shutdown");
  (* opted in: the same frame shuts the daemon down cleanly *)
  let config =
    { Gkd_server.default_config with Gkd_server.allow_tcp_shutdown = true }
  in
  let t2 =
    Gkd_server.create ~config
      ~listen:(Frame_io.Tcp ("127.0.0.1", 0))
      [ ("s27", Benchmarks.s27 ()) ]
  in
  Gkd_server.start t2;
  let fd2 = Frame_io.connect (Gkd_server.address t2) in
  hello fd2 ~id:1 "admin";
  send fd2 ~id:2 Wire.Shutdown;
  (match recv fd2 with
  | { Wire.id = 2; msg = Wire.Shutdown_ack } -> ()
  | { Wire.msg; _ } ->
    Alcotest.failf "expected shutdown_ack with allow_tcp_shutdown, got %s"
      (Wire.msg_type_name msg));
  (try Unix.close fd2 with Unix.Unix_error _ -> ());
  Gkd_server.wait t2;
  Alcotest.(check int) "all connections closed" 0
    (Gkd_server.live_connections t2)

(* ----- per-client metrics counters are capped ----- *)

let test_client_counter_cap () =
  with_server [ ("s27", Benchmarks.s27 ()) ] (fun t path ->
      let fd = Frame_io.connect (Frame_io.Unix_path path) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      (* 300 re-Hellos under distinct client-chosen names: only the
         server's cap (256) may land in the process-global registry, the
         rest share gklockd.client_queries.other *)
      for i = 1 to 300 do
        hello fd ~id:i (Printf.sprintf "cap%03d" i)
      done;
      let prefixed =
        match Obs.Metrics.snapshot () with
        | Cjson.Obj kvs ->
          List.length
            (List.filter
               (fun (k, _) ->
                 String.starts_with ~prefix:"gklockd.client_queries.cap" k)
               kvs)
        | _ -> Alcotest.fail "snapshot is not an object"
      in
      Alcotest.(check int) "distinct per-client counters capped" 256 prefixed;
      (* an over-cap client is still served, just counted as "other" *)
      let oracle = Option.get (Gkd_server.design_oracle t "s27") in
      let n = List.length (Oracle.input_names oracle) in
      send fd ~id:1000
        (Wire.Query
           {
             design = "s27";
             n_bits = n;
             bits = Bitpack.init n (fun _ -> true);
           });
      match recv fd with
      | { Wire.id = 1000; msg = Wire.Result _ } -> ()
      | { Wire.msg; _ } ->
        Alcotest.failf "over-cap client not served: %s"
          (Wire.msg_type_name msg))

(* ----- metrics dump + clean shutdown ----- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_metrics_dump_and_shutdown () =
  let mfile = Filename.temp_file "gklockd_metrics" ".json" in
  let config =
    {
      Gkd_server.default_config with
      Gkd_server.flush_delay_s = 0.005;
      metrics_out = Some mfile;
      (* longer than the test: proves the final dump happens on shutdown *)
      metrics_interval_s = 3600.0;
    }
  in
  let path = socket_path () in
  let t =
    Gkd_server.create ~config
      ~listen:(Frame_io.Unix_path path)
      [ ("s27", Benchmarks.s27 ()) ]
  in
  Gkd_server.start t;
  let r = Remote_oracle.connect ~client:"dumper" (Frame_io.Unix_path path) in
  let o = Remote_oracle.oracle r in
  let pins =
    match Remote_oracle.designs r with
    | [ d ] -> d.Wire.d_inputs
    | _ -> Alcotest.fail "expected one hosted design"
  in
  let asg i = List.mapi (fun b p -> (p, (i lsr b) land 1 = 1)) pins in
  ignore (Oracle.query o (asg 1));
  ignore (Oracle.query_batch o [ asg 2; asg 3; asg 4 ]);
  (* shutdown via the wire, exactly like an external client would *)
  Remote_oracle.shutdown_server r;
  Gkd_server.wait t;
  Alcotest.(check int) "all connections closed" 0 (Gkd_server.live_connections t);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  (match Frame_io.connect (Frame_io.Unix_path path) with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Unix.close fd;
    Alcotest.fail "connect succeeded after shutdown");
  let dump = read_file mfile in
  Sys.remove mfile;
  (match Cjson.of_string dump with
  | Ok (Cjson.Obj kvs) ->
    List.iter
      (fun key ->
        Alcotest.(check bool)
          (key ^ " in the shutdown dump")
          true
          (List.mem_assoc key kvs))
      [
        "gklockd.batch_fill"; "gklockd.queries"; "gklockd.queue_depth";
        "gklockd.connections"; "oracle.memo_evictions"; "oracle.memo_hits";
      ]
  | Ok _ -> Alcotest.fail "metrics dump is not a JSON object"
  | Error e -> Alcotest.fail ("metrics dump is not valid JSON: " ^ e))

let suites =
  [
    ( "net-wire",
      [
        qc_roundtrip; qc_truncated; qc_mutated; qc_garbage;
        qc_payload_boundary; qc_padding;
        tc "a batch count is bounded before allocation" `Quick
          test_batch_count_bounded;
        tc "oversized length rejected" `Quick test_oversized;
        tc "payload CRC checked" `Quick test_crc_mismatch;
        tc "crc32 known answers" `Quick test_crc_known_answers;
        qc_crc_vs_bitwise;
        tc "crc32 rejects an out-of-range slice" `Quick test_crc_out_of_range;
        tc "golden Query frame" `Quick test_golden_frame;
        tc "unknown type byte rejected" `Quick test_unknown_type;
        tc "bad magic rejected" `Quick test_bad_magic;
      ] );
    ( "net-oracle",
      [
        tc "of_packed batch dedups and memoizes" `Quick test_packed_batch_dedup;
        tc "of_packed batch without memo" `Quick test_packed_batch_no_memo;
        tc "of_packed batch under a one-entry memo" `Quick
          test_packed_batch_capped_memo;
      ] );
    ( "net-daemon",
      [
        tc "registry verdict parity over the wire" `Slow test_registry_parity;
        tc "quota exhaustion inside a coalesced word" `Slow
          test_quota_mid_word;
        tc "lone client flushes without the delay" `Quick
          test_lone_client_flushes_early;
        tc "a silent connection keeps the delay" `Slow
          test_silent_connection_keeps_delay;
        tc "two closed-loop clients share words" `Quick
          test_two_closed_loop_clients;
        tc "unknown design is a structured error" `Quick test_unknown_design;
        tc "concurrent batches share one oracle safely" `Slow
          test_concurrent_batches;
        tc "oversized reply is a structured error" `Slow test_oversized_reply;
        tc "chunk sizing survives a wide-reply design" `Slow
          test_chunk_sizing_wide_reply;
        tc "tcp shutdown is gated" `Quick test_tcp_shutdown_gating;
        tc "per-client counters are capped" `Quick test_client_counter_cap;
        tc "1k malformed frames: alive, nothing leaked" `Slow
          test_malformed_fuzz;
        tc "metrics dump and clean shutdown" `Quick
          test_metrics_dump_and_shutdown;
        tc "a protocol-1 frame is unsupported_version" `Quick
          test_old_version_frame;
        tc "a wrong bit count is bad_query, then Ping works" `Quick
          test_wrong_bit_count;
        tc "remote names are checked before any frame" `Quick
          test_remote_names_checked;
        tc "positional, named and remote paths = Ref_sim" `Slow
          test_paths_equal_ref_sim;
      ] );
  ]
