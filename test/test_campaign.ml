(* Tests for the campaign subsystem: Cjson codec, job IDs, the
   content-addressed store (objects, index, manifests, gc/fsck, legacy
   migration), the domain pool (timeouts, retries, structured failures),
   cross-campaign adoption and the interrupt/resume guarantee. *)

let tc = Alcotest.test_case

(* Fresh scratch campaign directory per test; campaign stores are plain
   files so cleanup is best-effort (the temp dir is reaped by the OS
   anyway).  The campaign dir is nested one level down so each test gets
   its own sibling store/ root — sibling campaigns deliberately share a
   store, which would otherwise let job IDs leak between tests. *)
let dir_counter = ref 0

let fresh_parent () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "gklock_campaign_test_%d_%d" (Unix.getpid ()) !dir_counter)

let fresh_dir () = Filename.concat (fresh_parent ()) "c"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ----- Cjson ----- *)

let test_cjson_roundtrip () =
  let v =
    Cjson.Obj
      [
        ("name", Cjson.Str "smoke");
        ("n", Cjson.Int 42);
        ("x", Cjson.Float 1.5);
        ("ok", Cjson.Bool true);
        ("nothing", Cjson.Null);
        ("seeds", Cjson.List [ Cjson.Int 1; Cjson.Int 2 ]);
        ("msg", Cjson.Str "a\"b\\c\nd");
      ]
  in
  let s = Cjson.to_string v in
  (match Cjson.of_string s with
  | Ok v' -> Alcotest.(check string) "reparse" s (Cjson.to_string v')
  | Error e -> Alcotest.failf "parse error: %s" e);
  (* canonical: same value, same bytes *)
  Alcotest.(check string) "stable" s (Cjson.to_string v)

let test_cjson_errors () =
  (match Cjson.of_string "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed object");
  (match Cjson.of_string "42 garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage");
  match Cjson.of_string "\"\\u00e9\"" with
  | Ok (Cjson.Str s) -> Alcotest.(check string) "unicode escape" "\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape"

let test_cjson_accessors () =
  let v = Cjson.Obj [ ("i", Cjson.Int 3); ("f", Cjson.Float 2.5) ] in
  Alcotest.(check (option int)) "mem_int" (Some 3) (Cjson.mem_int "i" v);
  Alcotest.(check (option (float 0.0)))
    "int as float" (Some 3.0) (Cjson.mem_float "i" v);
  Alcotest.(check (option int)) "missing" None (Cjson.mem_int "zzz" v)

(* ----- Cjson properties ----- *)

let qcheck ?(count = 200) name arb law = Qc.qcheck ~count name arb law

(* Ints stressed at the word boundaries: the parser falls back to float
   on overflow, so exact max_int/min_int must stay Int. *)
let gen_int =
  QCheck.Gen.(
    oneof
      [
        small_signed_int;
        int;
        oneofl [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1 ];
      ])

(* Floats whose canonical rendering re-parses to the same value: any
   finite float normalized through its 12-significant-digit decimal form
   (a 12-digit decimal → double → decimal trip is the identity, and the
   emitter prints %.12g / %.1f). *)
let gen_safe_float =
  QCheck.Gen.(
    map2
      (fun m e ->
        float_of_string
          (Printf.sprintf "%.12g" (float_of_int m *. (10. ** float_of_int e))))
      (int_range (-10000) 10000)
      (int_range (-3) 3))

let gen_string =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12))

let gen_json =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let leaf =
            oneof
              [
                return Cjson.Null;
                map (fun b -> Cjson.Bool b) bool;
                map (fun i -> Cjson.Int i) gen_int;
                map (fun f -> Cjson.Float f) gen_safe_float;
                map (fun s -> Cjson.Str s) gen_string;
              ]
          in
          if n <= 0 then leaf
          else
            frequency
              [
                (3, leaf);
                ( 1,
                  map
                    (fun l -> Cjson.List l)
                    (list_size (int_range 0 4) (self (n / 2))) );
                ( 1,
                  map
                    (fun kvs -> Cjson.Obj kvs)
                    (list_size (int_range 0 4)
                       (pair gen_string (self (n / 2)))) );
              ])
        (min n 6))

let arb_json = QCheck.make ~print:Cjson.to_string gen_json

let cjson_roundtrip_law v =
  match Cjson.of_string (Cjson.to_string v) with
  | Ok v' -> v' = v
  | Error e -> QCheck.Test.fail_reportf "parse error: %s" e

let cjson_idempotent_law v =
  (* even for values outside the exact-round-trip domain, the canonical
     form must be a fixpoint of print ∘ parse *)
  let s = Cjson.to_string v in
  match Cjson.of_string s with
  | Ok v' -> Cjson.to_string v' = s
  | Error e -> QCheck.Test.fail_reportf "parse error: %s" e

let arb_any_float =
  QCheck.make
    ~print:(fun f -> Printf.sprintf "%h" f)
    QCheck.Gen.(
      oneof
        [
          float;
          oneofl [ 0.; -0.; 1e-300; 1e300; 4.2e-5; 1. /. 3.; Float.pi ];
        ])

let cjson_float_idempotent_law f =
  cjson_idempotent_law (Cjson.Float f)

let cjson_string_law s = cjson_roundtrip_law (Cjson.Str s)

(* ----- job IDs and matrices ----- *)

let attack_spec ?(seed = 1) () =
  Campaign_job.Attack
    { bench = "s27"; scheme = "xor"; width = 4; attack = "none"; seed }

let test_job_id_deterministic () =
  let a = Campaign_job.id (attack_spec ()) in
  let b = Campaign_job.id (attack_spec ()) in
  Alcotest.(check string) "same spec, same id" a b;
  Alcotest.(check int) "hex digest" 32 (String.length a);
  let c = Campaign_job.id (attack_spec ~seed:2 ()) in
  Alcotest.(check bool) "changed seed, changed id" true (a <> c);
  (* the id is the digest of the canonical spec JSON under the format
     version prefix — the invalidation contract *)
  let expect =
    Digest.to_hex
      (Digest.string
         (Campaign_job.id_format
         ^ Cjson.to_string (Campaign_job.spec_to_json (attack_spec ()))))
  in
  Alcotest.(check string) "digest of canonical spec" expect a

let test_spec_json_roundtrip () =
  List.iter
    (fun spec ->
      match Campaign_job.spec_of_json (Campaign_job.spec_to_json spec) with
      | Ok spec' ->
        Alcotest.(check string)
          "roundtrip id" (Campaign_job.id spec) (Campaign_job.id spec')
      | Error e -> Alcotest.failf "spec roundtrip: %s" e)
    [
      Campaign_job.Table1 { bench = "s5378" };
      Campaign_job.Table2 { bench = "s9234"; profile = "buffers" };
      attack_spec ();
    ]

let test_matrix_expand () =
  let m =
    {
      Campaign_job.m_name = "t";
      m_tables = [];
      m_benches = [ "s27"; "tiny" ];
      m_schemes = [ "xor"; "xor" ] (* dup collapses *);
      m_widths = [ 4 ];
      m_attacks = [ "none" ];
      m_seeds = [ 1; 2 ];
    }
  in
  let jobs = Campaign_job.expand m in
  Alcotest.(check int) "2 benches x 2 seeds, dup scheme deduped" 4
    (List.length jobs);
  let ids = List.map (fun (j : Campaign_job.t) -> j.Campaign_job.id) jobs in
  Alcotest.(check int) "unique ids" 4 (List.length (List.sort_uniq compare ids));
  let sorted =
    List.sort
      (fun (a : Campaign_job.t) (b : Campaign_job.t) ->
        Campaign_job.compare_spec a.Campaign_job.spec b.Campaign_job.spec)
      jobs
  in
  Alcotest.(check bool) "expand is sorted" true (jobs = sorted);
  match Campaign_job.matrix_of_json (Campaign_job.matrix_to_json m) with
  | Ok m' ->
    Alcotest.(check int) "matrix json roundtrip" 4
      (List.length (Campaign_job.expand m'))
  | Error e -> Alcotest.failf "matrix roundtrip: %s" e

let test_builtins () =
  List.iter
    (fun name ->
      match Campaign_job.builtin name with
      | Some m ->
        Alcotest.(check bool)
          (name ^ " non-empty") true
          (Campaign_job.expand m <> [])
      | None -> Alcotest.failf "missing builtin %s" name)
    Campaign_job.builtin_names;
  Alcotest.(check (option reject)) "unknown builtin" None
    (Campaign_job.builtin "no-such-campaign")

(* ----- job store ----- *)

let mk_record ?(seed = 1) outcome =
  let spec = attack_spec ~seed () in
  {
    Job_store.r_id = Campaign_job.id spec;
    r_spec = Campaign_job.spec_to_json spec;
    r_outcome = outcome;
    r_wall_s = 0.25;
  }

let test_store_basic () =
  let dir = fresh_dir () in
  let store = Job_store.open_ dir in
  Alcotest.(check int) "empty" 0 (Job_store.size store);
  let r1 = mk_record (Job_store.Done (Cjson.Obj [ ("keys", Cjson.Int 4) ])) in
  let r2 =
    mk_record ~seed:2
      (Job_store.Failed
         { kind = Job_store.Timeout; message = "timed out"; attempts = 2 })
  in
  Job_store.append store r1;
  Job_store.append store r2;
  (* duplicate id: last record wins *)
  let r1' = mk_record (Job_store.Done (Cjson.Obj [ ("keys", Cjson.Int 8) ])) in
  Job_store.append store r1';
  Job_store.close store;
  let loaded = Job_store.load ~dir in
  Alcotest.(check int) "distinct ids" 2 (List.length loaded);
  (match Job_store.load ~dir |> List.hd with
  | { Job_store.r_outcome = Job_store.Done p; _ } ->
    Alcotest.(check (option int)) "last wins" (Some 8) (Cjson.mem_int "keys" p)
  | _ -> Alcotest.fail "expected Done");
  (* a reopened store sees the same records *)
  let store = Job_store.open_ dir in
  Alcotest.(check int) "reopen" 2 (Job_store.size store);
  Job_store.close store

let test_store_corrupt_line () =
  let dir = fresh_dir () in
  let store = Job_store.open_ dir in
  Job_store.append store
    (mk_record (Job_store.Done (Cjson.Obj [ ("keys", Cjson.Int 4) ])));
  Job_store.close store;
  (* simulate a crash mid-write of a legacy-format line: load must skip
     it while still returning the store-backed record *)
  let oc =
    open_out_gen
      [ Open_append; Open_creat; Open_binary ]
      0o644
      (Filename.concat dir "results.jsonl")
  in
  output_string oc "{\"id\": \"deadbeef\", \"outcome\": {\"st";
  close_out oc;
  Alcotest.(check int) "torn line skipped" 1 (List.length (Job_store.load ~dir))

(* ----- content-addressed store ----- *)

let object_file root digest =
  Filename.concat root
    (Filename.concat "objects"
       (Filename.concat (String.sub digest 0 2) (String.sub digest 2 30)))

let test_cas_objects () =
  let root = Filename.concat (fresh_parent ()) "store" in
  let cas = Cas.open_ root in
  let d1 = Cas.put cas "hello" in
  Alcotest.(check string) "idempotent put" d1 (Cas.put cas "hello");
  Alcotest.(check (option string)) "get" (Some "hello") (Cas.get cas d1);
  Alcotest.(check bool) "mem" true (Cas.mem cas d1);
  Alcotest.(check (option string))
    "absent digest" None
    (Cas.get cas (String.make 32 '0'));
  (* large strings leave the record as $blob references and come back *)
  let big = String.make 4096 'x' in
  let rd =
    Cas.put_record cas
      (Cjson.Obj [ ("small", Cjson.Str "s"); ("big", Cjson.Str big) ])
  in
  (match Cas.get_record cas rd with
  | Ok j -> Alcotest.(check (option string)) "blob resolved" (Some big)
              (Cjson.mem_str "big" j)
  | Error e -> Alcotest.failf "get_record: %s" e);
  let raw = Option.get (Cas.get cas rd) in
  Alcotest.(check bool) "record object holds a reference, not the bytes" false
    (contains ~needle:"xxxx" raw);
  (* a second record with the same blob shares the object *)
  let _rd2 =
    Cas.put_record cas
      (Cjson.Obj [ ("other", Cjson.Int 2); ("big", Cjson.Str big) ])
  in
  let s = Cas.stats cas in
  Alcotest.(check int) "hello + blob + 2 records" 4 s.Cas.st_objects;
  Cas.close cas

let test_cas_torn_index () =
  let root = Filename.concat (fresh_parent ()) "store" in
  let cas = Cas.open_ root in
  let id = Campaign_job.id (attack_spec ()) in
  let digest = Cas.put cas "payload" in
  Cas.index_add cas ~id ~digest;
  Cas.close cas;
  (* crash mid-append: a partial trailing entry *)
  let oc =
    open_out_gen
      [ Open_append; Open_binary ]
      0o644
      (Filename.concat root "index.bin")
  in
  output_string oc "torn!!!";
  close_out oc;
  let cas = Cas.open_ root in
  Alcotest.(check (option string))
    "torn tail ignored on load" (Some digest) (Cas.index_lookup cas id);
  let f = Cas.fsck cas in
  Alcotest.(check int) "torn bytes detected" 7 f.Cas.f_index_torn_bytes;
  Alcotest.(check bool) "repair reported" false f.Cas.f_ok;
  let f2 = Cas.fsck cas in
  Alcotest.(check bool) "second fsck clean" true f2.Cas.f_ok;
  Alcotest.(check (option string))
    "entry survives the repair" (Some digest) (Cas.index_lookup cas id);
  Cas.close cas

(* A torn tail is cut before the next append: an entry appended after
   reopening reads back whole from index.bin and from a manifest, and
   fsck finds nothing to repair. *)
let test_cas_append_after_torn_tail () =
  let parent = fresh_parent () in
  Fs.mkdir_p parent;
  let root = Filename.concat parent "store" in
  let tear path =
    let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
    output_string oc "torn!!!";
    close_out oc
  in
  let id1 = Campaign_job.id (attack_spec ~seed:1 ()) in
  let id2 = Campaign_job.id (attack_spec ~seed:2 ()) in
  let cas = Cas.open_ root in
  let d1 = Cas.put_record cas (Cjson.Obj [ ("v", Cjson.Int 1) ]) in
  let d2 = Cas.put_record cas (Cjson.Obj [ ("v", Cjson.Int 2) ]) in
  let m = Cas.manifest cas ~name:"m" ~dir:parent in
  Cas.index_add cas ~id:id1 ~digest:d1;
  Cas.manifest_add m ~id:id1 ~digest:d1;
  Cas.manifest_close m;
  Cas.close cas;
  tear (Filename.concat root "index.bin");
  tear (Filename.concat root (Filename.concat "manifests" "m.idx"));
  let cas = Cas.open_ root in
  let m = Cas.manifest cas ~name:"m" ~dir:parent in
  Cas.index_add cas ~id:id2 ~digest:d2;
  Cas.manifest_add m ~id:id2 ~digest:d2;
  Cas.manifest_close m;
  Cas.close cas;
  let cas = Cas.open_ root in
  let m = Cas.manifest cas ~name:"m" ~dir:parent in
  Alcotest.(check (list (pair string string)))
    "manifest reads both entries"
    [ (id1, d1); (id2, d2) ]
    (Cas.manifest_entries m);
  Cas.manifest_close m;
  Alcotest.(check (option string))
    "index reads the first entry" (Some d1) (Cas.index_lookup cas id1);
  Alcotest.(check (option string))
    "index reads the appended entry" (Some d2) (Cas.index_lookup cas id2);
  Alcotest.(check int) "index holds two entries" 2 (Cas.index_size cas);
  let f = Cas.fsck cas in
  Alcotest.(check int) "no torn bytes left" 0 f.Cas.f_index_torn_bytes;
  Alcotest.(check int) "no index entry dropped" 0 f.Cas.f_index_dropped;
  Alcotest.(check bool) "no manifest entry dropped" true
    (f.Cas.f_manifest_dropped = []);
  Alcotest.(check bool) "fsck clean" true f.Cas.f_ok;
  Cas.close cas

let test_cas_fsck_corruption () =
  let parent = fresh_parent () in
  Fs.mkdir_p parent;
  let root = Filename.concat parent "store" in
  let cas = Cas.open_ root in
  let m = Cas.manifest cas ~name:"m" ~dir:parent in
  let add id_seed json =
    let id = Campaign_job.id (attack_spec ~seed:id_seed ()) in
    let digest = Cas.put_record cas json in
    Cas.manifest_add m ~id ~digest;
    Cas.index_add cas ~id ~digest;
    (id, digest)
  in
  let id_bad, d_bad = add 1 (Cjson.Obj [ ("v", Cjson.Int 1) ]) in
  let id_good, _ = add 2 (Cjson.Obj [ ("v", Cjson.Int 2) ]) in
  (* flip bytes in one object in place — a digest mismatch, not a torn
     write *)
  let oc = open_out_bin (object_file root d_bad) in
  output_string oc "garbage";
  close_out oc;
  Alcotest.(check (option string))
    "corrupt object reads as absent" None (Cas.get cas d_bad);
  let f = Cas.fsck cas in
  Alcotest.(check int) "one object quarantined" 1 (List.length f.Cas.f_corrupt);
  Alcotest.(check int) "its index entry dropped" 1 f.Cas.f_index_dropped;
  Alcotest.(check bool) "manifest entry dropped" true
    (f.Cas.f_manifest_dropped = [ ("m", 1) ]);
  Alcotest.(check bool) "quarantine holds the bytes" true
    (Sys.file_exists (Filename.concat root (Filename.concat "quarantine" d_bad)));
  Alcotest.(check bool) "object gone from the tree" false
    (Sys.file_exists (object_file root d_bad));
  Alcotest.(check (option string)) "dropped from the index" None
    (Cas.index_lookup cas id_bad);
  Alcotest.(check bool) "good entry intact" true
    (Cas.index_lookup cas id_good <> None);
  Alcotest.(check bool) "second fsck clean" true (Cas.fsck cas).Cas.f_ok;
  Cas.manifest_close m;
  Cas.close cas

let test_store_legacy_migration () =
  let dir = fresh_dir () in
  Fs.mkdir_p dir;
  (* a pre-CAS store: plain JSONL lines *)
  let records =
    [
      mk_record (Job_store.Done (Cjson.Obj [ ("keys", Cjson.Int 4) ]));
      mk_record ~seed:2
        (Job_store.Failed
           { kind = Job_store.Exception; message = "boom"; attempts = 1 });
    ]
  in
  let oc = open_out_bin (Filename.concat dir "results.jsonl") in
  List.iter
    (fun r ->
      output_string oc (Cjson.to_string (Job_store.record_to_json r) ^ "\n"))
    records;
  close_out oc;
  let render rs =
    String.concat "\n"
      (List.map (fun r -> Cjson.to_string (Job_store.record_to_json r)) rs)
  in
  let before = render (Job_store.load ~dir) in
  (* open_ imports the file into the store and moves it aside *)
  let store = Job_store.open_ dir in
  Alcotest.(check int) "both records imported" 2 (Job_store.size store);
  Job_store.close store;
  Alcotest.(check bool) "results.jsonl renamed" false
    (Sys.file_exists (Filename.concat dir "results.jsonl"));
  Alcotest.(check bool) "migrated file kept" true
    (Sys.file_exists (Filename.concat dir "results.jsonl.migrated"));
  Alcotest.(check string) "load is byte-identical across the migration" before
    (render (Job_store.load ~dir))

(* ----- scale: gc and fsck over a 10k-object store ----- *)

let test_store_gc_fsck_scale () =
  let parent = fresh_parent () in
  Fs.mkdir_p parent;
  let root = Filename.concat parent "store" in
  let cas = Cas.open_ ~sync:false root in
  (* 10k unreferenced objects... *)
  for i = 1 to 10_000 do
    ignore (Cas.put cas (Printf.sprintf "dead object %d" i))
  done;
  (* ...plus 100 live records under a manifest whose campaign exists *)
  let m = Cas.manifest cas ~name:"live" ~dir:parent in
  for i = 1 to 100 do
    let id = Campaign_job.id (attack_spec ~seed:i ()) in
    let digest = Cas.put_record cas (Cjson.Obj [ ("seed", Cjson.Int i) ]) in
    Cas.manifest_add m ~id ~digest;
    Cas.index_add cas ~id ~digest
  done;
  let g = Cas.gc cas in
  Alcotest.(check int) "all dead objects swept" 10_000 g.Cas.gc_swept_objects;
  Alcotest.(check int) "live records kept" 100 g.Cas.gc_live_objects;
  Alcotest.(check int) "index rebuilt" 100 g.Cas.gc_index_entries;
  let f = Cas.fsck cas in
  Alcotest.(check bool) "store clean after gc" true f.Cas.f_ok;
  Alcotest.(check int) "fsck scanned the survivors" 100 f.Cas.f_objects;
  Cas.manifest_close m;
  Cas.close cas

(* ----- runner: fake executors over a tiny matrix ----- *)

let small_matrix ?(name = "t") () =
  {
    Campaign_job.m_name = name;
    m_tables = [];
    m_benches = [ "s27"; "tiny" ];
    m_schemes = [ "xor" ];
    m_widths = [ 4 ];
    m_attacks = [ "none" ];
    m_seeds = [ 1; 2 ];
  }

(* Deterministic payload derived only from the spec, so reports are
   byte-identical however the campaign was scheduled. *)
let fake_payload (j : Campaign_job.t) =
  match j.Campaign_job.spec with
  | Campaign_job.Attack { width; seed; _ } ->
    Cjson.Obj
      [
        ("keys", Cjson.Int width);
        ("status", Cjson.Str "ok");
        ("iterations", Cjson.Int seed);
        ("broken", Cjson.Bool false);
      ]
  | _ -> Cjson.Obj [ ("keys", Cjson.Int 0) ]

(* exec runs in worker domains: shared state needs a lock *)
let counted_exec ?(abort_after = max_int) counts =
  let lock = Mutex.create () in
  let started = ref 0 in
  fun (j : Campaign_job.t) ->
    let n =
      Mutex.lock lock;
      incr started;
      let id = j.Campaign_job.id in
      Hashtbl.replace counts id
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts id));
      let n = !started in
      Mutex.unlock lock;
      n
    in
    if n > abort_after then raise Campaign_runner.Abort;
    fake_payload j

let test_runner_completes () =
  let dir = fresh_dir () in
  let counts = Hashtbl.create 8 in
  let m = small_matrix () in
  let stats =
    Campaign.run ~workers:2 ~timeout_s:30.0 ~exec:(counted_exec counts) ~dir m
  in
  Alcotest.(check int) "ok" 4 stats.Campaign_runner.ok;
  Alcotest.(check int) "ran" 4 stats.Campaign_runner.ran;
  Alcotest.(check bool) "not aborted" false stats.Campaign_runner.aborted;
  Hashtbl.iter
    (fun _ n -> Alcotest.(check int) "executed once" 1 n)
    counts;
  (* artifacts present *)
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " written") true
        (Sys.file_exists (Filename.concat dir f)))
    [ "matrix.json"; "store.json"; "trace.jsonl"; "summary.json"; "report.txt" ];
  (* second run is a pure resume: everything skipped, nothing re-run *)
  let stats2 =
    Campaign.run ~workers:2 ~timeout_s:30.0 ~exec:(counted_exec counts) ~dir m
  in
  Alcotest.(check int) "all skipped" 4 stats2.Campaign_runner.skipped;
  Alcotest.(check int) "none ran" 0 stats2.Campaign_runner.ran;
  Hashtbl.iter
    (fun _ n -> Alcotest.(check int) "still executed once" 1 n)
    counts

(* Sibling campaigns share a store: a second campaign over the same
   specs adopts every result instead of re-running, and a widened matrix
   executes only the delta. *)
let test_store_adoption () =
  let parent = fresh_parent () in
  let counts = Hashtbl.create 8 in
  let m = small_matrix () in
  let stats_a =
    Campaign.run ~workers:2 ~timeout_s:30.0 ~exec:(counted_exec counts)
      ~dir:(Filename.concat parent "a") m
  in
  Alcotest.(check int) "first campaign runs everything" 4
    stats_a.Campaign_runner.ran;
  (* same matrix, different campaign dir, same sibling store *)
  let stats_b =
    Campaign.run ~workers:2 ~timeout_s:30.0 ~exec:(counted_exec counts)
      ~dir:(Filename.concat parent "b") m
  in
  Alcotest.(check int) "sibling re-runs nothing" 0 stats_b.Campaign_runner.ran;
  Alcotest.(check int) "everything adopted" 4 stats_b.Campaign_runner.skipped;
  Hashtbl.iter (fun _ n -> Alcotest.(check int) "executed once" 1 n) counts;
  Alcotest.(check string) "adopted results render identically"
    (read_file (Filename.concat (Filename.concat parent "a") "report.txt"))
    (read_file (Filename.concat (Filename.concat parent "b") "report.txt"));
  (* widened matrix: only the unseen cells execute *)
  let wide = { m with Campaign_job.m_seeds = [ 1; 2; 3 ] } in
  let stats_c =
    Campaign.run ~workers:2 ~timeout_s:30.0 ~exec:(counted_exec counts)
      ~dir:(Filename.concat parent "c") wide
  in
  Alcotest.(check int) "only the delta ran" 2 stats_c.Campaign_runner.ran;
  Alcotest.(check int) "the rest adopted" 4 stats_c.Campaign_runner.skipped;
  Hashtbl.iter (fun _ n -> Alcotest.(check int) "still once" 1 n) counts

(* ISSUE: kill a campaign after N of M jobs, resume, assert the final
   report is byte-identical to an uninterrupted run and completed jobs
   were not re-executed. *)
let test_interrupt_resume () =
  let m = small_matrix () in
  (* reference: uninterrupted run *)
  let dir_ref = fresh_dir () in
  let _ =
    Campaign.run ~workers:1 ~timeout_s:30.0
      ~exec:(counted_exec (Hashtbl.create 8))
      ~dir:dir_ref m
  in
  (* interrupted run: the executor aborts the campaign on the 3rd job *)
  let dir = fresh_dir () in
  let counts = Hashtbl.create 8 in
  let stats =
    Campaign.run ~workers:1 ~timeout_s:30.0
      ~exec:(counted_exec ~abort_after:2 counts)
      ~dir m
  in
  Alcotest.(check bool) "aborted" true stats.Campaign_runner.aborted;
  Alcotest.(check int) "2 of 4 done before the kill" 2 stats.Campaign_runner.ok;
  let done_before =
    List.filter_map
      (fun (r : Job_store.record) ->
        match r.Job_store.r_outcome with
        | Job_store.Done _ -> Some r.Job_store.r_id
        | Job_store.Failed _ -> None)
      (Job_store.load ~dir)
  in
  Alcotest.(check int) "store has the completed jobs" 2
    (List.length done_before);
  (* resume *)
  let stats2 =
    Campaign.run ~workers:1 ~timeout_s:30.0 ~exec:(counted_exec counts) ~dir m
  in
  Alcotest.(check int) "resume skips completed" 2 stats2.Campaign_runner.skipped;
  Alcotest.(check int) "resume runs the rest" 2 stats2.Campaign_runner.ok;
  List.iter
    (fun id ->
      Alcotest.(check int) "completed job not re-executed" 1
        (Hashtbl.find counts id))
    done_before;
  (* byte-identical report *)
  Alcotest.(check string) "report identical to uninterrupted run"
    (read_file (Filename.concat dir_ref "report.txt"))
    (read_file (Filename.concat dir "report.txt"))

(* ISSUE: a job that sleeps past its timeout and a job that raises both
   land in the store as structured failures without poisoning their
   siblings. *)
let test_timeout_and_crash_isolated () =
  let dir = fresh_dir () in
  let m = small_matrix () in
  let exec (j : Campaign_job.t) =
    match j.Campaign_job.spec with
    | Campaign_job.Attack { bench = "s27"; seed = 1; _ } ->
      Unix.sleepf 0.5;
      fake_payload j
    | Campaign_job.Attack { bench = "tiny"; seed = 1; _ } ->
      failwith "boom"
    | _ -> fake_payload j
  in
  let stats = Campaign.run ~workers:2 ~timeout_s:0.05 ~retries:0 ~exec ~dir m in
  Alcotest.(check int) "siblings completed" 2 stats.Campaign_runner.ok;
  Alcotest.(check int) "one timeout" 1 stats.Campaign_runner.timed_out;
  Alcotest.(check int) "one failure" 1 stats.Campaign_runner.failed;
  Alcotest.(check int) "timed-out domain abandoned" 1
    stats.Campaign_runner.abandoned;
  let records = Job_store.load ~dir in
  Alcotest.(check int) "every job has an outcome" 4 (List.length records);
  let timeouts, crashes =
    List.partition
      (fun (r : Job_store.record) ->
        match r.Job_store.r_outcome with
        | Job_store.Failed { kind = Job_store.Timeout; _ } -> true
        | _ -> false)
      (List.filter
         (fun (r : Job_store.record) ->
           match r.Job_store.r_outcome with
           | Job_store.Failed _ -> true
           | Job_store.Done _ -> false)
         records)
  in
  (match timeouts with
  | [ { Job_store.r_outcome = Job_store.Failed { message; attempts; _ }; _ } ]
    ->
    Alcotest.(check int) "timeout after 1 attempt" 1 attempts;
    Alcotest.(check bool) "timeout message" true
      (String.length message > 0)
  | _ -> Alcotest.fail "expected exactly one timeout record");
  (match crashes with
  | [ { Job_store.r_outcome = Job_store.Failed { message; _ }; _ } ] ->
    Alcotest.(check bool) "exception message captured" true
      (contains ~needle:"boom" message)
  | _ -> Alcotest.fail "expected exactly one exception record");
  (* a resume re-runs nothing: failures are outcomes too *)
  let stats2 =
    Campaign.run ~workers:2 ~timeout_s:0.05 ~retries:0
      ~exec:(fun _ -> Alcotest.fail "resumed a recorded job")
      ~dir m
  in
  Alcotest.(check int) "failures not retried on resume" 4
    stats2.Campaign_runner.skipped;
  (* the report renders failures as rows, not exceptions *)
  let report = Campaign.report ~dir m in
  Alcotest.(check bool) "report mentions TIMEOUT" true
    (contains ~needle:"TIMEOUT" report);
  (* let the abandoned sleeper drain before the process exits *)
  Unix.sleepf 0.5

let test_transient_retry () =
  let dir = fresh_dir () in
  let store = Job_store.open_ dir in
  let job = Campaign_job.make (attack_spec ()) in
  let attempts = Atomic.make 0 in
  let exec (j : Campaign_job.t) =
    if Atomic.fetch_and_add attempts 1 = 0 then
      raise (Campaign_runner.Transient "flaky")
    else fake_payload j
  in
  let config =
    { Campaign_runner.workers = 1; timeout_s = 0.0; max_retries = 1 }
  in
  let stats = Campaign_runner.run ~store config ~jobs:[ job ] ~exec in
  Job_store.close store;
  Alcotest.(check int) "retried once" 1 stats.Campaign_runner.retries;
  Alcotest.(check int) "then succeeded" 1 stats.Campaign_runner.ok;
  Alcotest.(check int) "two executions" 2 (Atomic.get attempts)

let test_transient_exhausted () =
  let dir = fresh_dir () in
  let store = Job_store.open_ dir in
  let job = Campaign_job.make (attack_spec ()) in
  let exec _ = raise (Campaign_runner.Transient "still flaky") in
  let config =
    { Campaign_runner.workers = 1; timeout_s = 0.0; max_retries = 2 }
  in
  let stats = Campaign_runner.run ~store config ~jobs:[ job ] ~exec in
  Job_store.close store;
  Alcotest.(check int) "all retries used" 2 stats.Campaign_runner.retries;
  Alcotest.(check int) "then failed" 1 stats.Campaign_runner.failed;
  match Job_store.load ~dir with
  | [ { Job_store.r_outcome = Job_store.Failed { attempts; kind; _ }; _ } ] ->
    Alcotest.(check int) "attempts recorded" 3 attempts;
    Alcotest.(check bool) "recorded as exception" true
      (kind = Job_store.Exception)
  | _ -> Alcotest.fail "expected one failure record"

let test_runner_validation () =
  let dir = fresh_dir () in
  let store = Job_store.open_ dir in
  let config =
    { Campaign_runner.workers = 0; timeout_s = 0.0; max_retries = 0 }
  in
  Alcotest.check_raises "workers >= 1"
    (Invalid_argument "Campaign_runner.run: workers must be >= 1") (fun () ->
      ignore
        (Campaign_runner.run ~store config ~jobs:[] ~exec:(fun _ -> Cjson.Null)));
  let config =
    { Campaign_runner.workers = 1; timeout_s = 0.0; max_retries = -1 }
  in
  Alcotest.check_raises "max_retries >= 0"
    (Invalid_argument "Campaign_runner.run: max_retries must be >= 0")
    (fun () ->
      ignore
        (Campaign_runner.run ~store config ~jobs:[] ~exec:(fun _ -> Cjson.Null)));
  Job_store.close store

(* ----- Parallel satellite: argument validation + nested-use guard ----- *)

let test_parallel_validation () =
  Alcotest.check_raises "domains >= 1"
    (Invalid_argument "Parallel.map: domains must be >= 1 (got 0)") (fun () ->
      ignore (Parallel.map ~domains:0 (fun x -> x) [ 1; 2; 3 ]));
  Alcotest.check_raises "negative domains"
    (Invalid_argument "Parallel.map: domains must be >= 1 (got -2)") (fun () ->
      ignore (Parallel.map ~domains:(-2) (fun x -> x) [ 1 ]))

let test_parallel_nested_sequential () =
  (* under run_sequentially, nested maps degrade to List.map instead of
     spawning domains from a worker domain *)
  let xs = List.init 20 Fun.id in
  let got =
    Parallel.run_sequentially (fun () ->
        Parallel.map ~domains:4 (fun x -> x * x) xs)
  in
  Alcotest.(check (list int)) "nested map" (List.map (fun x -> x * x) xs) got;
  (* and the flag is restored afterwards: a top-level map still works *)
  let got = Parallel.map ~domains:2 (fun x -> x + 1) xs in
  Alcotest.(check (list int)) "flag restored" (List.map (( + ) 1) xs) got

let suites =
  [
    ( "campaign.cjson",
      [
        tc "roundtrip" `Quick test_cjson_roundtrip;
        tc "errors" `Quick test_cjson_errors;
        tc "accessors" `Quick test_cjson_accessors;
        qcheck "parse∘print identity" arb_json cjson_roundtrip_law;
        qcheck "canonical form is a fixpoint" arb_json cjson_idempotent_law;
        qcheck ~count:500 "string escaping round-trips"
          QCheck.(string_gen Gen.(map Char.chr (int_range 0 255)))
          cjson_string_law;
        qcheck ~count:500 "arbitrary floats reach a fixpoint" arb_any_float
          cjson_float_idempotent_law;
      ] );
    ( "campaign.job",
      [
        tc "content-derived id" `Quick test_job_id_deterministic;
        tc "spec json roundtrip" `Quick test_spec_json_roundtrip;
        tc "matrix expand" `Quick test_matrix_expand;
        tc "builtins" `Quick test_builtins;
      ] );
    ( "campaign.store",
      [
        tc "append/load/last-wins" `Quick test_store_basic;
        tc "torn line skipped" `Quick test_store_corrupt_line;
        tc "legacy migration round-trip" `Quick test_store_legacy_migration;
      ] );
    ( "campaign.cas",
      [
        tc "objects and blob sharing" `Quick test_cas_objects;
        tc "torn index tolerated and repaired" `Quick test_cas_torn_index;
        tc "append after a torn tail" `Quick test_cas_append_after_torn_tail;
        tc "corruption quarantined" `Quick test_cas_fsck_corruption;
        tc "gc and fsck at 10k objects" `Slow test_store_gc_fsck_scale;
      ] );
    ( "campaign.runner",
      [
        tc "completes and resumes" `Quick test_runner_completes;
        tc "cross-campaign adoption" `Quick test_store_adoption;
        tc "interrupt/resume byte-identical" `Quick test_interrupt_resume;
        tc "timeout and crash isolated" `Slow test_timeout_and_crash_isolated;
        tc "transient retry" `Quick test_transient_retry;
        tc "transient exhausted" `Quick test_transient_exhausted;
        tc "config validation" `Quick test_runner_validation;
      ] );
    ( "campaign.parallel",
      [
        tc "domains validation" `Quick test_parallel_validation;
        tc "nested map sequential" `Quick test_parallel_nested_sequential;
      ] );
  ]
