let magic = "GKCASIX1"
let entry_size = 32
let blob_threshold = 256

let is_digest s =
  String.length s = 32
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

(* ----- binary id→digest entry files (the index and the manifests) ----- *)

(* 8-byte magic, then fixed 32-byte entries: 16 raw bytes of the id MD5
   followed by 16 raw bytes of the object MD5.  Append-only; duplicate
   ids resolve last-wins; a trailing partial entry (a torn append) is
   ignored on load, cut before the next append and repaired by fsck. *)
type entries = {
  e_path : string;
  e_tbl : (string, string) Hashtbl.t;
  mutable e_rev_order : string list;  (* ids, first-seen order, reversed *)
  mutable e_oc : out_channel option;
  mutable e_whole : bool;  (* the file is known to end on an entry *)
}

let parse_entries bytes tbl rev_order =
  let n = String.length bytes in
  if n >= 8 && String.sub bytes 0 8 = magic then begin
    let count = (n - 8) / entry_size in
    for i = 0 to count - 1 do
      let off = 8 + (i * entry_size) in
      let id = Digest.to_hex (String.sub bytes off 16) in
      let dg = Digest.to_hex (String.sub bytes (off + 16) 16) in
      if not (Hashtbl.mem tbl id) then rev_order := id :: !rev_order;
      Hashtbl.replace tbl id dg
    done
  end

(* Exclusive create with the magic already in place, so a reader that
   races the creation sees either no file or a well-formed empty one. *)
let ensure_entry_file path =
  if not (Sys.file_exists path) then begin
    Fs.mkdir_p (Filename.dirname path);
    match
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
    with
    | fd ->
      let oc = Unix.out_channel_of_descr fd in
      output_string oc magic;
      flush oc;
      Unix.close fd
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_entries ~rw path =
  if rw then ensure_entry_file path;
  let tbl = Hashtbl.create 64 in
  let rev_order = ref [] in
  if Sys.file_exists path then parse_entries (Fs.read_file path) tbl rev_order;
  let oc =
    if rw then
      Some
        (Unix.out_channel_of_descr
           (Unix.openfile path
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
              0o644))
    else None
  in
  {
    e_path = path;
    e_tbl = tbl;
    e_rev_order = !rev_order;
    e_oc = oc;
    e_whole = false;
  }

(* Cut the bytes past the last whole entry, so an append after a torn
   one lands on an entry boundary.  Done before a file's first append
   after opening, not at open, so a torn tail stays in place for fsck
   to report until something is appended. *)
let cut_torn_tail oc =
  let fd = Unix.descr_of_out_channel oc in
  let size = (Unix.fstat fd).Unix.st_size in
  if size > 8 then begin
    let whole = 8 + ((size - 8) / entry_size * entry_size) in
    if whole < size then Unix.ftruncate fd whole
  end

let entries_add ~sync e ~id ~digest =
  let oc =
    match e.e_oc with
    | Some oc -> oc
    | None -> invalid_arg "Cas: append to a read-only entry file"
  in
  if not e.e_whole then begin
    cut_torn_tail oc;
    e.e_whole <- true
  end;
  let raw = Digest.from_hex id ^ Digest.from_hex digest in
  output_string oc raw;
  flush oc;
  if sync then Unix.fsync (Unix.descr_of_out_channel oc);
  if not (Hashtbl.mem e.e_tbl id) then e.e_rev_order <- id :: e.e_rev_order;
  Hashtbl.replace e.e_tbl id digest

let entries_list e =
  (* e_rev_order is newest-first; rev_map restores first-added order *)
  List.rev_map (fun id -> (id, Hashtbl.find e.e_tbl id)) e.e_rev_order

let entries_close e =
  match e.e_oc with
  | Some oc ->
    close_out_noerr oc;
    e.e_oc <- None
  | None -> ()

(* Atomically replace the file with exactly [kept] (in order) and reset
   the in-memory view; the append channel is reopened because the old
   one points at the renamed-over inode. *)
let entries_rewrite ~sync e kept =
  let buf = Buffer.create (8 + (List.length kept * entry_size)) in
  Buffer.add_string buf magic;
  List.iter
    (fun (id, dg) ->
      Buffer.add_string buf (Digest.from_hex id);
      Buffer.add_string buf (Digest.from_hex dg))
    kept;
  Fs.write_atomic ~sync ~path:e.e_path (Buffer.contents buf);
  e.e_whole <- true;
  Hashtbl.reset e.e_tbl;
  e.e_rev_order <- [];
  List.iter
    (fun (id, dg) ->
      if not (Hashtbl.mem e.e_tbl id) then e.e_rev_order <- id :: e.e_rev_order;
      Hashtbl.replace e.e_tbl id dg)
    kept;
  if e.e_oc <> None then begin
    entries_close e;
    e.e_oc <-
      Some
        (Unix.out_channel_of_descr
           (Unix.openfile e.e_path
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
              0o644))
  end

(* ----- store ----- *)

type t = {
  c_root : string;
  c_sync : bool;
  c_mutex : Mutex.t;
  c_index : entries;
}

let objects_dir t = Filename.concat t.c_root "objects"
let manifests_dir t = Filename.concat t.c_root "manifests"
let quarantine_dir t = Filename.concat t.c_root "quarantine"
let index_path root = Filename.concat root "index.bin"

let object_path t digest =
  Filename.concat (objects_dir t)
    (Filename.concat (String.sub digest 0 2)
       (String.sub digest 2 (String.length digest - 2)))

let open_ ?(sync = true) root =
  Fs.mkdir_p root;
  Fs.mkdir_p (Filename.concat root "objects");
  Fs.mkdir_p (Filename.concat root "manifests");
  {
    c_root = root;
    c_sync = sync;
    c_mutex = Mutex.create ();
    c_index = open_entries ~rw:true (index_path root);
  }

let root t = t.c_root
let close t = entries_close t.c_index

let locked t f =
  Mutex.lock t.c_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.c_mutex) f

(* ----- objects ----- *)

let put t bytes =
  let digest = Digest.to_hex (Digest.string bytes) in
  let path = object_path t digest in
  if not (Sys.file_exists path) then
    Fs.write_atomic ~sync:t.c_sync ~path bytes;
  digest

let get t digest =
  if not (is_digest digest) then None
  else begin
    let path = object_path t digest in
    match Fs.read_file path with
    | bytes ->
      if Digest.to_hex (Digest.string bytes) = digest then Some bytes
      else None (* corrupt: report as absent, fsck quarantines *)
    | exception Sys_error _ -> None
  end

let mem t digest = is_digest digest && Sys.file_exists (object_path t digest)

(* ----- records with blob externalization ----- *)

let rec externalize t j =
  match j with
  | Cjson.Str s when String.length s >= blob_threshold ->
    Cjson.Obj [ ("$blob", Cjson.Str (put t s)) ]
  | Cjson.List l -> Cjson.List (List.map (externalize t) l)
  | Cjson.Obj kvs -> Cjson.Obj (List.map (fun (k, v) -> (k, externalize t v)) kvs)
  | j -> j

exception Missing_blob of string

let rec internalize t j =
  match j with
  | Cjson.Obj [ ("$blob", Cjson.Str d) ] -> (
    match get t d with
    | Some bytes -> Cjson.Str bytes
    | None -> raise (Missing_blob d))
  | Cjson.List l -> Cjson.List (List.map (internalize t) l)
  | Cjson.Obj kvs -> Cjson.Obj (List.map (fun (k, v) -> (k, internalize t v)) kvs)
  | j -> j

let rec blob_refs acc j =
  match j with
  | Cjson.Obj [ ("$blob", Cjson.Str d) ] -> d :: acc
  | Cjson.List l -> List.fold_left blob_refs acc l
  | Cjson.Obj kvs -> List.fold_left (fun acc (_, v) -> blob_refs acc v) acc kvs
  | _ -> acc

let put_record t json = put t (Cjson.to_string (externalize t json))

let get_record t digest =
  match get t digest with
  | None -> Error (Printf.sprintf "record %s: missing or corrupt object" digest)
  | Some bytes -> (
    match Cjson.of_string bytes with
    | Error e -> Error (Printf.sprintf "record %s: %s" digest e)
    | Ok json -> (
      match internalize t json with
      | json -> Ok json
      | exception Missing_blob d ->
        Error (Printf.sprintf "record %s: missing blob %s" digest d)))

(* ----- index ----- *)

let index_lookup t id = locked t (fun () -> Hashtbl.find_opt t.c_index.e_tbl id)

let index_add t ~id ~digest =
  locked t (fun () -> entries_add ~sync:t.c_sync t.c_index ~id ~digest)

let index_size t = locked t (fun () -> Hashtbl.length t.c_index.e_tbl)

(* ----- manifests ----- *)

type manifest = { m_store : t; m_entries : entries }

let manifest_idx_path t name =
  Filename.concat (manifests_dir t) (name ^ ".idx")

let manifest_meta_path t name =
  Filename.concat (manifests_dir t) (name ^ ".json")

let manifest t ~name ~dir =
  let meta = manifest_meta_path t name in
  if not (Sys.file_exists meta) then
    Fs.write_atomic ~sync:t.c_sync ~path:meta
      (Cjson.to_string (Cjson.Obj [ ("dir", Cjson.Str dir) ]) ^ "\n");
  { m_store = t; m_entries = open_entries ~rw:true (manifest_idx_path t name) }

let manifest_ro t ~name =
  let path = manifest_idx_path t name in
  if Sys.file_exists path then
    Some { m_store = t; m_entries = open_entries ~rw:false path }
  else None

let manifest_lookup m id = Hashtbl.find_opt m.m_entries.e_tbl id

let manifest_add m ~id ~digest =
  entries_add ~sync:m.m_store.c_sync m.m_entries ~id ~digest

let manifest_entries m = entries_list m.m_entries
let manifest_size m = Hashtbl.length m.m_entries.e_tbl
let manifest_close m = entries_close m.m_entries

let manifest_names t =
  let dir = manifests_dir t in
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".idx" f)
    |> List.sort compare

let manifest_dir t name =
  match Fs.read_file (manifest_meta_path t name) with
  | contents -> (
    match Cjson.of_string (String.trim contents) with
    | Ok j -> Cjson.mem_str "dir" j
    | Error _ -> None)
  | exception Sys_error _ -> None

(* ----- walking the object tree ----- *)

let fold_objects t f init =
  let dir = objects_dir t in
  if not (Sys.file_exists dir) then init
  else begin
    let subs = Sys.readdir dir in
    Array.sort compare subs;
    Array.fold_left
      (fun acc sub ->
        let sub_path = Filename.concat dir sub in
        if not (Sys.is_directory sub_path) then acc
        else begin
          let files = Sys.readdir sub_path in
          Array.sort compare files;
          Array.fold_left
            (fun acc file ->
              f acc ~digest:(sub ^ file) ~path:(Filename.concat sub_path file))
            acc files
        end)
      init subs
  end

(* Reachability: every manifest root record plus every blob those
   records reference. *)
let live_digests t names =
  let live = Hashtbl.create 256 in
  List.iter
    (fun name ->
      match manifest_ro t ~name with
      | None -> ()
      | Some m ->
        List.iter
          (fun (_, digest) ->
            Hashtbl.replace live digest ();
            match get t digest with
            | None -> ()
            | Some bytes -> (
              match Cjson.of_string bytes with
              | Ok json ->
                List.iter
                  (fun d -> Hashtbl.replace live d ())
                  (blob_refs [] json)
              | Error _ -> ()))
          (manifest_entries m))
    names;
  live

(* ----- gc ----- *)

type gc_stats = {
  gc_live_objects : int;
  gc_swept_objects : int;
  gc_swept_bytes : int;
  gc_dropped_manifests : string list;
  gc_index_entries : int;
}

let gc t =
  locked t (fun () ->
      (* 1. manifests whose campaign directory vanished are dead *)
      let dropped, kept =
        List.partition
          (fun name ->
            match manifest_dir t name with
            | Some dir -> not (Sys.file_exists dir)
            | None -> false (* no sidecar: keep, cannot verify *))
          (manifest_names t)
      in
      List.iter
        (fun name ->
          (try Sys.remove (manifest_idx_path t name) with Sys_error _ -> ());
          try Sys.remove (manifest_meta_path t name) with Sys_error _ -> ())
        dropped;
      (* 2. the index is exactly the union of the surviving manifests *)
      let index_entries =
        List.concat_map
          (fun name ->
            match manifest_ro t ~name with
            | Some m -> manifest_entries m
            | None -> [])
          kept
      in
      let seen = Hashtbl.create 256 in
      let index_entries =
        (* last manifest wins per id, like append order would *)
        List.rev
          (List.fold_left
             (fun acc (id, dg) ->
               if Hashtbl.mem seen id then
                 List.map (fun (i, d) -> if i = id then (i, dg) else (i, d)) acc
               else begin
                 Hashtbl.add seen id ();
                 (id, dg) :: acc
               end)
             [] index_entries)
      in
      entries_rewrite ~sync:t.c_sync t.c_index index_entries;
      (* 3. sweep unreachable objects *)
      let live = live_digests t kept in
      let swept, swept_bytes =
        fold_objects t
          (fun (n, bytes) ~digest ~path ->
            if Hashtbl.mem live digest then (n, bytes)
            else begin
              let sz =
                match Unix.stat path with
                | { Unix.st_size; _ } -> st_size
                | exception Unix.Unix_error _ -> 0
              in
              (try Sys.remove path with Sys_error _ -> ());
              (n + 1, bytes + sz)
            end)
          (0, 0)
      in
      (* prune now-empty fan-out directories *)
      (match Sys.readdir (objects_dir t) with
      | subs ->
        Array.iter
          (fun sub ->
            let p = Filename.concat (objects_dir t) sub in
            if Sys.is_directory p && Sys.readdir p = [||] then
              try Unix.rmdir p with Unix.Unix_error _ -> ())
          subs
      | exception Sys_error _ -> ());
      {
        gc_live_objects = Hashtbl.length live;
        gc_swept_objects = swept;
        gc_swept_bytes = swept_bytes;
        gc_dropped_manifests = dropped;
        gc_index_entries = List.length index_entries;
      })

(* ----- fsck ----- *)

type fsck_report = {
  f_objects : int;
  f_corrupt : (string * string) list;
  f_index_dropped : int;
  f_index_torn_bytes : int;
  f_manifest_dropped : (string * int) list;
  f_ok : bool;
}

let quarantine t ~digest ~path =
  Fs.mkdir_p (quarantine_dir t);
  let base = Filename.concat (quarantine_dir t) digest in
  let dest =
    if not (Sys.file_exists base) then base
    else begin
      let rec free i =
        let p = Printf.sprintf "%s.%d" base i in
        if Sys.file_exists p then free (i + 1) else p
      in
      free 1
    end
  in
  Sys.rename path dest

let fsck t =
  locked t (fun () ->
      (* 1. every object must hash to its name *)
      let objects, corrupt =
        fold_objects t
          (fun (n, bad) ~digest ~path ->
            if not (is_digest digest) then begin
              quarantine t ~digest ~path;
              (n + 1, (path, "malformed object name") :: bad)
            end
            else begin
              match Fs.read_file path with
              | bytes ->
                if Digest.to_hex (Digest.string bytes) = digest then (n + 1, bad)
                else begin
                  quarantine t ~digest ~path;
                  (n + 1, (path, "digest mismatch") :: bad)
                end
              | exception Sys_error e -> (n + 1, (path, e) :: bad)
            end)
          (0, [])
      in
      let corrupt = List.rev corrupt in
      (* 2. index: torn tail, bad header, entries without objects *)
      let raw =
        match Fs.read_file t.c_index.e_path with
        | s -> s
        | exception Sys_error _ -> ""
      in
      let headerless =
        String.length raw < 8 || String.sub raw 0 8 <> magic
      in
      let torn_bytes =
        if headerless then String.length raw
        else (String.length raw - 8) mod entry_size
      in
      let tbl = Hashtbl.create 64 and rev_order = ref [] in
      if not headerless then parse_entries raw tbl rev_order;
      let all =
        List.rev_map (fun id -> (id, Hashtbl.find tbl id)) !rev_order
      in
      let kept, index_dropped =
        List.fold_left
          (fun (kept, dropped) (id, dg) ->
            if mem t dg then ((id, dg) :: kept, dropped)
            else (kept, dropped + 1))
          ([], 0) all
      in
      let kept = List.rev kept in
      if headerless || torn_bytes > 0 || index_dropped > 0 then
        entries_rewrite ~sync:t.c_sync t.c_index kept;
      (* 3. manifests: drop entries whose record object is gone *)
      let manifest_dropped =
        List.filter_map
          (fun name ->
            match manifest_ro t ~name with
            | None -> None
            | Some m ->
              let entries = manifest_entries m in
              let kept, dropped =
                List.partition (fun (_, dg) -> mem t dg) entries
              in
              if dropped = [] then None
              else begin
                entries_rewrite ~sync:t.c_sync m.m_entries kept;
                Some (name, List.length dropped)
              end)
          (manifest_names t)
      in
      {
        f_objects = objects;
        f_corrupt = corrupt;
        f_index_dropped = index_dropped;
        f_index_torn_bytes = torn_bytes;
        f_manifest_dropped = manifest_dropped;
        f_ok =
          corrupt = [] && index_dropped = 0 && torn_bytes = 0
          && not headerless && manifest_dropped = [];
      })

(* ----- stats ----- *)

type stats = {
  st_objects : int;
  st_bytes : int;
  st_index_entries : int;
  st_manifests : (string * int) list;
  st_blobs : int;
  st_blob_refs : int;
  st_shared_blobs : int;
  st_saved_bytes : int;
}

let stats t =
  locked t (fun () ->
      let objects, bytes =
        fold_objects t
          (fun (n, b) ~digest:_ ~path ->
            let sz =
              match Unix.stat path with
              | { Unix.st_size; _ } -> st_size
              | exception Unix.Unix_error _ -> 0
            in
            (n + 1, b + sz))
          (0, 0)
      in
      let names = manifest_names t in
      let manifests =
        List.map
          (fun name ->
            ( name,
              match manifest_ro t ~name with
              | Some m -> manifest_size m
              | None -> 0 ))
          names
      in
      (* blob sharing: reference counts across every manifest's records *)
      let refs = Hashtbl.create 64 in
      List.iter
        (fun name ->
          match manifest_ro t ~name with
          | None -> ()
          | Some m ->
            List.iter
              (fun (_, digest) ->
                match get t digest with
                | None -> ()
                | Some record_bytes -> (
                  match Cjson.of_string record_bytes with
                  | Ok json ->
                    List.iter
                      (fun d ->
                        Hashtbl.replace refs d
                          (1 + Option.value ~default:0 (Hashtbl.find_opt refs d)))
                      (blob_refs [] json)
                  | Error _ -> ()))
              (manifest_entries m))
        names;
      let blobs, blob_refs_total, shared, saved =
        Hashtbl.fold
          (fun d n (blobs, total, shared, saved) ->
            let sz =
              match Unix.stat (object_path t d) with
              | { Unix.st_size; _ } -> st_size
              | exception Unix.Unix_error _ -> 0
            in
            ( blobs + 1,
              total + n,
              (if n > 1 then shared + 1 else shared),
              saved + ((n - 1) * sz) ))
          refs (0, 0, 0, 0)
      in
      {
        st_objects = objects;
        st_bytes = bytes;
        st_index_entries = Hashtbl.length t.c_index.e_tbl;
        st_manifests = manifests;
        st_blobs = blobs;
        st_blob_refs = blob_refs_total;
        st_shared_blobs = shared;
        st_saved_bytes = saved;
      })
