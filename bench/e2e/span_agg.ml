(* Self-time aggregation over Obs.Trace JSONL files.

   Records are Chrome trace events ("B"/"E" pairs, "X" complete events)
   tagged with pid and tid.  Spans nest per (pid, tid): each "E" closes
   the innermost open span of the same name on its thread, and a span's
   self time is its duration minus the durations of its direct children.
   Every closed span is also attributed to its root, the outermost span
   open on its thread when it began, so a caller can ask for "self time
   of attack.solve inside bench.op" separately from the same span name
   reached from set-up code.

   Threads of one OCaml domain share a tid, so a daemon's reader and
   flusher threads can interleave their B/E records on one tid.  Closing
   by name (not strictly LIFO) keeps such traces usable: a span closed
   out of order is removed from the stack wherever it sits, and its time
   is charged as a child to the span that was open below it. *)

type stat = { mutable count : int; mutable total_us : float; mutable self_us : float }

type interval = { i_name : string; i_start : float; i_end : float }

type t = {
  by_name : (string, stat) Hashtbl.t;
  by_root : (string * string, stat) Hashtbl.t;  (* (root, name) *)
  mutable spans : interval list;  (* every closed span, newest first *)
  stacks : (int * int, frame list ref) Hashtbl.t;
}

and frame = { f_name : string; f_start : float; mutable f_child_us : float; f_root : string }

let create () =
  {
    by_name = Hashtbl.create 32;
    by_root = Hashtbl.create 32;
    spans = [];
    stacks = Hashtbl.create 8;
  }

let stat_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
    let s = { count = 0; total_us = 0.0; self_us = 0.0 } in
    Hashtbl.replace tbl key s;
    s

let record t ~root ~name ~start ~dur ~child =
  let bump s =
    s.count <- s.count + 1;
    s.total_us <- s.total_us +. dur;
    s.self_us <- s.self_us +. (dur -. child)
  in
  bump (stat_of t.by_name name);
  bump (stat_of t.by_root (root, name));
  t.spans <- { i_name = name; i_start = start; i_end = start +. dur } :: t.spans

let stack t key =
  match Hashtbl.find_opt t.stacks key with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.replace t.stacks key s;
    s

let root_of name = function [] -> name | frames -> (List.nth frames (List.length frames - 1)).f_root

let add_event t ~name ~ph ~ts ~pid ~tid ~dur =
  let st = stack t (pid, tid) in
  match ph with
  | "B" ->
    st := { f_name = name; f_start = ts; f_child_us = 0.0; f_root = root_of name !st } :: !st
  | "E" -> (
    let rec split above = function
      | [] -> None
      | f :: below when f.f_name = name -> Some (f, above, below)
      | f :: below -> split (f :: above) below
    in
    match split [] !st with
    | None -> ()  (* an E without its B: the trace started mid-span *)
    | Some (f, above, below) ->
      let d = ts -. f.f_start in
      record t ~root:f.f_root ~name ~start:f.f_start ~dur:d ~child:f.f_child_us;
      (match below with p :: _ -> p.f_child_us <- p.f_child_us +. d | [] -> ());
      st := List.rev_append above below)
  | "X" ->
    let d = Option.value dur ~default:0.0 in
    record t ~root:(root_of name !st) ~name ~start:ts ~dur:d ~child:0.0;
    (match !st with p :: _ -> p.f_child_us <- p.f_child_us +. d | [] -> ())
  | _ -> ()

let add_line t line =
  if String.trim line <> "" then
    match Cjson.of_string line with
    | Error _ -> ()  (* a torn last line of a killed process's trace *)
    | Ok j -> (
      match
        (Cjson.mem_str "name" j, Cjson.mem_str "ph" j, Cjson.mem_float "ts" j,
         Cjson.mem_int "pid" j, Cjson.mem_int "tid" j)
      with
      | Some name, Some ph, Some ts, Some pid, Some tid ->
        add_event t ~name ~ph ~ts ~pid ~tid ~dur:(Cjson.mem_float "dur" j)
      | _ -> ())

let add_file t path = Fs.fold_lines path (fun () line -> add_line t line) ()

let of_files paths =
  let t = create () in
  List.iter (add_file t) paths;
  t

let find tbl key = Hashtbl.find_opt tbl key

(* All figures in seconds. *)
let us_to_s us = us /. 1e6
let total_s t name = match find t.by_name name with Some s -> us_to_s s.total_us | None -> 0.0
let self_s t name = match find t.by_name name with Some s -> us_to_s s.self_us | None -> 0.0
let count t name = match find t.by_name name with Some s -> s.count | None -> 0

let self_under_s t ~root name =
  match find t.by_root (root, name) with Some s -> us_to_s s.self_us | None -> 0.0

let total_under_s t ~root name =
  match find t.by_root (root, name) with Some s -> us_to_s s.total_us | None -> 0.0

(* Wall time covered by at least one span called [name] (on any
   thread): the union of their intervals, so parallel spans on two
   domains are not counted twice. *)
let covered_s t name =
  let ivs =
    List.filter (fun i -> i.i_name = name) t.spans
    |> List.sort (fun a b -> compare a.i_start b.i_start)
  in
  let rec go acc cur = function
    | [] -> (match cur with Some (s, e) -> acc +. (e -. s) | None -> acc)
    | i :: rest -> (
      match cur with
      | None -> go acc (Some (i.i_start, i.i_end)) rest
      | Some (s, e) when i.i_start <= e -> go acc (Some (s, Float.max e i.i_end)) rest
      | Some (s, e) -> go (acc +. (e -. s)) (Some (i.i_start, i.i_end)) rest)
  in
  us_to_s (go 0.0 None ivs)
