(* Popped-event accounting is probe-gated: one boolean load per pop when
   tracing is off. *)
let m_pops = Obs.Metrics.counter "event_queue.pops"

(* A binary min-heap on (time, seq) kept as three parallel int arrays;
   slot i's children are slots 2i+1 and 2i+2.  No key repeats (seq is
   unique), so the pop order depends only on the pushes. *)
type t = {
  mutable time : int array;
  mutable seq : int array;
  mutable payload : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  let cap = 64 in
  { time = Array.make cap 0; seq = Array.make cap 0; payload = Array.make cap 0; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let size q = q.size

let grow q =
  let extend a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 q.size;
    b
  in
  q.time <- extend q.time;
  q.seq <- extend q.seq;
  q.payload <- extend q.payload

(* Slot [src]'s event moves to slot [dst]. *)
let move q src dst =
  Array.unsafe_set q.time dst (Array.unsafe_get q.time src);
  Array.unsafe_set q.seq dst (Array.unsafe_get q.seq src);
  Array.unsafe_set q.payload dst (Array.unsafe_get q.payload src)

(* Whether slot [i]'s event pops before the key (t, s). *)
let before q i t s =
  let ti = Array.unsafe_get q.time i in
  ti < t || (ti = t && Array.unsafe_get q.seq i < s)

(* The hole at slot [i] moves up past every parent later than [time] (a
   new event's seq is the largest yet, so only the time decides); the
   slot where it stops is returned. *)
let rec sift_up q i time =
  let parent = (i - 1) / 2 in
  if i > 0 && time < Array.unsafe_get q.time parent then begin
    move q parent i;
    sift_up q parent time
  end
  else i

(* The hole at slot [i] of a heap of [n] events moves down past every
   smaller child that pops before (t, s). *)
let rec sift_down q n i t s =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let c =
      if l + 1 < n
         && before q (l + 1) (Array.unsafe_get q.time l) (Array.unsafe_get q.seq l)
      then l + 1
      else l
    in
    if before q c t s then begin
      move q c i;
      sift_down q n c t s
    end
    else i

let add q ~time payload =
  if time < 0 then invalid_arg "Event_queue.add: negative time";
  if q.size = Array.length q.time then grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let i = sift_up q q.size time in
  q.size <- q.size + 1;
  Array.unsafe_set q.time i time;
  Array.unsafe_set q.seq i seq;
  Array.unsafe_set q.payload i payload

let min_time q =
  if q.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  q.time.(0)

let pop q =
  if q.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  Obs.Probe.incr m_pops;
  let top = q.payload.(0) in
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    (* the last event refills the root's hole *)
    let t = q.time.(n) and s = q.seq.(n) and p = q.payload.(n) in
    let i = sift_down q n 0 t s in
    Array.unsafe_set q.time i t;
    Array.unsafe_set q.seq i s;
    Array.unsafe_set q.payload i p
  end;
  top
