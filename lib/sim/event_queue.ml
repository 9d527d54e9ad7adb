(* Popped-event accounting is probe-gated: one boolean load per pop when
   tracing is off. *)
let m_pops = Obs.Metrics.counter "event_queue.pops"

(* A timing wheel in front of a binary heap.  [now] is the time of the
   last pop.  The ring's bucket [t land mask] holds, in push order, the
   events at exact time t, for every t in [now, now + ring); a bucket is a
   FIFO of cells linked through [next], and popped cells go back on a
   free list.  Later events wait in the overflow heap, a binary min-heap
   on (time, seq) kept as three parallel int arrays (slot i's children
   are slots 2i+1 and 2i+2).  Whenever [now] advances, the heap's events
   that now fit move into the ring in heap order, before any later push
   can reach their buckets; so the pop order is (time, push order). *)

(* A power of two above the largest library delay (DLY8X1, 1,600 ps), so
   most events a gate schedules go straight into the ring. *)
let ring = 4096

let mask = ring - 1

type t = {
  (* the ring *)
  first : int array;  (* per bucket: its oldest cell, -1 when empty *)
  last : int array;  (* per bucket: its newest cell, if any *)
  mutable next : int array;  (* per cell: the next cell of its bucket or of the free list *)
  mutable cell : int array;  (* per cell: its payload *)
  mutable free : int;  (* the free list's first cell, -1 when empty *)
  mutable cells : int;  (* cells ever handed out *)
  mutable in_ring : int;
  mutable now : int;
  mutable cursor : int;  (* no ring event is earlier: [min_time]'s scan starts here *)
  (* the overflow heap *)
  mutable time : int array;
  mutable seq : int array;
  mutable payload : int array;
  mutable size : int;  (* events in the heap *)
  mutable next_seq : int;
}

let create () =
  let cap = 64 in
  {
    first = Array.make ring (-1);
    last = Array.make ring 0;
    next = Array.make cap 0;
    cell = Array.make cap 0;
    free = -1;
    cells = 0;
    in_ring = 0;
    now = 0;
    cursor = 0;
    time = Array.make cap 0;
    seq = Array.make cap 0;
    payload = Array.make cap 0;
    size = 0;
    next_seq = 0;
  }

let size q = q.in_ring + q.size

let is_empty q = size q = 0

let extend a n =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 n;
  b

(* ----- the ring ----- *)

let ring_push q time payload =
  let c =
    if q.free >= 0 then begin
      let c = q.free in
      q.free <- Array.unsafe_get q.next c;
      c
    end
    else begin
      if q.cells = Array.length q.cell then begin
        q.next <- extend q.next q.cells;
        q.cell <- extend q.cell q.cells
      end;
      q.cells <- q.cells + 1;
      q.cells - 1
    end
  in
  Array.unsafe_set q.cell c payload;
  Array.unsafe_set q.next c (-1);
  let b = time land mask in
  if Array.unsafe_get q.first b < 0 then Array.unsafe_set q.first b c
  else Array.unsafe_set q.next (Array.unsafe_get q.last b) c;
  Array.unsafe_set q.last b c;
  q.in_ring <- q.in_ring + 1

(* ----- the overflow heap ----- *)

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

let heap_push q time payload =
  if q.size = Array.length q.time then begin
    q.time <- extend q.time q.size;
    q.seq <- extend q.seq q.size;
    q.payload <- extend q.payload q.size
  end;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let i = sift_up q q.size time in
  q.size <- q.size + 1;
  Array.unsafe_set q.time i time;
  Array.unsafe_set q.seq i seq;
  Array.unsafe_set q.payload i payload

(* The heap's earliest events, up to time [limit] exclusive, move into
   the ring in (time, seq) order. *)
let rec migrate q limit =
  if q.size > 0 && q.time.(0) < limit then begin
    ring_push q q.time.(0) q.payload.(0);
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
    migrate q limit
  end

(* ----- the queue ----- *)

let add q ~time payload =
  if time < q.now then invalid_arg "Event_queue.add: time before the last pop";
  if time - q.now < ring then begin
    ring_push q time payload;
    if time < q.cursor then q.cursor <- time
  end
  else heap_push q time payload

(* The first time from [t] on whose bucket holds an event. *)
let rec scan first t = if Array.unsafe_get first (t land mask) < 0 then scan first (t + 1) else t

(* Every heap event is later than every ring event, so the earliest
   event is in the first non-empty bucket from [cursor] on, if the ring
   has one.  The scan's result becomes the new [cursor]. *)
let min_time q =
  if q.in_ring > 0 then begin
    let t = scan q.first q.cursor in
    q.cursor <- t;
    t
  end
  else if q.size > 0 then q.time.(0)
  else invalid_arg "Event_queue.min_time: empty queue"

let pop q =
  if is_empty q then invalid_arg "Event_queue.pop: empty queue";
  let time = min_time q in
  Obs.Probe.incr m_pops;
  if time > q.now then begin
    q.now <- time;
    q.cursor <- time;
    migrate q (time + ring)
  end;
  let b = time land mask in
  let c = q.first.(b) in
  q.first.(b) <- q.next.(c);
  q.next.(c) <- q.free;
  q.free <- c;
  q.in_ring <- q.in_ring - 1;
  q.cell.(c)
