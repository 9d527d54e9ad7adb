let protocol_version = 2
let header_bytes = 16
let max_payload = 1 lsl 24
let max_batch = 1 lsl 16

(* ----- CRC-32 (IEEE 802.3), slicing-by-8 -----

   Eight 256-entry tables, back to back in one [int] array: slice 0 is
   the classic bytewise table, and slice k advances slice k-1's entry
   by one more zero byte, so one lookup per slice folds 8 input bytes
   into the register at once.  The register is a native int holding 32
   bits, so the loop allocates nothing. *)

let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

(* table [k]'s entry for the low byte of [i]; the [int array]
   annotation matters: a polymorphic array read tests for a float array
   on every lookup, which doubles the cost of [crc32] *)
let slice (t : int array) k i = Array.unsafe_get t ((k lsl 8) lor (i land 0xff))

let crc32 b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Wire.crc32: pos/len out of range";
  let t = Lazy.force crc_tables in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    (* Int32.to_int sign-extends; [slice] only ever reads bits 0..31 *)
    let lo = !c lxor Int32.to_int (Bytes.get_int32_le b !i) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) in
    c :=
      slice t 7 lo
      lxor slice t 6 (lo lsr 8)
      lxor slice t 5 (lo lsr 16)
      lxor slice t 4 (lo lsr 24)
      lxor slice t 3 hi
      lxor slice t 2 (hi lsr 8)
      lxor slice t 1 (hi lsr 16)
      lxor slice t 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := (!c lsr 8) lxor slice t 0 (!c lxor Char.code (Bytes.unsafe_get b j))
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* ----- error codes ----- *)

type error_code =
  | Bad_frame
  | Bad_payload
  | Unsupported_version
  | Unknown_type
  | Unknown_design
  | Over_quota_queries
  | Over_quota_deadline
  | Bad_query
  | Not_permitted
  | Shutting_down
  | Server_error

let error_codes =
  [
    (Bad_frame, 0x01, "bad_frame");
    (Bad_payload, 0x02, "bad_payload");
    (Unsupported_version, 0x03, "unsupported_version");
    (Unknown_type, 0x04, "unknown_type");
    (Unknown_design, 0x10, "unknown_design");
    (Over_quota_queries, 0x11, "over_quota_queries");
    (Over_quota_deadline, 0x12, "over_quota_deadline");
    (Bad_query, 0x13, "bad_query");
    (Not_permitted, 0x14, "not_permitted");
    (Shutting_down, 0x20, "shutting_down");
    (Server_error, 0x21, "server_error");
  ]

let error_code_byte c =
  let _, b, _ = List.find (fun (c', _, _) -> c' = c) error_codes in
  b

let error_code_of_byte b =
  List.find_map (fun (c, b', _) -> if b = b' then Some c else None) error_codes

let error_code_name c =
  let _, _, n = List.find (fun (c', _, _) -> c' = c) error_codes in
  n

(* ----- messages ----- *)

type design_info = {
  d_name : string;
  d_inputs : string list;
  d_outputs : string list;
  d_cells : int;
}

type msg =
  | Hello of { client : string; proto : int }
  | Hello_ack of { server : string; proto : int }
  | List_designs
  | Designs of design_info list
  | Query of { design : string; n_bits : int; bits : string }
  | Result of { n_bits : int; bits : string }
  | Query_batch of { design : string; n_bits : int; vectors : string array }
  | Batch_result of { n_bits : int; vectors : string array }
  | Ping
  | Pong
  | Shutdown
  | Shutdown_ack
  | Error of { code : error_code; detail : string }

let msg_type = function
  | Hello _ -> 0x01
  | List_designs -> 0x02
  | Query _ -> 0x03
  | Query_batch _ -> 0x04
  | Ping -> 0x05
  | Shutdown -> 0x06
  | Hello_ack _ -> 0x81
  | Designs _ -> 0x82
  | Result _ -> 0x83
  | Batch_result _ -> 0x84
  | Pong -> 0x85
  | Shutdown_ack -> 0x86
  | Error _ -> 0xFF

let msg_type_name = function
  | Hello _ -> "hello"
  | Hello_ack _ -> "hello_ack"
  | List_designs -> "list_designs"
  | Designs _ -> "designs"
  | Query _ -> "query"
  | Result _ -> "result"
  | Query_batch _ -> "query_batch"
  | Batch_result _ -> "batch_result"
  | Ping -> "ping"
  | Pong -> "pong"
  | Shutdown -> "shutdown"
  | Shutdown_ack -> "shutdown_ack"
  | Error _ -> "error"

type frame = { id : int; msg : msg }

type wire_error =
  | Truncated of { have : int; need : int }
  | Bad_magic
  | Bad_version of int
  | Unknown_msg_type of int
  | Oversized of int
  | Crc_mismatch
  | Malformed of string

let wire_error_message = function
  | Truncated { have; need } ->
    Printf.sprintf "truncated frame: have %d bytes, need %d" have need
  | Bad_magic -> "bad magic (expected \"GK\")"
  | Bad_version v ->
    Printf.sprintf "unsupported protocol version %d (speaking %d)" v
      protocol_version
  | Unknown_msg_type t -> Printf.sprintf "unknown message type 0x%02x" t
  | Oversized n ->
    Printf.sprintf "payload length %d exceeds the %d-byte cap" n max_payload
  | Crc_mismatch -> "payload CRC mismatch"
  | Malformed d -> "malformed payload: " ^ d

let error_code_of_wire_error = function
  | Truncated _ | Bad_magic | Crc_mismatch -> Bad_frame
  | Bad_version _ -> Unsupported_version
  | Unknown_msg_type _ -> Unknown_type
  | Oversized _ | Malformed _ -> Bad_payload

(* ----- encoding ----- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u16 b v =
  if v < 0 || v > 0xffff then invalid_arg "Wire.encode: u16 out of range";
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.encode: u32 out of range";
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_str b s =
  put_u16 b (String.length s);
  Buffer.add_string b s

(* A packed vector: its bit count, then its [Bitpack.bytes] bytes. *)
let put_bits b ~n_bits bits =
  if not (Bitpack.well_formed n_bits bits) then
    invalid_arg "Wire.encode: a vector is not packed to its bit count";
  Buffer.add_string b bits

(* A batch: u32 vector count, u32 bit width, then the vectors back to
   back. *)
let put_batch b ~n_bits vectors =
  if Array.length vectors > max_batch then
    invalid_arg "Wire.encode: batch exceeds max_batch vectors";
  put_u32 b (Array.length vectors);
  put_u32 b n_bits;
  Array.iter (put_bits b ~n_bits) vectors

let encode_payload msg =
  let b = Buffer.create 64 in
  (match msg with
  | Hello { client; proto } ->
    put_str b client;
    put_u8 b proto
  | Hello_ack { server; proto } ->
    put_str b server;
    put_u8 b proto
  | List_designs | Ping | Pong | Shutdown | Shutdown_ack -> ()
  | Designs ds ->
    put_u16 b (List.length ds);
    List.iter
      (fun d ->
        put_str b d.d_name;
        put_u32 b d.d_cells;
        put_u16 b (List.length d.d_inputs);
        List.iter (put_str b) d.d_inputs;
        put_u16 b (List.length d.d_outputs);
        List.iter (put_str b) d.d_outputs)
      ds
  | Query { design; n_bits; bits } ->
    put_str b design;
    put_u32 b n_bits;
    put_bits b ~n_bits bits
  | Result { n_bits; bits } ->
    put_u32 b n_bits;
    put_bits b ~n_bits bits
  | Query_batch { design; n_bits; vectors } ->
    put_str b design;
    put_batch b ~n_bits vectors
  | Batch_result { n_bits; vectors } -> put_batch b ~n_bits vectors
  | Error { code; detail } ->
    put_u8 b (error_code_byte code);
    put_str b detail);
  Buffer.to_bytes b

let encode ~id msg =
  if id < 0 || id > 0xFFFFFFFF then
    invalid_arg "Wire.encode: request id out of u32 range";
  let payload = encode_payload msg in
  let len = Bytes.length payload in
  if len > max_payload then
    invalid_arg
      (Printf.sprintf "Wire.encode: payload %d exceeds max_payload" len);
  let crc = crc32 payload ~pos:0 ~len in
  let f = Bytes.create (header_bytes + len) in
  Bytes.set f 0 'G';
  Bytes.set f 1 'K';
  Bytes.set f 2 (Char.chr protocol_version);
  Bytes.set f 3 (Char.chr (msg_type msg));
  Bytes.set_int32_be f 4 (Int32.of_int id);
  Bytes.set_int32_be f 8 (Int32.of_int len);
  Bytes.set_int32_be f 12 crc;
  Bytes.blit payload 0 f header_bytes len;
  f

(* ----- decoding -----

   Payload parsing runs inside a cursor whose reads raise a local
   [Bad] exception on any bounds or structure violation; the single
   [catch] in [decode_payload] converts that to [Malformed] so no
   exception ever escapes to the read loop. *)

type header = {
  h_version : int;
  h_type : int;
  h_id : int;
  h_len : int;
  h_crc : int32;
}

let u32_be b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFFFFFF

let decode_header b =
  let have = Bytes.length b in
  if have < header_bytes then
    Stdlib.Error (Truncated { have; need = header_bytes })
  else if not (Bytes.get b 0 = 'G' && Bytes.get b 1 = 'K') then
    Stdlib.Error Bad_magic
  else
    let v = Char.code (Bytes.get b 2) in
    if v <> protocol_version then Stdlib.Error (Bad_version v)
    else
      let len = u32_be b 8 in
      if len > max_payload then Stdlib.Error (Oversized len)
      else
        Stdlib.Ok
          {
            h_version = v;
            h_type = Char.code (Bytes.get b 3);
            h_id = u32_be b 4;
            h_len = len;
            h_crc = Bytes.get_int32_be b 12;
          }

exception Bad of string

type cursor = { buf : Bytes.t; mutable pos : int; stop : int }

let need c n =
  if c.stop - c.pos < n then
    raise (Bad (Printf.sprintf "need %d bytes at offset %d" n c.pos))

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = (Char.code (Bytes.get c.buf c.pos) lsl 8) lor Char.code (Bytes.get c.buf (c.pos + 1)) in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v = u32_be c.buf c.pos in
  c.pos <- c.pos + 4;
  v

let get_str c =
  let n = get_u16 c in
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

(* [List.init]'s argument-evaluation order is unspecified; cursor reads
   must happen left-to-right, so build lists with an explicit loop. *)
let read_list n f =
  let rec go acc i = if i = 0 then List.rev acc else go (f () :: acc) (i - 1) in
  go [] n

let get_bits c n_bits =
  let n = Bitpack.bytes n_bits in
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  if not (Bitpack.well_formed n_bits s) then raise (Bad "nonzero padding bits");
  s

let get_batch c =
  let count = get_u32 c in
  let n_bits = get_u32 c in
  (* both fields are attacker-controlled: bound them by the cap and by
     what the payload could possibly hold before allocating *)
  if count > max_batch then
    raise
      (Bad (Printf.sprintf "batch of %d vectors exceeds %d" count max_batch));
  if count * Bitpack.bytes n_bits > c.stop - c.pos then
    raise (Bad "batch count exceeds payload");
  let vectors = Array.make count "" in
  for i = 0 to count - 1 do
    vectors.(i) <- get_bits c n_bits
  done;
  (n_bits, vectors)

let decode_msg mtype c =
  match mtype with
  | 0x01 ->
    let client = get_str c in
    let proto = get_u8 c in
    Hello { client; proto }
  | 0x81 ->
    let server = get_str c in
    let proto = get_u8 c in
    Hello_ack { server; proto }
  | 0x02 -> List_designs
  | 0x82 ->
    let n = get_u16 c in
    Designs
      (read_list n (fun () ->
           let d_name = get_str c in
           let d_cells = get_u32 c in
           let ni = get_u16 c in
           let d_inputs = read_list ni (fun () -> get_str c) in
           let no = get_u16 c in
           let d_outputs = read_list no (fun () -> get_str c) in
           { d_name; d_inputs; d_outputs; d_cells }))
  | 0x03 ->
    let design = get_str c in
    let n_bits = get_u32 c in
    let bits = get_bits c n_bits in
    Query { design; n_bits; bits }
  | 0x83 ->
    let n_bits = get_u32 c in
    let bits = get_bits c n_bits in
    Result { n_bits; bits }
  | 0x04 ->
    let design = get_str c in
    let n_bits, vectors = get_batch c in
    Query_batch { design; n_bits; vectors }
  | 0x84 ->
    let n_bits, vectors = get_batch c in
    Batch_result { n_bits; vectors }
  | 0x05 -> Ping
  | 0x85 -> Pong
  | 0x06 -> Shutdown
  | 0x86 -> Shutdown_ack
  | 0xFF ->
    let cb = get_u8 c in
    let code =
      match error_code_of_byte cb with
      | Some code -> code
      | None -> raise (Bad (Printf.sprintf "unknown error code 0x%02x" cb))
    in
    let detail = get_str c in
    Error { code; detail }
  | t -> raise (Bad (Printf.sprintf "type 0x%02x" t))

let known_type t =
  List.mem t [ 0x01; 0x02; 0x03; 0x04; 0x05; 0x06; 0x81; 0x82; 0x83; 0x84; 0x85; 0x86; 0xFF ]

let decode_payload h payload =
  let have = Bytes.length payload in
  if have < h.h_len then
    Stdlib.Error (Truncated { have = header_bytes + have; need = header_bytes + h.h_len })
  else if have > h.h_len then
    Stdlib.Error (Malformed "trailing bytes after payload")
  else if not (known_type h.h_type) then Stdlib.Error (Unknown_msg_type h.h_type)
  else if crc32 payload ~pos:0 ~len:h.h_len <> h.h_crc then
    Stdlib.Error Crc_mismatch
  else
    let c = { buf = payload; pos = 0; stop = h.h_len } in
    match decode_msg h.h_type c with
    | msg ->
      if c.pos <> c.stop then Stdlib.Error (Malformed "trailing bytes in payload")
      else Stdlib.Ok { id = h.h_id; msg }
    | exception Bad d -> Stdlib.Error (Malformed d)

let decode b =
  match decode_header b with
  | Stdlib.Error e -> Stdlib.Error e
  | Ok h ->
    let have = Bytes.length b - header_bytes in
    if have < h.h_len then
      Stdlib.Error (Truncated { have = Bytes.length b; need = header_bytes + h.h_len })
    else decode_payload h (Bytes.sub b header_bytes (Bytes.length b - header_bytes))
