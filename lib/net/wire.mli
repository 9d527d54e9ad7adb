(** The gklockd wire protocol: pure [Bytes] codecs, no sockets.

    Every message on a gklockd connection is one length-prefixed binary
    frame:

    {v
      offset  size  field
      0       2     magic "GK"
      2       1     protocol version (currently 2)
      3       1     message type
      4       4     request id (big-endian u32; echoed in the response)
      8       4     payload length (big-endian u32; <= max_payload)
      12      4     CRC-32 (IEEE) of the payload bytes (big-endian u32)
      16      len   payload (per-type encoding, see DESIGN.md §6h)
    v}

    Queries and replies are positional: a [Query] carries a u32 bit
    count and its input bits packed LSB-first ({!Bitpack}) in the order
    of the design's advertised [d_inputs], and a [Result] the output
    bits in [d_outputs] order.  No pin name crosses the wire after
    [List_designs]; on s38417 a query frame is 227 bytes (19,434 when
    protocol 1 named every pin).  Decoding rejects a nonzero padding
    bit, so each vector has exactly one encoding.

    Encoding and decoding are pure functions over [Bytes] so the whole
    protocol is unit-testable without a socket.  {!decode} never raises
    on hostile input: truncated, oversized, mis-versioned, mis-typed and
    corrupted frames all come back as a structured {!wire_error}, which
    {!error_code_of_wire_error} maps to the {!error_code} the server
    puts in the {!Error} frame it answers with.

    Version negotiation: the client opens with {!Hello} carrying its
    protocol version; the server answers {!Hello_ack} with its own, or
    an {!Error} with [`Unsupported_version] when it cannot speak the
    client's.  Frames whose header version differs from
    {!protocol_version} are rejected at decode time. *)

val protocol_version : int

(** Frame header size in bytes (16). *)
val header_bytes : int

(** Maximum payload length accepted by {!decode_header} (16 MiB) —
    a length field beyond this is rejected as [Oversized] before any
    allocation. *)
val max_payload : int

(** Most vectors one [Query_batch] or [Batch_result] may carry (65,536):
    a batch count beyond it is rejected as [Malformed] before any
    allocation, whatever the bit width (a zero-width batch has no bytes
    to bound its count by). *)
val max_batch : int

(** CRC-32 (IEEE 802.3 polynomial) of [len] bytes of [b] at [pos] —
    exposed for tests.
    @raise Invalid_argument when [pos]/[len] do not lie within [b]. *)
val crc32 : Bytes.t -> pos:int -> len:int -> int32

(** Structured error codes carried by {!Error} frames. *)
type error_code =
  | Bad_frame  (** unparsable header: magic / CRC / truncation *)
  | Bad_payload  (** header fine, payload malformed for its type *)
  | Unsupported_version
  | Unknown_type
  | Unknown_design  (** the named design is not hosted by this server *)
  | Over_quota_queries  (** per-client query quota exhausted *)
  | Over_quota_deadline  (** per-client deadline passed *)
  | Bad_query
      (** the query's bit count is not the design's input count *)
  | Not_permitted
      (** the request is valid but this server refuses it (e.g. a
          [Shutdown] frame on a TCP listener without
          [allow_tcp_shutdown]) *)
  | Shutting_down
  | Server_error

val error_code_name : error_code -> string

(** A design as advertised by [List_designs]. *)
type design_info = {
  d_name : string;
  d_inputs : string list;  (** source (PI + FF pseudo-input) names *)
  d_outputs : string list;
  d_cells : int;
}

type msg =
  | Hello of { client : string; proto : int }  (** first client frame *)
  | Hello_ack of { server : string; proto : int }
  | List_designs
  | Designs of design_info list
  | Query of { design : string; n_bits : int; bits : string }
      (** one scalar chip query: [n_bits] input bits packed in [bits];
          coalesced server-side into 63-lane words *)
  | Result of { n_bits : int; bits : string }  (** packed output bits *)
  | Query_batch of { design : string; n_bits : int; vectors : string array }
      (** an explicit batch of packed queries of [n_bits] bits each,
          evaluated in one engine pass; one count and one width *)
  | Batch_result of { n_bits : int; vectors : string array }
  | Ping
  | Pong
  | Shutdown  (** ask the daemon to stop; answered by [Shutdown_ack] *)
  | Shutdown_ack
  | Error of { code : error_code; detail : string }

val msg_type_name : msg -> string

(** One decoded frame: the request id and its message. *)
type frame = { id : int; msg : msg }

(** Everything that can be wrong with incoming bytes.  [Truncated]
    carries how many bytes were present and how many the frame needs, so
    stream readers can distinguish "short read, keep reading" from
    "corrupt". *)
type wire_error =
  | Truncated of { have : int; need : int }
  | Bad_magic
  | Bad_version of int
  | Unknown_msg_type of int
  | Oversized of int
  | Crc_mismatch
  | Malformed of string  (** payload structure violation, with detail *)

val wire_error_message : wire_error -> string

(** The {!error_code} a server should answer with for a given decode
    failure. *)
val error_code_of_wire_error : wire_error -> error_code

(** [encode ~id msg] is the complete frame (header + payload).
    @raise Invalid_argument when [id] is outside [0, 2^32)], a string
    exceeds 65535 bytes or a name list 65535 entries, a vector is not
    {!Bitpack.well_formed} for its bit count, a batch holds more than
    {!max_batch} vectors, or the payload would exceed {!max_payload}. *)
val encode : id:int -> msg -> Bytes.t

type header = {
  h_version : int;
  h_type : int;
  h_id : int;
  h_len : int;  (** payload length *)
  h_crc : int32;
}

(** [decode_header b] parses the first {!header_bytes} bytes of [b].
    Checks magic, version and the length bound — not the CRC (the
    payload is not in hand yet). *)
val decode_header : Bytes.t -> (header, wire_error) result

(** [decode_payload h payload] checks [payload] against [h] (length,
    CRC) and decodes the message.  Never raises. *)
val decode_payload : header -> Bytes.t -> (frame, wire_error) result

(** [decode b] parses one complete frame from [b] (header + payload,
    trailing bytes rejected as [Malformed]).  Never raises. *)
val decode : Bytes.t -> (frame, wire_error) result
