exception Remote_error of Wire.error_code * string

type t = {
  r_fd : Unix.file_descr;
  mutable r_design : string;
  mutable r_server : string;
  mutable r_designs : Wire.design_info list;
  mutable r_n_in : int;  (* the bound design's input and output counts *)
  mutable r_n_out : int;
  mutable r_oracle : Oracle.t option;  (* Some after connect returns *)
  mutable r_next_id : int;
  mutable r_closed : bool;
}

let transport_error detail = raise (Remote_error (Wire.Server_error, detail))

let fresh_id t =
  let id = t.r_next_id in
  (* request ids are a u32 on the wire *)
  t.r_next_id <- (id + 1) land 0xFFFFFFFF;
  id

(* One request, one reply.  The stream is strictly request/reply per
   connection, so a mismatched id means the transport is out of sync —
   fail loudly rather than guess. *)
let roundtrip t msg =
  if t.r_closed then transport_error "connection already closed";
  let id = fresh_id t in
  (try Frame_io.write_frame t.r_fd ~id msg
   with Unix.Unix_error (e, _, _) ->
     transport_error ("write failed: " ^ Unix.error_message e));
  match Frame_io.read_frame t.r_fd with
  | Error e -> transport_error (Frame_io.read_error_message e)
  | Ok { Wire.id = rid; msg = reply } ->
    if rid <> id && rid <> 0 then
      transport_error
        (Printf.sprintf "reply id %d does not match request id %d" rid id);
    reply

(* Map structured error frames to the exception the attack layer
   already understands: over-quota becomes [Budget.Exhausted], so a
   remote quota trip yields the same [Out_of_budget] verdict as a local
   budget. *)
let fail_on_error = function
  | Wire.Error { code = Wire.Over_quota_queries; _ } ->
    raise (Budget.Exhausted Budget.Queries)
  | Wire.Error { code = Wire.Over_quota_deadline; _ } ->
    raise (Budget.Exhausted Budget.Deadline)
  | Wire.Error { code; detail } -> raise (Remote_error (code, detail))
  | m -> m

let query_remote t bits =
  match
    fail_on_error
      (roundtrip t
         (Wire.Query { design = t.r_design; n_bits = t.r_n_in; bits }))
  with
  | Wire.Result { n_bits; bits } when n_bits = t.r_n_out -> bits
  | Wire.Result { n_bits; _ } ->
    transport_error
      (Printf.sprintf "result of %d bits from a design with %d outputs" n_bits
         t.r_n_out)
  | m ->
    transport_error ("expected a result frame, got " ^ Wire.msg_type_name m)

let query_batch_frame t vectors =
  match
    fail_on_error
      (roundtrip t
         (Wire.Query_batch { design = t.r_design; n_bits = t.r_n_in; vectors }))
  with
  | Wire.Batch_result { n_bits; vectors = rs } ->
    if Array.length rs <> Array.length vectors then
      transport_error "batch result size mismatch";
    if n_bits <> t.r_n_out then
      transport_error
        (Printf.sprintf "batch result of %d bits from a design with %d outputs"
           n_bits t.r_n_out);
    rs
  | m ->
    transport_error ("expected a batch result frame, got " ^ Wire.msg_type_name m)

(* A [Query_batch] frame and its single [Batch_result] must each fit
   [Wire.max_payload] and [Wire.max_batch], so a large query set is
   split across several frames; chunks stay in order and the results
   are concatenated, invisibly to the attack layer.  Packed vectors have
   fixed widths, so the chunk size is exact: the request's fixed part is
   the design string and the count and width fields, the reply's is
   smaller, and each vector costs its packed width on the wider side. *)
let chunk_size t =
  let widest =
    max 1 (max (Bitpack.bytes t.r_n_in) (Bitpack.bytes t.r_n_out))
  in
  let fixed = 2 + String.length t.r_design + 8 in
  max 1 (min Wire.max_batch ((Wire.max_payload - fixed) / widest))

let query_batch_remote t vectors =
  let n = Array.length vectors and k = chunk_size t in
  if n <= k then query_batch_frame t vectors
  else
    Array.concat
      (List.init ((n + k - 1) / k) (fun c ->
           let len = min k (n - (c * k)) in
           query_batch_frame t (Array.sub vectors (c * k) len)))

let connect ?(client = "gklock") ?design ?(memo = true) ?memo_cap addr =
  let fd = Frame_io.connect addr in
  let fail detail =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    transport_error detail
  in
  let t =
    {
      r_fd = fd;
      r_design = "";
      r_server = "";
      r_designs = [];
      r_n_in = 0;
      r_n_out = 0;
      r_oracle = None;
      r_next_id = 1;
      r_closed = false;
    }
  in
  let server =
    match
      roundtrip t (Wire.Hello { client; proto = Wire.protocol_version })
    with
    | Wire.Hello_ack { server; proto } ->
      if proto <> Wire.protocol_version then
        fail (Printf.sprintf "server negotiated unsupported protocol %d" proto)
      else server
    | Wire.Error { code; detail } ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Remote_error (code, detail))
    | m -> fail ("expected hello_ack, got " ^ Wire.msg_type_name m)
  in
  let designs =
    match roundtrip t Wire.List_designs with
    | Wire.Designs ds -> ds
    | Wire.Error { code; detail } ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (Remote_error (code, detail))
    | m -> fail ("expected designs frame, got " ^ Wire.msg_type_name m)
  in
  let info =
    match (design, designs) with
    | Some d, _ -> (
      match List.find_opt (fun i -> i.Wire.d_name = d) designs with
      | Some i -> i
      | None ->
        fail
          (Printf.sprintf "design %S not hosted (server has: %s)" d
             (String.concat ", "
                (List.map (fun i -> i.Wire.d_name) designs))))
    | None, [ only ] -> only
    | None, [] -> fail "server hosts no designs"
    | None, _ ->
      fail
        (Printf.sprintf "server hosts %d designs; pick one with ~design"
           (List.length designs))
  in
  t.r_design <- info.Wire.d_name;
  t.r_server <- server;
  t.r_designs <- designs;
  t.r_n_in <- List.length info.Wire.d_inputs;
  t.r_n_out <- List.length info.Wire.d_outputs;
  t.r_oracle <-
    Some
      (Oracle.of_packed ~memo ?memo_cap
         ~name:("remote design " ^ info.Wire.d_name)
         ~inputs:info.Wire.d_inputs ~outputs:info.Wire.d_outputs
         ~batch:(query_batch_remote t) (query_remote t));
  t

let oracle t =
  match t.r_oracle with Some o -> o | None -> assert false
let design t = t.r_design
let server_name t = t.r_server
let designs t = t.r_designs

let ping t =
  let t0 = Unix.gettimeofday () in
  (match fail_on_error (roundtrip t Wire.Ping) with
  | Wire.Pong -> ()
  | m -> transport_error ("expected pong, got " ^ Wire.msg_type_name m));
  Unix.gettimeofday () -. t0

let close t =
  if not t.r_closed then begin
    t.r_closed <- true;
    try Unix.close t.r_fd with Unix.Unix_error _ -> ()
  end

let shutdown_server t =
  (match fail_on_error (roundtrip t Wire.Shutdown) with
  | Wire.Shutdown_ack -> ()
  | m -> transport_error ("expected shutdown_ack, got " ^ Wire.msg_type_name m));
  close t
