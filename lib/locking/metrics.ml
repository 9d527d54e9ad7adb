type profile = {
  mean_ber : float;
  min_ber : float;
  max_ber : float;
  keys_sampled : int;
}

let bit_error_rate ?(samples = 256) ?(seed = 17) ~reference locked key =
  let rng = Random.State.make [| seed; 0x4245 |] in
  let lnet = locked.Locked.net in
  let x_names =
    List.filter_map
      (fun pi ->
        let name = (Netlist.node lnet pi).Netlist.name in
        if List.mem name locked.Locked.key_inputs then None else Some name)
      (Netlist.inputs lnet)
  in
  (* Both netlists are driven by the same per-name stimulus words; outputs
     present in both are compared lane-wise, word_bits samples per engine
     pass. *)
  let ref_eng = Netlist.Engine.get reference in
  let lk_eng = Netlist.Engine.get lnet in
  let w = Netlist.Engine.word_bits in
  let stim = Hashtbl.create 64 in
  let key_word = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace key_word k (if v then -1 else 0)) key;
  let word_of net id =
    let name = (Netlist.node net id).Netlist.name in
    match Hashtbl.find_opt stim name with
    | Some word -> word
    | None -> Option.value (Hashtbl.find_opt key_word name) ~default:0
  in
  let ref_slot = Netlist.Engine.slot_of_id ref_eng in
  let lk_slot = Netlist.Engine.slot_of_id lk_eng in
  let ref_scratch = Netlist.Engine.create_scratch ref_eng in
  let lk_scratch = Netlist.Engine.create_scratch lk_eng in
  let po_pairs =
    List.filter_map
      (fun (po, want_d) ->
        Option.map
          (fun got_d -> (ref_slot.(want_d), lk_slot.(got_d)))
          (List.assoc_opt po (Netlist.outputs lnet)))
      (Netlist.outputs reference)
  in
  let errors = ref 0 and total = ref 0 in
  let remaining = ref samples in
  while !remaining > 0 do
    let lanes = min w !remaining in
    let mask = if lanes = w then -1 else (1 lsl lanes) - 1 in
    List.iter
      (fun n -> Hashtbl.replace stim n (Netlist.Engine.random_word rng))
      x_names;
    let eval scratch eng net =
      Netlist.Engine.eval_block ~scratch eng ~n_words:1 ~fill:(fun buf ->
          Array.iteri
            (fun i id -> buf.(i) <- word_of net id)
            (Netlist.Engine.sources eng))
    in
    let want = eval ref_scratch ref_eng reference in
    let got = eval lk_scratch lk_eng lnet in
    List.iter
      (fun (want_s, got_s) ->
        total := !total + lanes;
        errors :=
          !errors
          + Netlist.Engine.popcount ((want.(want_s) lxor got.(got_s)) land mask))
      po_pairs;
    remaining := !remaining - lanes
  done;
  if !total = 0 then 0.0 else float_of_int !errors /. float_of_int !total

let wrong_key_profile ?(samples = 256) ?(wrong_keys = 16) ?(seed = 17)
    ~reference locked =
  let bers =
    List.init wrong_keys (fun i ->
        let wrong =
          Key.random_wrong ~seed:(seed + i) locked.Locked.correct_key
        in
        bit_error_rate ~samples ~seed:(seed + (31 * i)) ~reference locked wrong)
  in
  match bers with
  | [] -> invalid_arg "Metrics.wrong_key_profile: need at least one key"
  | first :: _ ->
    {
      mean_ber = List.fold_left ( +. ) 0.0 bers /. float_of_int wrong_keys;
      min_ber = List.fold_left min first bers;
      max_ber = List.fold_left max first bers;
      keys_sampled = wrong_keys;
    }

let pp_profile ppf p =
  Format.fprintf ppf "BER mean %.4f (min %.4f, max %.4f) over %d wrong keys"
    p.mean_ber p.min_ber p.max_ber p.keys_sampled
