type site_info = {
  si_ff : int;
  si_ff_name : string;
  si_site : Gk_timing.site;
  si_window : int * int;
}

type placement = {
  p_ff : int;
  p_gk : Gk.instance;
  p_keygen : Keygen.instance;
  p_k1_name : string;
  p_k2_name : string;
  p_correct : bool * bool;
  p_t_trigger : int;
  p_glitch : int * int;
}

type design = {
  lnet : Netlist.t;
  source : string;
  clock_ps : int;
  placements : placement list;
  key_inputs : string list;
  correct_key : Key.assignment;
  baseline : Stats.t;
  l_glitch_ps : int;
}

let d_mux_ps () = (Cell_lib.bind Cell.Mux 3).Cell.delay_ps

(* Room the delay composer needs inside a trigger window. *)
let window_margin_ps = 80

let available_sites net ~clock_ps ~l_glitch_ps =
  let sta = Sta.analyze net ~clock_ps in
  let d_mux = d_mux_ps () in
  let keygen_min = Cell_lib.dff_clk2q_ps + (2 * d_mux) in
  List.filter_map
    (fun ff ->
      let site = Gk_timing.site_of_sta sta ff in
      if not (Gk_timing.feasible_on_level site ~l_glitch:l_glitch_ps ~d_mux)
      then None
      else
        match
          Gk_timing.trigger_window_on_level site ~l_glitch:l_glitch_ps ~d_mux
        with
        | None -> None
        | Some (lo, hi) ->
          let lo = max lo keygen_min in
          if hi - lo <= window_margin_ps then None
          else
            Some
              {
                si_ff = ff;
                si_ff_name = (Netlist.node net ff).Netlist.name;
                si_site = site;
                si_window = (lo, hi);
              })
    (Netlist.ffs net)

let lock ?(seed = 1) ?(profile = `Standard) ?(l_glitch_ps = 1000)
    ?(prefer_ff4_groups = true) ?(exclude = []) net ~clock_ps ~n_gks =
  let sites =
    List.filter
      (fun s -> not (List.mem s.si_ff exclude))
      (available_sites net ~clock_ps ~l_glitch_ps)
  in
  if List.length sites < n_gks then
    invalid_arg
      (Printf.sprintf "Insertion.lock: only %d available sites for %d GKs"
         (List.length sites) n_gks);
  let rng = Random.State.make [| seed; 0x474b |] in
  let site_of = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace site_of s.si_ff s) sites;
  let candidates = List.map (fun s -> s.si_ff) sites in
  let chosen =
    if prefer_ff4_groups then Ff_select.pick net ~among:candidates ~n:n_gks ~seed
    else Locked.pick_distinct rng n_gks candidates
  in
  let lnet = Netlist.copy net in
  let baseline = Stats.of_netlist net in
  let d_mux = d_mux_ps () in
  let placements =
    List.mapi
      (fun i ff ->
        let si = Hashtbl.find site_of ff in
        let lo, hi = si.si_window in
        (* Trigger early inside the legal window: shorter ADB chains, less
           area — the window's low quarter still satisfies Eq. (5). *)
        let t_trigger = lo + ((hi - lo) / 4) + 1 in
        let k1_name = Printf.sprintf "gk%d_k1" i in
        let k2_name = Printf.sprintf "gk%d_k2" i in
        let k1 = Netlist.add_input lnet k1_name in
        let k2 = Netlist.add_input lnet k2_name in
        let correct_sel =
          if Random.State.bool rng then Keygen.Sel_delay_a else Keygen.Sel_delay_b
        in
        let adb_good =
          match Keygen.chain_target_for ~t_trigger_ps:t_trigger with
          | Some t -> t
          | None -> assert false (* window was clamped above keygen_min *)
        in
        (* The wrong branch ends its glitch exactly on the capture edge —
           a D transition inside the setup/hold window, i.e. a textbook
           violation — while keeping the chain short. *)
        let t_bad = si.si_site.Gk_timing.t_j - l_glitch_ps in
        let adb_bad =
          match Keygen.chain_target_for ~t_trigger_ps:t_bad with
          | Some t -> t
          | None -> 0
        in
        let adb_da_ps, adb_db_ps =
          match correct_sel with
          | Keygen.Sel_delay_a -> (adb_good, adb_bad)
          | Keygen.Sel_delay_b -> (adb_bad, adb_good)
          | Keygen.Sel_const0 | Keygen.Sel_const1 -> assert false
        in
        let kg =
          Keygen.insert lnet ~profile
            ~name:(Printf.sprintf "gk%d_kg" i)
            ~k1 ~k2 ~adb_da_ps ~adb_db_ps ()
        in
        let x = (Netlist.node lnet ff).Netlist.fanins.(0) in
        let gk =
          Gk.insert lnet ~profile
            ~name:(Printf.sprintf "gk%d" i)
            ~x ~key:kg.Keygen.key_out ~variant:Gk.Invert_on_const
            ~d_path_a_ps:(l_glitch_ps - d_mux)
            ~d_path_b_ps:(l_glitch_ps - d_mux) ()
        in
        Netlist.set_fanin lnet ~node_id:ff ~pin:0 ~driver:gk.Gk.out;
        let t_trig_actual =
          match correct_sel with
          | Keygen.Sel_delay_a -> Keygen.trigger_time_a_ps kg
          | Keygen.Sel_delay_b -> Keygen.trigger_time_b_ps kg
          | Keygen.Sel_const0 | Keygen.Sel_const1 -> assert false
        in
        (* The toggle alternates rising/falling; both branch delays of the
           GK are equal, so the glitch interval is direction-independent. *)
        let l_actual = Gk.glitch_on_rise_ps gk in
        let glitch =
          Gk_timing.glitch_interval ~t_trigger:t_trig_actual
            ~l_glitch:l_actual ~d_mux
        in
        {
          p_ff = ff;
          p_gk = gk;
          p_keygen = kg;
          p_k1_name = k1_name;
          p_k2_name = k2_name;
          p_correct = Keygen.key_for correct_sel;
          p_t_trigger = t_trig_actual;
          p_glitch = glitch;
        })
      chosen
  in
  Netlist.validate lnet;
  let key_inputs =
    List.concat_map (fun p -> [ p.p_k1_name; p.p_k2_name ]) placements
  in
  let correct_key =
    List.concat_map
      (fun p ->
        let b1, b2 = p.p_correct in
        [ (p.p_k1_name, b1); (p.p_k2_name, b2) ])
      placements
  in
  {
    lnet;
    source = Netlist.name net;
    clock_ps;
    placements;
    key_inputs;
    correct_key;
    baseline;
    l_glitch_ps;
  }

let overhead design =
  Stats.overhead ~baseline:design.baseline
    ~locked:(Stats.of_netlist design.lnet)

let intended_glitches design ff =
  List.find_map
    (fun p -> if p.p_ff = ff then Some p.p_glitch else None)
    design.placements

let strip_keygens design =
  let net = Netlist.copy design.lnet in
  let keys =
    List.mapi
      (fun i p ->
        let name = Printf.sprintf "gkkey%d" i in
        (name, (p.p_keygen.Keygen.key_out, Netlist.add_input net name)))
      design.placements
  in
  Netlist.replace_uses net (List.map snd keys);
  (* The KEYGENs (toggle FF, ADB chains, MUXes) and their selection
     inputs are now unreferenced. *)
  List.iter
    (fun p ->
      List.iter (fun id -> Netlist.kill net id) p.p_keygen.Keygen.nodes;
      List.iter
        (fun k -> Option.iter (Netlist.kill net) (Netlist.find net k))
        [ p.p_k1_name; p.p_k2_name ])
    design.placements;
  let names = List.map fst keys in
  let net, _ = Netlist.compact net in
  Netlist.validate net;
  (net, names)

let capture_policy design =
  let toggles = Hashtbl.create 8 in
  List.iter
    (fun p -> Hashtbl.replace toggles p.p_keygen.Keygen.toggle_ff ())
    design.placements;
  fun ff -> if Hashtbl.mem toggles ff then 0 else 1

let timing_drive ?(other = fun _ -> Timing_sim.Const false) design key =
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun (name, b) ->
      match Netlist.find design.lnet name with
      | Some id -> Hashtbl.replace by_id id b
      | None -> ())
    key;
  fun pi ->
    match Hashtbl.find_opt by_id pi with
    | Some b -> Timing_sim.Const b
    | None -> other pi
