(* Test_systest runs first: its process-supervision and daemon tests
   Unix.fork, which OCaml 5 forbids once any other domain has been
   created — and later suites (campaign timeouts) abandon domains
   that stay alive for the rest of the process. *)
let () =
  Alcotest.run "gklock"
    (Test_systest.suites @ Test_util.suites @ Test_netlist.suites @ Test_netlist_layer.suites @ Test_engine.suites @ Test_sim.suites @ Test_sta.suites @ Test_sat.suites @ Test_flow.suites @ Test_locking.suites @ Test_attacks.suites @ Test_framework.suites @ Test_integration.suites @ Test_scan.suites @ Test_extensions.suites @ Test_core.suites @ Test_campaign.suites @ Test_difftest.suites @ Test_obs.suites @ Test_net.suites @ Test_dip_loop.suites)
