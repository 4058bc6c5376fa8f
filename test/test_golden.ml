(* Golden digests of the boxed engines. Each case runs one algorithm on a
   tiny graph under one cluster scenario (faults, recovery, speculation,
   elasticity, memory limits) and pins the trace digest and the telemetry
   event-stream digest as hex literals. Any change to the superstep cost,
   fault, speculation, elasticity or telemetry accounting flips at least
   one of them; a refactor of that accounting must leave all of them
   unchanged. *)

module Strategy = Cutfit_partition.Strategy
module Partitioner = Cutfit_partition.Partitioner
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Trace = Cutfit_bsp.Trace
module Faults = Cutfit_bsp.Faults
module Speculation = Cutfit_bsp.Speculation
module Elastic = Cutfit_bsp.Elastic
module Pagerank = Cutfit_algo.Pagerank
module Cc = Cutfit_algo.Connected_components
module Sssp = Cutfit_algo.Sssp
module Tr = Cutfit_algo.Triangle_count
module Determinism = Cutfit_check.Determinism
module Telemetry = Cutfit_obs.Telemetry
module Sink = Cutfit_obs.Sink

let base = { (Test_util.tiny_cluster ()) with Cluster.executors = 3 }
let np = base.Cluster.num_partitions
let g = Test_util.random_graph ~seed:21L ~n:60 ~m:320

let pg =
  Pgraph.build g ~num_partitions:np
    (Partitioner.assign (Partitioner.Hash Strategy.Two_d) ~num_partitions:np g)

(* The options one scenario hands to an engine run. *)
type scenario = {
  cluster : Cluster.t;
  scale : float option;
  checkpoint_every : int option;
  faults : Faults.config option;
  speculation : Speculation.config option;
  elastic : Elastic.config option;
  hetero : Elastic.hetero option;
}

let plain =
  { cluster = base; scale = None; checkpoint_every = None; faults = None; speculation = None; elastic = None; hetero = None }

let scenarios =
  [
    ("plain", plain);
    ( "rollback",
      { plain with checkpoint_every = Some 2; faults = Some (Faults.config ~seed:3 "crash@1,crash@3") } );
    ( "lineage",
      {
        plain with
        faults = Some (Faults.config ~seed:3 ~max_failures:1 ~mode:Faults.Lineage "crash@2,crash@4");
      } );
    ( "loss+straggler+speculation",
      {
        plain with
        scale = Some 1000.0;
        faults = Some (Faults.config ~seed:5 "straggler@1-6:e0:x5,loss@2:r2");
        speculation = Some (Speculation.config ~threshold:1.5 ());
      } );
    ( "elastic+hetero",
      {
        plain with
        elastic = Some (Elastic.config ~seed:5 "leave@2-1,join@3+2,preempt@4:r2");
        hetero = Some (Elastic.draw_hetero ~seed:5 ~executors:3);
      } );
    ("driver-oom", { plain with cluster = { base with Cluster.driver_memory_bytes = 70e6 } });
  ]

let executor_oom = { plain with cluster = { base with Cluster.executor_memory_bytes = 1000.0 } }

(* Run [f] with a ring-buffer telemetry handle; digest its trace and the
   event stream it emitted. *)
let digests f =
  let ring, contents = Sink.ring () in
  let telemetry = Telemetry.create ~sinks:[ ring ] () in
  let trace = f telemetry in
  Telemetry.close telemetry;
  (Determinism.trace_digest trace, Determinism.events_digest (contents ()))

let landmarks = [| 0; 17; 42 |]

let run_algo algo s telemetry =
  let { cluster; scale; checkpoint_every; faults; speculation; elastic; hetero } = s in
  match algo with
  | "PR" ->
      (Pagerank.run ?scale ?checkpoint_every ?faults ?speculation ?elastic ?hetero ~telemetry ~cluster pg)
        .Pagerank.trace
  | "CC" ->
      (Cc.run ?scale ?checkpoint_every ?faults ?speculation ?elastic ?hetero ~telemetry ~cluster pg).Cc.trace
  | "SSSP" ->
      (Sssp.run ?scale ?checkpoint_every ?faults ?speculation ?elastic ?hetero ~telemetry ~cluster ~landmarks
         pg)
        .Sssp.trace
  | "GAS-PR" ->
      (Pagerank.run_gas ?scale ?checkpoint_every ?faults ?speculation ?elastic ?hetero ~telemetry ~cluster
         pg)
        .Pagerank.trace
  | _ -> invalid_arg algo

(* (algorithm, scenario, trace digest, events digest) *)
let golden =
  [
    ("PR", "plain", "106f3719c4e61e7b8482aa1b2a3ea18b",
      "9bebf750f0ca77a3d2e6fe3dfc21ee0f");
    ("PR", "rollback", "bef193c994f6f4008cd235a8ae4cf99e",
      "2b0d1686c484b655d71b8d4059a626d3");
    ("PR", "lineage", "1e7a9dd3fc86af740c0303cec9687399",
      "382760ef68f41b3308ae936bb459bdcd");
    ("PR", "loss+straggler+speculation", "61d01c46136c8c26658abc3eb34326f4",
      "1bd3dca5ef45d656f3112afdceffb314");
    ("PR", "elastic+hetero", "8340dd20e4ee7c9446c2d93f0f1886e4",
      "73ce4c47eb2d8194c68a84322a8d2dc4");
    ("PR", "driver-oom", "5f1a89f786155ef4073971e3540216e5",
      "3bb9965ff36c5310c69a4066112afea9");
    ("CC", "plain", "9b1714e8e40c9a8d579873806c217c58",
      "5b481cbccfd5698f8bd67e69a9f0c5e5");
    ("CC", "rollback", "d1d1e5a6176b86e62d9e0a5c5cc589de",
      "3ae43a44995331c569a7fa15e6629fd3");
    ("CC", "lineage", "5bce97ac6e7a802765be4ebab491b69f",
      "5a442af74a89cf6f3c15778bc8024f6b");
    ("CC", "loss+straggler+speculation", "2fd0f799f1a5d6869a48b77dc69ea4dc",
      "d09676e4da16dd7424aa7e38e8ff7e5a");
    ("CC", "elastic+hetero", "1e75b30c507d5e7b2ad7ba8a8d803c68",
      "3b3fd9295a1e0162a76d6114cc6f197b");
    ("CC", "driver-oom", "82948405d353845028f25378630268be",
      "0df0aa2a37aa858231396c3daf66de29");
    ("SSSP", "plain", "da48b5955f2c909f31bed167ba4bce1a",
      "154ba16966dd5f262e882870efea0268");
    ("SSSP", "rollback", "5b32a82db4f1f2baf0e7a954615e2258",
      "1690f86c91720c3b68d6516a523cdc56");
    ("SSSP", "lineage", "7ccabef3978440d62e073c361539f074",
      "1a4af3e1a020bb7d895e41c4807e6523");
    ("SSSP", "loss+straggler+speculation", "738b24558ba6f1abc1b067409f4654a0",
      "102b0bb5a69c21f57a184f2bc40fd722");
    ("SSSP", "elastic+hetero", "5a5416dc35e400330e81f0b342c89ae9",
      "ea312efc9fcf2e3ba288d2939c944137");
    ("SSSP", "driver-oom", "c804b86d59236d7a232b8b56dbf23984",
      "0cb31c02fa495e80ecf27e9ceb70858f");
    ("GAS-PR", "plain", "4e2ca6c666c362f2b12b975d63364da6",
      "5fb6c6a7ac73ef1cd310f1cb424700fa");
    ("GAS-PR", "rollback", "a64d3120ab549ef7cc77c5c015e443a1",
      "cd957b02f075923462fd19cce72a9f16");
    ("GAS-PR", "lineage", "842c9b0f5bbb62d42e9c244b26a2ce12",
      "892eaa7aa4d39103118c428762ec89de");
    ("GAS-PR", "loss+straggler+speculation", "6d45a0c04ea8b6051ec492a7d61b200d",
      "0ae0dd62f000cfa0857b28d91b0f9d95");
    ("GAS-PR", "elastic+hetero", "165a0be97a8f6284bb09df66412eaa66",
      "d51430cf11dee76594b60fcc965b8050");
    ("GAS-PR", "driver-oom", "98046b3cef9a68158bd566e27bbbe1f4",
      "bd67145e4b7128b8611f7f52bb8b1c3a");
    ("PR", "executor-oom", "3ac5c09222ed4ebc1c8311bdbac01b88",
      "1a65f4d6ef4dcc10e2245f28b8a54465");
    ("CC", "executor-oom", "d4c1a81062ad132716d61daf72d629e3",
      "e21b3586fd6865d5461182540640b2aa");
    ("SSSP", "executor-oom", "5db91660b2988fd8176f1b39a04c19e9",
      "5f668a4d9c14bd9fedb8eb9bba431b7b");
    ("TR", "plain", "c69d8772aad62101c90337a2e919da80",
      "1333f8f84b192a192ecb5f0e27cb8226");
  ]

let scenario_of = function
  | "executor-oom" -> executor_oom
  | name -> List.assoc name scenarios

let run_case algo scenario =
  match algo with
  | "TR" -> digests (fun telemetry -> (Tr.run ~telemetry ~cluster:base pg).Tr.trace)
  | _ -> digests (run_algo algo (scenario_of scenario))

let case (algo, scenario, trace_hex, events_hex) =
  Alcotest.test_case (algo ^ " " ^ scenario) `Quick (fun () ->
      let trace_d, events_d = run_case algo scenario in
      Alcotest.(check string) "trace digest" trace_hex trace_d;
      Alcotest.(check string) "events digest" events_hex events_d)

let suite = List.map case golden
