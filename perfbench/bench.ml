(* Host-time benchmark of the cutfit simulator, one workload per process.

   usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one JSON object on stdout: the metrics (name -> value, unit),
   the digest of the workload's deterministic output, the number of
   checked operations, the failed ones, and environment fields.
   perfbench/run.py builds this program, runs it in a fresh process,
   compares the digest with the pinned one and prints the result line.

   --trace 0 measures the end-to-end metrics with no instrumentation.
   --trace 1 is a separate run of the same workload that splits host
   time and allocation by layer. It times calls into each layer's
   public functions from this file. The library is never instrumented,
   so tracing cannot change a simulated result. *)

module Graph = Cutfit_graph.Graph
module Datasets = Cutfit_gen.Datasets
module Partitioner = Cutfit_partition.Partitioner
module Strategy = Cutfit_partition.Strategy
module Streaming = Cutfit_partition.Streaming
module Cluster = Cutfit_bsp.Cluster
module Pgraph = Cutfit_bsp.Pgraph
module Csr = Cutfit_bsp.Csr
module Par_exec = Cutfit_bsp.Par_exec
module Trace = Cutfit_bsp.Trace
module Elastic = Cutfit_bsp.Elastic
module Speculation = Cutfit_bsp.Speculation
module Advisor = Cutfit.Advisor
module Pipeline = Cutfit.Pipeline
module Sanitize = Cutfit.Sanitize
module Engine = Cutfit_workload.Engine
module Job = Cutfit_workload.Job
module Cache = Cutfit_workload.Cache
module Workload_check = Cutfit_workload.Workload_check
module Mutation = Cutfit_dynamic.Mutation
module Incremental = Cutfit_dynamic.Incremental
module Scenario = Cutfit_chaos.Scenario
module Chaos_gen = Cutfit_chaos.Gen
module Runner = Cutfit_chaos.Runner
module Violation = Cutfit_check.Violation
module Splitmix64 = Cutfit_prng.Splitmix64
module Json = Cutfit_obs.Json
module Event = Cutfit_obs.Event
module Sink = Cutfit_obs.Sink
module Telemetry = Cutfit_obs.Telemetry

let now = Unix.gettimeofday

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 1]; 0 for no samples. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let words_to_gb w = w *. float_of_int (Sys.word_size / 8) /. 1e9
let alloc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Forget the peak resident set so far, so the peak the driver reads
   after exit is that of the measured region and not of the repeated
   set-ups' garbage. Linux only; elsewhere the peak covers set-up too. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* Setting up runs [setup_reps] times, or until [setup_min_s] have
   passed, and reports the median, so setup_s is as steady as the
   timed region. The last set-up's inputs are the ones measured. *)
let setup_reps = 3
let setup_min_s = 1.0

let timed_setup f =
  let t0 = now () in
  let rec go k times =
    let x, dt = timed f in
    let times = dt :: times in
    if k >= setup_reps && now () -. t0 >= setup_min_s then (x, median times) else go (k + 1) times
  in
  go 1 []

(* Repeat [once] until [seconds] have passed (at least once), stopping
   when another repetition would overrun by more than half of one. *)
let repeat_for ~seconds once =
  let t0 = now () in
  let rec go n acc =
    let acc = once () :: acc in
    let elapsed = now () -. t0 in
    if elapsed +. (0.5 *. elapsed /. float_of_int n) < seconds then go (n + 1) acc else List.rev acc
  in
  go 1 []

(* ---------- correctness ---------- *)

(* Every repetition must reproduce the first one's digest; a mismatch
   or a violation fails an operation. [ops] is how many operations the
   digest covers. *)
type checker = { mutable first : string option; mutable attempted : int; mutable failed : string list }

let checker () = { first = None; attempted = 0; failed = [] }
let fail c line = c.failed <- line :: c.failed

let check c ?(ops = 1) ~what ~digest ~violations () =
  c.attempted <- c.attempted + ops;
  (match c.first with
  | None -> c.first <- Some digest
  | Some d when String.equal d digest -> ()
  | Some d -> fail c (Printf.sprintf "%s: digest %s differs from the first repetition's %s" what digest d));
  List.iter (fun v -> fail c (Format.asprintf "%s: %a" what Violation.pp v)) violations

let md5 s = Digest.to_hex (Digest.string s)

(* ---------- metrics ---------- *)

(* Every per-layer metric, in BENCHMARK.json order. A traced run
   reports all of them; a layer the workload bypasses reads 0. *)
let layer_metrics =
  let per k ds unit = List.concat_map (fun a -> List.map (fun d -> (Printf.sprintf k a d, unit)) ds) in
  [
    ("gen.generate_s", "s");
    ("graph.symmetrize_s", "s");
    ("graph.symmetrize_calls", "count");
    ("graph.create_s", "s");
    ("graph.create_calls", "count");
    ("partition.assign_s", "s");
    ("partition.assign_calls", "count");
    ("partition.metrics_s", "s");
    ("advisor.measure_s", "s");
    ("advisor.measure_calls", "count");
    ("bsp.pgraph_build_s", "s");
    ("bsp.pgraph_builds", "count");
    ("bsp.csr_build_s", "s");
    ("bsp.pool_s", "s");
    ("bsp.boxed_run_s.PR", "s");
    ("bsp.boxed_run_s.CC", "s");
    ("bsp.boxed_run_s.TR", "s");
    ("bsp.boxed_run_s.SSSP", "s");
    ("bsp.boxed_ns_per_active_edge", "ns");
    ("bsp.supersteps", "count");
    ("bsp.active_edges", "count");
    ("bsp.messages", "count");
  ]
  @ per "algo.csr_s.%s.d%d" [ 1; 2 ] "s" [ "PR"; "CC"; "SSSP"; "TR" ]
  @ per "algo.edge_scans_per_s.%s.d%d" [ 1; 2 ] "1/s" [ "PR"; "CC"; "SSSP" ]
  @ [
      ("algo.tr_self_s", "s");
      ("workload.job_host_s.p50", "s");
      ("workload.job_host_s.p90", "s");
      ("workload.cache_hit_ratio", "ratio");
      ("workload.cache_evictions", "count");
      ("workload.cache_invalidations", "count");
      ("workload.unattributed_s", "s");
      ("dynamic.batches", "count");
      ("dynamic.refreshes", "count");
      ("dynamic.refresh_s", "s");
      ("check.sanitize_s", "s");
      ("check.workload_check_s", "s");
      ("chaos.scenario_s.p50", "s");
      ("chaos.scenario_s.max", "s");
      ("chaos.fork_s", "s");
      ("obs.events", "count");
      ("obs.trace_overhead_s", "s");
      ("gc.minor_words", "count");
      ("gc.major_words", "count");
      ("gc.major_collections", "count");
      ("alloc_gb", "GB");
    ]

type layers = (string, float) Hashtbl.t

let get (l : layers) name = Option.value ~default:0.0 (Hashtbl.find_opt l name)
let set (l : layers) name v = Hashtbl.replace l name v
let bump l name v = set l name (get l name +. v)

(* Time one call into a layer: adds its host seconds to [name] and one
   call to [calls], when given. *)
let span l ?calls name f =
  let x, dt = timed f in
  bump l name dt;
  Option.iter (fun c -> bump l c 1.0) calls;
  x

(* GC counters of one call, added to the gc.* metrics and alloc_gb. *)
let gc_span l f =
  let g0 = Gc.quick_stat () in
  let x = f () in
  let g1 = Gc.quick_stat () in
  bump l "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  bump l "gc.major_words" (g1.Gc.major_words -. g0.Gc.major_words);
  bump l "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  bump l "alloc_gb" (words_to_gb (alloc_words g1 -. alloc_words g0));
  x

(* What one workload run hands back to the driver. *)
type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  env : (string * Json.t) list;
}

(* The host seconds of each repetition, for the run's record. *)
let samples xs = ("samples_s", Json.List (List.map (fun x -> Json.Float x) xs))

let end_to_end ~run_s ~setup_s ~ops =
  [ ("run_s", run_s, "s"); ("setup_s", setup_s, "s"); ("ops_per_s", ops /. run_s, "1/s") ]

let per_layer l = List.map (fun (name, unit) -> (name, get l name, unit)) layer_metrics

(* ---------- stream workloads ---------- *)

type stream = { mix : string; jobs : int; mutations : string option; mutate_every : int }

let stream_reuse = { mix = "reuse-heavy"; jobs = 60; mutations = None; mutate_every = 8 }

let stream_churn =
  { mix = "churn"; jobs = 40; mutations = Some "ins@1-20:r512,del@1-20:r512"; mutate_every = 4 }

let stream_mix s =
  match Job.find_mix s.mix with Some m -> m | None -> invalid_arg ("unknown mix " ^ s.mix)

let stream_datasets s = List.map fst (stream_mix s).Job.datasets

(* The job stream is the same for every seed: drawn with
   [stream_shape_seed]. The benchmark seed seeds the engine (SSSP
   landmarks) and the mutation draws, which leave the amount of work
   about the same. A stream drawn from the benchmark seed varied by up
   to 75% in host time from one seed to the next, and even the same
   jobs in a seeded order by 30%. *)
let stream_shape_seed = 1L

let stream_jobs s = Job.generate ~seed:stream_shape_seed ~jobs:s.jobs (stream_mix s)

let generate_datasets names =
  Datasets.clear_cache ();
  List.iter (fun d -> ignore (Datasets.generate (Datasets.find d))) names

let stream_setup s () =
  generate_datasets (stream_datasets s);
  stream_jobs s

let mutation_config s ~seed = Option.map (fun spec -> Mutation.config ~seed spec) s.mutations

let stream_engine s ~seed ?telemetry jobs =
  Engine.run ?telemetry ?mutations:(mutation_config s ~seed) ~mutate_every:s.mutate_every
    ~seed:(Int64.of_int seed) jobs

let check_stream c ?events report =
  check c ~what:"stream run" ~digest:(Workload_check.digest report)
    ~violations:(Workload_check.report ?events report) ()

let stream_env s =
  [
    ("ops_name", Json.String "jobs_per_s");
    ("domains", Json.List [ Json.Int 1 ]);
    ("jobs", Json.Int s.jobs);
    ("mix", Json.String s.mix);
    ("shape_seed", Json.Int (Int64.to_int stream_shape_seed));
  ]

let time_stream s ~seed ~seconds c =
  let jobs, setup_s = timed_setup (stream_setup s) in
  reset_peak_rss ();
  let times =
    repeat_for ~seconds (fun () ->
        let report, dt = timed (fun () -> stream_engine s ~seed jobs) in
        check_stream c report;
        dt)
  in
  let run_s = median times in
  {
    metrics = end_to_end ~run_s ~setup_s ~ops:(float_of_int s.jobs);
    env = stream_env s @ [ samples times ];
  }

let algo_key = function
  | Advisor.Pagerank -> "PR"
  | Advisor.Connected_components -> "CC"
  | Advisor.Triangle_count -> "TR"
  | Advisor.Shortest_paths -> "SSSP"

(* The simulated execution time the engine records for a job: the
   trace's total minus the dataset load and the step -1 build stage. *)
let exec_of_trace (tr : Trace.t) =
  let build_s =
    match List.find_opt (fun (st : Trace.superstep) -> st.Trace.step = -1) tr.Trace.supersteps with
    | Some st -> st.Trace.time_s
    | None -> 0.0
  in
  tr.Trace.total_s -. (tr.Trace.load_s +. build_s)

(* Split a finished stream's host time by layer: replay the traced run's
   events, in the order the engine emitted them, through the layer calls
   the engine makes (Advisor.measure per new graph, assign and
   Pgraph.build per miss, the boxed run per job, Mutation.apply and
   Incremental.refresh per batch), timing each call. The partitionings
   the replay holds follow the engine's cache events, so a hit runs on
   the partitioning the engine served it from, a freshly built or a
   refreshed one. Identical calls are made once and their time counted
   per job: a boxed run per (graph version, strategy, partitions,
   algorithm, SSSP job), a measurement per (graph version, partitions,
   predictive metric). Each replayed boxed run must reproduce the
   simulated execution time the engine recorded for the job, or the
   split is not the engine's and the run fails. *)
let replay_stream l c s ~seed (report : Engine.report) events =
  let graphs = Hashtbl.create 8 in
  let graph d =
    match Hashtbl.find_opt graphs d with
    | Some gv -> gv
    | None ->
        let gv = (Datasets.generate (Datasets.find d), 0) in
        Hashtbl.replace graphs d gv;
        gv
  in
  let measured = Hashtbl.create 16 in
  let boxed = Hashtbl.create 64 in
  let symmetrized = Hashtbl.create 8 in
  (* Partitionings by (dataset, graph version, strategy, partitions). *)
  let held = Hashtbl.create 16 in
  let records = Hashtbl.create 64 in
  List.iter (fun (r : Engine.job_record) -> Hashtbl.replace records r.Engine.job.Job.id r) report.Engine.records;
  let mutations = Hashtbl.create 8 in
  List.iter (fun (m : Engine.mutation_record) -> Hashtbl.replace mutations m.Engine.mut_batch m) report.Engine.mutations;
  let partition (d, v, strategy, k) g =
    let p = Partitioner.Hash (Option.get (Strategy.of_string strategy)) in
    let a = span l ~calls:"partition.assign_calls" "partition.assign_s" (fun () -> Partitioner.assign p ~num_partitions:k g) in
    let pg = span l ~calls:"bsp.pgraph_builds" "bsp.pgraph_build_s" (fun () -> Pgraph.build g ~num_partitions:k a) in
    ignore (span l "partition.metrics_s" (fun () -> Pgraph.metrics pg));
    Hashtbl.replace held (d, v, strategy, k) pg;
    pg
  in
  let replay_job (r : Engine.job_record) ~hit =
    let job = r.Engine.job in
    let d = job.Job.dataset and k = job.Job.num_partitions and algo = job.Job.algorithm in
    let g, v = graph d in
    let mkey = (d, v, k, Advisor.predictive_metric algo) in
    if not (Hashtbl.mem measured mkey) then begin
      ignore
        (span l ~calls:"advisor.measure_calls" "advisor.measure_s" (fun () ->
             Advisor.measure algo ~num_partitions:k g));
      Hashtbl.replace measured mkey ()
    end;
    let pkey = (d, v, r.Engine.strategy, k) in
    let pg =
      match Hashtbl.find_opt held pkey with
      | Some pg when hit -> pg
      | Some _ | None ->
          if hit then fail c (Printf.sprintf "replay: job %d hit a partitioning the replay does not hold" job.Job.id);
          partition pkey g
    in
    let bkey = (pkey, algo, if algo = Advisor.Shortest_paths then job.Job.id else -1) in
    let dt, (tr : Trace.t) =
      match Hashtbl.find_opt boxed bkey with
      | Some x -> x
      | None ->
          let spec = Datasets.find d in
          let scale = float_of_int spec.Datasets.paper_edges /. float_of_int (Graph.num_edges g) in
          let prepared =
            Pipeline.of_pgraph
              ~cluster:{ Cluster.config_i with Cluster.num_partitions = k }
              ~scale ~partitioner:(Partitioner.Hash (Option.get (Strategy.of_string r.Engine.strategy))) pg
          in
          let tr, dt =
            timed (fun () ->
                match algo with
                | Advisor.Pagerank -> snd (Pipeline.pagerank prepared)
                | Advisor.Connected_components -> snd (Pipeline.connected_components prepared)
                | Advisor.Triangle_count ->
                    let _, _, tr = Pipeline.triangles prepared in
                    tr
                | Advisor.Shortest_paths ->
                    (* The engine's per-job landmark draw. *)
                    let job_seed =
                      Splitmix64.mix64
                        (Int64.logxor (Int64.of_int seed)
                           (Int64.mul (Int64.of_int (job.Job.id + 1)) 0x9E3779B97F4A7C15L))
                    in
                    let landmarks = Cutfit_algo.Sssp.pick_landmarks ~seed:job_seed ~count:3 g in
                    snd (Pipeline.shortest_paths ~landmarks prepared))
          in
          Hashtbl.replace boxed bkey (dt, tr);
          (dt, tr)
    in
    c.attempted <- c.attempted + 1;
    if exec_of_trace tr <> r.Engine.exec_s then
      fail c
        (Printf.sprintf "replay: job %d simulated exec %.17g s, the engine recorded %.17g s" job.Job.id
           (exec_of_trace tr) r.Engine.exec_s);
    bump l ("bsp.boxed_run_s." ^ algo_key algo) dt;
    bump l "bsp.supersteps" (float_of_int (Trace.num_supersteps tr));
    bump l "bsp.messages" (float_of_int (Trace.total_messages tr));
    bump l "bsp.active_edges"
      (float_of_int (List.fold_left (fun a (st : Trace.superstep) -> a + st.Trace.active_edges) 0 tr.Trace.supersteps));
    (* The boxed TR symmetrizes its graph inside the run. *)
    if algo = Advisor.Triangle_count then begin
      let sym =
        match Hashtbl.find_opt symmetrized (d, v) with
        | Some t -> t
        | None ->
            let _, t = timed (fun () -> Graph.symmetrize g) in
            Hashtbl.replace symmetrized (d, v) t;
            t
      in
      bump l "graph.symmetrize_s" sym;
      bump l "graph.symmetrize_calls" 1.0
    end
  in
  let cfg = mutation_config s ~seed in
  (* A batch refreshes exactly the entries it invalidated. *)
  let replay_mutation (m : Engine.mutation_record) invalidated =
    let cfg = Option.get cfg in
    let d = m.Engine.mut_dataset in
    let g, v = graph d in
    let delta = Mutation.plan cfg ~batch:m.Engine.mut_batch g in
    let g' = span l ~calls:"graph.create_calls" "graph.create_s" (fun () -> Mutation.apply g delta) in
    List.iter
      (fun (strategy, k) ->
        let pg = Hashtbl.find held (d, v, strategy, k) in
        let refreshed =
          span l "dynamic.refresh_s" (fun () ->
              Incremental.refresh Streaming.Greedy ~num_partitions:k ~graph:g ~assignment:(Pgraph.assignment pg) delta)
        in
        if m.Engine.mut_choice = "refresh" then
          Hashtbl.replace held (d, v + 1, strategy, k)
            (span l "dynamic.refresh_s" (fun () -> Pgraph.build g' ~num_partitions:k refreshed.Incremental.assignment)))
      invalidated;
    Hashtbl.filter_map_inplace (fun (d', v', _, _) pg -> if d' = d && v' = v then None else Some pg) held;
    Hashtbl.replace graphs d (g', v + 1)
  in
  let invalidated = ref [] in
  List.iter
    (function
      | Event.Job_start j -> replay_job (Hashtbl.find records j.Event.job_id) ~hit:j.Event.cache_hit
      | Event.Cache_op { Event.op = "invalidate"; strategy; num_partitions; _ } ->
          invalidated := (strategy, num_partitions) :: !invalidated
      | Event.Cache_op { Event.op = "evict"; graph = d; strategy; num_partitions; _ } ->
          Hashtbl.remove held (d, snd (graph d), strategy, num_partitions)
      | Event.Mutation_batch b ->
          replay_mutation (Hashtbl.find mutations b.Event.batch) (List.rev !invalidated);
          invalidated := []
      | _ -> ())
    events

let attributed l =
  List.fold_left
    (fun a n -> a +. get l n)
    0.0
    [
      "advisor.measure_s";
      "partition.assign_s";
      "partition.metrics_s";
      "bsp.pgraph_build_s";
      "bsp.boxed_run_s.PR";
      "bsp.boxed_run_s.CC";
      "bsp.boxed_run_s.TR";
      "bsp.boxed_run_s.SSSP";
      "graph.create_s";
      "dynamic.refresh_s";
    ]

(* A host-timestamping sink: events stay in memory until the run ends. *)
let stamping_sink () =
  let events = ref [] in
  ({ Sink.emit = (fun e -> events := (now (), e) :: !events); close = ignore }, fun () -> List.rev !events)

(* A job's host time is the gap from its Job_start to the next event:
   the engine's pipeline runs emit nothing in between. *)
let job_host_times events =
  let rec go acc = function
    | (t, Event.Job_start _) :: (((t', _) :: _) as rest) -> go ((t' -. t) :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> acc
  in
  go [] events

let trace_stream s ~seed c =
  let l : layers = Hashtbl.create 64 in
  let jobs = stream_setup s () in
  span l "gen.generate_s" (fun () -> generate_datasets (stream_datasets s));
  let report, untraced_s = timed (fun () -> gc_span l (fun () -> stream_engine s ~seed jobs)) in
  check_stream c report;
  let sink, read = stamping_sink () in
  let telemetry = Telemetry.create ~sinks:[ sink ] () in
  let traced, traced_s = timed (fun () -> stream_engine s ~seed ~telemetry jobs) in
  Telemetry.close telemetry;
  let events = read () in
  check_stream c ~events:(List.map snd events) traced;
  set l "obs.events" (float_of_int (List.length events));
  set l "obs.trace_overhead_s" (traced_s -. untraced_s);
  let host = job_host_times events in
  set l "workload.job_host_s.p50" (percentile 0.5 host);
  set l "workload.job_host_s.p90" (percentile 0.9 host);
  let cs = report.Engine.cache in
  set l "workload.cache_hit_ratio" (Engine.hit_rate report);
  set l "workload.cache_evictions" (float_of_int cs.Cache.evictions);
  set l "workload.cache_invalidations" (float_of_int cs.Cache.invalidations);
  set l "dynamic.batches" (float_of_int (List.length report.Engine.mutations));
  set l "dynamic.refreshes"
    (float_of_int (List.length (List.filter (fun m -> m.Engine.mut_choice = "refresh") report.Engine.mutations)));
  replay_stream l c s ~seed traced (List.map snd events);
  set l "workload.unattributed_s" (untraced_s -. attributed l);
  set l "bsp.boxed_ns_per_active_edge"
    (let edges = get l "bsp.active_edges" in
     if edges > 0.0 then
       1e9 *. List.fold_left (fun a k -> a +. get l ("bsp.boxed_run_s." ^ k)) 0.0 [ "PR"; "CC"; "TR"; "SSSP" ] /. edges
     else 0.0);
  { metrics = per_layer l; env = stream_env s @ [ ("run_s", Json.Float untraced_s) ] }

(* ---------- kernels ---------- *)

let kernel_partitions = 128
let kernel_strategy = Strategy.Two_d

(* The registered soclivejournal analogue (686K edges, power-law) is
   the same graph for every seed; the seed draws the SSSP landmarks. *)
let kernel_dataset = "soclivejournal"

type frozen = { graph : Graph.t; csr : Csr.t; landmarks : int array }

(* Generate, partition and freeze. With [layers], the traced run times
   each step into its layer. *)
let kernel_setup ?layers ~seed () =
  let step ?calls name f = match layers with Some l -> span l ?calls name f | None -> f () in
  let graph =
    step "gen.generate_s" (fun () ->
        generate_datasets [ kernel_dataset ];
        Datasets.generate (Datasets.find kernel_dataset))
  in
  let a =
    step ~calls:"partition.assign_calls" "partition.assign_s" (fun () ->
        Partitioner.assign (Partitioner.Hash kernel_strategy) ~num_partitions:kernel_partitions graph)
  in
  let pg = step ~calls:"bsp.pgraph_builds" "bsp.pgraph_build_s" (fun () -> Pgraph.build graph ~num_partitions:kernel_partitions a) in
  let csr = step "bsp.csr_build_s" (fun () -> Csr.build pg) in
  let landmarks = Cutfit_algo.Sssp.pick_landmarks ~seed:(Int64.of_int seed) ~count:3 graph in
  ({ graph; csr; landmarks }, pg)

let kernel_names = [ "PR"; "CC"; "SSSP"; "TR" ]

(* Domain counts never exceed the box's cores. *)
let kernel_domains () = if Domain.recommended_domain_count () >= 2 then [ 1; 2 ] else [ 1 ]

(* One kernel call: host seconds of the call alone, the edge scans it
   made, and the digest of its values (made after the clock stops). *)
type call = { kernel : string; domains : int; call_s : float; scans : int; values : string }

let run_kernel f kernel ~domains =
  let e = Graph.num_edges f.graph in
  let rounds = ref 0 in
  let b = Buffer.create (1 lsl 20) in
  let ints a = Array.iter (fun x -> Buffer.add_string b (string_of_int x); Buffer.add_char b ',') a in
  let digest, call_s, scans =
    match kernel with
    | "PR" ->
        let r, dt = timed (fun () -> Cutfit_algo.Pagerank.run_csr ~domains ~rounds f.csr) in
        Array.iter (fun x -> Buffer.add_string b (Int64.to_string (Int64.bits_of_float x)); Buffer.add_char b ',') r;
        (b, dt, e * !rounds)
    | "CC" ->
        let r, dt = timed (fun () -> Cutfit_algo.Connected_components.run_csr ~domains ~rounds f.csr) in
        ints r;
        (b, dt, e * !rounds)
    | "SSSP" ->
        let r, dt = timed (fun () -> Cutfit_algo.Sssp.run_csr ~domains ~rounds ~landmarks:f.landmarks f.csr) in
        Array.iter ints r;
        (b, dt, e * !rounds)
    | "TR" ->
        let (per_vertex, total), dt = timed (fun () -> Cutfit_algo.Triangle_count.run_csr ~domains f.csr) in
        ints per_vertex;
        Buffer.add_string b ("total=" ^ string_of_int total);
        (b, dt, e)
    | k -> invalid_arg ("unknown kernel " ^ k)
  in
  { kernel; domains; call_s; scans; values = md5 (Buffer.contents digest) }

(* One pass runs every kernel at every domain count. A kernel's values
   must not depend on the domain count; the pass digest covers each
   kernel's values once. *)
let kernel_pass c f =
  let calls = List.concat_map (fun k -> List.map (fun d -> run_kernel f k ~domains:d) (kernel_domains ())) kernel_names in
  List.iter
    (fun x ->
      let d1 = List.find (fun y -> y.kernel = x.kernel && y.domains = 1) calls in
      if x.values <> d1.values then
        fail c (Printf.sprintf "%s: domains %d values %s differ from domains 1's %s" x.kernel x.domains x.values d1.values))
    calls;
  let digest =
    String.concat "," (List.filter_map (fun x -> if x.domains = 1 then Some (x.kernel ^ "=" ^ x.values) else None) calls)
  in
  check c ~ops:(List.length calls) ~what:"kernel pass" ~digest ~violations:[] ();
  calls

let pass_s calls = List.fold_left (fun a x -> a +. x.call_s) 0.0 calls
let pass_scans calls = List.fold_left (fun a x -> a + x.scans) 0 calls

(* Each call of a pass with its median host seconds over the passes. *)
let call_medians passes =
  List.map
    (fun x ->
      let same = List.concat_map (List.filter (fun y -> y.kernel = x.kernel && y.domains = x.domains)) passes in
      (x, median (List.map (fun y -> y.call_s) same)))
    (List.hd passes)

let kernel_env f =
  [
    ("ops_name", Json.String "edge_scans_per_s");
    ("dataset", Json.String kernel_dataset);
    ("edges", Json.Int (Graph.num_edges f.graph));
    ("strategy", Json.String (Strategy.to_string kernel_strategy));
    ("partitions", Json.Int kernel_partitions);
    ("domains", Json.List (List.map (fun d -> Json.Int d) (kernel_domains ())));
  ]

let time_kernels ~seed ~seconds c =
  let (f, _), setup_s = timed_setup (fun () -> kernel_setup ~seed ()) in
  reset_peak_rss ();
  let passes = repeat_for ~seconds (fun () -> kernel_pass c f) in
  (* Per-call medians resist a slow stretch better than pass medians:
     TR alone is most of a pass. *)
  let run_s = List.fold_left (fun a (_, s) -> a +. s) 0.0 (call_medians passes) in
  {
    metrics = end_to_end ~run_s ~setup_s ~ops:(float_of_int (pass_scans (List.hd passes)));
    env = kernel_env f @ [ samples (List.map pass_s passes) ];
  }

let trace_kernels ~seed ~seconds c =
  let l : layers = Hashtbl.create 64 in
  let f, pg = kernel_setup ~layers:l ~seed () in
  ignore (span l "partition.metrics_s" (fun () -> Pgraph.metrics pg));
  let passes = repeat_for ~seconds (fun () -> timed (fun () -> kernel_pass c f)) in
  (* Untraced after the traced passes, so neither side pays the first
     touch of the frozen buffers. *)
  let _, untraced_s = timed (fun () -> gc_span l (fun () -> kernel_pass c f)) in
  List.iter
    (fun (x, s) ->
      set l (Printf.sprintf "algo.csr_s.%s.d%d" x.kernel x.domains) s;
      if x.kernel <> "TR" then
        set l (Printf.sprintf "algo.edge_scans_per_s.%s.d%d" x.kernel x.domains) (float_of_int x.scans /. s))
    (call_medians (List.map fst passes));
  set l "obs.trace_overhead_s" (median (List.map snd passes) -. untraced_s);
  (* Every run_csr call starts and joins its own pool. *)
  List.iter
    (fun d ->
      let start_join = median (List.init 9 (fun _ -> snd (timed (fun () -> Par_exec.with_pool ~domains:d ignore)))) in
      bump l "bsp.pool_s" (start_join *. float_of_int (List.length kernel_names)))
    (kernel_domains ());
  ignore (span l ~calls:"graph.symmetrize_calls" "graph.symmetrize_s" (fun () -> Graph.symmetrize f.graph));
  set l "algo.tr_self_s" (get l "algo.csr_s.TR.d1" -. get l "graph.symmetrize_s");
  { metrics = per_layer l; env = kernel_env f @ [ samples (List.map (fun (p, _) -> pass_s p) passes) ] }

(* ---------- chaos ---------- *)

(* Scenarios 0..K-1 of chaos campaign 1 (the committed clean campaign)
   fix the work: dataset, algorithm, job stream, fault schedule and
   every knob. The benchmark seed redraws the seeds of each scenario's
   scale events and mutation batches. The scenario seed (which draws the
   job stream) and the fault seed stay: redrawing the scenario seed
   moved a scenario's host time several-fold, and redrawing the fault
   seed by up to 15%, as does a whole campaign drawn from the benchmark
   seed. *)
let chaos_campaign = 1
let chaos_scenarios = 2
let chaos_budget_s = 60.0

let chaos_scenario ~seed index =
  let sc = Chaos_gen.scenario ~seed:chaos_campaign ~index in
  let h = Splitmix64.mix64 (Int64.of_int ((seed * 4096) + index)) in
  let draws = Int64.to_int h land 0x3FFFFFFF in
  {
    sc with
    Scenario.elastic = Option.map (fun e -> { e with Elastic.seed = draws }) sc.Scenario.elastic;
    mutations = Option.map (fun m -> { m with Mutation.seed = draws }) sc.Scenario.mutations;
  }

(* The canonical spec omits the sub-config seeds the benchmark redrew. *)
let chaos_label (sc : Scenario.t) =
  let seed_of = Option.fold ~none:"-" ~some:string_of_int in
  Printf.sprintf "%s scale-seed=%s mutation-seed=%s" (Scenario.to_spec sc)
    (seed_of (Option.map (fun (e : Elastic.config) -> e.Elastic.seed) sc.Scenario.elastic))
    (seed_of (Option.map (fun (m : Mutation.config) -> m.Mutation.seed) sc.Scenario.mutations))

let chaos_datasets scs =
  List.sort_uniq compare
    (List.concat_map
       (fun (sc : Scenario.t) ->
         sc.Scenario.dataset
         ::
         (if sc.Scenario.jobs = 0 then []
          else match Job.find_mix sc.Scenario.mix with Some mix -> List.map fst mix.Job.datasets | None -> []))
       scs)

(* The children inherit the generated datasets. *)
let chaos_setup ~seed () =
  let scs = List.init chaos_scenarios (chaos_scenario ~seed) in
  generate_datasets (chaos_datasets scs);
  scs

(* Run the batch, each scenario in a forked child; returns the host
   seconds of each. *)
let chaos_batch c scs =
  let lines, times =
    List.split
      (List.map
         (fun sc ->
           let o, dt = timed (fun () -> Runner.run ~budget_s:chaos_budget_s sc) in
           let line = chaos_label sc ^ " " ^ Runner.outcome_name o in
           (match o with
           | Runner.Passed -> ()
           | Runner.Violated vs -> List.iter (fun v -> fail c (Format.asprintf "%s: %a" line Violation.pp v)) vs
           | Runner.Crashed msg -> fail c (line ^ ": " ^ msg)
           | Runner.Hung -> fail c line);
           (line, dt))
         scs)
  in
  check c ~ops:(List.length scs) ~what:"chaos batch" ~digest:(md5 (String.concat "\n" lines)) ~violations:[] ();
  times

let chaos_env scs =
  [
    ("ops_name", Json.String "scenarios_per_s");
    ("campaign", Json.Int chaos_campaign);
    ("scenarios", Json.List (List.map (fun sc -> Json.String (chaos_label sc)) scs));
  ]

let time_chaos ~seed ~seconds c =
  let scs, setup_s = timed_setup (chaos_setup ~seed) in
  reset_peak_rss ();
  let batches = repeat_for ~seconds (fun () -> chaos_batch c scs) in
  let run_s = median (List.map (List.fold_left ( +. ) 0.0) batches) in
  {
    metrics = end_to_end ~run_s ~setup_s ~ops:(float_of_int chaos_scenarios);
    env =
      chaos_env scs
      @ [
          samples (List.map (List.fold_left ( +. ) 0.0) batches);
          ("scenario_s", Json.List (List.map (fun b -> Json.List (List.map (fun x -> Json.Float x) b)) batches));
        ];
  }

(* Runner.execute's pipeline sanitizer call, on the scenario's fields. *)
let sanitize (sc : Scenario.t) =
  let cluster = Cluster.find sc.Scenario.cluster in
  let speculation =
    Option.map (fun t -> Speculation.config ~threshold:t ~seed:sc.Scenario.seed ()) sc.Scenario.speculate
  in
  let hetero =
    if sc.Scenario.hetero then Some (Elastic.draw_hetero ~seed:sc.Scenario.seed ~executors:cluster.Cluster.executors)
    else None
  in
  Sanitize.check_run ~cluster ?checkpoint_every:sc.Scenario.checkpoint_every ?faults:sc.Scenario.faults ?speculation
    ?elastic:sc.Scenario.elastic ?hetero
    ?engine_domains:(match sc.Scenario.domains with [] -> None | ds -> Some ds)
    ?dynamic:sc.Scenario.mutations ~algorithm:sc.Scenario.algo
    (Datasets.generate (Datasets.find sc.Scenario.dataset))

(* Runner.execute's workload phase on the scenario's fields: the
   scenario's job stream through the engine, with its telemetry. *)
let scenario_stream (sc : Scenario.t) =
  let cluster = Cluster.find sc.Scenario.cluster in
  let speculation =
    Option.map (fun t -> Speculation.config ~threshold:t ~seed:sc.Scenario.seed ()) sc.Scenario.speculate
  in
  let mix = Option.get (Job.find_mix sc.Scenario.mix) in
  let o = sc.Scenario.overload and t = sc.Scenario.tenancy in
  let tenants = match t.Scenario.tenants with [] -> None | ts -> Some ts in
  let seed64 = Int64.of_int sc.Scenario.seed in
  let stream = Job.generate ~seed:seed64 ~jobs:sc.Scenario.jobs ?tenants mix in
  let ring, read_ring = Sink.ring ~capacity:65536 () in
  let telemetry = Telemetry.create ~sinks:[ ring ] () in
  let report =
    Engine.run ~cluster ~slots:sc.Scenario.slots ~policy:sc.Scenario.policy
      ?checkpoint_every:sc.Scenario.checkpoint_every ?faults:sc.Scenario.faults ?speculation
      ?queue_bound:o.Scenario.queue_bound ~shed_policy:o.Scenario.shed ?deadline:o.Scenario.deadline
      ?breaker_k:o.Scenario.breaker_k ~breaker_cooldown_s:o.Scenario.breaker_cooldown_s
      ?backpressure:o.Scenario.backpressure ~telemetry ?mutations:sc.Scenario.mutations
      ~mutate_every:sc.Scenario.mutate_every ~mutation_mode:sc.Scenario.mutation_mode
      ?scale_events:sc.Scenario.elastic ~tenant_weights:t.Scenario.tenants ?tenant_quota:t.Scenario.quota
      ~fairness:t.Scenario.fairness ~seed:seed64 stream
  in
  Telemetry.close telemetry;
  (report, read_ring ())

let trace_chaos ~seed c =
  let l : layers = Hashtbl.create 64 in
  let scs = chaos_setup ~seed () in
  span l "gen.generate_s" (fun () -> generate_datasets (chaos_datasets scs));
  (* Every fork comes first: OCaml 5.1 refuses to fork once a domain
     has been spawned, and in-process scenarios may spawn them. *)
  let untraced_s = List.fold_left ( +. ) 0.0 (chaos_batch c scs) in
  let forked, traced_s = timed (fun () -> chaos_batch c scs) in
  set l "chaos.scenario_s.p50" (percentile 0.5 forked);
  set l "chaos.scenario_s.max" (List.fold_left Float.max 0.0 forked);
  set l "obs.trace_overhead_s" (traced_s -. untraced_s);
  List.iter2
    (fun sc forked_s ->
      let what = chaos_label sc in
      let vs, execute_s = timed (fun () -> gc_span l (fun () -> Runner.execute sc)) in
      List.iter (fun v -> fail c (Format.asprintf "in-process %s: %a" what Violation.pp v)) vs;
      bump l "chaos.fork_s" (forked_s -. execute_s);
      let report = span l "check.sanitize_s" (fun () -> sanitize sc) in
      List.iter (fun v -> fail c (Format.asprintf "sanitize %s: %a" what Violation.pp v)) report.Sanitize.violations;
      (* The workload checks Runner.execute makes on an engine run: one
         event reconciliation and the run-twice digest of two runs. *)
      if sc.Scenario.jobs > 0 then begin
        let report, events = scenario_stream sc in
        let vs =
          span l "check.workload_check_s" (fun () ->
              let vs = Workload_check.report ~events report in
              ignore (Workload_check.digest report);
              ignore (Workload_check.digest report);
              vs)
        in
        List.iter (fun v -> fail c (Format.asprintf "workload check %s: %a" what Violation.pp v)) vs
      end)
    scs forked;
  { metrics = per_layer l; env = chaos_env scs @ [ ("run_s", Json.Float untraced_s) ] }

(* ---------- driver ---------- *)

let workloads = [ "stream-reuse"; "stream-churn"; "kernels"; "chaos" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let c = checker () in
  let o =
    match !workload with
    | "stream-reuse" when traced -> trace_stream stream_reuse ~seed c
    | "stream-reuse" -> time_stream stream_reuse ~seed ~seconds c
    | "stream-churn" when traced -> trace_stream stream_churn ~seed c
    | "stream-churn" -> time_stream stream_churn ~seed ~seconds c
    | "kernels" when traced -> trace_kernels ~seed ~seconds c
    | "kernels" -> time_kernels ~seed ~seconds c
    | "chaos" when traced -> trace_chaos ~seed c
    | "chaos" -> time_chaos ~seed ~seconds c
    | w ->
        prerr_endline ("bench.exe: unknown workload " ^ w);
        exit 2
  in
  let json =
    Json.Obj
      [
        ("workload", Json.String !workload);
        ("digest", Json.String (Option.value c.first ~default:""));
        ("attempted", Json.Int c.attempted);
        ("failures", Json.List (List.rev_map (fun s -> Json.String s) c.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
               o.metrics) );
        ( "env",
          Json.Obj
            ([ ("nproc", Json.Int (Domain.recommended_domain_count ())); ("ocaml", Json.String Sys.ocaml_version) ]
            @ o.env) );
      ]
  in
  print_endline (Json.to_string json)
