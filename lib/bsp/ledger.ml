module Graph = Cutfit_graph.Graph
module Obs = Cutfit_obs

type counters = {
  work : float array;
  bytes_out : float array;
  bytes_in : float array;
  mutable active_edges : int;
  mutable messages : int;
  mutable shuffle_groups : int;
  mutable remote_shuffles : int;
  mutable updated : int;
  mutable bcast : int;
  mutable remote_bcast : int;
}

type t = {
  pg : Pgraph.t;
  cluster : Cluster.t;
  cost : Cost_model.t;
  scale : float;
  checkpoint_every : int option;
  speculation : Speculation.config option;
  telemetry : Obs.Telemetry.t option;
  fsession : Faults.session option;
  ert : Elastic.runtime;
  state_bytes : int;
  attr_wire : float;
  graph_bytes : float;
  storage_s : float;  (** aggregate storage-tier bandwidth *)
  load_s : float;
  mutable parts_per_exec : int array;
  mutable steps : Trace.superstep list;  (** newest first *)
  mutable driver_meta : float;
  mutable checkpoint_s : float;
  mutable checkpoints : int;
  mutable last_ckpt : int option;
  mutable recoveries : Trace.recovery list;
  mutable recovery_s : float;
  mutable faults_injected : int;
  mutable speculations : Trace.speculation list;
  mutable speculation_s : float;
}

let emit t ev = match t.telemetry with None -> () | Some h -> Obs.Telemetry.emit h ev
let num_partitions t = Pgraph.num_partitions t.pg
let elastic t = t.ert
let attr_wire_bytes t = t.attr_wire

let partition_bytes t p =
  let cost = t.cost in
  t.scale
  *. (float_of_int (Pgraph.num_edges_of_partition t.pg p * cost.Cost_model.edge_object_bytes)
     +. float_of_int
          (Pgraph.local_vertices t.pg p * (cost.Cost_model.vertex_object_bytes + t.state_bytes)))

let compute_parts_per_exec t =
  let a = Array.make (Elastic.live t.ert) 0 in
  for p = 0 to num_partitions t - 1 do
    let e = Elastic.exec_of t.ert p in
    a.(e) <- a.(e) + 1
  done;
  a

let create ~scale ~cost ?checkpoint_every ?faults ?speculation ?elastic ?hetero ?telemetry ~cluster
    ~state_bytes pg =
  let g = Pgraph.graph pg in
  let executors = cluster.Cluster.executors in
  let storage_s = float_of_int executors *. Cluster.storage_bytes_per_s cluster in
  let t =
    {
      pg;
      cluster;
      cost;
      scale;
      checkpoint_every;
      speculation;
      telemetry;
      fsession = Option.map (Faults.session ~executors) faults;
      (* Placement is consulted through the elastic runtime: with no
         scale events it is exactly [Cluster.executor_of_partition]. *)
      ert = Elastic.runtime ?config:elastic ?hetero ~executors ();
      state_bytes;
      attr_wire = float_of_int (state_bytes + cost.Cost_model.msg_wire_overhead_bytes);
      (* Writing the materialized graph to the storage tier truncates
         the driver's lineage — Spark's standard fix for long runs. *)
      graph_bytes =
        scale
        *. (float_of_int (Graph.num_edges g * cost.Cost_model.edge_object_bytes)
           +. float_of_int
                (Graph.num_vertices g * (cost.Cost_model.vertex_object_bytes + state_bytes)));
      storage_s;
      load_s = scale *. float_of_int (Cutfit_graph.Graph_io.size_bytes g) /. storage_s;
      parts_per_exec = [||];
      steps = [];
      driver_meta = 0.0;
      checkpoint_s = 0.0;
      checkpoints = 0;
      last_ckpt = None;
      recoveries = [];
      recovery_s = 0.0;
      faults_injected = 0;
      speculations = [];
      speculation_s = 0.0;
    }
  in
  t.parts_per_exec <- compute_parts_per_exec t;
  t

let push_recovery t (r : Trace.recovery) =
  t.recoveries <- r :: t.recoveries;
  t.recovery_s <- t.recovery_s +. r.Trace.recovery_s;
  emit t
    (Obs.Event.Recovery
       {
         step = r.Trace.at_step;
         kind = r.Trace.kind;
         executor = r.Trace.executor;
         replayed_steps = r.Trace.replayed_steps;
         lost_edges = r.Trace.lost_edges;
         lost_replicas = r.Trace.lost_replicas;
         wire_bytes = r.Trace.recovery_wire_bytes;
         recovery_s = r.Trace.recovery_s;
       })

let push_speculation t (s : Trace.speculation) =
  t.speculations <- s :: t.speculations;
  t.speculation_s <- t.speculation_s +. s.Trace.speculative_compute_s;
  emit t
    (Obs.Event.Speculative_launch
       {
         step = s.Trace.at_step;
         executor = s.Trace.executor;
         host = s.Trace.host;
         cloned_partitions = s.Trace.cloned_partitions;
         original_busy_s = s.Trace.original_busy_s;
         clone_busy_s = s.Trace.clone_busy_s;
         wire_bytes = s.Trace.speculative_wire_bytes;
         compute_s = s.Trace.speculative_compute_s;
       });
  if s.Trace.won then
    emit t
      (Obs.Event.Speculative_win
         {
           step = s.Trace.at_step;
           executor = s.Trace.executor;
           host = s.Trace.host;
           saved_s = s.Trace.saved_s;
         })

(* Edges and vertex views hosted by executor [e] — what a crash or a
   preemption of [e] loses. *)
let lost_on t e =
  let edges = ref 0 and vertices = ref 0 in
  for p = 0 to num_partitions t - 1 do
    if Elastic.exec_of t.ert p = e then begin
      edges := !edges + Pgraph.num_edges_of_partition t.pg p;
      vertices := !vertices + Pgraph.local_vertices t.pg p
    end
  done;
  (!edges, !vertices)

(* Scale events scheduled before superstep [step]: membership changes
   re-home partitions with a priced re-shuffle; spot preemptions flow
   through the Faults recovery machinery as involuntary crashes
   (membership unchanged). Both are pure re-accounting — the vertex
   values never move. *)
let scale_events t ~step =
  Elastic.step_events t.ert ~step ~num_partitions:(num_partitions t)
    ~partition_bytes:(partition_bytes t) ~partition_vertices:(Pgraph.local_vertices t.pg)
    ~attr_wire_bytes:t.attr_wire ~scale:t.scale
    ~bandwidth:(Cluster.network_bytes_per_s t.cluster)
    ~barrier_s:t.cost.Cost_model.superstep_barrier_s
    ~on_reshuffle:(fun r item ->
      t.parts_per_exec <- compute_parts_per_exec t;
      let executors = r.Trace.executors_after in
      (match item with
      | Elastic.Join { count; _ } -> emit t (Obs.Event.Executor_join { step; count; executors })
      | Elastic.Leave { count; _ } -> emit t (Obs.Event.Executor_leave { step; count; executors })
      | Elastic.Preempt _ -> ());
      emit t
        (Obs.Event.Reshuffle
           {
             step;
             executors_before = r.Trace.executors_before;
             executors_after = r.Trace.executors_after;
             moved_partitions = r.Trace.moved_partitions;
             moved_bytes = r.Trace.moved_bytes;
             rebroadcast_replicas = r.Trace.rebroadcast_replicas;
             rebroadcast_bytes = r.Trace.rebroadcast_bytes;
             reshuffle_s = r.Trace.reshuffle_s;
           }))
    ~on_preempt:(fun ~executor ~retries ->
      t.faults_injected <- t.faults_injected + 1;
      emit t
        (Obs.Event.Fault_injected
           {
             step;
             kind = "preempt";
             executor;
             detail =
               Printf.sprintf "spot instance preempted, %d reacquisition retr%s" retries
                 (if retries = 1 then "y" else "ies");
           });
      let lost_edges, lost_vertices = lost_on t executor in
      push_recovery t
        (Faults.preempt_recovery ~cost:t.cost ~cluster:t.cluster ~scale:t.scale ~at_step:step
           ~executor ~lost_edges ~lost_vertices ~lost_replicas:lost_vertices
           ~attr_wire_bytes:t.attr_wire ~retries))

let open_stage t ~step =
  scale_events t ~step;
  let max_execs = Elastic.max_executors t.ert in
  {
    work = Array.make (num_partitions t) 0.0;
    bytes_out = Array.make max_execs 0.0;
    bytes_in = Array.make max_execs 0.0;
    active_edges = 0;
    messages = 0;
    shuffle_groups = 0;
    remote_shuffles = 0;
    updated = 0;
    bcast = 0;
    remote_bcast = 0;
  }

(* Compose one stage's modeled time from its counters, record it and
   emit its telemetry, then apply the stage's fault plan: announcements,
   speculation and transient shuffle loss. *)
let record t ~step ~(plan : Faults.plan) c =
  let cost = t.cost and scale = t.scale in
  let np = num_partitions t in
  let executors = t.cluster.Cluster.executors in
  (* Executor compute = makespan of its partitions' jittered work over
     its cores, divided by the host's speed multiplier; an active
     straggler fault stretches its executor on top. *)
  let live = Elastic.live t.ert in
  let jittered = Cost_model.jittered cost ~step c.work in
  let clean_busy = Array.make live 0.0 in
  let busy = Array.make live 0.0 in
  for e = 0 to live - 1 do
    let mine = ref [] in
    for p = 0 to np - 1 do
      if Elastic.exec_of t.ert p = e then mine := jittered.(p) :: !mine
    done;
    clean_busy.(e) <-
      scale
      *. Cost_model.makespan ~work:(Array.of_list !mine) ~cores:t.cluster.Cluster.cores_per_executor
      /. Elastic.speed_of t.ert e;
    (* Fault plans are realized against the initial membership; late
       joiners past that width run fault-free. *)
    let fault_factor = if e < executors then plan.Faults.compute_factor e else 1.0 in
    busy.(e) <- clean_busy.(e) *. fault_factor
  done;
  let bandwidth_eff = Cluster.network_bytes_per_s t.cluster *. plan.Faults.network_factor in
  (* Speculative re-execution of the slowest executor's tasks: decided
     from the same deterministic busy/ingress data the step already
     produced, so it only rewrites the time accounting — the values,
     counters and superstep wire bytes are untouched. *)
  let busy, spec =
    match t.speculation with
    | Some cfg when step >= 1 ->
        Speculation.evaluate cfg ~cost ~bandwidth:bandwidth_eff ~step ~busy ~clean_busy
          ~ingress:(Array.init live (fun e -> scale *. c.bytes_in.(e)))
          ~partitions:t.parts_per_exec
    | _ -> (busy, None)
  in
  let compute = Array.fold_left Float.max 0.0 busy in
  let network = ref 0.0 and wire = ref 0.0 in
  for e = 0 to live - 1 do
    wire := !wire +. (scale *. c.bytes_out.(e));
    let time = scale *. c.bytes_out.(e) /. (bandwidth_eff *. Elastic.bandwidth_of t.ert e) in
    if time > !network then network := time
  done;
  let overhead =
    cost.Cost_model.superstep_barrier_s +. (float_of_int np *. cost.Cost_model.task_dispatch_s)
  in
  let stats =
    {
      Trace.step;
      active_edges = c.active_edges;
      messages = c.messages;
      shuffle_groups = c.shuffle_groups;
      remote_shuffles = c.remote_shuffles;
      updated_vertices = c.updated;
      broadcast_replicas = c.bcast;
      remote_broadcasts = c.remote_bcast;
      wire_bytes = !wire;
      compute_s = compute;
      network_s = !network;
      overhead_s = overhead;
      (* Spark pipelines shuffle fetch with task execution, so wire time
         hides behind compute until it becomes the bottleneck. *)
      time_s = Float.max compute !network +. overhead;
    }
  in
  t.steps <- stats :: t.steps;
  (* The telemetry event is derived from the very counters that formed
     [stats], so event-stream aggregates reconcile with the trace
     exactly; when no handle is attached nothing is allocated. *)
  (match t.telemetry with
  | None -> ()
  | Some h ->
      let max_task = ref 0.0 and min_task = ref Float.infinity in
      Array.iter
        (fun w ->
          let w = scale *. w in
          if w > !max_task then max_task := w;
          if w < !min_task then min_task := w)
        jittered;
      Obs.Telemetry.emit h
        (Obs.Event.Superstep
           {
             step;
             active_vertices = c.updated;
             active_edges = c.active_edges;
             messages = c.messages;
             local_shuffles = c.shuffle_groups - c.remote_shuffles;
             remote_shuffles = c.remote_shuffles;
             broadcast_replicas = c.bcast;
             remote_broadcasts = c.remote_bcast;
             wire_bytes = stats.Trace.wire_bytes;
             executor_busy_s = busy;
             barrier_wait_s = Array.map (fun b -> compute -. b) busy;
             max_task_s = !max_task;
             min_task_s = (if np = 0 then 0.0 else !min_task);
             compute_s = stats.Trace.compute_s;
             network_s = stats.Trace.network_s;
             overhead_s = stats.Trace.overhead_s;
             time_s = stats.Trace.time_s;
           }));
  t.faults_injected <- t.faults_injected + List.length plan.Faults.announce;
  List.iter
    (fun (a : Faults.announcement) ->
      emit t
        (Obs.Event.Fault_injected
           { step; kind = a.fault_kind; executor = a.fault_executor; detail = a.detail }))
    plan.Faults.announce;
  Option.iter (push_speculation t) spec;
  (* A transient shuffle loss retransmits the executor's egress with
     capped exponential backoff — charged as recovery time, outside the
     superstep's own wire accounting. *)
  match plan.Faults.loss with
  | None -> ()
  | Some (e, retries) ->
      push_recovery t
        (Faults.retry_recovery ~cost ~cluster:t.cluster ~at_step:step ~executor:e
           ~egress_bytes:(scale *. c.bytes_out.(e)) ~retries)

let stage t ~step c = record t ~step ~plan:Faults.neutral c

let checkpoint t ~step =
  t.checkpoints <- t.checkpoints + 1;
  let write_s = t.graph_bytes /. t.storage_s in
  t.checkpoint_s <- t.checkpoint_s +. write_s;
  t.driver_meta <- 0.0;
  t.last_ckpt <- Some step;
  emit t (Obs.Event.Checkpoint { step; bytes = t.graph_bytes; write_s })

(* An executor lost at this superstep's barrier: recover (rollback replay
   or lineage rebuild of its partitions) or, past the failure budget,
   report an abort. Replay is pure re-accounting — the values were
   already computed — so fault-free and faulty runs stay bit-identical. *)
let crash t ~step (plan : Faults.plan) =
  match (plan.Faults.crash, t.fsession) with
  | Some lost, Some fs -> (
      (* Crash executors were resolved against the initial membership;
         fold them onto a live executor if leaves shrank the cluster. *)
      let lost = lost mod Elastic.live t.ert in
      match Faults.note_crash fs with
      | `Abort -> true
      | `Recover ->
          (match (Faults.session_config fs).Faults.mode with
          | Faults.Rollback ->
              let replayed =
                match t.last_ckpt with
                | Some c -> List.filter (fun (s : Trace.superstep) -> s.Trace.step > c) t.steps
                | None -> t.steps
              in
              push_recovery t
                (Faults.rollback_recovery ~cluster:t.cluster ~at_step:step ~executor:lost
                   ~checkpointed:(Option.is_some t.last_ckpt) ~graph_bytes:t.graph_bytes
                   ~load_s:t.load_s ~replayed)
          | Faults.Lineage ->
              let lost_edges, lost_vertices = lost_on t lost in
              push_recovery t
                (Faults.lineage_recovery ~cost:t.cost ~cluster:t.cluster ~scale:t.scale
                   ~at_step:step ~executor:lost ~lost_edges ~lost_vertices
                   ~lost_replicas:lost_vertices ~attr_wire_bytes:t.attr_wire));
          false)
  | _ -> false

let superstep t ~step c =
  let plan =
    match t.fsession with None -> Faults.neutral | Some s -> Faults.plan s ~step
  in
  record t ~step ~plan c;
  (* Every stage grows the driver's lineage metadata by one entry per
     task; a checkpoint truncates it. *)
  t.driver_meta <-
    t.driver_meta
    +. (float_of_int (num_partitions t) *. t.cost.Cost_model.driver_meta_per_task_bytes);
  let hit_driver =
    match t.checkpoint_every with
    | Some k when step >= 1 && step mod k = 0 ->
        checkpoint t ~step;
        false
    | _ -> t.driver_meta > t.cluster.Cluster.driver_memory_bytes
  in
  let aborted = crash t ~step plan in
  if hit_driver then Some Trace.Out_of_memory else if aborted then Some Trace.Aborted else None

(* Graph build: partitioning shuffles every edge to its partition, then
   each partition materializes its local edge array and vertex table.
   One-time, but a large share of short jobs, as in Spark. *)
let build t =
  let cost = t.cost in
  let c = open_stage t ~step:(-1) in
  let executors = t.cluster.Cluster.executors in
  (* Edges arrive from the loading executors; on average
     (executors-1)/executors of them cross the network. *)
  let remote_frac = float_of_int (executors - 1) /. float_of_int executors in
  for p = 0 to num_partitions t - 1 do
    let m_p = float_of_int (Pgraph.num_edges_of_partition t.pg p) in
    let v_p = float_of_int (Pgraph.local_vertices t.pg p) in
    c.work.(p) <- (m_p *. cost.Cost_model.build_edge_s) +. (v_p *. cost.Cost_model.build_vertex_s);
    let e = Elastic.exec_of t.ert p in
    c.bytes_out.(e) <-
      c.bytes_out.(e) +. (m_p *. float_of_int cost.Cost_model.shuffle_edge_bytes *. remote_frac)
  done;
  (* The driver's lineage limit is first enforced after superstep 0. *)
  ignore (superstep t ~step:(-1) c)

let finish t ~label ~outcome ~peak_executor_bytes =
  let supersteps = List.rev t.steps in
  let reshuffle_s = Elastic.reshuffle_s t.ert in
  let total_s =
    List.fold_left
      (fun acc (s : Trace.superstep) -> acc +. s.Trace.time_s)
      (t.load_s +. t.checkpoint_s +. t.recovery_s +. reshuffle_s)
      supersteps
  in
  let trace =
    {
      Trace.supersteps;
      load_s = t.load_s;
      checkpoint_s = t.checkpoint_s;
      checkpoints = t.checkpoints;
      recovery_s = t.recovery_s;
      recoveries = List.rev t.recoveries;
      faults_injected = t.faults_injected;
      speculations = List.rev t.speculations;
      speculation_s = t.speculation_s;
      reshuffles = Elastic.reshuffles t.ert;
      reshuffle_s;
      total_s;
      outcome;
      peak_executor_bytes;
      driver_meta_bytes = t.driver_meta;
    }
  in
  (match t.telemetry with
  | None -> ()
  | Some h ->
      let reg = Obs.Telemetry.metrics h in
      Obs.Metric.incr (Obs.Metric.counter reg "bsp.runs");
      Obs.Metric.add (Obs.Metric.counter reg "bsp.messages") (Trace.total_messages trace);
      Obs.Metric.add
        (Obs.Metric.counter reg "bsp.remote_messages")
        (Trace.total_remote_messages trace);
      Obs.Metric.record (Obs.Metric.timer reg "bsp.simulated_s") total_s;
      Obs.Metric.set (Obs.Metric.gauge reg "bsp.last_wire_bytes") (Trace.total_wire_bytes trace);
      let compute_steps =
        List.fold_left
          (fun acc (s : Trace.superstep) -> if s.Trace.step >= 0 then acc + 1 else acc)
          0 supersteps
      in
      Obs.Metric.add (Obs.Metric.counter reg "bsp.supersteps") compute_steps;
      Obs.Telemetry.emit h
        (Obs.Event.Run_end
           {
             label;
             outcome = Trace.outcome_name outcome;
             supersteps = compute_steps;
             total_s;
             load_s = t.load_s;
             checkpoint_s = t.checkpoint_s;
             recovery_s = t.recovery_s;
             total_messages = Trace.total_messages trace;
             total_remote = Trace.total_remote_messages trace;
             total_wire_bytes = Trace.total_wire_bytes trace;
           }));
  trace
