(** The superstep ledger: everything about a boxed run that is not value
    computation.

    The engines ({!Pregel}, {!Gas} and boxed triangle counting) compute
    vertex values and write what each stage did — per-partition work,
    per-executor egress/ingress bytes, message and broadcast counts —
    straight into the {!counters} the ledger hands out. The ledger turns
    that actual trace into simulated time, the one way for every engine:

    - executor compute is the makespan of its partitions' jittered work
      over its cores, divided by the host's speed multiplier and
      stretched by active straggler faults, then rewritten by
      {!Speculation} when a clone of the slowest executor wins;
    - network is per-executor scaled egress over its (fault-degraded,
      host-scaled) bandwidth, overlapped with compute;
    - every stage pays the barrier plus per-task dispatch overhead and,
      in iterative runs, grows the driver's lineage metadata.

    It also owns elastic placement and scale events, the graph build
    stage, checkpoints, the four recovery kinds (rollback, lineage,
    shuffle retry, preemption), the telemetry events of all of these, and
    the final {!Trace.t} with its [Run_end] record and metrics. *)

type counters = {
  work : float array;  (** per-partition modeled seconds, before jitter and scale *)
  bytes_out : float array;  (** per-executor egress bytes, before scale *)
  bytes_in : float array;  (** per-executor ingress bytes, before scale *)
  mutable active_edges : int;
  mutable messages : int;
  mutable shuffle_groups : int;
  mutable remote_shuffles : int;
  mutable updated : int;  (** vertices that ran the vertex program *)
  mutable bcast : int;  (** replica copies refreshed from masters *)
  mutable remote_bcast : int;  (** replica refreshes crossing executors *)
}
(** What one stage did. Engines write the arrays directly in their hot
    loops; the ledger reads them once, when the stage is recorded. *)

type t

val create :
  scale:float ->
  cost:Cost_model.t ->
  ?checkpoint_every:int ->
  ?faults:Faults.config ->
  ?speculation:Speculation.config ->
  ?elastic:Elastic.config ->
  ?hetero:Elastic.hetero ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cluster.t ->
  state_bytes:int ->
  Pgraph.t ->
  t
(** A ledger for one run over [pg]. [state_bytes] is the serialized size
    of one vertex attribute: it prices checkpoints, partition moves and
    replica re-broadcasts. The cluster's partition count must match
    [pg]'s; engines check that before calling. *)

val elastic : t -> Elastic.runtime
(** The placement engines consult for [exec_of]; it moves only inside
    {!open_stage}, when scale events fire. *)

val attr_wire_bytes : t -> float
(** Wire bytes of one vertex attribute (payload plus framing). *)

val partition_bytes : t -> int -> float
(** Scaled resident bytes of one partition's edges and vertex views. *)

val open_stage : t -> step:int -> counters
(** Apply the scale events scheduled before [step], then hand out zeroed
    counters for it. *)

val build : t -> unit
(** The one-time graph build stage ([step = -1]): the partitioning edge
    shuffle plus local edge and vertex table construction. *)

val superstep : t -> step:int -> counters -> Trace.outcome option
(** Record one stage of an iterative run under the fault schedule:
    straggler, bandwidth, loss and crash faults for [step], speculation
    from step 1, driver lineage growth, a checkpoint when [step >= 1] and
    [step mod checkpoint_every = 0], and crash recovery. Returns
    [Some Out_of_memory] when the driver's lineage metadata outgrew its
    memory, else [Some Aborted] when a crash exceeded the failure budget,
    else [None]. *)

val stage : t -> step:int -> counters -> unit
(** Record one stage of a fixed dataflow: the same time composition and
    telemetry as {!superstep}, with no faults, speculation, checkpoints
    or driver lineage. *)

val finish :
  t -> label:string -> outcome:Trace.outcome -> peak_executor_bytes:float -> Trace.t
(** The run's trace; with telemetry, also the [bsp.*] metrics and one
    [Run_end] event labelled [label]. *)
