(** Triangle counting (GraphX [TriangleCount] structure).

    Unlike the three Pregel algorithms, triangle counting in GraphX is a
    fixed four-stage dataflow: collect each vertex's canonical neighbour
    set, replicate the sets to every edge partition that needs them,
    intersect per edge, and reduce per-vertex counts. The vertex state
    is a whole adjacency array, so synchronizing it pays a heavy
    per-cut-vertex reduction cost — the mechanism behind the paper's
    Figure 5 finding that the Cut metric (vertices replicated anywhere),
    not CommCost, predicts triangle-count time. *)

type result = {
  per_vertex : int array;  (** triangles through each vertex *)
  total : int;  (** total distinct triangles *)
  trace : Cutfit_bsp.Trace.t;  (** one trace "superstep" per dataflow stage *)
}

val run :
  ?scale:float ->
  ?cost:Cutfit_bsp.Cost_model.t ->
  ?undirected:Cutfit_graph.Graph.t ->
  ?telemetry:Cutfit_obs.Telemetry.t ->
  cluster:Cutfit_bsp.Cluster.t ->
  Cutfit_bsp.Pgraph.t ->
  result
(** [undirected] lets callers share a precomputed symmetrized view of
    the graph across runs; it must equal [Graph.symmetrize] of the
    partitioned graph's underlying graph. *)

val run_csr : ?domains:int -> Cutfit_bsp.Csr.t -> int array * int
(** [run_csr c] is [(per_vertex, total)] computed for real on the
    compact {!Cutfit_bsp.Csr} layout (the stage-3 intersections,
    without the simulated dataflow trace); identical to {!run}'s counts
    at any [domains] (default 1) since int sums are order-exact. *)

val count_partition :
  Cutfit_graph.Graph.t -> Cutfit_bsp.Csr.t -> int array -> int -> unit
(** [count_partition und c counts p] is {!run_csr}'s per-partition
    scatter: every canonical edge of partition [p] adds the triangles it
    closes into [counts] (one slot per vertex). [und] must be
    [Graph.symmetrize] of [c]'s graph. Writes only [counts], so workers
    that each own a [counts] array may run partitions concurrently. *)
