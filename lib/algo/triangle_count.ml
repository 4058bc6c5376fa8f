module Graph = Cutfit_graph.Graph
module Pgraph = Cutfit_bsp.Pgraph
module Cluster = Cutfit_bsp.Cluster
module Cost_model = Cutfit_bsp.Cost_model
module Trace = Cutfit_bsp.Trace
module Ledger = Cutfit_bsp.Ledger

type result = { per_vertex : int array; total : int; trace : Trace.t }

(* --- the intersection, shared by both engines ---------------------

   A canonical edge is counted once per unordered pair: a self-loop
   never is, and a reciprocated pair only from its smaller endpoint.
   Duplicate edges stay, so a canonical edge that appears twice counts
   its triangles twice. *)
let canonical g ~src ~dst = src <> dst && (src < dst || not (Graph.has_edge g ~src:dst ~dst:src))

(* First index of the ascending slice [adj.(lo .. hi - 1)] holding a
   value above [m]. *)
let first_above adj lo hi m =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get adj mid <= m then lo := mid + 1 else hi := mid
  done;
  !lo

(* The triangles edge [src]-[dst] closes at a common neighbour above
   both endpoints (so each triangle is found once, from its two smaller
   vertices), added to all three vertices' [counts]. [off]/[adj] is the
   sorted, deduplicated undirected adjacency; the two neighbour lists
   are merged from where their values pass [max src dst]. *)
let count_closing ~off ~(adj : int array) counts ~src ~dst =
  let m = if src > dst then src else dst in
  let ahi = off.(src + 1) and bhi = off.(dst + 1) in
  let a = ref (first_above adj off.(src) ahi m) and b = ref (first_above adj off.(dst) bhi m) in
  let found = ref 0 in
  while !a < ahi && !b < bhi do
    let x = Array.unsafe_get adj !a and y = Array.unsafe_get adj !b in
    if x = y then begin
      counts.(x) <- counts.(x) + 1;
      incr found;
      incr a;
      incr b
    end
    else if x < y then incr a
    else incr b
  done;
  counts.(src) <- counts.(src) + !found;
  counts.(dst) <- counts.(dst) + !found

(* --- compact CSR kernel -------------------------------------------

   The stage-3 intersection work of [run], executed for real over the
   partitions of the compact layout. Counts are plain int sums — exact
   under any accumulation order — so each worker counts into its own
   array and the arrays are summed per-vertex afterwards; no ordering
   discipline is needed for bit-identical totals. *)

module Csr = Cutfit_bsp.Csr
module Par_exec = Cutfit_bsp.Par_exec
module B1 = Bigarray.Array1

let csr_chunk = 4096

let count_partition und (c : Csr.t) counts p =
  let g = c.Csr.graph in
  let off = Graph.out_offsets und and adj = Graph.out_adjacency und in
  let esrc = c.Csr.edge_src and edst = c.Csr.edge_dst in
  for e = B1.unsafe_get c.Csr.part_off p to B1.unsafe_get c.Csr.part_off (p + 1) - 1 do
    let src = B1.unsafe_get esrc e and dst = B1.unsafe_get edst e in
    if canonical g ~src ~dst then count_closing ~off ~adj counts ~src ~dst
  done

let run_csr ?(domains = 1) (c : Csr.t) =
  let n = c.Csr.num_vertices in
  let und = Graph.symmetrize c.Csr.graph in
  let worker_counts = Array.init domains (fun _ -> Array.make n 0) in
  let per_vertex = Array.make n 0 in
  let nchunks = (n + csr_chunk - 1) / csr_chunk in
  let reduce ch =
    let lo = ch * csr_chunk and hi = min n ((ch * csr_chunk) + csr_chunk) in
    for v = lo to hi - 1 do
      let total = ref 0 in
      for w = 0 to domains - 1 do
        total := !total + worker_counts.(w).(v)
      done;
      per_vertex.(v) <- !total
    done
  in
  Par_exec.with_pool ~domains (fun pool ->
      Par_exec.iter pool ~n:c.Csr.num_partitions (fun w p ->
          count_partition und c worker_counts.(w) p);
      Par_exec.iter pool ~n:nchunks (fun _ ch -> reduce ch));
  (per_vertex, Array.fold_left ( + ) 0 per_vertex / 3)

let run ?(scale = 1.0) ?(cost = Cost_model.default) ?undirected ?telemetry ~cluster pg =
  let g = Pgraph.graph pg in
  let n = Graph.num_vertices g in
  let num_partitions = Pgraph.num_partitions pg in
  if cluster.Cluster.num_partitions <> num_partitions then
    invalid_arg "Triangle_count.run: cluster and partitioned graph disagree on partition count";
  let und = match undirected with Some u -> u | None -> Graph.symmetrize g in
  if Graph.num_vertices und <> n then invalid_arg "Triangle_count.run: undirected view mismatch";
  let deg v = Graph.out_degree und v in
  let exec_of = Cluster.executor_of_partition cluster in
  (* A fixed dataflow: no build stage, faults, speculation, checkpoints
     or driver lineage — only the ledger's stage time composition. *)
  let ledger = Ledger.create ~scale ~cost ?telemetry ~cluster ~state_bytes:0 pg in

  (* Stage 1 — collect neighbour ids: every edge contributes both
     endpoint ids; partials are merged per partition and reduced at each
     vertex's master, where cut vertices pay the heavy array-merge. *)
  let c = Ledger.open_stage ledger ~step:0 in
  let work = c.Ledger.work and bytes_out = c.Ledger.bytes_out in
  for p = 0 to num_partitions - 1 do
    let pexec = exec_of p in
    Pgraph.iter_partition_edges pg p (fun ~edge:_ ~src ~dst ->
        work.(p) <- work.(p) +. cost.Cost_model.edge_scan_s +. (2.0 *. cost.Cost_model.msg_merge_s);
        c.messages <- c.messages + 2;
        let ship v =
          if exec_of (Pgraph.master pg v) <> pexec then
            bytes_out.(pexec) <- bytes_out.(pexec) +. 8.0
        in
        ship src;
        ship dst)
  done;
  (* One aggregate per (vertex, partition) routing entry. The master
     merges one partial array per replica; for cut vertices that is a
     genuine multi-way array reduction, which is the heavy per-cut-
     vertex JVM cost the paper blames for TR's Cut sensitivity. *)
  for v = 0 to n - 1 do
    let r = Pgraph.replica_count pg v in
    c.shuffle_groups <- c.shuffle_groups + r;
    let mp = Pgraph.master pg v in
    let mexec = exec_of mp in
    Pgraph.iter_replicas pg v (fun q ->
        if exec_of q <> mexec then begin
          c.remote_shuffles <- c.remote_shuffles + 1;
          bytes_out.(exec_of q) <-
            bytes_out.(exec_of q) +. float_of_int cost.Cost_model.msg_wire_overhead_bytes
        end);
    if r >= 2 then work.(mp) <- work.(mp) +. cost.Cost_model.cut_vertex_reduce_s;
    work.(mp) <- work.(mp) +. (float_of_int (deg v) *. cost.Cost_model.msg_merge_s)
  done;
  c.active_edges <- Graph.num_edges g;
  c.updated <- n;
  Ledger.stage ledger ~step:0 c;

  (* Stage 2 — replicate neighbour sets along the routing table. Each
     set is serialized once at the master and shipped once per remote
     executor (partitions on one machine share the block-manager copy),
     so the wire cost tracks graph size, while the per-cut-vertex
     serialization overhead tracks the Cut metric. *)
  let c = Ledger.open_stage ledger ~step:1 in
  let work = c.Ledger.work and bytes_out = c.Ledger.bytes_out in
  let exec_seen = Array.make cluster.Cluster.executors (-1) in
  for v = 0 to n - 1 do
    let mp = Pgraph.master pg v in
    let mexec = exec_of mp in
    let set_bytes = float_of_int ((8 * deg v) + cost.Cost_model.msg_wire_overhead_bytes) in
    work.(mp) <-
      work.(mp) +. cost.Cost_model.msg_serialize_s
      +. (float_of_int (deg v) *. cost.Cost_model.array_element_s);
    if Pgraph.replica_count pg v >= 2 then
      work.(mp) <- work.(mp) +. cost.Cost_model.cut_vertex_reduce_s;
    Pgraph.iter_replicas pg v (fun q ->
        c.bcast <- c.bcast + 1;
        let e = exec_of q in
        if e <> mexec && exec_seen.(e) <> v then begin
          exec_seen.(e) <- v;
          c.remote_bcast <- c.remote_bcast + 1;
          bytes_out.(mexec) <- bytes_out.(mexec) +. set_bytes
        end)
  done;
  c.updated <- n;
  Ledger.stage ledger ~step:1 c;

  (* Stage 3 — per-edge set intersection, on canonical (unordered)
     edges so each pair is counted exactly once. This is the compute-
     heavy stage whose stragglers make fine-grain partitioning win. *)
  let counts = Array.make n 0 in
  let off = Graph.out_offsets und and adj = Graph.out_adjacency und in
  let c = Ledger.open_stage ledger ~step:2 in
  let work = c.Ledger.work in
  for p = 0 to num_partitions - 1 do
    Pgraph.iter_partition_edges pg p (fun ~edge:_ ~src ~dst ->
        if not (canonical g ~src ~dst) then work.(p) <- work.(p) +. cost.Cost_model.edge_skip_s
        else begin
          c.active_edges <- c.active_edges + 1;
          (* Modelled as GraphX's VertexSet probe: one hash "contains"
             per element of the smaller set. The cost comes from the
             degrees alone, whatever the real intersection does. *)
          let ds = deg src and dd = deg dst in
          let probes = if ds <= dd then ds else dd in
          count_closing ~off ~adj counts ~src ~dst;
          work.(p) <-
            work.(p) +. cost.Cost_model.edge_scan_s
            +. (float_of_int probes *. cost.Cost_model.intersect_probe_s)
        end)
  done;
  Ledger.stage ledger ~step:2 c;

  (* Stage 4 — reduce per-vertex counts back at the masters. *)
  let c = Ledger.open_stage ledger ~step:3 in
  let work = c.Ledger.work and bytes_out = c.Ledger.bytes_out in
  for v = 0 to n - 1 do
    let mexec = exec_of (Pgraph.master pg v) in
    Pgraph.iter_replicas pg v (fun q ->
        c.shuffle_groups <- c.shuffle_groups + 1;
        work.(q) <- work.(q) +. cost.Cost_model.msg_serialize_s;
        if exec_of q <> mexec then begin
          c.remote_shuffles <- c.remote_shuffles + 1;
          bytes_out.(exec_of q) <-
            bytes_out.(exec_of q) +. float_of_int (8 + cost.Cost_model.msg_wire_overhead_bytes)
        end)
  done;
  c.messages <- c.shuffle_groups;
  c.updated <- n;
  Ledger.stage ledger ~step:3 c;

  let trace =
    Ledger.finish ledger ~label:"triangle_count" ~outcome:Trace.Completed ~peak_executor_bytes:0.0
  in
  { per_vertex = counts; total = Array.fold_left ( + ) 0 counts / 3; trace }
