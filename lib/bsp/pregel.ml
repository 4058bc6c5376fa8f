module Graph = Cutfit_graph.Graph

type direction = To_src | To_dst

type ('v, 'm) program = {
  init : int -> 'v;
  initial_msg : 'm;
  vprog : int -> 'v -> 'm -> 'v;
  send :
    edge:int ->
    src:int ->
    dst:int ->
    src_attr:'v ->
    dst_attr:'v ->
    emit:(direction -> 'm -> unit) ->
    unit;
  merge : 'm -> 'm -> 'm;
  state_bytes : int;
  msg_bytes : int;
}

type 'v result = { attrs : 'v array; trace : Trace.t }

(* Growable int vector for the per-superstep touched-vertex set. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let clear t = t.len <- 0
  let iter t f =
    for i = 0 to t.len - 1 do
      f t.data.(i)
    done
  let length t = t.len
end

let run ?(max_supersteps = 500) ?(scale = 1.0) ?(cost = Cost_model.default) ?checkpoint_every
    ?faults ?speculation ?elastic ?hetero ?telemetry ~cluster pg program =
  let g = Pgraph.graph pg in
  let n = Graph.num_vertices g in
  let num_partitions = Pgraph.num_partitions pg in
  if cluster.Cluster.num_partitions <> num_partitions then
    invalid_arg "Pregel.run: cluster and partitioned graph disagree on partition count";
  let ledger =
    Ledger.create ~scale ~cost ?checkpoint_every ?faults ?speculation ?elastic ?hetero ?telemetry
      ~cluster ~state_bytes:program.state_bytes pg
  in
  let ert = Ledger.elastic ledger in
  let exec_of p = Elastic.exec_of ert p in

  let attrs = Array.init n program.init in
  let active = Bytes.make n '\000' in
  let is_active v = Bytes.unsafe_get active v <> '\000' in
  let msg : 'm option array = Array.make n None in
  let touched = Ivec.create () in
  (* Partition-local combiner scratch: messages emitted while one
     partition's edges are scanned merge here first (in edge order),
     then flush into the master-side accumulator [msg] in ascending
     partition order. This fixes the cross-partition reduction order
     per partition index — the order the parallel {!Csr} kernels
     reproduce, which is what makes boxed and CSR results bit-identical
     for non-associative float merges. *)
  let plocal : 'm option array = Array.make n None in
  let ptouched = Ivec.create () in
  let last_part = Array.make n (-1) in
  let last_step = Array.make n (-1) in

  (* Per-executor static working set (the cached graph), paper-scale,
     under the initial placement. It never changes, so neither does its
     peak. *)
  let resident = Array.make cluster.Cluster.executors 0.0 in
  for p = 0 to num_partitions - 1 do
    let e = exec_of p in
    resident.(e) <- resident.(e) +. Ledger.partition_bytes ledger p
  done;
  let peak_executor_bytes = Array.fold_left Float.max 0.0 resident in
  let executor_oom = peak_executor_bytes > cluster.Cluster.executor_memory_bytes in

  let msg_wire_bytes = float_of_int (program.msg_bytes + cost.Cost_model.msg_wire_overhead_bytes) in
  let attr_wire_bytes = Ledger.attr_wire_bytes ledger in

  (* Vertex-side work shared by superstep 0 and the main loop: charge
     vprog on [vertices], then broadcast the updated attributes along the
     routing table, charging work and bytes. *)
  let apply_and_broadcast (c : Ledger.counters) vertices =
    let work = c.Ledger.work and bytes_out = c.Ledger.bytes_out and bytes_in = c.Ledger.bytes_in in
    vertices (fun v ->
        c.updated <- c.updated + 1;
        let mp = Pgraph.master pg v in
        work.(mp) <- work.(mp) +. cost.Cost_model.vprog_s;
        let mexec = exec_of mp in
        Pgraph.iter_replicas pg v (fun q ->
            c.bcast <- c.bcast + 1;
            work.(mp) <- work.(mp) +. cost.Cost_model.msg_serialize_s;
            if exec_of q <> mexec then begin
              c.remote_bcast <- c.remote_bcast + 1;
              bytes_out.(mexec) <- bytes_out.(mexec) +. attr_wire_bytes;
              bytes_in.(exec_of q) <- bytes_in.(exec_of q) +. attr_wire_bytes
            end))
  in

  Ledger.build ledger;
  (* Superstep 0: vprog everywhere with the initial message, then a full
     broadcast materializes the replicated vertex views. *)
  let c = Ledger.open_stage ledger ~step:0 in
  for v = 0 to n - 1 do
    attrs.(v) <- program.vprog v attrs.(v) program.initial_msg;
    Bytes.unsafe_set active v '\001'
  done;
  apply_and_broadcast c (fun f ->
      for v = 0 to n - 1 do
        f v
      done);
  let outcome = ref (Ledger.superstep ledger ~step:0 c) in

  let step = ref 1 in
  while Option.is_none !outcome do
    let c = Ledger.open_stage ledger ~step:!step in
    let work = c.Ledger.work and bytes_out = c.Ledger.bytes_out and bytes_in = c.Ledger.bytes_in in
    Ivec.clear touched;
    (* Message generation, partition by partition. *)
    for p = 0 to num_partitions - 1 do
      let pexec = exec_of p in
      let cur_src = ref 0 and cur_dst = ref 0 in
      let emit dir m =
        let v = match dir with To_src -> !cur_src | To_dst -> !cur_dst in
        c.messages <- c.messages + 1;
        work.(p) <- work.(p) +. cost.Cost_model.msg_merge_s;
        (match plocal.(v) with
        | None ->
            plocal.(v) <- Some m;
            Ivec.push ptouched v
        | Some m0 -> plocal.(v) <- Some (program.merge m0 m));
        (* Count one shuffle aggregate per (vertex, partition) pair. *)
        if last_step.(v) <> !step || last_part.(v) <> p then begin
          last_step.(v) <- !step;
          last_part.(v) <- p;
          c.shuffle_groups <- c.shuffle_groups + 1;
          let mp = Pgraph.master pg v in
          work.(p) <- work.(p) +. cost.Cost_model.msg_serialize_s;
          if exec_of mp <> pexec then begin
            c.remote_shuffles <- c.remote_shuffles + 1;
            bytes_out.(pexec) <- bytes_out.(pexec) +. msg_wire_bytes;
            bytes_in.(exec_of mp) <- bytes_in.(exec_of mp) +. msg_wire_bytes;
            work.(mp) <- work.(mp) +. cost.Cost_model.msg_serialize_s
          end
        end
      in
      Pgraph.iter_partition_edges pg p (fun ~edge ~src ~dst ->
          if is_active src || is_active dst then begin
            c.active_edges <- c.active_edges + 1;
            work.(p) <- work.(p) +. cost.Cost_model.edge_scan_s;
            cur_src := src;
            cur_dst := dst;
            program.send ~edge ~src ~dst ~src_attr:attrs.(src) ~dst_attr:attrs.(dst) ~emit
          end
          else work.(p) <- work.(p) +. cost.Cost_model.edge_skip_s);
      (* Flush this partition's combined partials into the master-side
         accumulator. Partitions are visited in ascending order, so each
         vertex's cross-partition merge is a left fold over ascending
         partition indices; within a flush, vertices appear in
         first-touch (edge) order, which keeps the global [touched]
         order identical to direct per-message merging. *)
      Ivec.iter ptouched (fun v ->
          (match plocal.(v) with
          | None -> assert false
          | Some m -> (
              match msg.(v) with
              | None ->
                  msg.(v) <- Some m;
                  Ivec.push touched v
              | Some m0 -> msg.(v) <- Some (program.merge m0 m)));
          plocal.(v) <- None);
      Ivec.clear ptouched
    done;
    (* Vertex programs at masters, then replica refresh. *)
    Bytes.fill active 0 n '\000';
    Ivec.iter touched (fun v ->
        (match msg.(v) with
        | Some m -> attrs.(v) <- program.vprog v attrs.(v) m
        | None -> assert false);
        msg.(v) <- None;
        Bytes.unsafe_set active v '\001');
    (* The state transition happened above (so broadcast ships the new
       values); apply_and_broadcast only charges the vprog cost and the
       replica refresh. *)
    apply_and_broadcast c (fun f -> Ivec.iter touched f);
    let stop = Ledger.superstep ledger ~step:!step c in
    outcome :=
      if executor_oom then Some Trace.Out_of_memory
      else if Option.is_some stop then stop
      else if Ivec.length touched = 0 then Some Trace.Completed
      else if !step >= max_supersteps then Some Trace.Max_supersteps
      else begin
        incr step;
        None
      end
  done;
  let outcome = Option.get !outcome in
  { attrs; trace = Ledger.finish ledger ~label:"pregel" ~outcome ~peak_executor_bytes }
