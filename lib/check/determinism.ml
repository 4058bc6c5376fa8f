module Trace = Cutfit_bsp.Trace
module Event = Cutfit_obs.Event

let suite = "determinism"

(* Canonical byte serialization: ints in decimal, floats as the hex of
   their IEEE-754 bits so every ULP matters. *)
let buf_float b f = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float f))
let buf_int b i = Buffer.add_string b (string_of_int i ^ ";")

let trace_digest (t : Trace.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (s : Trace.superstep) ->
      buf_int b s.Trace.step;
      buf_int b s.Trace.active_edges;
      buf_int b s.Trace.messages;
      buf_int b s.Trace.shuffle_groups;
      buf_int b s.Trace.remote_shuffles;
      buf_int b s.Trace.updated_vertices;
      buf_int b s.Trace.broadcast_replicas;
      buf_int b s.Trace.remote_broadcasts;
      buf_float b s.Trace.wire_bytes;
      buf_float b s.Trace.compute_s;
      buf_float b s.Trace.network_s;
      buf_float b s.Trace.overhead_s;
      buf_float b s.Trace.time_s)
    t.Trace.supersteps;
  buf_float b t.Trace.load_s;
  buf_float b t.Trace.checkpoint_s;
  buf_int b t.Trace.checkpoints;
  List.iter
    (fun (r : Trace.recovery) ->
      buf_int b r.Trace.at_step;
      Buffer.add_string b (r.Trace.kind ^ ";");
      buf_int b r.Trace.executor;
      buf_int b r.Trace.replayed_steps;
      buf_int b r.Trace.lost_edges;
      buf_int b r.Trace.lost_replicas;
      buf_float b r.Trace.recovery_wire_bytes;
      buf_float b r.Trace.recovery_s)
    t.Trace.recoveries;
  buf_float b t.Trace.recovery_s;
  buf_int b t.Trace.faults_injected;
  List.iter
    (fun (s : Trace.speculation) ->
      buf_int b s.Trace.at_step;
      buf_int b s.Trace.executor;
      buf_int b s.Trace.host;
      buf_int b s.Trace.cloned_partitions;
      buf_float b s.Trace.original_busy_s;
      buf_float b s.Trace.clone_busy_s;
      buf_float b s.Trace.speculative_compute_s;
      buf_float b s.Trace.speculative_wire_bytes;
      buf_int b (if s.Trace.won then 1 else 0);
      buf_float b s.Trace.saved_s)
    t.Trace.speculations;
  buf_float b t.Trace.speculation_s;
  List.iter
    (fun (r : Trace.reshuffle) ->
      buf_int b r.Trace.resh_step;
      buf_int b r.Trace.executors_before;
      buf_int b r.Trace.executors_after;
      buf_int b r.Trace.moved_partitions;
      buf_float b r.Trace.moved_bytes;
      buf_int b r.Trace.rebroadcast_replicas;
      buf_float b r.Trace.rebroadcast_bytes;
      buf_float b r.Trace.reshuffle_s)
    t.Trace.reshuffles;
  buf_float b t.Trace.reshuffle_s;
  buf_float b t.Trace.total_s;
  Buffer.add_string b (Trace.outcome_name t.Trace.outcome);
  buf_float b t.Trace.peak_executor_bytes;
  buf_float b t.Trace.driver_meta_bytes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The JSONL codec round-trips floats bit-exactly (17 significant
   digits), so the rendered lines are just as canonical. *)
let events_digest events =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map Event.to_line events)))

let lines_digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let run_twice ~label f =
  let first = f () in
  let second = f () in
  if String.equal first second then []
  else
    [
      Violation.v ~suite ~rule:"divergence" "%s: first run digest %s, second run digest %s" label
        first second;
    ]
