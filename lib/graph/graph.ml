type t = {
  n : int;
  src : int array;
  dst : int array;
  out_off : int array;
  out_adj : int array;
  in_off : int array;
  in_adj : int array;
}

(* CSR offsets of a counting sort on [keys]: bucket [v] is
   [off.(v) .. off.(v + 1) - 1]. *)
let offsets n keys =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun k -> off.(k + 1) <- off.(k + 1) + 1) keys;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  off

(* Transpose one CSR direction into the other: for every row [v] in
   ascending order, append [v] to the bucket of each entry of that row.
   Walking rows in order leaves every bucket of [adj] ascending. *)
let transpose n ~row_off ~row_adj ~off adj =
  let cursor = Array.sub off 0 n in
  for v = 0 to n - 1 do
    for i = row_off.(v) to row_off.(v + 1) - 1 do
      let k = row_adj.(i) in
      adj.(cursor.(k)) <- v;
      cursor.(k) <- cursor.(k) + 1
    done
  done

let create ~n ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Graph.create: src/dst length mismatch";
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  Array.iter (fun v -> if v < 0 || v >= n then invalid_arg "Graph.create: src out of range") src;
  Array.iter (fun v -> if v < 0 || v >= n then invalid_arg "Graph.create: dst out of range") dst;
  let m = Array.length src in
  let out_off = offsets n src and in_off = offsets n dst in
  (* Three stable counting passes, no comparison sort: bucket the
     sources by destination in build order; walking those buckets by
     destination fills each out-bucket in ascending order; walking the
     sorted out-buckets by source refills the in-buckets sorted. *)
  let in_adj = Array.make m 0 in
  let cursor = Array.sub in_off 0 n in
  for i = 0 to m - 1 do
    let d = dst.(i) in
    in_adj.(cursor.(d)) <- src.(i);
    cursor.(d) <- cursor.(d) + 1
  done;
  let out_adj = Array.make m 0 in
  transpose n ~row_off:in_off ~row_adj:in_adj ~off:out_off out_adj;
  transpose n ~row_off:out_off ~row_adj:out_adj ~off:in_off in_adj;
  { n; src; dst; out_off; out_adj; in_off; in_adj }

let of_edge_list ~n el =
  let src, dst = Edge_list.to_arrays el in
  create ~n ~src ~dst

let num_vertices t = t.n
let num_edges t = Array.length t.src
let edge_src t i = t.src.(i)
let edge_dst t i = t.dst.(i)
let src_array t = t.src
let dst_array t = t.dst
let out_offsets t = t.out_off
let out_adjacency t = t.out_adj
let out_degree t v = t.out_off.(v + 1) - t.out_off.(v)
let in_degree t v = t.in_off.(v + 1) - t.in_off.(v)

let iter_out t v f =
  for i = t.out_off.(v) to t.out_off.(v + 1) - 1 do
    f t.out_adj.(i)
  done

let iter_in t v f =
  for i = t.in_off.(v) to t.in_off.(v + 1) - 1 do
    f t.in_adj.(i)
  done

let fold_out t v f init =
  let acc = ref init in
  iter_out t v (fun u -> acc := f !acc u);
  !acc

let fold_in t v f init =
  let acc = ref init in
  iter_in t v (fun u -> acc := f !acc u);
  !acc

let out_neighbors t v = Array.sub t.out_adj t.out_off.(v) (out_degree t v)
let in_neighbors t v = Array.sub t.in_adj t.in_off.(v) (in_degree t v)

let has_edge t ~src ~dst =
  let lo = ref t.out_off.(src) and hi = ref (t.out_off.(src + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = t.out_adj.(mid) in
    if x = dst then found := true else if x < dst then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_edges t f =
  for i = 0 to num_edges t - 1 do
    f ~src:t.src.(i) ~dst:t.dst.(i)
  done

(* [v]'s undirected neighbours: the merge of its sorted out- and
   in-lists, each neighbour once, without [v] itself. *)
let iter_undirected t v f =
  let a = ref t.out_off.(v) and b = ref t.in_off.(v) in
  let ae = t.out_off.(v + 1) and be = t.in_off.(v + 1) in
  let last = ref v in
  while !a < ae || !b < be do
    let from_out = !b >= be || (!a < ae && t.out_adj.(!a) <= t.in_adj.(!b)) in
    let x = if from_out then t.out_adj.(!a) else t.in_adj.(!b) in
    if from_out then incr a else incr b;
    if x <> !last && x <> v then f x;
    last := x
  done

let symmetrize t =
  let n = t.n in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let d = ref 0 in
    iter_undirected t v (fun _ -> incr d);
    off.(v + 1) <- off.(v) + !d
  done;
  let src = Array.make off.(n) 0 and adj = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    let i = ref off.(v) in
    iter_undirected t v (fun u ->
        src.(!i) <- v;
        adj.(!i) <- u;
        incr i)
  done;
  (* Edges come out in (src, dst) order, so the destination array is the
     out-adjacency; the graph is symmetric, so in-adjacency equals
     out-adjacency. All three share one array. *)
  { n; src; dst = adj; out_off = off; out_adj = adj; in_off = off; in_adj = adj }

let is_symmetric t =
  let ok = ref true in
  (try
     iter_edges t (fun ~src ~dst ->
         if src <> dst && not (has_edge t ~src:dst ~dst:src) then begin
           ok := false;
           raise Exit
         end)
   with Exit -> ());
  !ok
