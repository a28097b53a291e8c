(* EXPLAIN ANALYZE recorder: per-operator actuals collected while a query
   really executes.

   The executor builds one [node] per plan operator (mirroring the
   estimate tree {!Cost} prints) and wraps the operator's pull function —
   or, on the materialized paths, its whole evaluation — so each node
   accumulates actual rows, wall time, and the delta of every [Stats]
   counter attributable to it.  Accounting is inclusive, like Postgres:
   a node's time and counters include its children's, because the child's
   work happens inside the parent's pull.

   Counter deltas are taken with {!Stats.blit}/{!Stats.accum_diff} into
   per-node scratch arrays, so metering a pull costs two array blits and
   no allocation.

   This module deliberately knows nothing about [Context] or [Cursor]:
   [Context.t] carries a [t option] of this recorder, and the executor
   adapts cursors to [meter_pull] — keeping the dependency order
   Analyze < Context < Plan < Executor acyclic. *)

module Stats = Bdbms_obs.Stats
module Timer = Bdbms_util.Timer

type node = {
  label : string;
  est_rows : float; (* planner estimate; nan = no estimate available *)
  est_src : string option; (* "stats" / "heuristic"; None = not applicable *)
  table : string option; (* base table this node scans, for drift feedback *)
  mutable actual_rows : int;
  mutable loops : int; (* times the operator was (re)started *)
  mutable batches : int; (* column batches produced (vectorized path) *)
  mutable time_ns : int; (* inclusive wall time *)
  scratch : int array; (* live counters at the current pull's start *)
  acc : int array; (* accumulated counter deltas (inclusive) *)
  mutable children : node list;
}

type t = { stats : Stats.t; mutable root : node option }

let create stats = { stats; root = None }

let node ?(est_rows = Float.nan) ?est_src ?table ?(children = []) label =
  {
    label;
    est_rows;
    est_src;
    table;
    actual_rows = 0;
    loops = 0;
    batches = 0;
    time_ns = 0;
    scratch = Stats.scratch ();
    acc = Stats.scratch ();
    children;
  }

let set_root t n = t.root <- Some n
let root t = t.root
let add_child parent child = parent.children <- parent.children @ [ child ]

(* Wrap a pull function: each call is timed, its counter delta lands in
   the node, and a produced tuple counts as an actual row. *)
let meter_pull t n next =
  n.loops <- n.loops + 1;
  fun () ->
    let start = Timer.now_ns () in
    Stats.blit t.stats ~into:n.scratch;
    let r = next () in
    Stats.accum_diff t.stats ~before:n.scratch ~into:n.acc;
    n.time_ns <- n.time_ns + (Timer.now_ns () - start);
    (match r with Some _ -> n.actual_rows <- n.actual_rows + 1 | None -> ());
    r

(* Materialized-path metering: time one whole evaluation of the operator.
   The caller reports produced rows via [record_rows]. *)
let timed_block t n f =
  n.loops <- n.loops + 1;
  let start = Timer.now_ns () in
  Stats.blit t.stats ~into:n.scratch;
  let finish () =
    Stats.accum_diff t.stats ~before:n.scratch ~into:n.acc;
    n.time_ns <- n.time_ns + (Timer.now_ns () - start)
  in
  Fun.protect ~finally:finish f

let record_rows n count = n.actual_rows <- n.actual_rows + count

(* Batched-operator metering: one pull yields a whole column batch, so
   the produced-row count is the batch's selected-row count and [batches]
   tracks how many pulls produced data. *)
let meter_batch_pull t n ~rows next =
  n.loops <- n.loops + 1;
  fun () ->
    let start = Timer.now_ns () in
    Stats.blit t.stats ~into:n.scratch;
    let r = next () in
    Stats.accum_diff t.stats ~before:n.scratch ~into:n.acc;
    n.time_ns <- n.time_ns + (Timer.now_ns () - start);
    (match r with
    | Some b ->
        n.actual_rows <- n.actual_rows + rows b;
        n.batches <- n.batches + 1
    | None -> ());
    r

(* ----------------------------------------------------------- rendering *)

(* The per-node counters worth printing: the executor/pager work the
   estimates try to predict.  Zero-valued counters are suppressed. *)
let shown_counters =
  [
    "page_ins"; "reads"; "hits"; "index_probes"; "hash_builds";
    "hash_probes"; "pushdown_pruned"; "tuples_decoded"; "batches_decoded";
    "ann_envelopes";
  ]

let counters_line n =
  let alist = Stats.to_alist (Stats.of_accum n.acc) in
  let interesting =
    List.filter_map
      (fun name ->
        match List.assoc_opt name alist with
        | Some v when v > 0 -> Some (Printf.sprintf "%s=%d" name v)
        | _ -> None)
      shown_counters
  in
  if interesting = [] then ""
  else Printf.sprintf "  [%s]" (String.concat " " interesting)

(* Same tree layout as {!Cost.explain}, with estimates and actuals side
   by side on every node. *)
let render ?total_ns ?returned root_node =
  let buf = Buffer.create 512 in
  (match (total_ns, returned) with
  | Some ns, Some rows ->
      Buffer.add_string buf
        (Printf.sprintf "EXPLAIN ANALYZE  (total time=%s, rows returned=%d)\n"
           (Format.asprintf "%a" Timer.pp_ns ns)
           rows)
  | Some ns, None ->
      Buffer.add_string buf
        (Printf.sprintf "EXPLAIN ANALYZE  (total time=%s)\n"
           (Format.asprintf "%a" Timer.pp_ns ns))
  | None, _ -> ());
  let rec render_node prefix is_last n =
    Buffer.add_string buf prefix;
    Buffer.add_string buf
      (if prefix = "" then "" else if is_last then "`- " else "|- ");
    let est =
      if Float.is_nan n.est_rows then "est. rows=?"
      else Printf.sprintf "est. rows=%.0f" n.est_rows
    in
    let est =
      match n.est_src with
      | None -> est
      | Some s -> Printf.sprintf "%s, est src=%s" est s
    in
    let batches =
      if n.batches > 0 then Printf.sprintf ", batches=%d" n.batches else ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%s  (%s)  (actual rows=%d, loops=%d%s, time=%s)%s\n"
         n.label est n.actual_rows n.loops batches
         (Format.asprintf "%a" Timer.pp_ns n.time_ns)
         (counters_line n));
    let child_prefix =
      if prefix = "" then "  " else prefix ^ (if is_last then "   " else "|  ")
    in
    let rec go = function
      | [] -> ()
      | [ c ] -> render_node child_prefix true c
      | c :: rest ->
          render_node child_prefix false c;
          go rest
    in
    go n.children
  in
  render_node "" true root_node;
  Buffer.contents buf
