(* Per-layer numbers of the measured run, from the server's always-on
   instruments: the [stats] counters and the [metrics] histograms, read
   over the wire at the start and end of the window and differenced.

   The scrape runs on client 0's connection while no operation is in
   flight.  Start reads [stats], then [metrics] twice; end reads
   [metrics] then [stats].  The server times a request after building its
   reply, so the last start [metrics] request lands in the window's
   [bdbms_request_ns]: it is taken out of the count, and out of the sum
   goes the first one's duration (the difference of the two readings),
   which renders nearly the same text.  The eight frames of the
   control ops between the two [stats] readings are taken out of the
   frame counts. *)

module Client = Bdbms_server.Client
module P = Bdbms_server.Protocol

let control_frames = 8
let request_hist = "bdbms_request_ns"

let control c op =
  match Client.control c op with
  | P.Message { text } -> text
  | _ -> failwith ("control op failed: " ^ op)

(* "reads=1 writes=2 ..." *)
let parse_stats text =
  String.split_on_char ' ' (String.trim text)
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
             Option.map
               (fun v -> (String.sub kv 0 i, v))
               (int_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1)))
         | None -> None)

(* Prometheus text: integer samples without labels — counters and each
   histogram's _count and _sum. *)
let parse_metrics text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' || String.contains line '{' then None
         else
           match String.split_on_char ' ' line with
           | [ name; v ] -> Option.map (fun v -> (name, v)) (int_of_string_opt v)
           | _ -> None)

type reading = { values : (string * int) list; control_ns : int }

let start c =
  let s = parse_stats (control c "stats") in
  let m0 = parse_metrics (control c "metrics") in
  let m = parse_metrics (control c "metrics") in
  let sum ms = Option.value ~default:0 (List.assoc_opt (request_hist ^ "_sum") ms) in
  { values = s @ m; control_ns = sum m - sum m0 }

let finish c =
  let m = parse_metrics (control c "metrics") in
  parse_stats (control c "stats") @ m

(* Window deltas.  The canonical disk's counters restart from zero when a
   rollback recreates its context, so a counter that went down means the
   deltas of this window are not work done in it. *)
type window = { delta : (string * int) list; control_ns : int; reset : string option }

let window ~before ~after =
  let delta =
    List.filter_map
      (fun (k, a) -> Option.map (fun b -> (k, a - b)) (List.assoc_opt k before.values))
      after
  in
  let reset =
    List.find_map
      (fun (k, d) ->
        if d < 0 then
          Some
            (Printf.sprintf
               "counter %s decreased across the window (a rollback recreated the \
                canonical disk)"
               k)
        else None)
      delta
  in
  { delta; control_ns = before.control_ns; reset }

(* What the clients did in the window, to put the deltas per op. *)
type work = {
  ops : int;
  requests : int;
  rows : int;  (** rows returned *)
  user_bytes : int;  (** literal bytes written *)
  commits : int;  (** transactions acknowledged by COMMIT *)
  rtt_us : float;  (** mean client round trip per request *)
}

let page_size = 4096.

let delta w name = float_of_int (Option.value ~default:0 (List.assoc_opt name w.delta))

(* A histogram's mean over the window, in microseconds, and its count. *)
let hist_us w name =
  let n = delta w (name ^ "_count") and sum = delta w (name ^ "_sum") in
  let n, sum =
    if name = request_hist then (n -. 1., sum -. float_of_int w.control_ns) else (n, sum)
  in
  (int_of_float n, if n > 0. then sum /. n /. 1000. else 0.)

let request_us w = snd (hist_us w request_hist)

let layers w (k : work) =
  let d = delta w in
  let ops = float_of_int k.ops in
  let mean name unit hist =
    let n, us = hist_us w hist in
    Metric.v name unit ~n us
  in
  let per_op name counter = Metric.v name "count" ~n:k.ops (d counter /. ops) in
  let request_n, request_us = hist_us w request_hist in
  let counted =
    [
      per_op "executor.tuples_decoded_per_op" "tuples_decoded";
      Metric.ratio "executor.examined_per_returned" "count" ~n:k.rows
        ~why:"no rows returned" (d "tuples_decoded") (float_of_int k.rows);
      per_op "executor.hash_probes_per_op" "hash_probes";
      per_op "vexec.batches_per_op" "batches_decoded";
      per_op "executor.batch_fallbacks_per_op" "batch_fallbacks";
      per_op "propagate.envelopes_per_op" "ann_envelopes";
      per_op "index.probes_per_op" "index_probes";
      Metric.ratio "pager.hit_ratio" "ratio" ~n:(int_of_float (d "hits" +. d "page_ins"))
        ~why:"no page accesses" (d "hits") (d "hits" +. d "page_ins");
      per_op "pager.reads_per_op" "page_ins";
      per_op "pager.evictions_per_op" "evictions";
      per_op "pager.writebacks_per_op" "writebacks";
      per_op "wal.forced_flushes_per_op" "wal_forced_flushes";
      Metric.v "stats.analyzed" "count" ~n:1 (d "stats_analyzed");
      per_op "disk.writes_per_op" "writes";
      per_op "wal.flushes_per_op" "wal_flushes";
      per_op "durable_catalog.root_swaps_per_op" "root_swaps";
      Metric.ratio "disk.bytes_written_per_user_byte" "ratio" ~n:k.user_bytes
        ~why:"no user bytes written" (d "writes" *. page_size) (float_of_int k.user_bytes);
      per_op "wal.appends_per_op" "wal_appends";
      per_op "disk.checkpoints_per_op" "checkpoints";
      Metric.ratio "engine.txns_per_group_commit" "count" ~n:k.commits
        ~why:"no group commits" (float_of_int k.commits) (d "group_commits");
      Metric.ratio "engine.conflicts_per_commit" "ratio" ~n:k.commits ~why:"no commits"
        (d "commit_conflicts") (float_of_int k.commits);
    ]
  in
  let counted =
    match w.reset with
    | None -> counted
    | Some why -> List.map (fun m -> Metric.null m.Metric.name m.Metric.unit ~why) counted
  in
  [
    Metric.v "server.request_us" "us" ~n:request_n request_us;
    Metric.v "protocol.wire_us" "us" ~n:k.requests (k.rtt_us -. request_us);
    Metric.v "server.frames_per_op" "count" ~n:k.ops
      ((d "frames_rx" +. d "frames_tx" -. float_of_int control_frames) /. ops);
    mean "executor.stmt_us" "us" "bdbms_stmt_ns";
    mean "pager.evict_writeback_us" "us" "bdbms_evict_writeback_ns";
    mean "wal.flush_us" "us" "bdbms_wal_flush_ns";
    mean "durable_catalog.root_swap_us" "us" "bdbms_root_swap_ns";
    mean "disk.checkpoint_us" "us" "bdbms_checkpoint_ns";
  ]
  @ counted
