(* From a run's recorders to named metrics, the per-workload JSON record,
   and the one-line summary the last line of [run] prints. *)

module W = Workloads

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Attempts and failures over every recorder of a result: the window,
   the post-run oracles, and the traced run. *)
let tally (r : Runner.result) =
  let all =
    r.checks :: r.clients
    @ match r.traced with Some (cs, checks, _) -> checks :: cs | None -> []
  in
  ( sum (fun c -> c.Conn.attempted) all,
    sum (fun c -> c.Conn.failed) all,
    List.concat_map (fun c -> c.Conn.errors) all )

let pct_name kind p = Printf.sprintf "%s_p%.0f_ms" kind (p *. 100.)

let end_to_end (r : Runner.result) =
  let spec = r.spec and clients = r.clients in
  (* how much slower than [Calib.reference_ms] the machine ran: scaled
     times are divided by it, scaled rates multiplied *)
  let k_setup = fst r.probe_ms /. Calib.reference_ms
  and k = snd r.probe_ms /. Calib.reference_ms in
  let ops = sum (fun c -> c.Conn.ops) clients in
  let reads = Stat.merge (List.map (fun c -> c.Conn.reads) clients) in
  let writes = Stat.merge (List.map (fun c -> c.Conn.writes) clients) in
  let setup_s = Stat.median_list r.setup_s and ops_per_s = float_of_int ops /. r.window_s in
  let lat name s p = Metric.v name "ms" ~n:(Stat.count s) (Stat.percentile s p /. k) in
  let latencies kind s = function
    | None -> []
    | Some p -> [ lat (kind ^ "_p50_ms") s 0.5; lat (pct_name kind p) s p ]
  in
  let primary, tail =
    match spec.W.primary with
    | Conn.Read -> (reads, spec.W.read_tail)
    | Conn.Write -> (writes, spec.W.write_tail)
  in
  let tail = Option.value ~default:0.99 tail in
  let attempted, failed, _ = tally r in
  [
    Metric.v "setup_s" "s" ~n:(List.length r.setup_s) (setup_s /. k_setup);
    Metric.v "ops_per_s" "1/s" ~n:ops (ops_per_s *. k);
  ]
  @ latencies "read" reads spec.W.read_tail
  @ latencies "write" writes spec.W.write_tail
  @ [
      lat "p50_ms" primary 0.5;
      lat "tail_ms" primary tail;
      Metric.v "fail_ratio" "ratio" ~n:attempted
        (float_of_int failed /. float_of_int attempted);
      Metric.v "server_rss_mb" "MB" ~n:(List.length r.rss_mb) (Stat.median_list r.rss_mb);
      Metric.v "server_peak_rss_mb" "MB" ~n:1 r.peak_rss_mb;
      Metric.v "space_amp" "ratio" ~n:1 r.space_amp;
    ]
  @ (match r.recovery_s with Some s -> [ Metric.v "recovery_s" "s" ~n:1 (s /. k) ] | None -> [])
  @ [
      Metric.v "machine.setup_probe_ms" "ms" ~n:1 (fst r.probe_ms);
      Metric.v "machine.probe_ms" "ms" ~n:1 (snd r.probe_ms);
      Metric.v "wall.setup_s" "s" ~n:(List.length r.setup_s) setup_s;
      Metric.v "wall.ops_per_s" "1/s" ~n:ops ops_per_s;
      Metric.v "wall.p50_ms" "ms" ~n:(Stat.count primary) (Stat.percentile primary 0.5);
      Metric.v "wall.tail_ms" "ms" ~n:(Stat.count primary) (Stat.percentile primary tail);
    ]

let layers (r : Runner.result) =
  let k = r.clients in
  let requests = sum (fun c -> c.Conn.requests) k in
  let work =
    {
      Scrape.ops = sum (fun c -> c.Conn.ops) k;
      requests;
      rows = sum (fun c -> c.Conn.rows) k;
      user_bytes = sum (fun c -> c.Conn.user_bytes) k;
      commits = sum (fun c -> c.Conn.commits) k;
      rtt_us =
        float_of_int (sum (fun c -> c.Conn.rtt_ns) k) /. 1000. /. float_of_int (max 1 requests);
    }
  in
  Scrape.layers r.scrape work @ match r.traced with Some (_, _, l) -> l | None -> []

let metrics_json ms = Json.Obj (List.map (fun m -> (m.Metric.name, Metric.to_json m)) ms)

let record ~(cfg : Runner.config) (r : Runner.result) =
  let attempted, failed, errors = tally r in
  Json.Obj
    ([
       ("bench", Json.Str "E20");
       ("workload", Json.Str r.spec.W.name);
       ("seed", Json.int cfg.seed);
       ("seconds", Json.Num cfg.seconds);
       ("toy", Json.Bool cfg.toy);
       ("traced", Json.Bool cfg.traced);
       ("correct", Json.Bool (failed = 0));
       ("attempted", Json.int attempted);
       ("failed", Json.int failed);
       ("errors", Json.Arr (List.map (fun e -> Json.Str e) errors));
       ("metrics", metrics_json (end_to_end r));
       ("layers", metrics_json (layers r));
     ]
    @
    match r.scrape.Scrape.reset with
    | Some why -> [ ("layers_null", Json.Str why) ]
    | None -> [])

let print (r : Runner.result) =
  let attempted, failed, errors = tally r in
  Printf.printf "== E20 %s ==\n" r.spec.W.name;
  List.iter Metric.print (end_to_end r);
  Printf.printf "-- per layer (%s)\n"
    (if r.traced = None then "measured run" else "measured + traced run");
  List.iter Metric.print (layers r);
  Printf.printf "-- oracles: %d attempted, %d failed\n" attempted failed;
  List.iter (Printf.printf "   failure: %s\n") errors

(* One line: correctness and the metrics BENCHMARK.json names for this
   kind of run (end-to-end untraced, per-layer traced). *)
let summary ~traced (r : Runner.result) =
  let attempted, failed, _ = tally r in
  let ms = if traced then layers r else end_to_end r in
  let ms =
    match Ledger.entries (if traced then "per_layer" else "end_to_end") with
    | Some entries ->
        List.filter_map
          (fun e ->
            let name = Json.to_str (Json.member "name" e) in
            List.find_opt (fun m -> Some m.Metric.name = name) ms)
          entries
    | None -> ms
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.int attempted);
         ("failed", Json.int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  let value = Json.num_opt m.Metric.value in
                  (m.Metric.name, Json.Obj [ ("value", value); ("unit", Json.Str m.Metric.unit) ]))
                ms) );
       ])
