(* Observability layer tests: trace span nesting and ring wraparound,
   log-linear histogram bucket/percentile math, metrics rendering, the
   disabled-path contract of the Obs handle, and the Stats field-list
   drift guard (every counter must appear in [pp] and survive a
   snapshot/diff round trip, so adding a counter can't silently skip the
   reporting paths). *)

module Trace = Bdbms_obs.Trace
module Metrics = Bdbms_obs.Metrics
module Obs = Bdbms_obs.Obs
module Stats = Bdbms_obs.Stats

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---------------------------------------------------------------- trace *)

let test_span_nesting () =
  let t = Trace.create () in
  Trace.set_enabled t true;
  let r =
    Trace.with_span t "outer" (fun () ->
        Trace.with_span t "first" (fun () -> ());
        Trace.with_span t "second" (fun () -> ());
        17)
  in
  checki "with_span returns f's result" 17 r;
  let vs = Trace.spans t in
  checki "three spans" 3 (List.length vs);
  (* recorded at completion: children land before the parent *)
  Alcotest.(check (list string))
    "completion order"
    [ "first"; "second"; "outer" ]
    (List.map (fun (v : Trace.view) -> v.Trace.name) vs);
  let outer = List.nth vs 2 in
  checki "outer is a root" 0 outer.Trace.parent;
  checki "outer depth" 0 outer.Trace.depth;
  List.iter
    (fun (v : Trace.view) ->
      checki (v.Trace.name ^ " parented to outer") outer.Trace.id v.Trace.parent;
      checki (v.Trace.name ^ " depth") 1 v.Trace.depth;
      checkb (v.Trace.name ^ " within outer") true
        (v.Trace.start_ns >= outer.Trace.start_ns))
    [ List.nth vs 0; List.nth vs 1 ];
  (* tree rendering reconstructs nesting from the parent links *)
  let tree = Trace.render_tree t in
  let lines = String.split_on_char '\n' tree in
  checkb "outer line first" true
    (String.length (List.nth lines 0) > 4
    && String.sub (List.nth lines 0) 0 5 = "outer");
  checkb "children indented" true
    (String.sub (List.nth lines 1) 0 2 = "  "
    && String.sub (List.nth lines 2) 0 2 = "  ")

let test_disabled_records_nothing () =
  let t = Trace.create () in
  checkb "off by default" false (Trace.enabled t);
  let r = Trace.with_span t "ghost" (fun () -> 3) in
  checki "still runs f" 3 r;
  checki "nothing recorded" 0 (List.length (Trace.spans t));
  checks "empty tree message" "(no spans recorded; enable tracing first)\n"
    (Trace.render_tree t)

let test_ring_wraparound () =
  let t = Trace.create ~capacity:4 () in
  Trace.set_enabled t true;
  for i = 0 to 9 do
    Trace.with_span t (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let vs = Trace.spans t in
  checki "ring keeps capacity spans" 4 (List.length vs);
  Alcotest.(check (list string))
    "oldest overwritten first"
    [ "s6"; "s7"; "s8"; "s9" ]
    (List.map (fun (v : Trace.view) -> v.Trace.name) vs);
  (* spans are recorded at completion, so a parent can only vanish while
     still open: its completed children must then render as roots *)
  let t = Trace.create ~capacity:8 () in
  Trace.set_enabled t true;
  Trace.with_span t "still-open" (fun () ->
      Trace.with_span t "done-child" (fun () -> ());
      let tree = Trace.render_tree t in
      checkb "child of an open span renders as root" true
        (String.sub (List.nth (String.split_on_char '\n' tree) 0) 0 10
        = "done-child"))

let test_span_exception_safety () =
  let t = Trace.create () in
  Trace.set_enabled t true;
  (try
     Trace.with_span t "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  checki "raising span still recorded" 1 (List.length (Trace.spans t));
  (* the open-span stack recovered: a new span is a root, not a child *)
  Trace.with_span t "after" (fun () -> ());
  let after =
    List.find (fun (v : Trace.view) -> v.Trace.name = "after") (Trace.spans t)
  in
  checki "stack unwound" 0 after.Trace.depth

let test_mark_window () =
  let t = Trace.create () in
  Trace.set_enabled t true;
  Trace.with_span t "before" (fun () -> ());
  let mark = Trace.mark t in
  Trace.with_span t "inside" (fun () -> ());
  Alcotest.(check (list string))
    "since window" [ "inside" ]
    (List.map (fun (v : Trace.view) -> v.Trace.name) (Trace.spans ~since:mark t));
  let json = Trace.render_json ~since:mark t in
  checkb "json has inside" true
    (String.length json > 0
    && contains json "\"name\":\"inside\""
    && not (contains json "\"name\":\"before\""))

(* ------------------------------------------------------------ histograms *)

let test_bucket_math () =
  (* exact below the linear cutoff *)
  for v = 0 to 31 do
    checki (Printf.sprintf "exact bucket %d" v) v
      (Metrics.bucket_floor (Metrics.bucket_of v))
  done;
  (* log-linear above: floor <= v, relative error bounded by 1/16 *)
  let check_value v =
    let f = Metrics.bucket_floor (Metrics.bucket_of v) in
    checkb (Printf.sprintf "floor %d <= %d" f v) true (f <= v);
    checkb
      (Printf.sprintf "error %d - %d <= %d/16" v f v)
      true
      (v - f <= v / 16)
  in
  List.iter check_value
    [ 32; 33; 47; 48; 63; 64; 100; 1_000; 4_097; 65_535; 1_000_000;
      123_456_789; max_int / 2 ];
  (* buckets are monotone: a bigger value never lands in a smaller bucket *)
  let rec walk prev v =
    if v < 1_000_000 then begin
      let b = Metrics.bucket_of v in
      checkb (Printf.sprintf "monotone at %d" v) true (b >= prev);
      walk b (v + 1 + (v / 7))
    end
  in
  walk 0 0

let test_percentiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  checki "empty quantile" 0 (Metrics.quantile h 0.5);
  (* 1..1000 uniformly: p50 within one sub-bucket below 500, p99 below 990 *)
  for v = 1 to 1000 do
    Metrics.observe h v
  done;
  checki "count" 1000 (Metrics.count h);
  checki "sum" 500_500 (Metrics.sum h);
  let p50 = Metrics.quantile h 0.5 in
  checkb (Printf.sprintf "p50 = %d in [469, 500]" p50) true
    (p50 >= 469 && p50 <= 500);
  let p99 = Metrics.quantile h 0.99 in
  checkb (Printf.sprintf "p99 = %d in [929, 990]" p99) true
    (p99 >= 929 && p99 <= 990);
  let p100 = Metrics.quantile h 1.0 in
  checkb (Printf.sprintf "p100 = %d in [960, 1000]" p100) true
    (p100 >= 960 && p100 <= 1000);
  (* single observation: every quantile is that value (min/max clamping) *)
  let h1 = Metrics.histogram m "h1" in
  Metrics.observe h1 1_000_000;
  checki "single p50" 1_000_000 (Metrics.quantile h1 0.5);
  checki "single p99" 1_000_000 (Metrics.quantile h1 0.99);
  (* negatives clamp to zero instead of crashing the bucket math *)
  let h2 = Metrics.histogram m "h2" in
  Metrics.observe h2 (-5);
  checki "negative clamps" 0 (Metrics.quantile h2 0.5);
  Metrics.reset_histogram h;
  checki "reset clears count" 0 (Metrics.count h)

let test_registry_render () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~help:"a histogram" "bdbms_test_ns" in
  Metrics.observe h 100;
  (match Metrics.histogram m "bdbms_test_ns" with
  | _ -> Alcotest.fail "duplicate registration must raise"
  | exception Invalid_argument _ -> ());
  let t = Stats.create () in
  Stats.record_read t;
  Stats.record_pinned t 3;
  let text = Metrics.render ~counters:(Stats.snapshot t) m in
  List.iter
    (fun needle ->
      checkb (needle ^ " rendered") true (contains text needle))
    [
      "# HELP bdbms_reads_total Physical page reads";
      "# TYPE bdbms_reads_total counter";
      "bdbms_reads_total 1";
      "# TYPE bdbms_peak_pinned gauge";
      "bdbms_peak_pinned 3";
      "# HELP bdbms_test_ns a histogram";
      "# TYPE bdbms_test_ns summary";
      "bdbms_test_ns{quantile=\"0.5\"}";
      "bdbms_test_ns_count 1";
      "bdbms_test_ns_sum 100";
    ];
  (* counters in slot order, then histograms *)
  let pos needle =
    let rec find i =
      if i + String.length needle > String.length text then -1
      else if String.sub text i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  checkb "counters in slot order before histograms" true
    (pos "bdbms_reads_total 1" < pos "bdbms_peak_pinned 3"
    && pos "bdbms_peak_pinned 3" < pos "bdbms_test_ns_count")

let test_obs_handle () =
  let o = Obs.create () in
  (* tracing off: timed still feeds the histogram, opens no span *)
  let r = Obs.timed o o.Obs.stmt_hist "stmt" (fun () -> 7) in
  checki "timed returns" 7 r;
  checki "histogram fed while disabled" 1 (Metrics.count o.Obs.stmt_hist);
  checki "no spans while disabled" 0 (List.length (Trace.spans o.Obs.trace));
  (* tracing on: same call records the span too *)
  Trace.set_enabled o.Obs.trace true;
  ignore (Obs.timed o o.Obs.stmt_hist "stmt" (fun () -> 7));
  checki "histogram fed while enabled" 2 (Metrics.count o.Obs.stmt_hist);
  checki "span recorded while enabled" 1 (List.length (Trace.spans o.Obs.trace));
  (* timed observes even when f raises *)
  (try ignore (Obs.timed o o.Obs.stmt_hist "stmt" (fun () -> failwith "x"))
   with Failure _ -> ());
  checki "histogram fed on raise" 3 (Metrics.count o.Obs.stmt_hist)

(* --------------------------------------------------- stats drift guard *)

let test_stats_pp_drift () =
  let s = Stats.snapshot (Stats.create ()) in
  let alist = Stats.to_alist s in
  let pp = Format.asprintf "%a" Stats.pp s in
  (* every counter to_alist knows about must appear in pp, and pp must
     not render fields the codec doesn't know about *)
  List.iter
    (fun (name, v) ->
      checki (name ^ " fresh is zero") 0 v;
      checkb (name ^ " appears in pp") true
        (contains pp (name ^ "=")))
    alist;
  let rendered_fields =
    String.split_on_char ' ' pp
    |> List.filter (fun tok -> String.contains tok '=')
    |> List.length
  in
  checki "pp renders exactly the codec's fields" (List.length alist)
    rendered_fields

let test_stats_diff_roundtrip () =
  let t = Stats.create () in
  let zero = Stats.snapshot t in
  Stats.record_read t;
  Stats.record_read t;
  Stats.record_hit t;
  Stats.record_wal_append t;
  Stats.record_recovered t 5;
  Stats.record_hash_build t;
  Stats.record_pushdown_prune t;
  Stats.record_page_in t;
  Stats.record_pinned t 3;
  let after = Stats.snapshot t in
  (* diff against the zero snapshot is the snapshot itself *)
  Alcotest.(check (list (pair string int)))
    "diff vs zero = after"
    (Stats.to_alist after)
    (Stats.to_alist (Stats.diff ~after ~before:zero));
  (* diff against itself is all zero *)
  List.iter
    (fun (name, v) -> checki ("self-diff " ^ name) 0 v)
    (Stats.to_alist (Stats.diff ~after ~before:after));
  checki "reads" 2 after.Stats.reads;
  checki "recovered" 5 after.Stats.recovered_records;
  checki "peak pinned" 3 after.Stats.peak_pinned

let test_stats_raw_accum () =
  let t = Stats.create () in
  Stats.record_read t;
  let before_snap = Stats.snapshot t in
  let scratch = Stats.scratch () in
  let acc = Stats.scratch () in
  Stats.blit t ~into:scratch;
  Stats.record_read t;
  Stats.record_hash_probe t;
  Stats.record_tuple_decode t;
  Stats.accum_diff t ~before:scratch ~into:acc;
  (* accumulate a second window on top *)
  Stats.blit t ~into:scratch;
  Stats.record_write t;
  Stats.accum_diff t ~before:scratch ~into:acc;
  let v = Stats.of_accum acc in
  Alcotest.(check (list (pair string int)))
    "raw accumulation = snapshot diff"
    (Stats.to_alist (Stats.diff ~after:(Stats.snapshot t) ~before:before_snap))
    (Stats.to_alist v)

let () =
  Alcotest.run "bdbms_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled path" `Quick test_disabled_records_nothing;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "mark window" `Quick test_mark_window;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket math" `Quick test_bucket_math;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "registry render" `Quick test_registry_render;
          Alcotest.test_case "obs handle" `Quick test_obs_handle;
        ] );
      ( "stats-drift",
        [
          Alcotest.test_case "pp covers every field" `Quick test_stats_pp_drift;
          Alcotest.test_case "diff round trip" `Quick test_stats_diff_roundtrip;
          Alcotest.test_case "raw accumulation" `Quick test_stats_raw_accum;
        ] );
    ]
