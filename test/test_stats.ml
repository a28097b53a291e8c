(* Tests for the optimizer-statistics subsystem: the HLL distinct
   sketch, equi-depth histograms and MCV lists (property-tested with
   qcheck), the versioned persistence codec, stats-aware selectivity,
   and a differential sweep checking that the cost-based join order
   never changes query results across the three execution engines. *)

module Hll = Bdbms_stats.Hll
module Histogram = Bdbms_stats.Histogram
module Tstats = Bdbms_stats.Table_stats
module Registry = Bdbms_stats.Registry
module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Expr = Bdbms_relation.Expr
module Db = Bdbms.Db

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ HLL *)

let distinct_count xs = List.length (List.sort_uniq compare xs)

(* Relative error bound for the checks: the standard error at m = 1024
   is ~3.3%, so 20% is a six-sigma envelope — failures mean a broken
   sketch, not an unlucky seed. *)
let within_bound ~actual est =
  let slack = Float.max 8.0 (0.2 *. float_of_int actual) in
  Float.abs (est -. float_of_int actual) <= slack

let test_hll_empty () =
  checkb "empty sketch estimates 0" true (Hll.estimate (Hll.create ()) = 0.0)

let test_hll_small_exactish () =
  let h = Hll.create () in
  for i = 1 to 100 do
    Hll.add h (string_of_int i)
  done;
  checkb "small cardinality in linear-counting regime" true
    (within_bound ~actual:100 (Hll.estimate h))

let hll_qcheck =
  let open QCheck in
  let keys = list_of_size Gen.(int_range 0 3000) (int_bound 100_000) in
  [
    Test.make ~count:60 ~name:"estimate within error bound"
      keys
      (fun xs ->
        let h = Hll.create () in
        List.iter (fun x -> Hll.add h (string_of_int x)) xs;
        within_bound ~actual:(distinct_count xs) (Hll.estimate h));
    Test.make ~count:60 ~name:"merge estimates the union within bound"
      (pair keys keys)
      (fun (a, b) ->
        let ha = Hll.create () and hb = Hll.create () in
        List.iter (fun x -> Hll.add ha (string_of_int x)) a;
        List.iter (fun x -> Hll.add hb (string_of_int x)) b;
        let merged = Hll.merge ha hb in
        within_bound ~actual:(distinct_count (a @ b)) (Hll.estimate merged));
    Test.make ~count:60 ~name:"merge is idempotent and only grows"
      keys
      (fun xs ->
        let h = Hll.create () in
        List.iter (fun x -> Hll.add h (string_of_int x)) xs;
        let self = Hll.merge h (Hll.copy h) in
        Hll.estimate self = Hll.estimate h);
    Test.make ~count:60 ~name:"codec round-trips the registers"
      keys
      (fun xs ->
        let h = Hll.create () in
        List.iter (fun x -> Hll.add h (string_of_int x)) xs;
        Hll.estimate (Hll.of_string (Hll.to_string h)) = Hll.estimate h);
    (* The estimate is memoized: after any interleaving of the sketch
       operations (and of estimates, which fill the memo) it must be the
       value computed afresh from the registers. *)
    Test.make ~count:200 ~name:"memoized estimate equals a fresh one"
      (list_of_size Gen.(int_range 1 300)
         (quad (int_bound 5) (int_bound 2) (int_bound 2) (int_bound 400)))
      (fun ops ->
        let slots = Array.init 3 (fun _ -> Hll.create ()) in
        let fresh h = Hll.estimate (Hll.of_string (Hll.to_string h)) in
        List.for_all
          (fun (op, a, b, k) ->
            (match op with
            | 0 | 1 -> Hll.add slots.(a) (string_of_int k)
            | 2 -> slots.(a) <- Hll.merge slots.(a) slots.(b)
            | 3 -> slots.(a) <- Hll.copy slots.(b)
            | 4 -> slots.(a) <- Hll.of_string (Hll.to_string slots.(b))
            | _ -> ignore (Hll.estimate slots.(a)));
            Array.for_all (fun h -> Float.equal (Hll.estimate h) (fresh h)) slots)
          ops);
  ]

(* ------------------------------------------------------------ histogram *)

let hist_qcheck =
  let open QCheck in
  let ints = list_of_size Gen.(int_range 1 400) (int_range (-1000) 1000) in
  [
    Test.make ~count:80 ~name:"bounds are non-decreasing"
      ints
      (fun xs ->
        let vals = Array.of_list (List.map (fun i -> Value.VInt i) xs) in
        match Histogram.build ~buckets:16 vals with
        | None -> false (* non-empty input must build *)
        | Some h ->
            let b = h.Histogram.bounds in
            Array.length b >= 2
            && Array.for_all Fun.id
                 (Array.init
                    (Array.length b - 1)
                    (fun i -> compare b.(i) b.(i + 1) <= 0)));
    Test.make ~count:80 ~name:"frac_lt/le in [0,1], le dominates lt, monotone"
      (pair ints (pair (int_range (-1200) 1200) (int_range (-1200) 1200)))
      (fun (xs, (p1, p2)) ->
        let vals = Array.of_list (List.map (fun i -> Value.VInt i) xs) in
        match Histogram.build ~buckets:16 vals with
        | None -> false
        | Some h ->
            let lo = Value.VInt (min p1 p2) and hi = Value.VInt (max p1 p2) in
            let in01 f = f >= 0.0 && f <= 1.0 in
            in01 (Histogram.frac_lt h lo)
            && in01 (Histogram.frac_le h hi)
            && Histogram.frac_le h lo >= Histogram.frac_lt h lo
            && Histogram.frac_le h hi >= Histogram.frac_le h lo -. 1e-9);
    Test.make ~count:80 ~name:"extremes pin to 0 and 1"
      ints
      (fun xs ->
        let vals = Array.of_list (List.map (fun i -> Value.VInt i) xs) in
        match Histogram.build ~buckets:16 vals with
        | None -> false
        | Some h ->
            Histogram.frac_lt h (Value.VInt (-2000)) = 0.0
            && Histogram.frac_le h (Value.VInt 2000) = 1.0);
  ]

(* ------------------------------------------------- MCVs / analyze / codec *)

let one_col_schema = Schema.make [ { Schema.name = "k"; ty = Value.TInt } ]

let analyze_ints ?(table = "t") xs =
  Tstats.analyze ~table ~schema:one_col_schema
    ~rows:(List.map (fun i -> [| Value.VInt i |]) xs)

let mcv_qcheck =
  let open QCheck in
  (* skewed generator: small domain so values repeat *)
  let ints = list_of_size Gen.(int_range 1 300) (int_bound 20) in
  [
    Test.make ~count:80 ~name:"MCV frequencies descending, bounded, capped"
      ints
      (fun xs ->
        let ts = analyze_ints xs in
        let mcvs = ts.Tstats.columns.(0).Tstats.mcvs in
        let freqs = List.map snd mcvs in
        List.length mcvs <= Tstats.mcv_limit
        && List.for_all (fun f -> f > 0.0 && f <= 1.0) freqs
        && List.fold_left ( +. ) 0.0 freqs <= 1.0 +. 1e-9
        && freqs = List.sort (fun a b -> compare b a) freqs);
    Test.make ~count:80 ~name:"MCV entries appear at least twice"
      ints
      (fun xs ->
        let ts = analyze_ints xs in
        let n = List.length xs in
        List.for_all
          (fun (v, f) ->
            let c =
              List.length (List.filter (fun x -> Value.VInt x = v) xs)
            in
            c >= 2 && Float.abs (f -. (float_of_int c /. float_of_int (max 1 n))) < 1e-9)
          ts.Tstats.columns.(0).Tstats.mcvs);
  ]

let codec_qcheck =
  let open QCheck in
  let ints = list_of_size Gen.(int_range 0 300) (int_bound 50) in
  [
    Test.make ~count:80 ~name:"encode/decode round-trips every field"
      ints
      (fun xs ->
        let ts = analyze_ints xs in
        match Registry.decode_table (Registry.encode_table ts) with
        | None -> false
        | Some ts' ->
            let c = ts.Tstats.columns.(0) and c' = ts'.Tstats.columns.(0) in
            ts'.Tstats.table = ts.Tstats.table
            && ts'.Tstats.analyzed_rows = ts.Tstats.analyzed_rows
            && ts'.Tstats.live_rows = ts.Tstats.live_rows
            && ts'.Tstats.mods = ts.Tstats.mods
            && ts'.Tstats.stale = ts.Tstats.stale
            && c'.Tstats.null_frac = c.Tstats.null_frac
            && c'.Tstats.min_v = c.Tstats.min_v
            && c'.Tstats.max_v = c.Tstats.max_v
            && c'.Tstats.mcvs = c.Tstats.mcvs
            && Hll.to_string c'.Tstats.hll = Hll.to_string c.Tstats.hll
            && (match (c.Tstats.hist, c'.Tstats.hist) with
               | None, None -> true
               | Some h, Some h' -> h.Histogram.bounds = h'.Histogram.bounds
               | _ -> false));
  ]

let test_codec_rejects_garbage () =
  checkb "empty blob" true (Registry.decode_table "" = None);
  checkb "bad version" true (Registry.decode_table "\xff rest" = None);
  let blob = Registry.encode_table (analyze_ints [ 1; 1; 2; 3 ]) in
  checkb "truncated blob" true
    (Registry.decode_table (String.sub blob 0 (String.length blob / 2)) = None);
  checkb "trailing bytes" true (Registry.decode_table (blob ^ "x") = None)

(* -------------------------------------------------- selectivity sanity *)

let test_selectivity_sane () =
  (* 100 rows: value 1 appears 60 times, 2..41 once each *)
  let xs = List.init 60 (fun _ -> 1) @ List.init 40 (fun i -> i + 2) in
  let ts = analyze_ints xs in
  let sel e =
    match Tstats.selectivity ts ~schema:one_col_schema e with
    | Some s -> s
    | None -> Alcotest.fail "selectivity not covered"
  in
  let eq v = Expr.Cmp (Expr.Eq, Expr.Col "k", Expr.Lit (Value.VInt v)) in
  let s_common = sel (eq 1) in
  checkb "MCV hit is the exact frequency" true (Float.abs (s_common -. 0.6) < 1e-9);
  let s_rare = sel (eq 5) in
  checkb "rare value below common" true (s_rare < s_common && s_rare > 0.0);
  checkb "out-of-fence equality is zero" true (sel (eq 9999) = 0.0);
  let s_range = sel (Expr.Cmp (Expr.Lt, Expr.Col "k", Expr.Lit (Value.VInt 2))) in
  checkb "range selectivity in [0,1]" true (s_range >= 0.0 && s_range <= 1.0);
  checkb "range covers the common value mass" true (s_range > 0.3)

let test_staleness_tracking () =
  let ts = analyze_ints (List.init 50 (fun i -> i)) in
  checkb "fresh after analyze" false (Tstats.is_stale ts);
  for i = 0 to 10 do
    Tstats.note_insert ts [| Value.VInt (100 + i) |]
  done;
  checkb "churn past threshold trips staleness" true (Tstats.is_stale ts);
  checki "live rows tracked" 61 ts.Tstats.live_rows;
  (* fences widened by the inserts *)
  checkb "max fence widened" true
    (ts.Tstats.columns.(0).Tstats.max_v = Some (Value.VInt 110))

(* -------------------------------- differential sweep with the optimizer *)

(* The optimizer must be invisible in results: the same skewed 3-table
   join workload, with statistics analyzed (so the join order really is
   permuted), must return identical rows in both engines — and in
   the canonical FROM-order column layout. *)
let test_differential_with_optimizer () =
  let db = Fixtures.skewed_join_db () in
  let plan =
    Db.render_exn db
      "EXPLAIN SELECT * FROM a, b, c WHERE a.k = b.k AND b.id = c.b_id AND \
       c.sel = 0"
  in
  checkb "stats drive the plan" true (contains ~needle:"est src=stats" plan);
  let queries =
    [
      "SELECT * FROM a, b, c WHERE a.k = b.k AND b.id = c.b_id AND c.sel = 0";
      "SELECT a.pad, c.b_id FROM a, b, c WHERE a.k = b.k AND b.id = c.b_id \
       AND c.sel = 0";
      "SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.id = c.b_id AND \
       c.sel = 0";
      "SELECT b.k, COUNT(*) FROM b, c WHERE b.id = c.b_id AND c.sel = 1 \
       GROUP BY b.k ORDER BY b.k";
      "SELECT a.pad FROM a, b WHERE a.k = b.k AND b.id < 3 ORDER BY a.pad \
       LIMIT 5";
    ]
  in
  let run mode q =
    Db.set_exec_mode db mode;
    String.concat "\n"
      (List.sort compare (String.split_on_char '\n' (Db.render_exn db q)))
  in
  List.iter
    (fun q ->
      let naive = run `Naive q in
      checks ("batch vs naive: " ^ q) naive (run `Batch q))
    queries;
  Db.close db

(* The adaptive loop, both halves.  Churn: a bulk INSERT past the 20%
   staleness threshold is healed at its own statement boundary (the
   re-analyze rides the same commit).  Drift: perfectly correlated
   conjuncts make the independence assumption underestimate 10x, the
   EXPLAIN ANALYZE walk marks the table stale, and the boundary
   re-analyze fires again — both observable through the counters. *)
let test_drift_feedback () =
  let db = Db.create () in
  let e sql = ignore (Db.exec_exn db sql) in
  let snap () = Db.io_stats db in
  e "CREATE TABLE d (k1 INT, k2 INT)";
  e "INSERT INTO d VALUES (0, 0), (1, 1), (2, 2), (3, 3)";
  e "ANALYZE d";
  let reg = (Db.context db).Bdbms_asql.Context.tstats in
  (* churn: 200 identical rows on a 4-row analyzed table *)
  let big = String.concat ", " (List.init 200 (fun _ -> "(7, 7)")) in
  e ("INSERT INTO d VALUES " ^ big);
  (match Registry.find reg "d" with
  | Some ts ->
      checkb "churn healed at the boundary" false (Tstats.is_stale ts);
      checki "re-analyzed over the churned table" 204 ts.Tstats.analyzed_rows
  | None -> Alcotest.fail "stats missing after churn");
  (* drift: rebuild as 100 rows with k1 = k2, freshly analyzed *)
  e "DELETE FROM d";
  e ("INSERT INTO d VALUES " ^ Fixtures.correlated_rows);
  e "ANALYZE d";
  let stale_before = (snap ()).Bdbms_obs.Stats.stats_stale in
  let analyzed_before = (snap ()).Bdbms_obs.Stats.stats_analyzed in
  e Fixtures.drift_query;
  let s = snap () in
  checkb "drift marked the table stale" true
    (s.Bdbms_obs.Stats.stats_stale > stale_before);
  checkb "boundary re-analyze fired" true
    (s.Bdbms_obs.Stats.stats_analyzed > analyzed_before);
  (match Registry.find reg "d" with
  | Some ts ->
      checkb "fresh again after re-analyze" false (Tstats.is_stale ts);
      checki "re-analyzed row count" 100 ts.Tstats.analyzed_rows
  | None -> Alcotest.fail "stats missing after drift feedback");
  Db.close db

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bdbms_stats"
    [
      ( "hll",
        [
          Alcotest.test_case "empty" `Quick test_hll_empty;
          Alcotest.test_case "small exact-ish" `Quick test_hll_small_exactish;
        ] );
      ("hll-properties", q hll_qcheck);
      ("histogram-properties", q hist_qcheck);
      ("mcv-properties", q mcv_qcheck);
      ("codec-properties", q codec_qcheck);
      ( "codec",
        [ Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage ] );
      ( "selectivity",
        [
          Alcotest.test_case "sanity" `Quick test_selectivity_sane;
          Alcotest.test_case "staleness tracking" `Quick test_staleness_tracking;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "differential all modes" `Quick
            test_differential_with_optimizer;
          Alcotest.test_case "drift feedback loop" `Quick test_drift_feedback;
        ] );
    ]
