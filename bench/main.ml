(* The bdbms benchmark harness.

   One experiment per quantitative claim / figure of the paper (see
   DESIGN.md §4 for the experiment index and EXPERIMENTS.md for measured
   vs expected results):

     E1  annotation storage schemes        (Figures 3 vs 5)
     E2  annotation propagation            (Section 3.4's 3-statement example)
     E3  SBC-tree storage reduction        (Section 7.2, ~10x claim)
     E4  SBC-tree insertion I/O            (Section 7.2, ~30% claim)
     E5  SBC-tree search parity            (Section 7.2)
     E6  SP-GiST trie vs B+-tree           (Section 7.1)
     E7  kd-tree/quadtree vs R-tree        (Section 7.1)
     E8  dependency bitmaps & cascades     (Section 5, Figure 10)
     E9  content-approval overhead         (Section 6)
     E11 WAL / checkpoint / recovery       (durability subsystem; not in
                                            the paper — PostgreSQL gave
                                            the authors this for free)
     E12 pipelined query engine            (hash join / lazy annotation
                                            attachment / top-k; the
                                            executor PostgreSQL gave the
                                            authors for free)
     E13 demand paging                     (scan + probe a table 10x the
                                            buffer pool, LRU vs Clock;
                                            the buffer manager PostgreSQL
                                            gave the authors for free)
     E14 observability overhead            (trace spans + histograms:
                                            disabled-path cost budget,
                                            enforced at 5%)
     E15 multi-session throughput          (snapshot-isolated sessions,
                                            group commit; the MVCC +
                                            server PostgreSQL gave the
                                            authors for free)
     E16 vectorized batch execution        (column batches + selection
                                            vectors vs the naive oracle;
                                            guards batch >= naive on the
                                            aggregate workload)
     E17 fault-tolerance machinery         (statement-deadline checkpoints
                                            + I/O retry wrappers: armed
                                            overhead guarded at 5%)
     E18 cost-based join ordering          (ANALYZE statistics vs FROM
                                            order on a skewed 3-table
                                            join; guards stats >= 2x)
     E19 introspection overhead            (sys.* scans and the sampled
                                            query log)
     E21 statement cascades                (one dependency cascade per
                                            UPDATE/DELETE; guards its
                                            derivation and bitmap-store
                                            counts)

   Usage:
     dune exec bench/main.exe                 # all paper experiments
     dune exec bench/main.exe -- E3 E5        # a subset
     dune exec bench/main.exe -- --ablation   # design-choice ablations
     dune exec bench/main.exe -- --bechamel   # Bechamel micro-timings
     dune exec bench/main.exe -- --deterministic E1 E2   # no timing columns

   [--deterministic] is what the E1-E10 golden file ([bench/e1_e10.golden],
   diffed by [dune runtest]) is generated with. *)

let experiments =
  [
    ("E1", E1_annotation_storage.run);
    ("E2", E2_propagation.run);
    ("E3", E3_sbc_storage.run);
    ("E4", E4_sbc_insert_io.run);
    ("E5", E5_sbc_search.run);
    ("E6", E6_trie_vs_btree.run);
    ("E7", E7_spatial.run);
    ("E8", E8_dependency.run);
    ("E9", E9_approval.run);
    ("E10", E10_compression.run);
    ("E11", E11_recovery.run);
    ("E12", E12_query.run);
    ("E13", E13_paging.run);
    ("E14", E14_obs.run);
    ("E15", E15_server.run);
    ("E16", E16_batch.run);
    ("E17", E17_resilience.run);
    ("E18", E18_optimizer.run);
    ("E19", E19_introspection.run);
    ("E21", E21_cascade.run);
  ]

(* ------------------------------------------------- bechamel micro-bench *)

let bechamel_tests () =
  let open Bechamel in
  let module Prng = Bdbms_util.Prng in
  let module Workload = Bdbms_bio.Workload in
  (* E3/E4 core: build a small SBC-tree *)
  let texts = Workload.structures (Prng.create 1) ~n:5 ~len:200 ~mean_run:8.0 in
  let sbc_build =
    Test.make ~name:"E3/E4 sbc build (5x200 chars)"
      (Staged.stage (fun () ->
           let _, bp = Bench_util.mk_pool () in
           let t = Bdbms_sbc.Sbc_tree.create ~with_three_sided:false bp in
           List.iter (fun s -> ignore (Bdbms_sbc.Sbc_tree.insert t s)) texts))
  in
  (* E5 core: one substring query on a prebuilt index *)
  let _, bp = Bench_util.mk_pool () in
  let sbc = Bdbms_sbc.Sbc_tree.create ~with_three_sided:false bp in
  List.iter (fun s -> ignore (Bdbms_sbc.Sbc_tree.insert sbc s)) texts;
  let sbc_query =
    Test.make ~name:"E5 sbc substring query"
      (Staged.stage (fun () -> ignore (Bdbms_sbc.Sbc_tree.substring_search sbc "HHHHEE")))
  in
  (* E6 core: trie exact lookup *)
  let keys = Workload.identifier_keys (Prng.create 2) ~n:2000 in
  let _, bp_t = Bench_util.mk_pool () in
  let trie = Bdbms_spgist.Trie.create bp_t in
  List.iteri (fun i k -> Bdbms_spgist.Trie.insert trie k i) keys;
  let probe = List.nth keys 1000 in
  let trie_exact =
    Test.make ~name:"E6 trie exact lookup"
      (Staged.stage (fun () -> ignore (Bdbms_spgist.Trie.exact trie probe)))
  in
  (* E7 core: kd point query *)
  let pts = Workload.points_uniform (Prng.create 3) ~n:2000 ~extent:100.0 in
  let _, bp_k = Bench_util.mk_pool () in
  let kd = Bdbms_spgist.Kd_tree.create ~dims:2 bp_k in
  Array.iteri (fun i (x, y) -> Bdbms_spgist.Kd_tree.insert kd [| x; y |] i) pts;
  let kd_query =
    Test.make ~name:"E7 kd point query"
      (Staged.stage (fun () ->
           ignore (Bdbms_spgist.Kd_tree.point_query kd [| fst pts.(7); snd pts.(7) |])))
  in
  (* E9 core: one logged update through the full A-SQL path *)
  let db = Bdbms.Db.create () in
  ignore (Bdbms.Db.exec_exn db "CREATE TABLE G (k TEXT, v INT)");
  ignore (Bdbms.Db.exec_exn db "INSERT INTO G VALUES ('a', 1)");
  ignore (Bdbms.Db.exec_exn db "START CONTENT APPROVAL ON G APPROVED BY admin");
  let asql_update =
    Test.make ~name:"E9 logged A-SQL update"
      (Staged.stage (fun () ->
           ignore (Bdbms.Db.exec_exn db "UPDATE G SET v = 2 WHERE k = 'a'")))
  in
  [ sbc_build; sbc_query; trie_exact; kd_query; asql_update ]

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let tests = Test.make_grouped ~name:"bdbms" ~fmt:"%s %s" (bechamel_tests ()) in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  print_endline "\nBechamel micro-timings (monotonic clock, ns/run):";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "  %-40s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    results

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let want_bechamel = List.mem "--bechamel" args in
  let want_ablation = List.mem "--ablation" args in
  Bench_util.deterministic := List.mem "--deterministic" args;
  let selected = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (name, _) -> List.mem name selected) experiments
  in
  if selected <> [] && to_run = [] then begin
    Printf.eprintf "no such experiment; known: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  if not ((want_bechamel || want_ablation) && selected = []) then begin
    print_endline "bdbms benchmark harness -- reproduces the paper's quantitative claims";
    print_endline "(I/O counts are page accesses on the simulated disk; see DESIGN.md)";
    List.iter (fun (_, run) -> run ()) to_run
  end;
  if want_ablation then Ablations.run ();
  if want_bechamel then run_bechamel ()
