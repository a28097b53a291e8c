(* E21 — Statement-level dependency cascades (paper Section 5).

   Not a paper experiment: it measures what one A-SQL statement pays for
   the dependency manager.  Two tables, gene (gid, gs) and protein (pid,
   ps, pf), with gene row i feeding protein row i through rule r1 (gene.gs
   --P--> protein.ps, executable) and r2 (protein.ps --Lab--> protein.pf,
   not executable).  Through [Db.exec], on an in-memory database:

   - UPDATE gene SET gs = ... over every row: P re-derives each ps and each
     pf is marked outdated;
   - DELETE FROM gene: no ps can be derived from a gone row, so every ps
     and pf is marked.

   Each runs on the linked tables and on the same tables with no rule, at
   2,000 and 4,000 rows; the ms column is the median of three runs, each on
   a fresh database.  Beside it are the statement's [dep_derivations] and
   [dep_bitmap_flushes] counts.  The guard checks only those counts, which
   are deterministic: a statement derives each executable target once (the
   UPDATE's n values of ps, none for the DELETE) and stores each bitmap it
   touched once (protein's, on the linked tables; none on the unlinked).
   Pass --quick for the reduced sizes used by `make bench-quick`. *)

open Bench_util
module Db = Bdbms.Db
module Stats = Bdbms_obs.Stats
module Context = Bdbms_asql.Context
module Tracker = Bdbms_dependency.Tracker
module Procedure = Bdbms_dependency.Procedure

let quick = Array.exists (String.equal "--quick") Sys.argv

let exec db sql =
  match Db.exec db sql with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "E21: %s -- for: %s" e sql)

let insert_rows db table n row =
  let chunk = 500 in
  let rec go i =
    if i < n then begin
      let k = min chunk (n - i) in
      exec db
        (Printf.sprintf "INSERT INTO %s VALUES %s" table
           (String.concat ", " (List.init k (fun j -> row (i + j)))));
      go (i + k)
    end
  in
  go 0

(* gene and protein with [n] rows each; when [linked], row i of gene
   feeds row i of protein through r1 and r2 *)
let setup ~linked n =
  let db = Db.create () in
  exec db "CREATE TABLE gene (gid INT, gs DNA)";
  exec db "CREATE TABLE protein (pid INT, ps PROTEIN, pf TEXT)";
  insert_rows db "gene" n (fun i -> Printf.sprintf "(%d, 'ATGGCCAAA')" i);
  insert_rows db "protein" n (fun i -> Printf.sprintf "(%d, 'MAK', 'kinase')" i);
  if linked then begin
    let ctx = Db.context db in
    ignore
      (Context.register_procedure ctx
         (Procedure.non_executable ~name:"Lab" ~description:"wet-lab assay" ()));
    exec db "CREATE DEPENDENCY r1 FROM gene.gs TO protein.ps USING P";
    exec db "CREATE DEPENDENCY r2 FROM protein.ps TO protein.pf USING Lab";
    for i = 0 to n - 1 do
      List.iter
        (fun rule_id ->
          match Tracker.link_rows ctx.Context.tracker ~rule_id ~source_rows:[ i ] ~target_row:i with
          | Ok () -> ()
          | Error e -> failwith ("E21: link: " ^ e))
        [ "r1"; "r2" ]
    done
  end;
  db

let statements =
  [ ("UPDATE", "UPDATE gene SET gs = 'ATGAAAGCC'"); ("DELETE", "DELETE FROM gene") ]

(* median ms of three fresh runs, with the last run's counter deltas *)
let measure ~linked n sql =
  let runs =
    List.init 3 (fun _ ->
        let db = setup ~linked n in
        let before = Db.io_stats db in
        let (), us = time_us (fun () -> exec db sql) in
        let d = Stats.diff ~after:(Db.io_stats db) ~before in
        Db.close db;
        (us /. 1000., d.Stats.dep_derivations, d.Stats.dep_bitmap_flushes))
  in
  let ms = List.sort Float.compare (List.map (fun (ms, _, _) -> ms) runs) in
  let _, derivations, flushes = List.nth runs 2 in
  (List.nth ms 1, derivations, flushes)

let run () =
  let sizes = if quick then [ 2000; 4000 ] else [ 2000; 4000; 8000 ] in
  let results =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun linked ->
            List.map
              (fun (verb, sql) ->
                let ms, derivations, flushes = measure ~linked n sql in
                (n, linked, verb, ms, derivations, flushes))
              statements)
          [ true; false ])
      sizes
  in
  print_table
    ~title:
      "E21. One dependency cascade per statement: gene edits through r1 (P) and r2 (Lab), \
       median of 3"
    ~headers:[ "rows"; "tables"; "statement"; "ms"; "derivations"; "bitmap flushes" ]
    ~rows:
      (List.map
         (fun (n, linked, verb, ms, derivations, flushes) ->
           [
             fmt_i n; (if linked then "linked" else "unlinked"); verb; fmt_f ms;
             fmt_i derivations; fmt_i flushes;
           ])
         results);
  Printf.printf "BENCH_cascade {\"rows\": [%s]}\n"
    (String.concat ", "
       (List.map
          (fun (n, linked, verb, ms, derivations, flushes) ->
            Printf.sprintf
              "{\"n\": %d, \"linked\": %b, \"stmt\": %S, \"ms\": %.2f, \
               \"dep_derivations\": %d, \"dep_bitmap_flushes\": %d}"
              n linked verb ms derivations flushes)
          results));

  (* ------------------------------------------------------------ guard *)
  let wrong =
    List.filter_map
      (fun (n, linked, verb, _, derivations, flushes) ->
        let want_derivations = if linked && verb = "UPDATE" then n else 0 in
        let want_flushes = if linked then 1 else 0 in
        if derivations = want_derivations && flushes = want_flushes then None
        else
          Some
            (Printf.sprintf "%s on %d %s rows: %d derivations (want %d), %d flushes (want %d)"
               verb n (if linked then "linked" else "unlinked") derivations want_derivations
               flushes want_flushes))
      results
  in
  if wrong <> [] then begin
    List.iter (Printf.eprintf "E21 GUARD FAILED: %s\n") wrong;
    exit 1
  end;
  print_endline
    "E21 guard: each statement derives each target once and stores each touched bitmap once"
