(* Tests for bdbms_dependency, built around the paper's Figure 9 scenario:
   Gene --(prediction tool P)--> Protein.PSequence --(lab)--> PFunction,
   and (Gene1, Gene2) --(BLAST)--> Evalue. *)

open Bdbms_dependency
module Catalog = Bdbms_relation.Catalog
module Table = Bdbms_relation.Table
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Value = Bdbms_relation.Value

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let v s = Value.VString s

(* A tiny deterministic "prediction tool": translate a DNA sequence into a
   fake protein by mapping codon first letters. *)
let translate_body inputs =
  match inputs with
  | [ Value.VDna dna ] | [ Value.VString dna ] ->
      let n = String.length dna / 3 in
      Ok
        (Value.VProtein
           (String.init n (fun i ->
                match dna.[i * 3] with
                | 'A' -> 'M'
                | 'C' -> 'K'
                | 'G' -> 'V'
                | _ -> 'L')))
  | _ -> Error "translate: expected one DNA input"

let blast_body inputs =
  match inputs with
  | [ a; b ] ->
      let sa = Value.as_string a and sb = Value.as_string b in
      let matches = ref 0 in
      let n = min (String.length sa) (String.length sb) in
      for i = 0 to n - 1 do
        if sa.[i] = sb.[i] then incr matches
      done;
      Ok (Value.VFloat (1.0 /. float_of_int (1 + !matches)))
  | _ -> Error "blast: expected two inputs"

let mk_env () =
  let d = Bdbms_storage.Disk.create ~page_size:1024 ~pool_pages:64 () in
  let bp = Bdbms_storage.Disk.pager d in
  let catalog = Catalog.create bp in
  let gene =
    match
      Catalog.create_table catalog ~name:"Gene"
        (Schema.make
           [
             { Schema.name = "GID"; ty = Value.TString };
             { Schema.name = "GSequence"; ty = Value.TDna };
           ])
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let protein =
    match
      Catalog.create_table catalog ~name:"Protein"
        (Schema.make
           [
             { Schema.name = "PName"; ty = Value.TString };
             { Schema.name = "GID"; ty = Value.TString };
             { Schema.name = "PSequence"; ty = Value.TProtein };
             { Schema.name = "PFunction"; ty = Value.TString };
           ])
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  (catalog, gene, protein)

let tool_p () = Procedure.executable ~name:"P" translate_body
let lab () = Procedure.non_executable ~name:"LabExperiment" ~description:"lab experiment" ()

let rule1 () =
  Rule.make ~id:"r1"
    ~sources:[ Rule.attr "Gene" "GSequence" ]
    ~target:(Rule.attr "Protein" "PSequence")
    (tool_p ())

let rule2 () =
  Rule.make ~id:"r2"
    ~sources:[ Rule.attr "Protein" "PSequence" ]
    ~target:(Rule.attr "Protein" "PFunction")
    (lab ())

(* ------------------------------------------------------------ procedures *)

let test_procedure_basics () =
  let p = tool_p () in
  checkb "executable" true (Procedure.is_executable p);
  (match Procedure.run p [ Value.VDna "ATGGGA" ] with
  | Ok (Value.VProtein s) -> checks "translated" "MV" s
  | _ -> Alcotest.fail "translation failed");
  let l = lab () in
  checkb "not executable" false (Procedure.is_executable l);
  (match Procedure.run l [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "running a lab experiment should fail");
  checks "describe" "P-1 (executable, non-invertible)" (Procedure.describe p)

let test_procedure_registry () =
  let reg = Procedure.Registry.create () in
  checkb "register" true (Result.is_ok (Procedure.Registry.register reg (tool_p ())));
  checkb "duplicate" true (Result.is_error (Procedure.Registry.register reg (tool_p ())));
  checkb "find" true (Procedure.Registry.find reg "P" <> None);
  Alcotest.(check (list string)) "names" [ "P" ] (Procedure.Registry.names reg)

(* ----------------------------------------------------------------- rules *)

let test_rule_compose () =
  let r1 = rule1 () and r2 = rule2 () in
  (* the paper's Rule 4 = Rule 1 then Rule 2 *)
  (match Rule.compose ~id:"r4" r1 r2 with
  | Some r4 ->
      checkb "sources" true (List.exists (Rule.attr_equal (Rule.attr "Gene" "GSequence")) r4.Rule.sources);
      checkb "target" true (Rule.attr_equal r4.Rule.target (Rule.attr "Protein" "PFunction"));
      checki "chain length" 2 (List.length r4.Rule.chain);
      (* non-executable because the lab experiment is not *)
      checkb "chain not executable" false (Rule.chain_executable r4);
      checkb "derived" true r4.Rule.derived
  | None -> Alcotest.fail "compose failed");
  (* r2 then r1 does not compose *)
  checkb "wrong order" true (Rule.compose ~id:"x" r2 (rule1 ()) = None)

let test_rule_set_closures () =
  let rs = Rule_set.create () in
  checkb "add r1" true (Result.is_ok (Rule_set.add rs (rule1 ())));
  checkb "add r2" true (Result.is_ok (Rule_set.add rs (rule2 ())));
  (* attribute closure of Gene.GSequence = PSequence and PFunction *)
  let closure = Rule_set.attribute_closure rs [ Rule.attr "Gene" "GSequence" ] in
  checki "closure size" 2 (List.length closure);
  checkb "includes PFunction" true
    (List.exists (Rule.attr_equal (Rule.attr "Protein" "PFunction")) closure);
  (* procedure closure of P = everything derived through it *)
  let pc = Rule_set.procedure_closure rs "P" in
  checki "P closure" 2 (List.length pc);
  let lab_pc = Rule_set.procedure_closure rs "LabExperiment" in
  checki "lab closure" 1 (List.length lab_pc);
  (* derived rules contain Rule 4 *)
  let derived = Rule_set.derived_rules rs in
  checki "one derived rule" 1 (List.length derived);
  checkb "derived is rule 4" true
    (Rule.attr_equal (List.hd derived).Rule.target (Rule.attr "Protein" "PFunction"))

let test_rule_set_conflict_and_cycle () =
  let rs = Rule_set.create () in
  ignore (Rule_set.add rs (rule1 ()));
  (* conflict: a second rule deriving Protein.PSequence *)
  let dup =
    Rule.make ~id:"dup" ~sources:[ Rule.attr "X" "a" ]
      ~target:(Rule.attr "Protein" "PSequence") (tool_p ())
  in
  checkb "conflict rejected" true (Result.is_error (Rule_set.add rs dup));
  (* cycle: PSequence -> GSequence would close the loop *)
  let back =
    Rule.make ~id:"back"
      ~sources:[ Rule.attr "Protein" "PSequence" ]
      ~target:(Rule.attr "Gene" "GSequence") (tool_p ())
  in
  checkb "cycle rejected" true (Result.is_error (Rule_set.add rs back));
  (* self-loop *)
  let self =
    Rule.make ~id:"self" ~sources:[ Rule.attr "T" "c" ] ~target:(Rule.attr "T" "c")
      (tool_p ())
  in
  checkb "self loop rejected" true (Result.is_error (Rule_set.add rs self))

(* --------------------------------------------------------------- bitmaps *)

let test_outdated_bitmap () =
  let _, gene, _ = mk_env () in
  ignore (Table.insert gene (Tuple.make [ v "g1"; Value.VDna "ATG" ]));
  ignore (Table.insert gene (Tuple.make [ v "g2"; Value.VDna "CCC" ]));
  let b = Outdated.create gene in
  checki "clean" 0 (Outdated.outdated_count b);
  Outdated.mark b ~row:1 ~col:1;
  checkb "marked" true (Outdated.is_outdated b ~row:1 ~col:1);
  checkb "other clean" false (Outdated.is_outdated b ~row:0 ~col:0);
  (* growth: marking a row beyond the bitmap *)
  Outdated.mark b ~row:10 ~col:0;
  checkb "grown" true (Outdated.is_outdated b ~row:10 ~col:0);
  Outdated.clear b ~row:1 ~col:1;
  checki "one left" 1 (Outdated.outdated_count b);
  checkb "compressed <= raw for sparse bitmap" true
    (Outdated.compressed_size_bytes b <= Outdated.raw_size_bytes b + 8)

(* A stored bitmap reattaches from its fixed-size head: the marked count
   is answered from the head with no page read, the cells from the RLE
   pages. *)
let test_outdated_reattach () =
  let _, gene, _ = mk_env () in
  for i = 0 to 299 do
    ignore (Table.insert gene (Tuple.make [ v (Printf.sprintf "g%d" i); Value.VDna "ATG" ]))
  done;
  let b = Outdated.create gene in
  checkb "no head before a mark" true (Outdated.head b = None);
  (* scattered marks: an RLE form longer than one 1 KiB page *)
  List.iter (fun i -> Outdated.mark b ~row:(2 * i) ~col:(i mod 2)) (List.init 700 Fun.id);
  Outdated.clear b ~row:4 ~col:0;
  checki "marks" 699 (Outdated.outdated_count b);
  Outdated.flush b;
  let bp = Table.pager gene in
  let h = match Outdated.head b with Some h -> h | None -> Alcotest.fail "no head" in
  checkb "the RLE form spans pages" true (h.Outdated.pages > 1);
  let accesses () =
    let s = Bdbms_obs.Stats.snapshot (Bdbms_storage.Pager.stats bp) in
    s.Bdbms_obs.Stats.reads + s.Bdbms_obs.Stats.hits
  in
  let before = accesses () in
  let b' = Outdated.attach bp ~name:"Gene" h in
  checki "count from the head" (Outdated.outdated_count b) (Outdated.outdated_count b');
  checki "attach and count read no page" before (accesses ());
  checkb "same cells" true (Outdated.outdated_cells b = Outdated.outdated_cells b');
  (* a mark after reattaching is stored again *)
  Outdated.mark b' ~row:4 ~col:0;
  Outdated.flush b';
  let h' = match Outdated.head b' with Some h -> h | None -> Alcotest.fail "no head" in
  let b'' = Outdated.attach bp ~name:"Gene" h' in
  checkb "re-marked cell stored" true (Outdated.is_outdated b'' ~row:4 ~col:0);
  checki "count" (Outdated.outdated_count b + 1) (Outdated.outdated_count b'')

(* The paged instance graph against a list model: random links (some
   re-linking a target) over a two-source and a one-source rule through
   128-byte pages and a 4-frame pool, compared live and after reattaching
   from the heads. *)
let test_dep_graph_vs_model () =
  let d = Bdbms_storage.Disk.create ~page_size:128 ~pool_pages:4 () in
  let bp = Bdbms_storage.Disk.pager d in
  let g = Dep_graph.create bp in
  let cell table row col = Dep_graph.cell ~table ~row ~col in
  let model = Hashtbl.create 64 in
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 600 do
    let inst =
      if Random.State.bool rng then
        let t = Random.State.int rng 300 in
        { Dep_graph.rule_id = "blast";
          sources = [ cell "pair" (Random.State.int rng 40) 0; cell "pair" (Random.State.int rng 40) 1 ];
          target = cell "pair" t 2 }
      else
        { Dep_graph.rule_id = "p";
          sources = [ cell "gene" (Random.State.int rng 50) 1 ];
          target = cell "protein" (Random.State.int rng 200) 2 }
    in
    Dep_graph.add_instance g inst;
    Hashtbl.replace model (inst.Dep_graph.rule_id, inst.Dep_graph.target) inst
  done;
  let sorted l = List.sort compare l in
  let check what g =
    let all = Hashtbl.fold (fun _ i acc -> i :: acc) model [] in
    checki (what ^ ": count") (List.length all) (Dep_graph.instance_count g);
    let seen = ref [] in
    Dep_graph.iter_instances g (fun i -> seen := i :: !seen);
    checkb (what ^ ": iter") true (sorted !seen = sorted all);
    (* a lone cell is one prefix probe, a block of rows one range scan *)
    let probe srcs =
      let expect =
        List.filter (fun i -> List.exists (fun s -> List.mem s srcs) i.Dep_graph.sources) all
      in
      checkb (what ^ ": instances_from") true
        (sorted (List.sort_uniq compare (Dep_graph.instances_from g srcs)) = sorted expect)
    in
    for r = 0 to 49 do probe [ cell "gene" r 1 ] done;
    for r = 0 to 39 do probe [ cell "pair" r 0 ]; probe [ cell "pair" r 1 ] done;
    probe (List.init 50 (fun r -> cell "gene" r 1));
    probe
      (List.init 20 (fun r -> cell "pair" (2 * r) 0)
      @ [ cell "pair" 9 0; cell "pair" 11 0; cell "gene" 7 1; cell "pair" 3 1 ]);
    for r = 0 to 199 do
      checkb (what ^ ": instance_for_target") true
        (Dep_graph.instance_for_target g (cell "protein" r 2)
        = Hashtbl.find_opt model ("p", cell "protein" r 2))
    done;
    checki (what ^ ": no pin leaked") 0 (Bdbms_storage.Pager.pinned bp)
  in
  check "live" g;
  let g' = Dep_graph.create bp in
  List.iter (Dep_graph.attach g') (Dep_graph.heads g);
  check "reattached" g';
  checkb "a shape mismatch is refused" true
    (match
       Dep_graph.add_instance g'
         { Dep_graph.rule_id = "p"; sources = [ cell "gene" 0 0 ]; target = cell "protein" 0 2 }
     with
    | () -> false
    | exception Invalid_argument _ -> true)

(* What the paged form costs: a one-source rule linking 2,000 rows in
   order (the curation shape) stays within the ~55 bytes per instance of
   the catalog record it replaced. *)
let test_dep_graph_space () =
  let d = Bdbms_storage.Disk.create ~page_size:4096 () in
  let bp = Bdbms_storage.Disk.pager d in
  let g = Dep_graph.create bp in
  let before = Bdbms_storage.Disk.page_count d in
  for i = 0 to 1_999 do
    Dep_graph.add_instance g
      { Dep_graph.rule_id = "r1";
        sources = [ Dep_graph.cell ~table:"gene" ~row:i ~col:1 ];
        target = Dep_graph.cell ~table:"protein" ~row:i ~col:2 }
  done;
  let bytes = (Bdbms_storage.Disk.page_count d - before) * 4096 in
  checkb (Printf.sprintf "%d B per instance <= 55" (bytes / 2_000)) true (bytes / 2_000 <= 55)

(* --------------------------------------------------------------- tracker *)

(* The tracker's cell writer over a bare catalog, which keeps no index
   or statistics. *)
let write_cell catalog (c : Dep_graph.cell) value =
  Result.map ignore
    (Table.update_cell
       (Catalog.find_exn catalog c.Dep_graph.table)
       ~row:c.Dep_graph.row ~col:c.Dep_graph.col value)

let setup_tracker () =
  let catalog, gene, protein = mk_env () in
  let tracker = Tracker.create catalog in
  checkb "add rule1" true (Result.is_ok (Tracker.add_rule tracker (rule1 ())));
  checkb "add rule2" true (Result.is_ok (Tracker.add_rule tracker (rule2 ())));
  (* paper's data: three genes and their proteins *)
  let g0 =
    match Table.insert gene (Tuple.make [ v "JW0080"; Value.VDna "ATGATGGAAAAA" ]) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let translate dna =
    match translate_body [ Value.VDna dna ] with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let p0 =
    match
      Table.insert protein
        (Tuple.make [ v "mraW"; v "JW0080"; translate "ATGATGGAAAAA"; v "Exhibitor" ])
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* instance links: gene row 0 feeds protein row 0 *)
  checkb "link r1" true
    (Result.is_ok (Tracker.link_rows tracker ~rule_id:"r1" ~source_rows:[ g0 ] ~target_row:p0));
  checkb "link r2" true
    (Result.is_ok (Tracker.link_rows tracker ~rule_id:"r2" ~source_rows:[ p0 ] ~target_row:p0));
  (catalog, gene, protein, tracker, g0, p0)

let test_tracker_figure9_cascade () =
  let catalog, gene, protein, tracker, g0, p0 = setup_tracker () in
  (* modify the gene sequence *)
  (match Table.update_cell gene ~row:g0 ~col:1 (Value.VDna "CCCGGGAAA") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let report = Tracker.on_cell_update tracker ~write:(write_cell catalog) ~table:"Gene" ~row:g0 ~col:1 in
  (* PSequence recomputed automatically by tool P *)
  checki "one recomputed" 1 (List.length report.Tracker.recomputed);
  (match Table.get protein p0 with
  | Some tuple -> checks "new PSequence" "KVM" (Value.to_display (Tuple.get tuple 2))
  | None -> Alcotest.fail "protein row gone");
  (* PSequence itself is NOT outdated (it was auto-updated)... *)
  checkb "PSequence fresh" false (Tracker.is_outdated tracker ~table:"Protein" ~row:p0 ~col:2);
  (* ...but PFunction is marked outdated (lab experiment, Figure 10) *)
  checkb "PFunction outdated" true
    (Tracker.is_outdated tracker ~table:"Protein" ~row:p0 ~col:3);
  checkb "PFunction in marked list" true
    (List.exists
       (fun c -> c.Dep_graph.table = "protein" && c.Dep_graph.col = 3)
       report.Tracker.marked)

let test_tracker_revalidate () =
  let catalog, gene, _, tracker, g0, p0 = setup_tracker () in
  ignore (Table.update_cell gene ~row:g0 ~col:1 (Value.VDna "CCC"));
  ignore (Tracker.on_cell_update tracker ~write:(write_cell catalog) ~table:"Gene" ~row:g0 ~col:1);
  checkb "outdated" true (Tracker.is_outdated tracker ~table:"Protein" ~row:p0 ~col:3);
  (* the curator re-verifies the function without changing it *)
  Tracker.revalidate tracker ~table:"Protein" ~row:p0 ~col:3;
  checkb "valid again" false (Tracker.is_outdated tracker ~table:"Protein" ~row:p0 ~col:3);
  checki "no outdated cells" 0 (List.length (Tracker.outdated_cells tracker ~table:"Protein"))

let test_tracker_direct_update_clears () =
  let catalog, gene, protein, tracker, g0, p0 = setup_tracker () in
  ignore (Table.update_cell gene ~row:g0 ~col:1 (Value.VDna "CCC"));
  ignore (Tracker.on_cell_update tracker ~write:(write_cell catalog) ~table:"Gene" ~row:g0 ~col:1);
  checkb "outdated" true (Tracker.is_outdated tracker ~table:"Protein" ~row:p0 ~col:3);
  (* the lab re-runs the experiment and stores a fresh function value *)
  ignore (Table.update_cell protein ~row:p0 ~col:3 (v "Methyltransferase"));
  ignore (Tracker.on_cell_update tracker ~write:(write_cell catalog) ~table:"Protein" ~row:p0 ~col:3);
  checkb "fresh after direct update" false
    (Tracker.is_outdated tracker ~table:"Protein" ~row:p0 ~col:3)

let test_tracker_procedure_change () =
  (* Figure 9b: Evalue depends on BLAST-2.2.15; upgrading BLAST re-evaluates *)
  let d = Bdbms_storage.Disk.create ~page_size:1024 ~pool_pages:64 () in
  let bp = Bdbms_storage.Disk.pager d in
  let catalog = Catalog.create bp in
  let gm =
    match
      Catalog.create_table catalog ~name:"GeneMatching"
        (Schema.make
           [
             { Schema.name = "Gene1"; ty = Value.TString };
             { Schema.name = "Gene2"; ty = Value.TString };
             { Schema.name = "Evalue"; ty = Value.TFloat };
           ])
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let tracker = Tracker.create catalog in
  let blast = Procedure.executable ~name:"BLAST" ~version:"2.2.15" blast_body in
  let r3 =
    Rule.make ~id:"r3"
      ~sources:[ Rule.attr "GeneMatching" "Gene1"; Rule.attr "GeneMatching" "Gene2" ]
      ~target:(Rule.attr "GeneMatching" "Evalue")
      blast
  in
  checkb "add r3" true (Result.is_ok (Tracker.add_rule tracker r3));
  let row =
    match Table.insert gm (Tuple.make [ v "ATCC"; v "ATCG"; Value.VFloat 0.0 ]) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  checkb "link" true
    (Result.is_ok
       (Tracker.link tracker ~rule_id:"r3" ~sources:[ (row, 0); (row, 1) ] ~target:(row, 2)));
  (* a BLAST upgrade re-executes and refreshes Evalue automatically *)
  Procedure.set_version blast "2.3.0";
  let report = Tracker.on_procedure_change tracker ~write:(write_cell catalog) "BLAST" in
  checki "recomputed" 1 (List.length report.Tracker.recomputed);
  (match Table.get gm row with
  | Some tuple ->
      (* 3 matching positions -> 1/4 *)
      checkb "evalue" true (Value.as_float (Tuple.get tuple 2) = 0.25)
  | None -> Alcotest.fail "row gone");
  checkb "not outdated" false (Tracker.is_outdated tracker ~table:"GeneMatching" ~row ~col:2)

let test_tracker_non_executable_procedure_change () =
  let catalog, _, _, tracker, _, p0 = setup_tracker () in
  (* the lab protocol changed: everything derived by it goes stale *)
  let report = Tracker.on_procedure_change tracker ~write:(write_cell catalog) "LabExperiment" in
  checkb "marked" true (report.Tracker.marked <> []);
  checkb "PFunction stale" true (Tracker.is_outdated tracker ~table:"Protein" ~row:p0 ~col:3)

let test_tracker_multi_source_blast () =
  let _, _, _, tracker, _, _ = setup_tracker () in
  (* linking with wrong arity fails *)
  checkb "bad arity" true
    (Result.is_error (Tracker.link_rows tracker ~rule_id:"r1" ~source_rows:[ 0; 1 ] ~target_row:0));
  checkb "unknown rule" true
    (Result.is_error (Tracker.link_rows tracker ~rule_id:"nope" ~source_rows:[ 0 ] ~target_row:0))

let test_tracker_bitmap_stats () =
  let catalog, gene, _, tracker, g0, _ = setup_tracker () in
  ignore (Table.update_cell gene ~row:g0 ~col:1 (Value.VDna "CCC"));
  ignore (Tracker.on_cell_update tracker ~write:(write_cell catalog) ~table:"Gene" ~row:g0 ~col:1);
  match Tracker.bitmap_stats tracker ~table:"Protein" with
  | Some (raw, compressed) ->
      checkb "raw positive" true (raw > 0);
      checkb "compressed positive" true (compressed > 0)
  | None -> Alcotest.fail "no bitmap for Protein"

(* ------------------------------------------------------- cascade laws *)

(* The dependency cascade runs once per statement.  Its laws, checked
   through A-SQL on E8's chains: gene rows feed protein rows through rules
   ending in the non-executable Lab — at depth 1 gene.gs --Lab--> pf, at
   depth 2 gene.gs --P--> ps --Lab--> pf — and each protein picks its gene
   at random, so a gene feeds none, one or several proteins. *)

module Db = Bdbms.Db
module Stats = Bdbms_obs.Stats
module Context = Bdbms_asql.Context

let law_genes = 8
let law_proteins = 12
let law_seeds = 20

let chain_db ?(genes = law_genes) ~depth links =
  let db = Db.create ~page_size:1024 ~pool_pages:64 () in
  ignore
    (Context.register_procedure (Db.context db)
       (Procedure.non_executable ~name:"Lab" ~description:"wet-lab assay" ()));
  let e sql = ignore (Db.exec_exn db sql) in
  let rows n f = String.concat ", " (List.init n f) in
  e "CREATE TABLE gene (gid INT, gs DNA)";
  e "CREATE TABLE protein (pid INT, ps PROTEIN, pf TEXT)";
  e ("INSERT INTO gene VALUES " ^ rows genes (Printf.sprintf "(%d, 'ATGGCCAAA')"));
  e
    ("INSERT INTO protein VALUES "
    ^ rows (Array.length links) (Printf.sprintf "(%d, 'MAK', 'kinase')"));
  if depth = 1 then e "CREATE DEPENDENCY r1 FROM gene.gs TO protein.pf USING Lab"
  else begin
    e "CREATE DEPENDENCY r1 FROM gene.gs TO protein.ps USING P";
    e "CREATE DEPENDENCY r2 FROM protein.ps TO protein.pf USING Lab"
  end;
  Array.iteri
    (fun p g ->
      e (Printf.sprintf "LINK DEPENDENCY r1 FROM (%d) TO %d" g p);
      if depth = 2 then e (Printf.sprintf "LINK DEPENDENCY r2 FROM (%d) TO %d" p p))
    links;
  db

(* Run [sql], checking law (d): the statement stores each bitmap whose
   marks it changed, once. *)
let exec_law db sql =
  let marks () =
    List.map
      (fun table -> Tracker.outdated_cells (Db.context db).Context.tracker ~table)
      [ "gene"; "protein" ]
  in
  let before = marks () and s0 = Db.io_stats db in
  ignore (Db.exec_exn db sql);
  let touched =
    List.fold_left2 (fun n a b -> if a = b then n else n + 1) 0 before (marks ())
  in
  let d = Stats.diff ~after:(Db.io_stats db) ~before:s0 in
  checki (sql ^ ": one store per touched bitmap") touched d.Stats.dep_bitmap_flushes

(* A random non-empty subset of [0, n), ascending. *)
let subset rng n =
  match List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id) with
  | [] -> [ Random.State.int rng n ]
  | s -> s

(* One statement over a row set on [batch], one statement per row on
   [single]: [stmt "gid IN (...)"] against [stmt "gid = i"]. *)
let both batch single ~key rows stmt =
  exec_law batch
    (stmt (Printf.sprintf "%s IN (%s)" key (String.concat ", " (List.map string_of_int rows))));
  List.iter (fun i -> exec_law single (stmt (Printf.sprintf "%s = %d" key i))) rows

(* Random edit rounds: gene sequences P translates or cannot ('CCCGGG'
   has no start codon, so its dependents are marked), and curators
   storing fresh protein functions, which clears their marks. *)
let edit_rounds rng batch single =
  for _ = 1 to 5 do
    if Random.State.int rng 3 = 0 then
      both batch single ~key:"pid" (subset rng law_proteins)
        (Printf.sprintf "UPDATE protein SET pf = 'assayed' WHERE %s")
    else
      let gs = [| "ATGAAATGG"; "ATGGCCAAA"; "CCCGGG" |].(Random.State.int rng 3) in
      both batch single ~key:"gid" (subset rng law_genes)
        (Printf.sprintf "UPDATE gene SET gs = '%s' WHERE %s" gs)
  done

let same_state what batch single =
  Alcotest.(check string) what
    (Fixtures.fingerprint ~except:[ "clock"; "approval" ] single)
    (Fixtures.fingerprint ~except:[ "clock"; "approval" ] batch)

let for_each_chain f =
  List.iter
    (fun depth ->
      for seed = 1 to law_seeds do
        let rng = Random.State.make [| seed; depth |] in
        let links = Array.init law_proteins (fun _ -> Random.State.int rng law_genes) in
        f (Printf.sprintf "depth %d, seed %d" depth seed) rng (chain_db ~depth links)
          (chain_db ~depth links)
      done)
    [ 1; 2 ]

(* (a) One N-row UPDATE leaves the state of N one-row UPDATEs. *)
let test_law_update () =
  for_each_chain (fun what rng batch single ->
      edit_rounds rng batch single;
      same_state what batch single)

(* (b) So does one N-row DELETE against N one-row DELETEs, marks
   included, and the edits after it. *)
let test_law_delete () =
  for_each_chain (fun what rng batch single ->
      edit_rounds rng batch single;
      both batch single ~key:"gid" (subset rng law_genes)
        (Printf.sprintf "DELETE FROM gene WHERE %s");
      both batch single ~key:"pid" (subset rng law_proteins)
        (Printf.sprintf "DELETE FROM protein WHERE %s");
      same_state (what ^ ", after the deletes") batch single;
      edit_rounds rng batch single;
      same_state (what ^ ", after the deletes and edits") batch single)

let row_count db sql =
  match Db.exec_exn db sql with
  | Bdbms_asql.Executor.Rows rs -> Bdbms_annotation.Propagate.row_count rs
  | _ -> Alcotest.failf "expected rows for: %s" sql

(* (c) An UPDATE setting both sources of a two-source rule runs its
   procedure once per target, on the row's final values. *)
let test_law_two_sources () =
  let n = 6 in
  let db = Db.create () in
  let seen = ref [] in
  ignore
    (Context.register_procedure (Db.context db)
       (Procedure.executable ~name:"Pair" (fun inputs ->
            seen := List.map Value.as_string inputs :: !seen;
            Ok (v (String.concat "+" (List.map Value.as_string inputs))))));
  let e sql = ignore (Db.exec_exn db sql) in
  e "CREATE TABLE pair (a TEXT, b TEXT, s TEXT)";
  e ("INSERT INTO pair VALUES " ^ String.concat ", " (List.init n (fun _ -> "('a', 'b', '')")));
  e "CREATE DEPENDENCY j FROM pair.a, pair.b TO pair.s USING Pair";
  for i = 0 to n - 1 do
    e (Printf.sprintf "LINK DEPENDENCY j FROM (%d, %d) TO %d" i i i)
  done;
  seen := [];
  let s0 = Db.io_stats db in
  e "UPDATE pair SET a = 'x', b = 'y'";
  let d = Stats.diff ~after:(Db.io_stats db) ~before:s0 in
  checki "one derivation per target" n d.Stats.dep_derivations;
  checki "one procedure run per target" n (List.length !seen);
  checkb "every run saw the final row" true (List.for_all (( = ) [ "x"; "y" ]) !seen);
  checki "every target derived" 0 (row_count db "SELECT s FROM pair WHERE s <> 'x+y'")

(* (d) A statement stores each bitmap it touched once, however many cells
   it marks: 500 linked genes, one UPDATE and one DELETE. *)
let test_law_one_store () =
  let n = 500 in
  let db = chain_db ~genes:n ~depth:2 (Array.init n Fun.id) in
  List.iter
    (fun (sql, derivations) ->
      let s0 = Db.io_stats db in
      exec_law db sql;
      let d = Stats.diff ~after:(Db.io_stats db) ~before:s0 in
      checki (sql ^ ": derivations") derivations d.Stats.dep_derivations;
      checki (sql ^ ": stores") 1 d.Stats.dep_bitmap_flushes)
    [ ("UPDATE gene SET gs = 'ATGAAATGG'", n); ("DELETE FROM gene", 0) ];
  checki "every ps and pf outdated" (2 * n)
    (List.length (Tracker.outdated_cells (Db.context db).Context.tracker ~table:"protein"))

(* An UPDATE failing partway on an in-memory database keeps the cells it
   wrote, so their dependents still cascade: rows 0-3 get the new gs
   before 10 / (gid - 3) divides by zero on row 3. *)
let test_failed_update_cascades () =
  let db = chain_db ~depth:2 (Array.init law_genes Fun.id) in
  checkb "the UPDATE fails" true
    (Result.is_error (Db.exec db "UPDATE gene SET gs = 'ATGAAATGG', gid = 10 / (gid - 3)"));
  checki "rows 0-3 keep the new gs" 4 (row_count db "SELECT gid FROM gene WHERE gs = 'ATGAAATGG'");
  checki "their proteins re-derived" 4 (row_count db "SELECT pid FROM protein WHERE ps = 'MKW'");
  Alcotest.(check (list (pair int int)))
    "their functions marked"
    [ (0, 2); (1, 2); (2, 2); (3, 2) ]
    (List.sort compare
       (Tracker.outdated_cells (Db.context db).Context.tracker ~table:"protein"))

let () =
  Alcotest.run "bdbms_dependency"
    [
      ( "procedure",
        [
          Alcotest.test_case "basics" `Quick test_procedure_basics;
          Alcotest.test_case "registry" `Quick test_procedure_registry;
        ] );
      ( "rule",
        [
          Alcotest.test_case "compose (rule 4)" `Quick test_rule_compose;
          Alcotest.test_case "closures" `Quick test_rule_set_closures;
          Alcotest.test_case "conflict and cycle" `Quick test_rule_set_conflict_and_cycle;
        ] );
      ( "bitmap",
        [
          Alcotest.test_case "outdated bitmap" `Quick test_outdated_bitmap;
          Alcotest.test_case "stored bitmap reattaches" `Quick test_outdated_reattach;
        ] );
      ( "instances",
        [
          Alcotest.test_case "paged graph vs model" `Quick test_dep_graph_vs_model;
          Alcotest.test_case "bytes per instance" `Quick test_dep_graph_space;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "figure 9 cascade" `Quick test_tracker_figure9_cascade;
          Alcotest.test_case "revalidate" `Quick test_tracker_revalidate;
          Alcotest.test_case "direct update clears" `Quick test_tracker_direct_update_clears;
          Alcotest.test_case "procedure change (BLAST)" `Quick test_tracker_procedure_change;
          Alcotest.test_case "non-executable procedure change" `Quick
            test_tracker_non_executable_procedure_change;
          Alcotest.test_case "link errors" `Quick test_tracker_multi_source_blast;
          Alcotest.test_case "bitmap stats" `Quick test_tracker_bitmap_stats;
        ] );
      ( "cascade-laws",
        [
          Alcotest.test_case "(a) N-row UPDATE = N one-row UPDATEs" `Quick test_law_update;
          Alcotest.test_case "(b) N-row DELETE = N one-row DELETEs" `Quick test_law_delete;
          Alcotest.test_case "(c) two sources derive once" `Quick test_law_two_sources;
          Alcotest.test_case "(d) one store per touched bitmap" `Quick test_law_one_store;
          Alcotest.test_case "a failed UPDATE cascades its writes" `Quick
            test_failed_update_cascades;
        ] );
    ]
