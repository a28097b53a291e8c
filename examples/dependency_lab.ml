(* Local dependency tracking (Section 5, Figures 1, 9, 10):

   Gene.GSequence --(prediction tool P: executable)--> Protein.PSequence
   Protein.PSequence --(lab experiment: NOT executable)--> Protein.PFunction
   (Gene1, Gene2)   --(BLAST-2.2.15: executable)-------> GeneMatching.Evalue

   Editing a gene sequence re-runs the real genetic-code translation to
   refresh the protein sequence, marks the lab-derived function outdated
   (Figure 10's bitmap), and outdated cells arrive annotated in query
   answers.  Upgrading BLAST re-evaluates every E-value automatically.

   Run with: dune exec examples/dependency_lab.exe *)

open Bdbms
module Translate = Bdbms_bio.Translate
module Dna = Bdbms_bio.Dna
module Prng = Bdbms_util.Prng

let show db sql = Printf.printf "asql> %s\n%s\n\n" sql (Db.render_exn db sql)

let () =
  print_endline "=== bdbms dependency lab: procedural dependencies ===\n"

(* "LabExperiment" is deliberately NOT a built-in procedure: the paper's
   point is that such derivations are not executable by the database.  We
   register it as a non-executable procedure, so the tracker can only mark
   its targets outdated. *)
let () =
  let db = Db.create () in
  let rng = Prng.create 2007 in
  let gene1 = Dna.random_gene rng ~codons:8 in
  let gene2 = Dna.random_gene rng ~codons:8 in
  let protein1 =
    match Translate.translate gene1 with Ok p -> p | Error e -> failwith e
  in
  ignore
    (Bdbms_asql.Context.register_procedure (Db.context db)
       (Bdbms_dependency.Procedure.non_executable ~name:"LabExperiment"
          ~description:"protein function assay" ()));
  (match
     Db.exec_script db
       (Printf.sprintf
          {|
          CREATE TABLE Gene (GID TEXT, GSequence DNA);
          CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence PROTEIN, PFunction TEXT);
          CREATE TABLE GeneMatching (Gene1 TEXT, Gene2 TEXT, Evalue FLOAT);
          INSERT INTO Gene VALUES ('JW0080', '%s'), ('JW0055', '%s');
          INSERT INTO Protein VALUES ('mraW', 'JW0080', '%s', 'Exhibitor');
          INSERT INTO GeneMatching VALUES ('%s', '%s', 0.0);
          CREATE DEPENDENCY r1 FROM Gene.GSequence TO Protein.PSequence USING P;
          CREATE DEPENDENCY r2 FROM Protein.PSequence TO Protein.PFunction USING LabExperiment;
          CREATE DEPENDENCY r3 FROM GeneMatching.Gene1, GeneMatching.Gene2 TO GeneMatching.Evalue USING BLAST;
          LINK DEPENDENCY r1 FROM (0) TO 0;
          LINK DEPENDENCY r2 FROM (0) TO 0;
          LINK DEPENDENCY r3 FROM (0, 0) TO 0;
          |}
          gene1 gene2 protein1 gene1 gene2)
   with
  | Ok _ -> ()
  | Error e -> failwith e);

  print_endline "--- rules, including the derived rule 4 (non-executable chain) ---\n";
  show db "SHOW DEPENDENCIES";

  print_endline "--- before: protein derived from the gene ---\n";
  show db "SELECT PName, PSequence, PFunction FROM Protein";

  print_endline "--- a curator edits the gene sequence ---\n";
  let gene1' = Dna.random_gene rng ~codons:8 in
  show db (Printf.sprintf "UPDATE Gene SET GSequence = '%s' WHERE GID = 'JW0080'" gene1');

  print_endline
    "--- PSequence was RE-DERIVED by tool P; PFunction is marked outdated and\n\
    \    arrives annotated (Section 5's reporting requirement) ---\n";
  show db "SELECT PName, PSequence, PFunction FROM Protein";
  show db "SHOW OUTDATED Protein";

  print_endline "--- the lab re-runs the assay and validates the value ---\n";
  show db "VALIDATE Protein ROW 0 COLUMN PFunction";
  show db "SHOW OUTDATED Protein";

  print_endline "--- figure 9b: upgrading BLAST re-evaluates every E-value ---\n";
  show db "SELECT Gene1, Gene2, Evalue FROM GeneMatching" |> ignore;
  let ctx = Db.context db in
  let tracker = ctx.Bdbms_asql.Context.tracker in
  (match
     Bdbms_dependency.Procedure.Registry.find
       (Bdbms_dependency.Tracker.registry tracker) "BLAST"
   with
  | Some blast ->
      Bdbms_dependency.Procedure.set_version blast "2.3.0";
      (* re-evaluated E-values are written like any other cell, so an
         index on GeneMatching would follow them *)
      let report =
        Bdbms_dependency.Tracker.on_procedure_change tracker
          ~write:(Bdbms_asql.Write.derive ctx) "BLAST"
      in
      Printf.printf "BLAST upgraded to 2.3.0: %d value(s) re-evaluated\n\n"
        (List.length report.Bdbms_dependency.Tracker.recomputed)
  | None -> failwith "BLAST not registered");
  show db "SELECT Gene1, Gene2, Evalue FROM GeneMatching";

  print_endline "dependency lab complete."
