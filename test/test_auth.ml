(* Tests for bdbms_auth: principals, GRANT/REVOKE, content-based approval
   (Section 6, Figure 11). *)

open Bdbms_auth
module Catalog = Bdbms_relation.Catalog
module Table = Bdbms_relation.Table
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Value = Bdbms_relation.Value
module Clock = Bdbms_util.Clock
module Db = Bdbms.Db
module Context = Bdbms_asql.Context
module Executor = Bdbms_asql.Executor

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let v s = Value.VString s

let mk_lab () =
  let principals = Principal.create () in
  List.iter (fun u -> ignore (Principal.add_user principals u)) [ "admin"; "alice"; "bob" ];
  ignore (Principal.add_group principals "lab_members");
  ignore (Principal.add_to_group principals ~user:"alice" ~group:"lab_members");
  ignore (Principal.add_to_group principals ~user:"bob" ~group:"lab_members");
  principals

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
  let principals = mk_lab () in
  let clock = Clock.create () in
  (gene, principals, clock)

(* ------------------------------------------------------------ principals *)

let test_principals () =
  let p = mk_lab () in
  checkb "user exists" true (Principal.user_exists p "alice");
  checkb "no ghost" false (Principal.user_exists p "mallory");
  checkb "member" true (Principal.member p ~user:"alice" ~group:"lab_members");
  checkb "admin not member" false (Principal.member p ~user:"admin" ~group:"lab_members");
  Alcotest.(check (list string)) "groups of alice" [ "lab_members" ] (Principal.groups_of p "alice");
  checkb "dup user" true (Result.is_error (Principal.add_user p "alice"));
  checkb "unknown member add" true
    (Result.is_error (Principal.add_to_group p ~user:"mallory" ~group:"lab_members"))

(* ------------------------------------------------------------------- acl *)

let test_acl_grant_revoke () =
  let p = mk_lab () in
  let acl = Acl.create p in
  checkb "grant group" true
    (Result.is_ok (Acl.grant acl Acl.Update ~table:"Gene" (Acl.Group "lab_members")));
  checkb "alice can update" true (Acl.allowed acl ~user:"alice" Acl.Update ~table:"Gene" ());
  checkb "admin cannot" false (Acl.allowed acl ~user:"admin" Acl.Update ~table:"Gene" ());
  checkb "wrong privilege" false (Acl.allowed acl ~user:"alice" Acl.Delete ~table:"Gene" ());
  checkb "revoke" true (Acl.revoke acl Acl.Update ~table:"Gene" (Acl.Group "lab_members"));
  checkb "after revoke" false (Acl.allowed acl ~user:"alice" Acl.Update ~table:"Gene" ());
  checkb "revoke again" false (Acl.revoke acl Acl.Update ~table:"Gene" (Acl.Group "lab_members"));
  checkb "unknown grantee" true
    (Result.is_error (Acl.grant acl Acl.Select ~table:"Gene" (Acl.User "mallory")))

let test_acl_column_scope () =
  let p = mk_lab () in
  let acl = Acl.create p in
  ignore (Acl.grant acl Acl.Update ~table:"Gene" ~columns:[ "GSequence" ] (Acl.User "alice"));
  checkb "allowed on column" true
    (Acl.allowed acl ~user:"alice" Acl.Update ~table:"Gene" ~column:"GSequence" ());
  checkb "denied on other column" false
    (Acl.allowed acl ~user:"alice" Acl.Update ~table:"Gene" ~column:"GID" ());
  checkb "denied table-wide" false (Acl.allowed acl ~user:"alice" Acl.Update ~table:"Gene" ())

(* -------------------------------------------------------------- approval *)

let test_approval_lifecycle () =
  let gene, principals, clock = mk_env () in
  let ap = Approval.create principals clock in
  checkb "start" true
    (Result.is_ok (Approval.start ap ~table:"Gene" ~approved_by:(Acl.User "admin") ()));
  checkb "double start" true
    (Result.is_error (Approval.start ap ~table:"Gene" ~approved_by:(Acl.User "admin") ()));
  checkb "monitored" true (Approval.monitored ap ~table:"Gene" ());
  (* alice inserts a row; it is applied immediately and logged *)
  let row =
    match Table.insert gene (Tuple.make [ v "JW0001"; Value.VDna "ATG" ]) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (match Approval.log_insert ap ~table:"Gene" ~row ~user:"alice" with
  | Some entry -> checkb "pending" true (entry.Approval.status = Approval.Pending)
  | None -> Alcotest.fail "insert not logged");
  checki "one pending" 1 (List.length (Approval.pending ap ()));
  (* data is visible while pending *)
  checkb "visible" true (Table.get gene row <> None);
  (* the admin approves *)
  let entry = List.hd (Approval.pending ap ()) in
  checkb "approve" true (Result.is_ok (Approval.approve ap entry.Approval.id ~by:"admin"));
  checki "no pending" 0 (List.length (Approval.pending ap ()));
  checkb "still visible" true (Table.get gene row <> None)

(* DISAPPROVE runs the logged change's inverse as an ordinary write, so
   these cases drive it through SQL: a lab database whose Gene table is
   under content approval by admin, with alice and bob as writers. *)
let mk_db () =
  let db = Db.create () in
  List.iter
    (fun sql -> ignore (Db.exec_exn db sql))
    [ "CREATE TABLE Gene (GID TEXT, GSequence DNA)"; "CREATE USER alice"; "CREATE USER bob" ];
  db

let exec ?(user = "admin") db sql = ignore (Db.exec_exn db ~user sql)

let table db name = Catalog.find_exn (Db.context db).Context.catalog name

let cell db name row col =
  match Table.get (table db name) row with
  | Some tuple -> Value.to_display (Tuple.get tuple col)
  | None -> Alcotest.failf "%s row %d is not live" name row

let only_pending db =
  match Db.exec_exn db "SHOW PENDING" with
  | Executor.Entries [ e ] -> e
  | _ -> Alcotest.fail "expected one pending entry"

let disapprove db (e : Approval.entry) =
  Db.exec db (Printf.sprintf "DISAPPROVE %d" e.Approval.id)

let status db (e : Approval.entry) =
  (Option.get (Approval.find (Db.context db).Context.approval e.Approval.id)).Approval.status

let test_approval_disapprove_insert () =
  let db = mk_db () in
  exec db "START CONTENT APPROVAL ON Gene APPROVED BY admin";
  exec db ~user:"bob" "INSERT INTO Gene VALUES ('bad', 'ATG')";
  let entry = only_pending db in
  checkb "disapprove" true (Result.is_ok (disapprove db entry));
  (* the inverse DELETE executed *)
  checkb "row gone" true (Table.get (table db "Gene") 0 = None);
  checkb "status" true (status db entry = Approval.Disapproved)

let test_approval_disapprove_update () =
  let db = mk_db () in
  exec db "INSERT INTO Gene VALUES ('JW1', 'AAA')";
  exec db "START CONTENT APPROVAL ON Gene APPROVED BY admin";
  (* alice updates the sequence *)
  exec db ~user:"alice" "UPDATE Gene SET GSequence = 'CCC' WHERE GID = 'JW1'";
  checkb "disapprove update" true (Result.is_ok (disapprove db (only_pending db)));
  (* old value restored by the generated inverse UPDATE *)
  checks "restored" "AAA" (cell db "Gene" 0 1)

let test_approval_disapprove_delete () =
  let db = mk_db () in
  exec db "INSERT INTO Gene VALUES ('JW0', 'AAA'), ('JW2', 'GGG'), ('JW3', 'TTT')";
  exec db "START CONTENT APPROVAL ON Gene APPROVED BY admin";
  exec db ~user:"bob" "DELETE FROM Gene WHERE GID = 'JW2'";
  checkb "row dead" true (Table.get (table db "Gene") 1 = None);
  checkb "disapprove delete" true (Result.is_ok (disapprove db (only_pending db)));
  (* the row came back at the same row number *)
  checks "resurrected" "JW2" (cell db "Gene" 1 0);
  checki "live rows" 3 (Table.live_count (table db "Gene"))

let test_approval_authorization () =
  let gene, principals, clock = mk_env () in
  let ap = Approval.create principals clock in
  ignore (Approval.start ap ~table:"Gene" ~approved_by:(Acl.User "admin") ());
  let row =
    match Table.insert gene (Tuple.make [ v "x"; Value.VDna "A" ]) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let entry = Option.get (Approval.log_insert ap ~table:"Gene" ~row ~user:"alice") in
  (* lab members cannot approve their own work *)
  checkb "alice cannot approve" true
    (Result.is_error (Approval.approve ap entry.Approval.id ~by:"alice"));
  checkb "admin can" true (Result.is_ok (Approval.approve ap entry.Approval.id ~by:"admin"));
  (* double decision rejected, before any inverse runs *)
  checkb "already decided" true
    (Result.is_error
       (Approval.disapprove ap entry.Approval.id ~by:"admin" ~undo:(fun _ ->
            Alcotest.fail "a decided entry ran its inverse")));
  checkb "unknown entry" true (Result.is_error (Approval.approve ap 999 ~by:"admin"))

let test_approval_group_approver () =
  let gene, principals, clock = mk_env () in
  ignore (Principal.add_group principals "curators");
  ignore (Principal.add_to_group principals ~user:"admin" ~group:"curators");
  let ap = Approval.create principals clock in
  ignore (Approval.start ap ~table:"Gene" ~approved_by:(Acl.Group "curators") ());
  let row =
    match Table.insert gene (Tuple.make [ v "x"; Value.VDna "A" ]) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let entry = Option.get (Approval.log_insert ap ~table:"Gene" ~row ~user:"alice") in
  checkb "group member approves" true
    (Result.is_ok (Approval.approve ap entry.Approval.id ~by:"admin"));
  checkb "non-member cannot" false (Approval.can_decide ap ~user:"bob" ~table:"Gene")

let test_approval_column_monitoring () =
  let _, principals, clock = mk_env () in
  let ap = Approval.create principals clock in
  ignore
    (Approval.start ap ~table:"Gene" ~columns:[ "GSequence" ] ~approved_by:(Acl.User "admin") ());
  checkb "sequence monitored" true
    (Approval.monitored ap ~table:"Gene" ~column:"GSequence" ());
  checkb "gid not monitored" false (Approval.monitored ap ~table:"Gene" ~column:"GID" ());
  (* updates to unmonitored columns are not logged *)
  checkb "unmonitored update not logged" true
    (Approval.log_update ap ~table:"Gene" ~row:0 ~col:0 ~column_name:"GID"
       ~old_value:(v "old") ~user:"alice"
    = None);
  (* stopping one column ends monitoring entirely when none remain *)
  checkb "stop column" true (Approval.stop ap ~table:"Gene" ~columns:[ "GSequence" ] ());
  checkb "nothing monitored" false (Approval.monitored ap ~table:"Gene" ())

let test_approval_unmonitored_not_logged () =
  let _, principals, clock = mk_env () in
  let ap = Approval.create principals clock in
  checkb "not monitored: no log" true
    (Approval.log_insert ap ~table:"Gene" ~row:0 ~user:"alice" = None);
  checkb "stop when off" false (Approval.stop ap ~table:"Gene" ())

(* The inverse UPDATE is an ordinary write: the tracker re-derives the
   cell that depends on the restored one. *)
let test_approval_revert_hook () =
  let db = mk_db () in
  List.iter (exec db)
    [
      "CREATE TABLE Protein (PName TEXT, PSequence PROTEIN)";
      "INSERT INTO Gene VALUES ('x', 'ATGAAATAA')";
      "INSERT INTO Protein VALUES ('p', 'MK')";
      "CREATE DEPENDENCY r1 FROM Gene.GSequence TO Protein.PSequence USING P";
      "LINK DEPENDENCY r1 FROM (0) TO 0";
      "START CONTENT APPROVAL ON Gene APPROVED BY admin";
    ];
  exec db ~user:"alice" "UPDATE Gene SET GSequence = 'ATGTGGTGGTAA' WHERE GID = 'x'";
  checks "derived from the update" "MWW" (cell db "Protein" 0 1);
  checkb "disapprove" true (Result.is_ok (disapprove db (only_pending db)));
  checks "sequence restored" "ATGAAATAA" (cell db "Gene" 0 1);
  checks "dependent re-derived" "MK" (cell db "Protein" 0 1)

let test_inverse_descriptions () =
  let ins = Approval.Op_insert { table = "Gene"; row = 3 } in
  checkb "insert inverse is delete" true
    (String.length (Approval.inverse_description ins) > 0
    && String.sub (Approval.inverse_description ins) 0 6 = "DELETE");
  let upd =
    Approval.Op_update { table = "Gene"; row = 1; col = 0; old_value = v "old" }
  in
  checkb "update inverse is update" true
    (String.sub (Approval.inverse_description upd) 0 6 = "UPDATE");
  let del =
    Approval.Op_delete { table = "Gene"; row = 1; old_tuple = Tuple.make [ v "a" ] }
  in
  checkb "delete inverse is insert" true
    (String.sub (Approval.inverse_description del) 0 6 = "INSERT")

(* Model-based invariant: any sequence of logged updates, disapproved in
   reverse order, restores the exact initial table state. *)
let approval_qcheck =
  let module T = Tuple in
  let open QCheck in
  let ops_gen =
    make
      ~print:(fun l ->
        String.concat ";" (List.map (fun (r, v) -> Printf.sprintf "%d<-%d" r v) l))
      Gen.(list_size (int_bound 40) (pair (int_bound 9) (int_bound 100)))
  in
  [
    Test.make ~name:"disapprove-all restores the initial state" ~count:100 ops_gen
      (fun ops ->
        let db = Db.create () in
        exec db "CREATE TABLE G (k INT, v INT)";
        exec db
          ("INSERT INTO G VALUES "
          ^ String.concat ", " (List.init 10 (fun i -> Printf.sprintf "(%d, %d)" i i)));
        exec db "START CONTENT APPROVAL ON G APPROVED BY admin";
        let initial = Table.to_list (table db "G") in
        (* apply and log every update *)
        List.iter
          (fun (row, v) -> exec db (Printf.sprintf "UPDATE G SET v = %d WHERE k = %d" v row))
          ops;
        (* disapprove newest-first *)
        let pending = List.rev (Approval.pending (Db.context db).Context.approval ()) in
        List.iter
          (fun (e : Approval.entry) ->
            match disapprove db e with Ok _ -> () | Error msg -> failwith msg)
          pending;
        let final = Table.to_list (table db "G") in
        List.length initial = List.length final
        && List.for_all2
             (fun (r1, t1) (r2, t2) -> r1 = r2 && T.equal t1 t2)
             initial final);
  ]

let () =
  Alcotest.run "bdbms_auth"
    [
      ("principals", [ Alcotest.test_case "users/groups" `Quick test_principals ]);
      ( "acl",
        [
          Alcotest.test_case "grant/revoke" `Quick test_acl_grant_revoke;
          Alcotest.test_case "column scope" `Quick test_acl_column_scope;
        ] );
      ( "approval",
        [
          Alcotest.test_case "lifecycle" `Quick test_approval_lifecycle;
          Alcotest.test_case "disapprove insert" `Quick test_approval_disapprove_insert;
          Alcotest.test_case "disapprove update" `Quick test_approval_disapprove_update;
          Alcotest.test_case "disapprove delete" `Quick test_approval_disapprove_delete;
          Alcotest.test_case "authorization" `Quick test_approval_authorization;
          Alcotest.test_case "group approver" `Quick test_approval_group_approver;
          Alcotest.test_case "column monitoring" `Quick test_approval_column_monitoring;
          Alcotest.test_case "unmonitored" `Quick test_approval_unmonitored_not_logged;
          Alcotest.test_case "revert hook" `Quick test_approval_revert_hook;
          Alcotest.test_case "inverse statements" `Quick test_inverse_descriptions;
        ] );
      ("approval-properties", List.map QCheck_alcotest.to_alcotest approval_qcheck);
    ]
