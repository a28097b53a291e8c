(* Database fixtures shared by more than one test executable. *)

module Db = Bdbms.Db

(* The optimizer's skewed 3-table join: [c.sel = 0] keeps 3 of 60 rows,
   so once ANALYZE has run the planner starts from [c] and the join
   order differs from FROM order ([a, b, c]). *)
let skewed_join_db () =
  let db = Db.create () in
  let e sql = ignore (Db.exec_exn db sql) in
  let values f = String.concat ", " (List.init 60 f) in
  e "CREATE TABLE a (k INT, pad TEXT)";
  e "CREATE TABLE b (id INT, k INT)";
  e "CREATE TABLE c (b_id INT, sel INT)";
  e ("INSERT INTO a VALUES " ^ values (fun i -> Printf.sprintf "(%d, 'p%d')" (i mod 5) i));
  e ("INSERT INTO b VALUES " ^ values (fun i -> Printf.sprintf "(%d, %d)" i (i mod 5)));
  e
    ("INSERT INTO c VALUES "
    ^ values (fun i -> Printf.sprintf "(%d, %d)" i (if i < 3 then 0 else 1)));
  e "ANALYZE";
  db
