type t = {
  reads : string list;
  writes : string list;
  ddl : bool;
}

let norm = String.lowercase_ascii

let dedup names = List.sort_uniq compare (List.map norm names)

let rec query_tables (q : Ast.query) =
  match q with
  | Ast.Select s -> List.map (fun (f : Ast.from_item) -> f.Ast.table) s.Ast.from
  | Ast.Union (a, b) | Ast.Intersect (a, b) | Ast.Except (a, b) ->
      query_tables a @ query_tables b

let select_tables (s : Ast.select) = query_tables (Ast.Select s)

(* The tables an ADD ANNOTATION's ON clause reads and writes: a DML
   clause executes (annotating what it touched), a SELECT only reads. *)
let on_clause_tables (on : Ast.on_clause) =
  match on with
  | Ast.On_select s -> (select_tables s, [])
  | Ast.On_insert { table; _ }
  | Ast.On_update { table; _ }
  | Ast.On_delete { table; _ } ->
      ([ table ], [ table ])

let none = { reads = []; writes = []; ddl = false }
let ddl = { reads = []; writes = []; ddl = true }
let reads ts = { reads = dedup ts; writes = []; ddl = false }

let writes ?(reads = []) ts =
  { reads = dedup (reads @ ts); writes = dedup ts; ddl = false }

let classify (stmt : Ast.statement) =
  match stmt with
  | Ast.Query q | Ast.Explain q | Ast.Explain_analyze q ->
      reads (query_tables q)
  | Ast.Insert { table; _ } -> writes [ table ]
  | Ast.Update { table; _ } | Ast.Delete { table; _ } ->
      writes ~reads:[ table ] [ table ]
  | Ast.Validate_cell { table; _ } -> writes ~reads:[ table ] [ table ]
  | Ast.Add_annotation { targets; on; _ } ->
      let on_reads, on_writes = on_clause_tables on in
      writes ~reads:on_reads (List.map fst targets @ on_writes)
  | Ast.Archive_annotation { targets; on; _ }
  | Ast.Restore_annotation { targets; on; _ } ->
      writes ~reads:(select_tables on) (List.map fst targets)
  | Ast.Copy_from { table; _ } -> writes [ table ]
  | Ast.Copy_to { table; _ } -> reads [ table ]
  (* ANALYZE mutates shared planner state (the stats registry + durable
     catalog): one table conflicts like a write to it, ANALYZE-all like
     DDL. *)
  | Ast.Analyze_stats (Some table) -> writes ~reads:[ table ] [ table ]
  | Ast.Analyze_stats None -> ddl
  | Ast.Show_pending _ | Ast.Show_outdated _ | Ast.Show_dependencies
  | Ast.Show_provenance _ | Ast.Show_tables | Ast.Describe _ ->
      none
  (* everything that mutates shared metadata conflicts with everything *)
  | Ast.Create_table _ | Ast.Drop_table _ | Ast.Create_ann_table _
  | Ast.Drop_ann_table _ | Ast.Start_approval _ | Ast.Stop_approval _
  | Ast.Approve _ | Ast.Disapprove _ | Ast.Grant _ | Ast.Revoke _
  | Ast.Create_user _ | Ast.Create_group _ | Ast.Add_user_to_group _
  | Ast.Create_dependency _ | Ast.Link_dependency _ | Ast.Create_index _
  | Ast.Drop_index _ ->
      ddl

let is_write t = t.ddl || t.writes <> []
