module Table = Bdbms_relation.Table
module Schema = Bdbms_relation.Schema
module Manager = Bdbms_annotation.Manager
module Ann_store = Bdbms_annotation.Ann_store
module Ann_pred = Bdbms_annotation.Ann_pred

let awhere_selectivity = 0.5
let distinct_factor = 0.8

(* a derived estimate is stats-sourced only when both inputs are *)
let meet (a : Analyze.node) (b : Analyze.node) =
  let stats = Some (Plan.est_src_name Plan.Stats) in
  Plan.est_src_name
    (if a.Analyze.est_src = stats && b.Analyze.est_src = stats then Plan.Stats
     else Plan.Heuristic)

(* Annotation-store page accounting for a FROM item: an unindexed
   annotation lookup rescans the store per row. *)
let ann_cost (ctx : Context.t) (f : Ast.from_item) rows =
  match f.Ast.ann_tables with
  | None -> (0.0, "")
  | Some names ->
      let names =
        if names = [ "*" ] then
          Manager.annotation_table_names ctx.ann ~table_name:f.Ast.table
        else names
      in
      let pages =
        List.fold_left
          (fun acc n ->
            match Manager.store_of ctx.ann ~table_name:f.Ast.table ~name:n with
            | Some store ->
                acc
                +. float_of_int (Ann_store.storage_pages store)
                +. float_of_int (Ann_store.index_pages store)
            | None -> acc)
          0.0 names
      in
      ( pages *. Float.max 1.0 rows,
        Printf.sprintf " ANNOTATION(%s)" (String.concat "," names) )

let rel_pages = function
  | Plan.Base t -> float_of_int (Table.storage_pages t)
  | Plan.Virtual _ -> 0.0 (* in-memory snapshot: no page I/O *)

(* ------------------------------------------------ the FROM/WHERE tree *)

let source_nodes ctx (src : Plan.source) =
  let f = src.Plan.item in
  let table = f.Ast.table in
  let table_rows = float_of_int (Plan.rel_live_count src.Plan.rel) in
  let table_pages = rel_pages src.Plan.rel in
  let ann_pages, ann_label = ann_cost ctx f table_rows in
  let est_src = Plan.est_src_name src.Plan.est_src in
  let scan =
    match src.Plan.access with
    | Plan.Seq_scan ->
        Analyze.node ~est_rows:table_rows ~est_pages:(table_pages +. ann_pages)
          ~est_src ~table
          (Printf.sprintf "SCAN %s%s" table ann_label)
    | Plan.Index_probe { index; value = _ } ->
        Analyze.node ~est_rows:src.Plan.access_est
          ~est_pages:(Float.min table_pages 4.0 +. ann_pages)
          ~est_src ~table
          (Printf.sprintf "INDEX SCAN %s via %s(%s)%s" table
             index.Context.idx_name index.Context.idx_column ann_label)
  in
  match src.Plan.pushed with
  | [] -> (scan, scan)
  | es ->
      let sel =
        let ts =
          Bdbms_stats.Registry.find ctx.Context.tstats (Plan.rel_name src.Plan.rel)
        in
        Plan.conjuncts_selectivity_for ts ~schema:src.Plan.schema es
      in
      ( scan,
        Analyze.node ~est_rows:src.Plan.est_rows ~est_pages:scan.Analyze.est_pages
          ~est_src ~table ~children:[ scan ]
          (Printf.sprintf "WHERE (selectivity %.2f)" sel) )

let step_nodes (plan : Plan.t) (acc : Analyze.node) (step : Plan.step)
    (right : Analyze.node) =
  let post_sel = Plan.conjuncts_selectivity step.Plan.post in
  let join_rows =
    if post_sel > 0.0 then step.Plan.est_rows /. post_sel
    else step.Plan.est_rows
  in
  let label =
    match step.Plan.kind with
    | Plan.Hash { left_cols; right_cols; build_left; left_acc_cols = _ } ->
        let col p = (Schema.column_at plan.Plan.schema p).Schema.name in
        let keys =
          List.map2
            (fun l r -> Printf.sprintf "%s=%s" (col l) (col r))
            left_cols right_cols
        in
        Printf.sprintf "HASH JOIN (%s, build=%s)" (String.concat ", " keys)
          (if build_left then "left" else "right")
    | Plan.Nested -> "BLOCK NESTED-LOOP JOIN"
  in
  let est_src = meet acc right in
  let join =
    Analyze.node ~est_rows:join_rows
      ~est_pages:(acc.Analyze.est_pages +. right.Analyze.est_pages)
      ~est_src ~children:[ acc; right ] label
  in
  match step.Plan.post with
  | [] -> (join, join)
  | es ->
      ( join,
        Analyze.node ~est_rows:step.Plan.est_rows ~est_pages:join.Analyze.est_pages
          ~est_src ~children:[ join ]
          (Printf.sprintf "POST-JOIN WHERE (selectivity %.2f)"
             (Plan.conjuncts_selectivity es)) )

let plan_node ctx (plan : Plan.t) =
  List.fold_left
    (fun acc (step : Plan.step) ->
      let _, right = source_nodes ctx step.Plan.src in
      snd (step_nodes plan acc step right))
    (snd (source_nodes ctx plan.Plan.base))
    plan.Plan.steps

let set_op_node op (a : Analyze.node) (b : Analyze.node) =
  let label, rows =
    match op with
    | `Union -> ("UNION", a.Analyze.est_rows +. b.Analyze.est_rows)
    | `Intersect ->
        ("INTERSECT", Float.min a.Analyze.est_rows b.Analyze.est_rows *. 0.5)
    | `Except -> ("EXCEPT", a.Analyze.est_rows *. 0.5)
  in
  Analyze.node ~est_rows:rows
    ~est_pages:(a.Analyze.est_pages +. b.Analyze.est_pages)
    ~est_src:(meet a b) ~children:[ a; b ] label

(* ------------------------------------------------------ the SELECT tail *)

type clause =
  | Awhere of Ann_pred.t
  | Aggregate
  | Ahaving of Ann_pred.t
  | Project
  | Filter of Ann_pred.t
  | Distinct
  | Order of { top_k : bool }

let aggregated (sel : Ast.select) =
  sel.Ast.group_by <> []
  || List.exists
       (function Ast.Item { expr = Ast.Aggregate _; _ } -> true | _ -> false)
       sel.Ast.items

let tail_clauses (sel : Ast.select) =
  let opt f = function None -> [] | Some p -> [ f p ] in
  let distinct = if sel.Ast.distinct then [ Distinct ] else [] in
  let order top_k = if sel.Ast.order_by = [] then [] else [ Order { top_k } ] in
  let filter = opt (fun p -> Filter p) sel.Ast.filter in
  opt (fun p -> Awhere p) sel.Ast.awhere
  @
  if aggregated sel then
    (Aggregate :: opt (fun p -> Ahaving p) sel.Ast.ahaving)
    @ (Project :: filter) @ distinct @ order true
  else if sel.Ast.items = [ Ast.Star ] then
    (Project :: filter) @ distinct @ order true
  else
    (* ORDER BY may name pre-projection columns, so it sorts first; a
       DISTINCT after the projection rules out cutting to a LIMIT *)
    order (not sel.Ast.distinct) @ (Project :: filter) @ distinct

let top_k_bound (sel : Ast.select) =
  Option.map
    (fun n -> max 0 n + max 0 (Option.value sel.Ast.offset ~default:0))
    sel.Ast.limit

let clause_estimate (sel : Ast.select) clause =
  let ann kind p =
    ( Format.asprintf "%s %a" kind Ann_pred.pp p,
      fun rows -> rows *. awhere_selectivity )
  in
  match clause with
  | Awhere p -> ann "AWHERE" p
  | Ahaving p -> ann "AHAVING" p
  | Filter p -> (Format.asprintf "FILTER %a" Ann_pred.pp p, Fun.id)
  | Aggregate when sel.Ast.group_by = [] -> ("AGGREGATE", fun _ -> 1.0)
  | Aggregate ->
      ( Printf.sprintf "GROUP BY %s" (String.concat "," sel.Ast.group_by),
        fun rows -> Float.max 1.0 (rows /. 10.0) )
  | Project ->
      ( (if sel.Ast.items = [ Ast.Star ] then "PROJECT *"
         else Printf.sprintf "PROJECT (%d items)" (List.length sel.Ast.items)),
        Fun.id )
  | Distinct -> ("DISTINCT", fun rows -> rows *. distinct_factor)
  | Order { top_k } -> (
      match top_k_bound sel with
      | Some k when top_k ->
          (Printf.sprintf "TOP-K (k=%d)" k, Float.min (float_of_int k))
      | _ -> ("SORT", Fun.id))

let above (child : Analyze.node) label rows =
  Analyze.node ~est_rows:rows ~est_pages:child.Analyze.est_pages
    ?est_src:child.Analyze.est_src ~children:[ child ] label

let tail_node sel clause (child : Analyze.node) =
  let label, est = clause_estimate sel clause in
  above child label (est child.Analyze.est_rows)

let result_node sel (child : Analyze.node) =
  let clauses = List.map (clause_estimate sel) (tail_clauses sel) in
  above child
    (Printf.sprintf "RESULT (%s)" (String.concat ", " (List.map fst clauses)))
    (List.fold_left (fun rows (_, est) -> est rows) child.Analyze.est_rows clauses)
