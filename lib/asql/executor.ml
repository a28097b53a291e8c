module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Table = Bdbms_relation.Table
module Catalog = Bdbms_relation.Catalog
module Expr = Bdbms_relation.Expr
module Ops = Bdbms_relation.Ops
module Cursor = Bdbms_relation.Cursor
module Disk = Bdbms_storage.Disk
module Stats = Bdbms_obs.Stats
module Rle = Bdbms_util.Rle
module Xml = Bdbms_util.Xml_lite
module Ann = Bdbms_annotation.Ann
module Ann_store = Bdbms_annotation.Ann_store
module Manager = Bdbms_annotation.Manager
module Region = Bdbms_annotation.Region
module Propagate = Bdbms_annotation.Propagate
module Prov_record = Bdbms_provenance.Prov_record
module Prov_store = Bdbms_provenance.Prov_store
module Rule = Bdbms_dependency.Rule
module Rule_set = Bdbms_dependency.Rule_set
module Procedure = Bdbms_dependency.Procedure
module Tracker = Bdbms_dependency.Tracker
module Principal = Bdbms_auth.Principal
module Acl = Bdbms_auth.Acl
module Approval = Bdbms_auth.Approval
module Clock = Bdbms_util.Clock
module Timer = Bdbms_util.Timer
module Obs = Bdbms_obs.Obs
module Tstats = Bdbms_stats.Table_stats
module Stats_reg = Bdbms_stats.Registry

type outcome =
  | Rows of Propagate.t
  | Count of { affected : int; verb : string }
  | Message of string
  | Entries of Approval.entry list

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

module Cancel = Bdbms_util.Cancel

exception Read_only of string

exception View_read_only of string
(* a write statement targeted a [sys.*] system view *)

(* Statements that mutate the database (data writes or DDL) — the ones
   rejected in read-only degraded mode.  Keep in sync with the server's
   [Stmt_class.classify]; [Copy_to] exports to a file and stays allowed. *)
let is_write_stmt = function
  | Ast.Query _ | Ast.Explain _ | Ast.Explain_analyze _ | Ast.Show_pending _
  | Ast.Show_outdated _ | Ast.Show_dependencies | Ast.Show_provenance _
  | Ast.Show_tables | Ast.Describe _ | Ast.Copy_to _ ->
      false
  | _ -> true

(* Cooperative cancellation checkpoints: sources check once per
   [checkpoint_mask + 1] pulled tuples (or every batch).  A disarmed
   token wraps nothing, so the idle hot path pays a single branch per
   pipeline construction — E17 guards this at <5%. *)
let checkpoint_mask = 63

let checked_cursor (ctx : Context.t) cur =
  if not (Cancel.armed ctx.Context.cancel) then cur
  else begin
    let pulls = ref 0 in
    Cursor.make (Cursor.schema cur) (fun () ->
        incr pulls;
        if !pulls land checkpoint_mask = 0 then Cancel.check ctx.Context.cancel;
        Cursor.next cur)
  end

let checked_src (ctx : Context.t) (src : Vexec.src) =
  if not (Cancel.armed ctx.Context.cancel) then src
  else
    {
      src with
      Vexec.next =
        (fun () ->
          Cancel.check ctx.Context.cancel;
          src.Vexec.next ());
    }

(* Checkpoint hook for the materializing joins (naive oracle, annotated
   path): called once per considered pair, far more often than either
   input is scanned, so a runaway cross product still honours its
   deadline.  [None] while disarmed. *)
let cancel_hook (ctx : Context.t) =
  if not (Cancel.armed ctx.Context.cancel) then None
  else begin
    let n = ref 0 in
    Some
      (fun () ->
        incr n;
        if !n land checkpoint_mask = 0 then Cancel.check ctx.Context.cancel)
  end

let ok_or_fail = function Ok v -> v | Error e -> raise (Exec_error e)

(* crash-injection point for the recovery harness: fires inside DDL,
   after permission checks but before the catalog mutates *)
let ddl_hit (ctx : Context.t) =
  Bdbms_storage.Fault.hit (Disk.fault ctx.Context.disk) Bdbms_storage.Fault.Ddl

let find_table (ctx : Context.t) name =
  match Catalog.find ctx.catalog name with
  | Some t -> t
  | None -> fail "unknown table %s" name

(* What a FROM item scans: the catalog table, or a [sys.*] view
   materialized as an immutable virtual relation. *)
let find_rel (ctx : Context.t) ~user name =
  if Sysview.is_sys name then
    match Sysview.materialize ctx ~user name with
    | Some rel -> rel
    | None -> fail "unknown system view %s" name
  else Plan.Base (find_table ctx name)

(* The write statements a [sys.*] name can appear in; each fails with
   the typed {!View_read_only} before touching any engine state. *)
let sys_write_target = function
  | Ast.Insert { table; _ }
  | Ast.Update { table; _ }
  | Ast.Delete { table; _ }
  | Ast.Create_table { name = table; _ }
  | Ast.Drop_table table
  | Ast.Create_index { table; _ }
  | Ast.Copy_from { table; _ }
  | Ast.Create_ann_table { table; _ }
  | Ast.Drop_ann_table { table; _ }
  | Ast.Analyze_stats (Some table)
    when Sysview.is_sys table ->
      Some (String.lowercase_ascii table)
  | _ -> None

let check_acl (ctx : Context.t) ~user privilege ~table ?column () =
  if ctx.strict_acl && user <> Context.superuser then
    if not (Acl.allowed ctx.acl ~user privilege ~table ?column ()) then
      fail "user %s lacks %s on %s" user (Acl.privilege_name privilege) table

(* ------------------------------------------------------ name resolution *)

let resolve_expr = Resolve.map_expr

(* Resolver for a schema where columns may be referenced bare or as
   alias_column (the shared {!Resolve} rules), failing with the
   user-facing error on unknown/ambiguous references. *)
let make_resolver schema prefixes name =
  match Resolve.column schema ~prefixes name with
  | Resolve.Resolved n -> n
  | Resolve.Unknown -> fail "unknown column %s" name
  | Resolve.Ambiguous -> fail "ambiguous column %s" name

(* ----------------------------------------------------------------- scan *)

let outdated_ann (ctx : Context.t) ~table ~row ~col =
  Ann.make
    ~id:(Printf.sprintf "outdated:%s:%d:%d" table row col)
    ~body:
      (Xml.element "Annotation"
         [ Xml.text "outdated: this value needs re-verification" ])
    ~category:Ann.Quality ~author:"system" ~created_at:(Clock.now ctx.clock)

(* Annotated scan with system outdated annotations attached (Section 5);
   [only_rows] restricts to candidate row numbers from an index probe. *)
let scan_table (ctx : Context.t) table ~ann_tables ?only_rows () =
  let schema = Table.schema table in
  let arity = Schema.arity schema in
  let name = Table.name table in
  let stats = Disk.stats ctx.Context.disk in
  let source =
    match only_rows with
    | None -> Table.to_list table
    | Some rows ->
        List.sort_uniq compare rows
        |> List.filter_map (fun row ->
               Option.map (fun tuple -> (row, tuple)) (Table.get table row))
  in
  let seen = ref 0 in
  let rows =
    List.map
      (fun (row, tuple) ->
        incr seen;
        if !seen land checkpoint_mask = 0 then Cancel.check ctx.Context.cancel;
        Stats.record_ann_envelope stats;
        let anns =
          Array.init arity (fun col ->
              let user_anns =
                match ann_tables with
                | None -> []
                | Some names ->
                    let names = if names = [ "*" ] then None else Some names in
                    Manager.for_cell ctx.ann ~table_name:name ?ann_tables:names ~row ~col ()
              in
              if Tracker.is_outdated ctx.tracker ~table:name ~row ~col then
                user_anns @ [ outdated_ann ctx ~table:name ~row ~col ]
              else user_anns)
        in
        { Propagate.tuple; anns })
      source
  in
  { Propagate.schema; rows }

(* Annotated scan of any relation.  Virtual rows carry empty annotation
   envelopes: system views have no annotation tables (and no outdated
   marks), so both engines see identical, unadorned tuples. *)
let scan_rel (ctx : Context.t) rel ~ann_tables () =
  match rel with
  | Plan.Base table -> scan_table ctx table ~ann_tables ()
  | Plan.Virtual { v_name; v_schema; v_rows } ->
      if ann_tables <> None then
        fail "%s is a system view: annotation tables are not supported" v_name;
      let arity = Schema.arity v_schema in
      {
        Propagate.schema = v_schema;
        rows =
          List.map
            (fun tuple -> { Propagate.tuple; anns = Array.make arity [] })
            (Array.to_list v_rows);
      }

let prefix_schema prefix rowset =
  let renames =
    List.map (fun c -> (c.Schema.name, prefix ^ "_" ^ c.Schema.name))
      (Schema.columns rowset.Propagate.schema)
  in
  { rowset with Propagate.schema = Schema.rename_columns rowset.Propagate.schema renames }

(* ---------------------------------------------------- secondary indexes *)

let build_index (ctx : Context.t) (idx : Context.index_def) =
  let table = find_table ctx idx.Context.idx_table in
  let col = Schema.index_of_exn (Table.schema table) idx.Context.idx_column in
  let tree = Bdbms_index.Btree.create ctx.bp in
  Table.iter table (fun row tuple ->
      Bdbms_index.Btree.insert tree
        ~key:(Context.index_key (Tuple.get tuple col))
        ~value:row);
  idx.Context.tree <- tree;
  idx.Context.built <- true;
  idx.Context.dirty <- false

let fresh_index ctx (idx : Context.index_def) =
  if (not idx.Context.built) || idx.Context.dirty then build_index ctx idx;
  idx

(* incremental maintenance: only touch clean, built indexes *)
let index_note_insert ctx ~table ~row tuple =
  List.iter
    (fun (idx : Context.index_def) ->
      if idx.Context.built && not idx.Context.dirty then begin
        let tbl = find_table ctx table in
        let col = Schema.index_of_exn (Table.schema tbl) idx.Context.idx_column in
        Bdbms_index.Btree.insert idx.Context.tree
          ~key:(Context.index_key (Tuple.get tuple col))
          ~value:row
      end)
    (Context.indexes_on ctx ~table)

let index_note_update ctx ~table ~row ~column ~old_value ~new_value =
  List.iter
    (fun (idx : Context.index_def) ->
      if
        String.lowercase_ascii idx.Context.idx_column = String.lowercase_ascii column
        && idx.Context.built
        && not idx.Context.dirty
      then begin
        ignore
          (Bdbms_index.Btree.delete idx.Context.tree
             ~key:(Context.index_key old_value) ~value:row);
        Bdbms_index.Btree.insert idx.Context.tree
          ~key:(Context.index_key new_value)
          ~value:row
      end)
    (Context.indexes_on ctx ~table)

let index_note_delete ctx ~table ~row tuple =
  List.iter
    (fun (idx : Context.index_def) ->
      if idx.Context.built && not idx.Context.dirty then begin
        let tbl = find_table ctx table in
        let col = Schema.index_of_exn (Table.schema tbl) idx.Context.idx_column in
        ignore
          (Bdbms_index.Btree.delete idx.Context.tree
             ~key:(Context.index_key (Tuple.get tuple col))
             ~value:row)
      end)
    (Context.indexes_on ctx ~table)

(* When the dependency tracker re-derived cells, those writes bypassed the
   index maintenance above: mark the touched tables' indexes dirty. *)
let note_tracker_report ctx (report : Tracker.report) =
  List.iter
    (fun (c : Bdbms_dependency.Dep_graph.cell) ->
      Context.mark_indexes_dirty ctx ~table:c.Bdbms_dependency.Dep_graph.table)
    report.Tracker.recomputed


(* ----------------------------------------------------------- the SELECT *)

(* Tuple comparator for resolved ORDER BY specs. *)
let order_cmp schema specs =
  let indices =
    List.map (fun (name, dir) -> (Schema.index_of_exn schema name, dir)) specs
  in
  fun a b ->
    let rec go = function
      | [] -> 0
      | (i, dir) :: rest ->
          let c = Value.compare (Tuple.get a i) (Tuple.get b i) in
          let c = match dir with `Asc -> c | `Desc -> -c in
          if c <> 0 then c else go rest
    in
    go indices

(* ------------------------------------------------ EXPLAIN ANALYZE hooks *)

(* While an EXPLAIN ANALYZE statement executes, [ctx.analyze] holds an
   {!Analyze} recorder and the select paths build one node per plan
   operator — labels and estimate formulas mirror the {!Cost} EXPLAIN
   tree so the two render side by side — and meter each operator's
   cursor pulls (plain path) or materialized evaluation (annotated and
   naive paths) through it. *)

(* The access-path node(s) for one planned source: the scan itself, and
   a pushdown-WHERE node above it when the planner pushed conjuncts.
   Returns (scan, top); they are the same node when nothing was pushed. *)
let analyze_source_nodes (src : Plan.source) =
  let table_rows = float_of_int (Plan.rel_live_count src.Plan.rel) in
  let est_src = Plan.est_src_name src.Plan.est_src in
  let table = src.Plan.item.Ast.table in
  let scan =
    match src.Plan.access with
    | Plan.Seq_scan ->
        Analyze.node ~est_rows:table_rows ~est_src ~table
          (Printf.sprintf "SCAN %s" src.Plan.item.Ast.table)
    | Plan.Index_probe { index; value = _ } ->
        Analyze.node ~est_rows:src.Plan.access_est ~est_src ~table
          (Printf.sprintf "INDEX SCAN %s via %s(%s)" src.Plan.item.Ast.table
             index.Context.idx_name index.Context.idx_column)
  in
  match src.Plan.pushed with
  | [] -> (scan, scan)
  | es ->
      (* the estimates already folded the stats-aware selectivity in;
         display the implied ratio so the label matches [Cost]'s *)
      let sel =
        if table_rows > 0.0 then src.Plan.est_rows /. table_rows
        else Plan.conjuncts_selectivity es
      in
      let top =
        Analyze.node ~est_rows:src.Plan.est_rows ~est_src ~table
          ~children:[ scan ]
          (Printf.sprintf "WHERE (selectivity %.2f)" sel)
      in
      (scan, top)

(* The join node(s) for one plan step over the already-built left and
   right subtrees, with a post-join-WHERE node above when the step has
   deferred conjuncts. *)
let analyze_step_nodes schema acc_n (step : Plan.step) right_n =
  let post_sel = Plan.conjuncts_selectivity step.Plan.post in
  let join_rows =
    if post_sel > 0.0 then step.Plan.est_rows /. post_sel
    else step.Plan.est_rows
  in
  let join_label =
    match step.Plan.kind with
    | Plan.Hash { left_cols; left_acc_cols = _; right_cols; build_left } ->
        let col p = (Schema.column_at schema p).Schema.name in
        let keys =
          List.map2
            (fun l r -> Printf.sprintf "%s=%s" (col l) (col r))
            left_cols right_cols
        in
        Printf.sprintf "HASH JOIN (%s, build=%s)" (String.concat ", " keys)
          (if build_left then "left" else "right")
    | Plan.Nested -> "BLOCK NESTED-LOOP JOIN"
  in
  let jsrc =
    match (acc_n.Analyze.est_src, right_n.Analyze.est_src) with
    | Some "stats", Some "stats" -> "stats"
    | _ -> "heuristic"
  in
  let join_n =
    Analyze.node ~est_rows:join_rows ~est_src:jsrc ~children:[ acc_n; right_n ]
      join_label
  in
  match step.Plan.post with
  | [] -> (join_n, join_n)
  | es ->
      let top =
        Analyze.node ~est_rows:step.Plan.est_rows ~est_src:jsrc
          ~children:[ join_n ]
          (Printf.sprintf "POST-JOIN WHERE (selectivity %.2f)"
             (Plan.conjuncts_selectivity es))
      in
      (join_n, top)

(* Canonical-order restore for permuted plans: the pipeline's accumulated
   layout is the slices in join order, but every column keeps its (unique,
   possibly alias-prefixed) frame name, so one projection by the frame
   schema's names puts FROM order back before the shared tail runs. *)
let frame_names (plan : Plan.t) =
  List.map
    (fun (c : Schema.column) -> c.Schema.name)
    (Schema.columns plan.Plan.schema)

(* Materialized-path metering: evaluate [f] under [n], charging its rows
   and runtime to the node (no-op without a recorder). *)
let analyze_block an n f =
  match an with
  | None -> f ()
  | Some a ->
      let rs = Analyze.timed_block a n f in
      Analyze.record_rows n (List.length rs.Propagate.rows);
      rs

(* The materialized tail (everything finish_select does) as one node,
   which then becomes the recorded root. *)
let analyze_finish an input_n f =
  match an with
  | None -> f ()
  | Some a ->
      let n =
        Analyze.node
          ~children:(match input_n with Some c -> [ c ] | None -> [])
          "RESULT (awhere/group/project/order/limit)"
      in
      let r = Analyze.timed_block a n f in
      Analyze.record_rows n (List.length r.Propagate.rows);
      Analyze.set_root a n;
      r

(* Hash join over annotated tuples; key columns are positions local to
   each side.  Output tuples (and annotation arrays) are always
   [left ++ right] regardless of which side builds. *)
let hash_join_atuples ?on_pair stats ~build_left ~left_cols ~right_cols
    (a : Propagate.t) (b : Propagate.t) : Propagate.t =
  let hit = match on_pair with None -> ignore | Some f -> f in
  let schema = Schema.concat a.Propagate.schema b.Propagate.schema in
  let build_rows, probe_rows, build_cols, probe_cols =
    if build_left then (a.Propagate.rows, b.Propagate.rows, left_cols, right_cols)
    else (b.Propagate.rows, a.Propagate.rows, right_cols, left_cols)
  in
  let key (at : Propagate.atuple) cols = Cursor.join_key at.Propagate.tuple cols in
  let h = Hashtbl.create 256 in
  List.iter
    (fun at ->
      match key at build_cols with
      | Some k ->
          Stats.record_hash_build stats;
          Hashtbl.add h k at
      | None -> ())
    build_rows;
  let emit (pat : Propagate.atuple) (bat : Propagate.atuple) =
    if build_left then
      {
        Propagate.tuple = Array.append bat.Propagate.tuple pat.Propagate.tuple;
        anns = Array.append bat.Propagate.anns pat.Propagate.anns;
      }
    else
      {
        Propagate.tuple = Array.append pat.Propagate.tuple bat.Propagate.tuple;
        anns = Array.append pat.Propagate.anns bat.Propagate.anns;
      }
  in
  let rows =
    List.concat_map
      (fun pat ->
        hit ();
        Stats.record_hash_probe stats;
        match key pat probe_cols with
        | None -> []
        | Some k ->
            Hashtbl.find_all h k
            |> List.filter (fun bat ->
                   List.for_all2
                     (fun bc pc ->
                       Value.equal
                         (Tuple.get bat.Propagate.tuple bc)
                         (Tuple.get pat.Propagate.tuple pc))
                     build_cols probe_cols)
            (* find_all yields newest-first; rev_map restores build order *)
            |> List.rev_map (emit pat))
      probe_rows
  in
  { Propagate.schema; rows }

(* Projection pruning for the batch engine: the set of joined-schema
   columns a plain SELECT can reach at runtime.  Every runtime read is
   either a by-name [Schema.index_of] lookup of a resolved column name
   (filters, grouping, aggregate inputs, projection, ordering, scalar
   expressions) or a join-key position from the plan, so marking exactly
   those names and indices is sound: a pruned column's garbage vector
   slots may ride along inside intermediate tuples, but projection drops
   them before any output and nothing ever looks at them by name.
   Returns [None] — decode everything — whenever pruning cannot be
   proven: SELECT *, a frame with duplicate column names (a by-name
   lookup could land on a different index than the plan's), or any name
   that does not resolve against the frame (aliases of computed columns,
   HAVING over aggregate outputs). *)
let needed_frame_cols (plan : Plan.t) (sel : Ast.select) =
  let schema = plan.Plan.schema in
  let arity = Schema.arity schema in
  if List.exists (function Ast.Star -> true | _ -> false) sel.Ast.items then
    None
  else if
    (* first-match name lookup must be injective over the frame *)
    List.exists
      (fun (i, (c : Schema.column)) -> Schema.index_of schema c.Schema.name <> Some i)
      (List.mapi (fun i c -> (i, c)) (Schema.columns schema))
  then None
  else
    match
      let resolve = make_resolver schema plan.Plan.prefixes in
      let needed = Array.make arity false in
      let mark_name n =
        match Schema.index_of schema n with
        | Some i -> needed.(i) <- true
        | None -> raise Exit
      in
      let rec mark_expr = function
        | Expr.Col n -> mark_name n
        | Expr.Lit _ -> ()
        | Expr.Cmp (_, a, b)
        | Expr.And (a, b)
        | Expr.Or (a, b)
        | Expr.Arith (_, a, b)
        | Expr.Concat (a, b) ->
            mark_expr a;
            mark_expr b
        | Expr.Not a | Expr.Like (a, _) | Expr.In_list (a, _) | Expr.Is_null a
          ->
            mark_expr a
      in
      let mark_raw c = mark_name (resolve c) in
      let mark_source (src : Plan.source) =
        List.iter mark_expr src.Plan.pushed
      in
      mark_source plan.Plan.base;
      List.iter
        (fun (step : Plan.step) ->
          mark_source step.Plan.src;
          List.iter mark_expr step.Plan.post;
          match step.Plan.kind with
          | Plan.Hash { left_cols; right_cols; _ } ->
              List.iter (fun i -> needed.(i) <- true) left_cols;
              List.iter (fun i -> needed.(i) <- true) right_cols
          | Plan.Nested -> raise Exit (* tuple fallback; no pruning *))
        plan.Plan.steps;
      Option.iter (fun e -> mark_expr (resolve_expr resolve e)) sel.Ast.where;
      List.iter mark_raw sel.Ast.group_by;
      Option.iter
        (fun e -> List.iter mark_raw (Expr.columns_used e))
        sel.Ast.having;
      List.iter (fun (c, _) -> mark_raw c) sel.Ast.order_by;
      List.iter
        (function
          | Ast.Star -> raise Exit (* excluded above *)
          | Ast.Item { expr; promote; _ } -> (
              List.iter mark_raw promote;
              match expr with
              | Ast.Col_ref c -> mark_raw c
              | Ast.Scalar e -> mark_expr (resolve_expr resolve e)
              | Ast.Aggregate agg ->
                  Option.iter mark_raw (Ops.agg_column agg)))
        sel.Ast.items;
      needed
    with
    | exception _ -> None
    | needed -> if Array.for_all Fun.id needed then None else Some needed

let rec exec_query (ctx : Context.t) ~user (q : Ast.query) : Propagate.t =
  match q with
  | Ast.Select sel -> exec_select ctx ~user sel
  | Ast.Union (a, b) -> exec_compound ctx ~user "UNION" Propagate.union a b
  | Ast.Intersect (a, b) ->
      exec_compound ctx ~user "INTERSECT" Propagate.intersect a b
  | Ast.Except (a, b) -> exec_compound ctx ~user "EXCEPT" Propagate.except a b

(* Compound queries under EXPLAIN ANALYZE: each side's recorder root is
   captured and reparented under a combining node, mirroring [Cost]. *)
and exec_compound ctx ~user label combine a b =
  match ctx.Context.analyze with
  | None -> combine (exec_query ctx ~user a) (exec_query ctx ~user b)
  | Some an ->
      let side q =
        let rs = exec_query ctx ~user q in
        let n = Analyze.root an in
        (rs, n)
      in
      let ra, na = side a in
      let rb, nb = side b in
      let children = List.filter_map Fun.id [ na; nb ] in
      let node = Analyze.node ~children label in
      let out = Analyze.timed_block an node (fun () -> combine ra rb) in
      Analyze.record_rows node (Propagate.row_count out);
      Analyze.set_root an node;
      out

(* Top-level equality conjuncts col = literal of a WHERE expression. *)
and equality_conjuncts expr =
  match expr with
  | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Lit v)
  | Expr.Cmp (Expr.Eq, Expr.Lit v, Expr.Col c) ->
      [ (c, v) ]
  | Expr.And (a, b) -> equality_conjuncts a @ equality_conjuncts b
  | _ -> []

(* Does executing this SELECT require per-cell annotation envelopes?
   Plain queries stream bare tuples through cursors; only the annotation
   operators (and the system outdated warnings of Section 5, when any are
   pending) force the eager annotated representation. *)
and select_needs_anns (ctx : Context.t) (sel : Ast.select) =
  sel.Ast.awhere <> None
  || sel.Ast.ahaving <> None
  || sel.Ast.filter <> None
  || List.exists (fun (f : Ast.from_item) -> f.Ast.ann_tables <> None) sel.Ast.from
  || List.exists
       (function Ast.Item { promote = _ :: _; _ } -> true | _ -> false)
       sel.Ast.items
  || List.exists
       (fun (f : Ast.from_item) ->
         Tracker.has_outdated ctx.Context.tracker ~table:f.Ast.table)
       sel.Ast.from

and exec_select ctx ~user (sel : Ast.select) : Propagate.t =
  if sel.Ast.from = [] then fail "FROM clause is required";
  List.iter
    (fun (f : Ast.from_item) ->
      (* privileged views expose other users' sessions and SQL text, so
         they require a grant (or admin) even outside strict-ACL mode *)
      if Sysview.is_privileged f.Ast.table
         && user <> Context.superuser
         && not (Acl.allowed ctx.Context.acl ~user Acl.Select ~table:f.Ast.table ())
      then
        fail "user %s lacks SELECT on %s (privileged system view)" user
          f.Ast.table
      else check_acl ctx ~user Acl.Select ~table:f.Ast.table ())
    sel.Ast.from;
  match ctx.Context.exec_mode with
  | `Naive -> exec_select_naive ctx ~user sel
  | (`Tuple | `Batch) as mode ->
      let entries =
        List.map
          (fun (f : Ast.from_item) -> (f, find_rel ctx ~user f.Ast.table))
          sel.Ast.from
      in
      let frame = Plan.frame entries in
      let resolve = make_resolver frame.Plan.schema frame.Plan.prefixes in
      (* resolve the WHERE up front (same errors as the naive evaluator),
         then let the planner classify its conjuncts *)
      let where =
        Obs.span ctx.Context.obs "resolve" (fun () ->
            Option.map (resolve_expr resolve) sel.Ast.where)
      in
      let plan =
        Obs.span ctx.Context.obs "plan" (fun () -> Plan.build ctx frame ~where)
      in
      if select_needs_anns ctx sel then begin
        (* annotation envelopes force the tuple-at-a-time representation *)
        if mode = `Batch then
          Stats.record_batch_fallback (Disk.stats ctx.Context.disk);
        exec_select_annotated ctx plan sel
      end
      else if mode = `Batch then exec_select_batch ctx plan sel
      else exec_select_plain ctx plan sel

(* The naive reference evaluator: materialize every scan with its
   annotations, cross-product the FROM list, then filter.  Kept verbatim
   (minus index probing) as the semantic oracle the equivalence tests run
   the pipelined engine against. *)
and exec_select_naive ctx ~user (sel : Ast.select) : Propagate.t =
  let an = ctx.Context.analyze in
  let multi = List.length sel.Ast.from > 1 in
  let scans =
    List.map
      (fun (f : Ast.from_item) ->
        let rel = find_rel ctx ~user f.Ast.table in
        let n =
          Analyze.node
            ~est_rows:(float_of_int (Plan.rel_live_count rel))
            (Printf.sprintf "SCAN %s" f.Ast.table)
        in
        let rs =
          analyze_block an n (fun () ->
              let rs = scan_rel ctx rel ~ann_tables:f.Ast.ann_tables () in
              if multi then prefix_schema (Plan.item_prefix f) rs else rs)
        in
        (rs, n))
      sel.Ast.from
  in
  let joined, joined_n =
    match scans with
    | [] -> assert false
    | first :: rest ->
        List.fold_left
          (fun (acc, acc_n) (rs, rs_n) ->
            let n =
              Analyze.node
                ~est_rows:(acc_n.Analyze.est_rows *. rs_n.Analyze.est_rows)
                ~children:[ acc_n; rs_n ] "NESTED-LOOP JOIN"
            in
            ( analyze_block an n (fun () ->
                  Propagate.join ?on_pair:(cancel_hook ctx) acc rs
                    ~on:(Expr.Lit (Value.VBool true))),
              n ))
          first rest
  in
  let prefixes = List.map Plan.item_prefix sel.Ast.from in
  let resolve = make_resolver joined.Propagate.schema prefixes in
  let filtered, filtered_n =
    match sel.Ast.where with
    | None -> (joined, joined_n)
    | Some e ->
        let sel_f = Plan.selectivity e in
        let n =
          Analyze.node
            ~est_rows:(joined_n.Analyze.est_rows *. sel_f)
            ~children:[ joined_n ]
            (Printf.sprintf "WHERE (selectivity %.2f)" sel_f)
        in
        (analyze_block an n (fun () -> Propagate.select joined (resolve_expr resolve e)), n)
  in
  analyze_finish an (Some filtered_n) (fun () -> finish_select sel filtered prefixes)

(* Pipelined execution over annotated tuples: per-source pushdown, hash
   joins carrying annotation arrays, then the shared materialized tail. *)
and exec_select_annotated ctx (plan : Plan.t) (sel : Ast.select) : Propagate.t =
  Obs.span ctx.Context.obs "annotation.propagate" @@ fun () ->
  let stats = Disk.stats ctx.Context.disk in
  let an = ctx.Context.analyze in
  let source_atuples (src : Plan.source) =
    let nodes =
      match an with None -> None | Some _ -> Some (analyze_source_nodes src)
    in
    let scan () =
      let rs =
        let ann_tables = src.Plan.item.Ast.ann_tables in
        match (src.Plan.access, src.Plan.rel) with
        | Plan.Seq_scan, rel -> scan_rel ctx rel ~ann_tables ()
        | Plan.Index_probe { index; value }, Plan.Base table ->
            let idx = fresh_index ctx index in
            Stats.record_index_probe stats;
            let rows =
              Bdbms_index.Btree.search idx.Context.tree (Context.index_key value)
            in
            scan_table ctx table ~ann_tables ~only_rows:rows ()
        | Plan.Index_probe _, Plan.Virtual _ ->
            assert false (* no indexes exist over virtual relations *)
      in
      { rs with Propagate.schema = src.Plan.schema }
    in
    let pushed rs =
      List.fold_left
        (fun rs e ->
          let before = Propagate.row_count rs in
          let rs = Propagate.select rs e in
          for _ = 1 to before - Propagate.row_count rs do
            Stats.record_pushdown_prune stats
          done;
          rs)
        rs src.Plan.pushed
    in
    match nodes with
    | None -> (pushed (scan ()), None)
    | Some (scan_n, top_n) ->
        let rs = analyze_block an scan_n scan in
        let rs =
          if top_n == scan_n then pushed rs
          else analyze_block an top_n (fun () -> pushed rs)
        in
        (rs, Some top_n)
  in
  let joined, joined_n =
    List.fold_left
      (fun (acc, acc_n) (step : Plan.step) ->
        let right, right_n = source_atuples step.Plan.src in
        let join () =
          match step.Plan.kind with
          | Plan.Hash { left_cols = _; left_acc_cols; right_cols; build_left }
            ->
              let off = step.Plan.src.Plan.offset in
              hash_join_atuples ?on_pair:(cancel_hook ctx) stats ~build_left
                ~left_cols:left_acc_cols
                ~right_cols:(List.map (fun c -> c - off) right_cols)
                acc right
          | Plan.Nested ->
              Propagate.join ?on_pair:(cancel_hook ctx) acc right
                ~on:(Expr.Lit (Value.VBool true))
        in
        match (acc_n, right_n) with
        | Some acc_n, Some right_n ->
            let join_n, top_n =
              analyze_step_nodes plan.Plan.schema acc_n step right_n
            in
            let rs = analyze_block an join_n join in
            let rs =
              if top_n == join_n then
                List.fold_left Propagate.select rs step.Plan.post
              else
                analyze_block an top_n (fun () ->
                    List.fold_left Propagate.select rs step.Plan.post)
            in
            (rs, Some top_n)
        | _ -> (List.fold_left Propagate.select (join ()) step.Plan.post, None))
      (source_atuples plan.Plan.base)
      plan.Plan.steps
  in
  let joined =
    if plan.Plan.permuted then Propagate.project joined (frame_names plan)
    else joined
  in
  analyze_finish an joined_n (fun () -> finish_select sel joined plan.Plan.prefixes)

(* Pipelined execution over bare tuples (no annotation operators in the
   query, no outdated marks): volcano cursors end to end, the [Propagate]
   envelope is attached only to the final result. *)
and exec_select_plain ctx (plan : Plan.t) (sel : Ast.select) : Propagate.t =
  let cur, plan_n = tuple_pipeline ctx plan in
  let cur =
    if plan.Plan.permuted then Cursor.project cur (frame_names plan) else cur
  in
  plain_tail ctx plan sel (cur, plan_n)

(* Vectorized execution over column batches: same plan, same tail, but
   scans decode page-at-a-time into column vectors and WHERE/JOIN run
   over selection vectors.  Plan shapes the batch operators do not cover
   (block nested-loop joins) fall back to the tuple pipeline, counted in
   [Stats.batch_fallbacks]. *)
and exec_select_batch ctx (plan : Plan.t) (sel : Ast.select) : Propagate.t =
  match batch_pipeline ?need:(needed_frame_cols plan sel) ctx plan with
  | None ->
      Stats.record_batch_fallback (Disk.stats ctx.Context.disk);
      exec_select_plain ctx plan sel
  | Some (bsrc, plan_n) ->
      if plan.Plan.permuted then
        (* the batch tail operators consume columns positionally, so a
           reordered plan goes through the boxed cursor view with one
           restoring projection instead *)
        plain_tail ctx plan sel
          (Cursor.project (Vexec.to_cursor bsrc) (frame_names plan), plan_n)
      else
        (* [to_cursor] is lazy, so the tail's tuple-level stages (group-by,
           DISTINCT, LIMIT) pull batches on demand; the aggregate and
           top-k stages bypass it and consume [bsrc] directly. *)
        plain_tail ~batched:bsrc ctx plan sel (Vexec.to_cursor bsrc, plan_n)

(* The volcano operator pipeline for one plan: scans, pushed-down
   filters and joins, each metered under EXPLAIN ANALYZE.  Returns the
   top cursor and its recorder node. *)
and tuple_pipeline ctx (plan : Plan.t) =
  let stats = Disk.stats ctx.Context.disk in
  let an = ctx.Context.analyze in
  (* Wrap a cursor so every pull is timed and attributed to [n]. *)
  let meter n cur =
    match an with
    | None -> cur
    | Some a ->
        Cursor.make (Cursor.schema cur)
          (Analyze.meter_pull a n (fun () -> Cursor.next cur))
  in
  let source_cursor (src : Plan.source) =
    let base =
      match (src.Plan.access, src.Plan.rel) with
      | Plan.Seq_scan, Plan.Base table -> Cursor.scan table
      | Plan.Seq_scan, Plan.Virtual { v_schema; v_rows; _ } ->
          Cursor.of_list v_schema (Array.to_list v_rows)
      | Plan.Index_probe _, Plan.Virtual _ ->
          assert false (* no indexes exist over virtual relations *)
      | Plan.Index_probe { index; value }, Plan.Base table ->
          let idx = fresh_index ctx index in
          Stats.record_index_probe stats;
          let rows =
            Bdbms_index.Btree.search idx.Context.tree (Context.index_key value)
            |> List.sort_uniq compare
          in
          let remaining = ref rows in
          let rec pull () =
            match !remaining with
            | [] -> None
            | row :: rest -> (
                remaining := rest;
                match Table.get table row with
                | Some tuple -> Some tuple
                | None -> pull ())
          in
          Cursor.make (Table.schema table) pull
    in
    let base = checked_cursor ctx base in
    let cur = Cursor.rename base src.Plan.schema in
    let pushed cur =
      List.fold_left
        (fun cur e ->
          Cursor.select
            ~on_drop:(fun () -> Stats.record_pushdown_prune stats)
            cur e)
        cur src.Plan.pushed
    in
    match an with
    | None -> (pushed cur, None)
    | Some _ ->
        let scan_n, top_n = analyze_source_nodes src in
        let cur = pushed (meter scan_n cur) in
        let cur = if top_n == scan_n then cur else meter top_n cur in
        (cur, Some top_n)
  in
  let cur, plan_n =
    List.fold_left
      (fun (acc, acc_n) (step : Plan.step) ->
        let right, right_n = source_cursor step.Plan.src in
        let joined =
          match step.Plan.kind with
          | Plan.Hash { left_cols = _; left_acc_cols; right_cols; build_left }
            ->
              let off = step.Plan.src.Plan.offset in
              Cursor.hash_join ~stats ~build_left ~left_keys:left_acc_cols
                ~right_keys:(List.map (fun c -> c - off) right_cols)
                acc right
          | Plan.Nested ->
              (* a block join's output can dwarf its inputs; checkpoint
                 the joined stream, not just the leaf scans *)
              checked_cursor ctx (Cursor.block_join acc right)
        in
        match (acc_n, right_n) with
        | Some acc_n, Some right_n ->
            let join_n, top_n =
              analyze_step_nodes plan.Plan.schema acc_n step right_n
            in
            let cur =
              List.fold_left Cursor.select (meter join_n joined) step.Plan.post
            in
            let cur = if top_n == join_n then cur else meter top_n cur in
            (cur, Some top_n)
        | _ -> (List.fold_left Cursor.select joined step.Plan.post, None))
      (source_cursor plan.Plan.base)
      plan.Plan.steps
  in
  (cur, plan_n)

(* The batch-at-a-time mirror of [tuple_pipeline]: same plan walk, same
   recorder nodes (labels, estimates, tree shape), operators from
   {!Vexec}.  Returns [None] when a step needs an operator the batch
   path does not implement. *)
and batch_pipeline ?need ctx (plan : Plan.t) =
  let virtual_rel (src : Plan.source) =
    match src.Plan.rel with Plan.Virtual _ -> true | Plan.Base _ -> false
  in
  if
    List.exists
      (fun (s : Plan.step) -> s.Plan.kind = Plan.Nested)
      plan.Plan.steps
    (* sys.* views have no page-backed column batches: tuple fallback,
       counted in [Stats.batch_fallbacks] by the caller *)
    || virtual_rel plan.Plan.base
    || List.exists (fun (s : Plan.step) -> virtual_rel s.Plan.src) plan.Plan.steps
  then None
  else begin
    let stats = Disk.stats ctx.Context.disk in
    let an = ctx.Context.analyze in
    let batch_rows = ctx.Context.batch_rows in
    let meter n src =
      match an with None -> src | Some a -> Vexec.meter a n src
    in
    let filter ?on_drop src e = Vexec.filter ?on_drop src e in
    let source_batches (src : Plan.source) =
      let table =
        match src.Plan.rel with
        | Plan.Base t -> t
        | Plan.Virtual _ -> assert false (* excluded above *)
      in
      let base =
        match src.Plan.access with
        | Plan.Seq_scan ->
            (* this source's slice of the frame-wide pruning mask *)
            let need =
              Option.map
                (fun m ->
                  Array.sub m src.Plan.offset (Schema.arity src.Plan.schema))
                need
            in
            Vexec.scan ~batch_rows ?need table
        | Plan.Index_probe { index; value } ->
            let idx = fresh_index ctx index in
            Stats.record_index_probe stats;
            let rows =
              Bdbms_index.Btree.search idx.Context.tree
                (Context.index_key value)
              |> List.sort_uniq compare
            in
            Vexec.of_rows ~batch_rows table rows
      in
      let bsrc = Vexec.with_schema (checked_src ctx base) src.Plan.schema in
      let pushed bsrc =
        List.fold_left
          (fun bsrc e ->
            filter
              ~on_drop:(fun dropped ->
                for _ = 1 to dropped do
                  Stats.record_pushdown_prune stats
                done)
              bsrc e)
          bsrc src.Plan.pushed
      in
      match an with
      | None -> (pushed bsrc, None)
      | Some _ ->
          let scan_n, top_n = analyze_source_nodes src in
          let bsrc = pushed (meter scan_n bsrc) in
          let bsrc = if top_n == scan_n then bsrc else meter top_n bsrc in
          (bsrc, Some top_n)
    in
    let bsrc, plan_n =
      List.fold_left
        (fun (acc, acc_n) (step : Plan.step) ->
          let right, right_n = source_batches step.Plan.src in
          let joined =
            match step.Plan.kind with
            | Plan.Hash { left_cols = _; left_acc_cols; right_cols; build_left }
              ->
                let off = step.Plan.src.Plan.offset in
                Vexec.hash_join ~stats ~batch_rows ~build_left
                  ~left_keys:left_acc_cols
                  ~right_keys:(List.map (fun c -> c - off) right_cols)
                  acc right
            | Plan.Nested -> assert false (* excluded above *)
          in
          match (acc_n, right_n) with
          | Some acc_n, Some right_n ->
              let join_n, top_n =
                analyze_step_nodes plan.Plan.schema acc_n step right_n
              in
              let bsrc =
                List.fold_left
                  (fun bsrc e -> filter bsrc e)
                  (meter join_n joined) step.Plan.post
              in
              let bsrc = if top_n == join_n then bsrc else meter top_n bsrc in
              (bsrc, Some top_n)
          | _ ->
              ( List.fold_left (fun bsrc e -> filter bsrc e) joined
                  step.Plan.post,
                None ))
        (source_batches plan.Plan.base)
        plan.Plan.steps
    in
    (* hash joins can amplify: checkpoint the top of the pipeline too *)
    Some (checked_src ctx bsrc, plan_n)
  end

(* Everything from aggregation to LIMIT over the pipeline's top cursor —
   shared by the tuple and batch engines.  With [batched], the ungrouped
   aggregate and the pre-projection top-k consume the batch source
   directly through the typed {!Vexec} operators instead of the boxed
   cursor view. *)
and plain_tail ?batched ctx (plan : Plan.t) (sel : Ast.select)
    ((cur : Cursor.t), (plan_n : Analyze.node option)) : Propagate.t =
  let prefixes = plan.Plan.prefixes in
  let an = ctx.Context.analyze in
  (* Tail-stage recorder: each stage node stacks on the previous one, so
     the analyze tree mirrors the actual execution order (which may sort
     before projecting, unlike the estimate tree). *)
  let top_ref = ref plan_n in
  let cur_est = ref (match an with
    | None -> Float.nan
    | Some _ -> (
        match List.rev plan.Plan.steps with
        | step :: _ -> step.Plan.est_rows
        | [] -> plan.Plan.base.Plan.est_rows))
  in
  let push ?est label =
    (match est with Some e -> cur_est := e | None -> ());
    let n =
      Analyze.node ~est_rows:!cur_est
        ~children:(Option.to_list !top_ref)
        label
    in
    top_ref := Some n;
    n
  in
  (* streaming stage: meter the pulls *)
  let stage ?est label cur =
    match an with
    | None -> cur
    | Some a ->
        let n = push ?est label in
        Cursor.make (Cursor.schema cur)
          (Analyze.meter_pull a n (fun () -> Cursor.next cur))
  in
  (* eager stage: time the materializing computation as one block *)
  let stage_rs ?est label f =
    match an with
    | None -> f ()
    | Some a ->
        let n = push ?est label in
        let rs = Analyze.timed_block a n f in
        Analyze.record_rows n (List.length rs.Ops.rows);
        rs
  in
  let resolve = make_resolver plan.Plan.schema prefixes in
  let limit_n = Option.map (max 0) sel.Ast.limit in
  let offset_n = max 0 (Option.value sel.Ast.offset ~default:0) in
  let project_label =
    if sel.Ast.items = [ Ast.Star ] then "PROJECT *"
    else Printf.sprintf "PROJECT (%d items)" (List.length sel.Ast.items)
  in
  let has_aggregates =
    List.exists
      (function Ast.Item { expr = Ast.Aggregate _; _ } -> true | _ -> false)
      sel.Ast.items
  in
  let projected =
    if has_aggregates || sel.Ast.group_by <> [] then begin
      (* aggregate path *)
      let keys = List.map resolve sel.Ast.group_by in
      let aggs =
        List.filter_map
          (function
            | Ast.Item { expr = Ast.Aggregate agg; alias; _ } ->
                let agg =
                  match agg with
                  | Ops.Count_star -> Ops.Count_star
                  | Ops.Count c -> Ops.Count (resolve c)
                  | Ops.Sum c -> Ops.Sum (resolve c)
                  | Ops.Avg c -> Ops.Avg (resolve c)
                  | Ops.Min c -> Ops.Min (resolve c)
                  | Ops.Max c -> Ops.Max (resolve c)
                in
                Some (agg, Option.value alias ~default:(Ops.aggregate_name agg))
            | _ -> None)
          sel.Ast.items
      in
      List.iter
        (function
          | Ast.Item { expr = Ast.Col_ref c; _ } ->
              if not (List.mem (resolve c) keys) then
                fail "column %s must appear in GROUP BY" c
          | Ast.Item { expr = Ast.Scalar _; _ } ->
              fail "computed columns are not supported with GROUP BY"
          | Ast.Star -> fail "SELECT * is not supported with GROUP BY"
          | Ast.Item { expr = Ast.Aggregate _; _ } -> ())
        sel.Ast.items;
      let grouped =
        let label =
          if keys = [] then "AGGREGATE"
          else Printf.sprintf "GROUP BY %s" (String.concat "," sel.Ast.group_by)
        in
        stage_rs ~est:(Float.max 1.0 (!cur_est /. 10.0)) label (fun () ->
            if keys = [] then
              (* ungrouped aggregates: one streaming pass, constant
                 memory; on the batch path, typed per-column loops *)
              match batched with
              | Some bsrc -> Vexec.aggregate bsrc aggs
              | None -> Cursor.aggregate cur aggs
            else Ops.group_by (Cursor.to_rowset cur) ~keys ~aggs)
      in
      let grouped =
        match sel.Ast.having with
        | None -> grouped
        | Some e ->
            let r = make_resolver grouped.Ops.schema [] in
            Ops.select grouped (resolve_expr r e)
      in
      let out_names =
        List.map
          (function
            | Ast.Item { expr = Ast.Col_ref c; alias; _ } ->
                (resolve c, Option.value alias ~default:c)
            | Ast.Item { expr = Ast.Aggregate agg; alias; _ } ->
                let n = Option.value alias ~default:(Ops.aggregate_name agg) in
                (n, n)
            | _ -> assert false)
          sel.Ast.items
      in
      let rs =
        stage_rs project_label (fun () ->
            let projected = Ops.project grouped (List.map fst out_names) in
            let renames =
              List.filter (fun (src, dst) -> src <> dst) out_names
            in
            { projected with
              Ops.schema = Schema.rename_columns projected.Ops.schema renames })
      in
      Cursor.of_list rs.Ops.schema rs.Ops.rows
    end
    else begin
      (* scalar path (PROMOTE never reaches here: it needs annotations) *)
      match sel.Ast.items with
      | [ Ast.Star ] -> stage project_label cur
      | items ->
          let extended, proj_names =
            List.fold_left
              (fun (acc, names) item ->
                match item with
                | Ast.Star ->
                    fail "SELECT * cannot be mixed with other select items"
                | Ast.Item { expr = Ast.Col_ref c; alias; _ } ->
                    (acc, names @ [ (resolve c, Option.value alias ~default:c) ])
                | Ast.Item { expr = Ast.Scalar e; alias; _ } ->
                    let out =
                      match alias with
                      | Some a -> a
                      | None -> fail "computed columns need AS <name>"
                    in
                    let e =
                      resolve_expr (make_resolver (Cursor.schema acc) prefixes) e
                    in
                    (Cursor.extend acc ~name:out ~ty:Value.TString e,
                     names @ [ (out, out) ])
                | Ast.Item { expr = Ast.Aggregate _; _ } -> assert false)
              (cur, []) items
          in
          (* ORDER BY may reference pre-projection columns (classic SQL),
             so order before projecting; with a LIMIT and no DISTINCT a
             bounded heap replaces the full sort *)
          let extended =
            match sel.Ast.order_by with
            | [] -> extended
            | specs -> (
                let r = make_resolver (Cursor.schema extended) prefixes in
                let specs = List.map (fun (c, d) -> (r c, d)) specs in
                let schema = Cursor.schema extended in
                match limit_n with
                | Some n when not sel.Ast.distinct ->
                    let k = offset_n + n in
                    let rs =
                      stage_rs
                        ~est:(Float.min !cur_est (float_of_int k))
                        (Printf.sprintf "TOP-K (k=%d)" k)
                        (fun () ->
                          { Ops.schema;
                            rows =
                              (match batched with
                              | Some bsrc when extended == cur ->
                                  (* no computed columns: heap straight
                                     over the batches *)
                                  Vexec.top_k bsrc
                                    ~cmp:(order_cmp schema specs) ~k
                              | _ ->
                                  Cursor.top_k extended
                                    ~cmp:(order_cmp schema specs) ~k) })
                    in
                    Cursor.of_list rs.Ops.schema rs.Ops.rows
                | _ ->
                    let rs =
                      stage_rs "SORT" (fun () ->
                          Ops.order_by (Cursor.to_rowset extended) specs)
                    in
                    Cursor.of_list rs.Ops.schema rs.Ops.rows)
          in
          let projected = Cursor.project extended (List.map fst proj_names) in
          let renames = List.filter (fun (src, dst) -> src <> dst) proj_names in
          stage project_label
            (Cursor.rename projected
               (Schema.rename_columns (Cursor.schema projected) renames))
    end
  in
  let already_sorted = not (has_aggregates || sel.Ast.group_by <> []) in
  let result =
    if sel.Ast.distinct then
      (* 0.8 mirrors Cost.distinct_factor *)
      stage ~est:(!cur_est *. 0.8) "DISTINCT" (Cursor.distinct projected)
    else projected
  in
  let result =
    match sel.Ast.order_by with
    | [] -> result
    | _ when already_sorted && sel.Ast.items <> [ Ast.Star ] -> result
    | specs -> (
        let r = make_resolver (Cursor.schema result) [] in
        let specs = List.map (fun (c, d) -> (r c, d)) specs in
        let schema = Cursor.schema result in
        match limit_n with
        | Some n ->
            (* DISTINCT (if any) already ran, so top-k is safe here *)
            let k = offset_n + n in
            let rs =
              stage_rs
                ~est:(Float.min !cur_est (float_of_int k))
                (Printf.sprintf "TOP-K (k=%d)" k)
                (fun () ->
                  { Ops.schema;
                    rows = Cursor.top_k result ~cmp:(order_cmp schema specs) ~k })
            in
            Cursor.of_list rs.Ops.schema rs.Ops.rows
        | None ->
            let rs =
              stage_rs "SORT" (fun () ->
                  Ops.order_by (Cursor.to_rowset result) specs)
            in
            Cursor.of_list rs.Ops.schema rs.Ops.rows)
  in
  let result = if offset_n > 0 then Cursor.offset result offset_n else result in
  let result =
    match limit_n with None -> result | Some n -> Cursor.limit result n
  in
  let out = Propagate.of_rowset (Cursor.to_rowset result) in
  (match (an, !top_ref) with
  | Some a, Some n -> Analyze.set_root a n
  | _ -> ());
  out

(* Everything from AWHERE to LIMIT over a materialized annotated rowset —
   shared by the naive oracle and the annotated pipelined path. *)
and finish_select (sel : Ast.select) (filtered : Propagate.t) prefixes :
    Propagate.t =
  let resolve = make_resolver filtered.Propagate.schema prefixes in
  (* AWHERE *)
  let filtered =
    match sel.Ast.awhere with
    | None -> filtered
    | Some p -> Propagate.awhere filtered p
  in
  let has_aggregates =
    List.exists
      (function Ast.Item { expr = Ast.Aggregate _; _ } -> true | _ -> false)
      sel.Ast.items
  in
  let projected =
    if has_aggregates || sel.Ast.group_by <> [] then begin
      (* aggregate path *)
      let keys = List.map resolve sel.Ast.group_by in
      let aggs =
        List.filter_map
          (function
            | Ast.Item { expr = Ast.Aggregate agg; alias; _ } ->
                let agg =
                  match agg with
                  | Ops.Count_star -> Ops.Count_star
                  | Ops.Count c -> Ops.Count (resolve c)
                  | Ops.Sum c -> Ops.Sum (resolve c)
                  | Ops.Avg c -> Ops.Avg (resolve c)
                  | Ops.Min c -> Ops.Min (resolve c)
                  | Ops.Max c -> Ops.Max (resolve c)
                in
                Some (agg, Option.value alias ~default:(Ops.aggregate_name agg))
            | _ -> None)
          sel.Ast.items
      in
      (* every plain item must be a grouping key *)
      List.iter
        (function
          | Ast.Item { expr = Ast.Col_ref c; _ } ->
              if not (List.mem (resolve c) keys) then
                fail "column %s must appear in GROUP BY" c
          | Ast.Item { expr = Ast.Scalar _; _ } ->
              fail "computed columns are not supported with GROUP BY"
          | Ast.Star -> fail "SELECT * is not supported with GROUP BY"
          | Ast.Item { expr = Ast.Aggregate _; _ } -> ())
        sel.Ast.items;
      let grouped = Propagate.group_by filtered ~keys ~aggs in
      (* HAVING / AHAVING apply over the grouped schema *)
      let grouped =
        match sel.Ast.having with
        | None -> grouped
        | Some e ->
            let r = make_resolver grouped.Propagate.schema [] in
            Propagate.select grouped (resolve_expr r e)
      in
      let grouped =
        match sel.Ast.ahaving with
        | None -> grouped
        | Some p -> Propagate.awhere grouped p
      in
      (* reorder to the item order *)
      let out_names =
        List.map
          (function
            | Ast.Item { expr = Ast.Col_ref c; alias; _ } ->
                (resolve c, Option.value alias ~default:c)
            | Ast.Item { expr = Ast.Aggregate agg; alias; _ } ->
                let n = Option.value alias ~default:(Ops.aggregate_name agg) in
                (n, n)
            | _ -> assert false)
          sel.Ast.items
      in
      let projected = Propagate.project grouped (List.map fst out_names) in
      let renames =
        List.filter (fun (src, dst) -> src <> dst) out_names
      in
      { projected with
        Propagate.schema = Schema.rename_columns projected.Propagate.schema renames }
    end
    else begin
      (* scalar path *)
      match sel.Ast.items with
      | [ Ast.Star ] -> filtered
      | items ->
          (* promotes first (they reference the pre-projection schema) *)
          let promoted =
            List.fold_left
              (fun acc item ->
                match item with
                | Ast.Item { expr = Ast.Col_ref c; promote = _ :: _ as promote; _ } ->
                    Propagate.promote acc ~from:(List.map resolve promote)
                      ~to_:(resolve c)
                | Ast.Item { promote = _ :: _; _ } ->
                    fail "PROMOTE applies to plain column items"
                | _ -> acc)
              filtered items
          in
          (* computed columns *)
          let extended, proj_names =
            List.fold_left
              (fun (acc, names) item ->
                match item with
                | Ast.Star -> fail "SELECT * cannot be mixed with other select items"
                | Ast.Item { expr = Ast.Col_ref c; alias; _ } ->
                    (acc, names @ [ (resolve c, Option.value alias ~default:c) ])
                | Ast.Item { expr = Ast.Scalar e; alias; _ } ->
                    let out = match alias with
                      | Some a -> a
                      | None -> fail "computed columns need AS <name>"
                    in
                    let e = resolve_expr (make_resolver acc.Propagate.schema prefixes) e in
                    let plain = Propagate.to_rowset acc in
                    let plain' = Ops.extend plain ~name:out ~ty:Value.TString e in
                    (* recompute with annotations preserved: extend keeps
                       row order, so zip annotation arrays with an empty
                       set for the new column *)
                    let rows =
                      List.map2
                        (fun at tuple ->
                          { Propagate.tuple; anns = Array.append at.Propagate.anns [| [] |] })
                        acc.Propagate.rows plain'.Ops.rows
                    in
                    ( { Propagate.schema = plain'.Ops.schema; rows },
                      names @ [ (out, out) ] )
                | Ast.Item { expr = Ast.Aggregate _; _ } -> assert false)
              (promoted, []) items
          in
          (* ORDER BY may reference pre-projection columns (classic SQL), so
             sort before projecting: projection preserves row order *)
          let extended =
            match sel.Ast.order_by with
            | [] -> extended
            | specs ->
                let r = make_resolver extended.Propagate.schema prefixes in
                Propagate.order_by extended (List.map (fun (c, d) -> (r c, d)) specs)
          in
          let projected = Propagate.project extended (List.map fst proj_names) in
          let renames = List.filter (fun (src, dst) -> src <> dst) proj_names in
          { projected with
            Propagate.schema =
              Schema.rename_columns projected.Propagate.schema renames }
    end
  in
  let already_sorted = not (has_aggregates || sel.Ast.group_by <> []) in
  (* FILTER drops non-matching annotations but keeps every tuple *)
  let result =
    match sel.Ast.filter with
    | None -> projected
    | Some p -> Propagate.filter_anns projected p
  in
  let result = if sel.Ast.distinct then Propagate.distinct result else result in
  let result =
    match sel.Ast.order_by with
    | [] -> result
    | _ when already_sorted && sel.Ast.items <> [ Ast.Star ] -> result
    | specs ->
        let r = make_resolver result.Propagate.schema [] in
        Propagate.order_by result (List.map (fun (c, d) -> (r c, d)) specs)
  in
  let result =
    match sel.Ast.offset with
    | None -> result
    | Some n ->
        let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: r -> drop (k - 1) r in
        { result with Propagate.rows = drop n result.Propagate.rows }
  in
  match sel.Ast.limit with None -> result | Some n -> Propagate.limit result n

(* ------------------------------------------------------------------- DML *)

(* Interpret a literal against the column type (sequence types arrive as
   plain strings in SQL text). *)
let coerce value ty =
  match (value, ty) with
  | Value.VString s, Value.TDna -> Value.VDna s
  | Value.VString s, Value.TProtein -> Value.VProtein s
  | Value.VString s, Value.TRle -> (
      match Rle.of_string s with
      | r -> Value.VRle r
      | exception Invalid_argument _ -> Value.VRle (Rle.encode s))
  | Value.VInt n, Value.TFloat -> Value.VFloat (float_of_int n)
  | v, _ -> v

let record_local_prov (ctx : Context.t) ~table ~region ~operation =
  if ctx.auto_provenance then
    ignore
      (Prov_store.record ctx.prov ~table ~region
         ~record:
           (Prov_record.make ~operation ~actor:"system" ~at:(Clock.tick ctx.clock)))

(* Insert rows; returns the new row numbers. *)
let do_insert (ctx : Context.t) ~user ~table:table_name values =
  check_acl ctx ~user Acl.Insert ~table:table_name ();
  let table = find_table ctx table_name in
  let schema = Table.schema table in
  let rows =
    List.map
      (fun literals ->
        if List.length literals <> Schema.arity schema then
          fail "INSERT arity mismatch on %s" table_name;
        let tuple =
          Array.of_list
            (List.mapi
               (fun i v -> coerce v (Schema.column_at schema i).Schema.ty)
               literals)
        in
        let row = ok_or_fail (Table.insert table tuple) in
        index_note_insert ctx ~table:table_name ~row tuple;
        Stats_reg.note_insert ctx.Context.tstats table_name tuple;
        ignore (Approval.log_insert ctx.approval ~table:table_name ~row ~user);
        row)
      values
  in
  record_local_prov ctx ~table ~region:(Region.Rows rows)
    ~operation:Prov_record.Local_insert;
  rows

(* Matching live rows of a single table; a top-level equality on an
   indexed column narrows the scan to the index's candidates (the full
   predicate is still applied). *)
let matching_rows (ctx : Context.t) table where =
  let schema = Table.schema table in
  let table_name = Table.name table in
  let resolve = make_resolver schema [ table_name ] in
  let pred =
    match where with
    | None -> None
    | Some e -> Some (resolve_expr resolve e)
  in
  let candidates =
    match pred with
    | None -> None
    | Some p ->
        List.find_map
          (fun (c, v) ->
            if not (Schema.mem schema c) then None
            else
              Context.indexes_on ctx ~table:table_name
              |> List.find_map (fun (idx : Context.index_def) ->
                     if
                       String.lowercase_ascii idx.Context.idx_column
                       = String.lowercase_ascii c
                     then begin
                       let idx = fresh_index ctx idx in
                       Some
                         (Bdbms_index.Btree.search idx.Context.tree
                            (Context.index_key v))
                     end
                     else None))
          (equality_conjuncts p)
  in
  let keep tuple =
    match pred with None -> true | Some p -> Expr.eval_pred schema tuple p
  in
  match candidates with
  | Some rows ->
      List.sort_uniq compare rows
      |> List.filter_map (fun row ->
             match Table.get table row with
             | Some tuple when keep tuple -> Some (row, tuple)
             | _ -> None)
  | None ->
      Table.fold table ~init:[] ~f:(fun acc row tuple ->
          if keep tuple then (row, tuple) :: acc else acc)
      |> List.rev

(* Update; returns the (row, column-name) cells written. *)
let do_update (ctx : Context.t) ~user ~table:table_name sets where =
  let table = find_table ctx table_name in
  let schema = Table.schema table in
  let resolve = make_resolver schema [ table_name ] in
  let sets =
    List.map
      (fun (c, e) ->
        let c = resolve c in
        check_acl ctx ~user Acl.Update ~table:table_name ~column:c ();
        (c, Schema.index_of_exn schema c, resolve_expr resolve e))
      sets
  in
  let rows = matching_rows ctx table where in
  let touched = ref [] in
  List.iter
    (fun (row, tuple) ->
      List.iter
        (fun (cname, col, expr) ->
          let value =
            coerce (Expr.eval schema tuple expr) (Schema.column_at schema col).Schema.ty
          in
          let old_value = ok_or_fail (Table.update_cell table ~row ~col value) in
          index_note_update ctx ~table:table_name ~row ~column:cname ~old_value
            ~new_value:value;
          Stats_reg.note_update ctx.Context.tstats table_name ~col value;
          ignore
            (Approval.log_update ctx.approval ~table:table_name ~row ~col
               ~column_name:cname ~old_value ~user);
          note_tracker_report ctx
            (Tracker.on_cell_update ctx.tracker ~table:table_name ~row ~col);
          touched := (row, cname) :: !touched)
        sets)
    rows;
  let touched = List.rev !touched in
  if touched <> [] then
    record_local_prov ctx ~table
      ~region:(Region.Cells touched)
      ~operation:Prov_record.Local_update;
  touched

(* Delete; returns the (row, tuple) pairs removed. *)
let do_delete (ctx : Context.t) ~user ~table:table_name where =
  check_acl ctx ~user Acl.Delete ~table:table_name ();
  let table = find_table ctx table_name in
  let rows = matching_rows ctx table where in
  List.iter
    (fun (row, tuple) ->
      ignore (Table.delete table row);
      index_note_delete ctx ~table:table_name ~row tuple;
      Stats_reg.note_delete ctx.Context.tstats table_name tuple;
      ignore (Approval.log_delete ctx.approval ~table:table_name ~row ~old_tuple:tuple ~user);
      (* dependents of a deleted row cannot be recomputed: mark them *)
      let arity = Schema.arity (Table.schema table) in
      for col = 0 to arity - 1 do
        note_tracker_report ctx
          (Tracker.on_cell_update ctx.tracker ~table:table_name ~row ~col)
      done)
    rows;
  rows

(* -------------------------------------------------- annotation commands *)

let single_target_table targets =
  match List.sort_uniq compare (List.map (fun (t, _) -> String.lowercase_ascii t) targets) with
  | [ _ ] -> fst (List.hd targets)
  | _ -> fail "all annotation tables in one command must belong to one user table"

(* The region covered by an ON (SELECT ...): rows matching the WHERE, and
   the projected columns (all columns when the item list is [*]). *)
let region_of_select (ctx : Context.t) ~table_name (sel : Ast.select) =
  (match sel.Ast.from with
  | [ f ] when String.lowercase_ascii f.Ast.table = String.lowercase_ascii table_name -> ()
  | _ -> fail "the ON (SELECT ...) must select from %s only" table_name);
  let table = find_table ctx table_name in
  let schema = Table.schema table in
  let resolve = make_resolver schema [ table_name ] in
  let rows = List.map fst (matching_rows ctx table sel.Ast.where) in
  match sel.Ast.items with
  | [ Ast.Star ] -> Region.Rows rows
  | items ->
      let cols =
        List.map
          (function
            | Ast.Item { expr = Ast.Col_ref c; _ } -> resolve c
            | _ -> fail "the ON (SELECT ...) projection must list plain columns")
          items
      in
      Region.Cells (List.concat_map (fun row -> List.map (fun c -> (row, c)) cols) rows)

let parse_annotation_body value =
  match Xml.parse value with
  | doc -> doc
  | exception Xml.Parse_error _ -> Xml.element "Annotation" [ Xml.text value ]

let deleted_log_table (ctx : Context.t) table =
  let log_name = "_deleted_" ^ Table.name table in
  match Catalog.find ctx.catalog log_name with
  | Some t -> t
  | None ->
      ok_or_fail (Catalog.create_table ctx.catalog ~name:log_name (Table.schema table))

let do_add_annotation (ctx : Context.t) ~user targets value on =
  let table_name = single_target_table targets in
  let ann_tables = List.map snd targets in
  let body = parse_annotation_body value in
  let add ~table ~region =
    ok_or_fail (Manager.add ctx.ann ~table ~ann_tables ~body ~author:user ~region ())
  in
  match on with
  | Ast.On_select sel ->
      let region = region_of_select ctx ~table_name sel in
      let table = find_table ctx table_name in
      let ann = add ~table ~region in
      Message (Printf.sprintf "annotation %s added" ann.Ann.id)
  | Ast.On_insert { table; values } ->
      if String.lowercase_ascii table <> String.lowercase_ascii table_name then
        fail "ON (INSERT ...) must target %s" table_name;
      let rows = do_insert ctx ~user ~table values in
      let ann = add ~table:(find_table ctx table_name) ~region:(Region.Rows rows) in
      Message
        (Printf.sprintf "%d row(s) inserted, annotation %s added" (List.length rows)
           ann.Ann.id)
  | Ast.On_update { table; sets; where } ->
      if String.lowercase_ascii table <> String.lowercase_ascii table_name then
        fail "ON (UPDATE ...) must target %s" table_name;
      let cells = do_update ctx ~user ~table sets where in
      if cells = [] then Message "0 cells updated, no annotation added"
      else begin
        let ann =
          add ~table:(find_table ctx table_name) ~region:(Region.Cells cells)
        in
        Message
          (Printf.sprintf "%d cell(s) updated, annotation %s added" (List.length cells)
             ann.Ann.id)
      end
  | Ast.On_delete { table; where } ->
      if String.lowercase_ascii table <> String.lowercase_ascii table_name then
        fail "ON (DELETE ...) must target %s" table_name;
      let tbl = find_table ctx table in
      let log = deleted_log_table ctx tbl in
      let deleted = do_delete ctx ~user ~table where in
      let log_rows =
        List.map (fun (_, tuple) -> ok_or_fail (Table.insert log tuple)) deleted
      in
      (* the deleted tuples live on in the log table, annotated with the
         reason for their deletion (Section 3.2) *)
      if log_rows = [] then Message "0 rows deleted"
      else begin
        (* the annotation table must exist on the log table too *)
        List.iter
          (fun at ->
            if
              not
                (Manager.has_annotation_table ctx.ann ~table_name:(Table.name log)
                   ~name:at)
            then
              ignore (Manager.create_annotation_table ctx.ann ~table:log ~name:at ()))
          ann_tables;
        let ann = add ~table:log ~region:(Region.Rows log_rows) in
        Message
          (Printf.sprintf "%d row(s) deleted into %s, annotation %s added"
             (List.length log_rows) (Table.name log) ann.Ann.id)
      end

let do_archive_restore (ctx : Context.t) ~restore targets between sel =
  let table_name = single_target_table targets in
  let ann_tables = List.map snd targets in
  let region = region_of_select ctx ~table_name sel in
  let table = find_table ctx table_name in
  let f = if restore then Manager.restore else Manager.archive in
  let n = ok_or_fail (f ctx.ann ~table ~ann_tables ?between ~region ()) in
  Message
    (Printf.sprintf "%d annotation(s) %s" n (if restore then "restored" else "archived"))

(* ---------------------------------------------------------- bulk copy *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> fail "cannot open %s: %s" path e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let write_file path contents =
  match open_out_bin path with
  | exception Sys_error e -> fail "cannot write %s: %s" path e
  | oc ->
      output_string oc contents;
      close_out oc

(* a CSV field interpreted against a column type; empty means NULL *)
let value_of_field ty field =
  if field = "" then Value.VNull
  else
    match ty with
    | Value.TInt -> (
        match int_of_string_opt field with
        | Some n -> Value.VInt n
        | None -> fail "bad INT field %S" field)
    | Value.TFloat -> (
        match float_of_string_opt field with
        | Some f -> Value.VFloat f
        | None -> fail "bad FLOAT field %S" field)
    | Value.TBool -> (
        match String.lowercase_ascii field with
        | "true" | "t" | "1" -> Value.VBool true
        | "false" | "f" | "0" -> Value.VBool false
        | _ -> fail "bad BOOL field %S" field)
    | Value.TString -> Value.VString field
    | Value.TDna -> Value.VDna field
    | Value.TProtein -> Value.VProtein field
    | Value.TRle -> (
        match Rle.of_string field with
        | r -> Value.VRle r
        | exception Invalid_argument _ -> Value.VRle (Rle.encode field))

let do_copy_from ctx ~user ~table:table_name ~path ~format =
  let table = find_table ctx table_name in
  let schema = Table.schema table in
  let values =
    match format with
    | Ast.Csv -> (
        match Io_formats.parse_csv (read_file path) with
        | Error e -> fail "CSV parse error in %s: %s" path e
        | Ok rows ->
            List.map
              (fun fields ->
                if List.length fields <> Schema.arity schema then
                  fail "CSV row has %d fields, %s has %d columns"
                    (List.length fields) table_name (Schema.arity schema);
                List.mapi
                  (fun i f -> value_of_field (Schema.column_at schema i).Schema.ty f)
                  fields)
              rows)
    | Ast.Fasta -> (
        match Io_formats.parse_fasta (read_file path) with
        | Error e -> fail "FASTA parse error in %s: %s" path e
        | Ok records ->
            let arity = Schema.arity schema in
            if arity < 2 then fail "FASTA import needs at least (id, sequence) columns";
            List.map
              (fun (r : Io_formats.fasta_record) ->
                let seq_ty = (Schema.column_at schema (arity - 1)).Schema.ty in
                let seq = value_of_field seq_ty r.Io_formats.sequence in
                let id = Value.VString r.Io_formats.id in
                if arity = 2 then [ id; seq ]
                else
                  [ id; Value.VString r.Io_formats.description ]
                  @ List.init (arity - 3) (fun _ -> Value.VNull)
                  @ [ seq ])
              records)
  in
  let rows = do_insert ctx ~user ~table:table_name values in
  List.length rows

let do_copy_to ctx ~table:table_name ~path ~format =
  let table = find_table ctx table_name in
  let schema = Table.schema table in
  let contents =
    match format with
    | Ast.Csv ->
        let render v = if Value.is_null v then "" else Value.to_display v in
        Io_formats.to_csv
          (List.map
             (fun (_, tuple) -> Array.to_list (Array.map render tuple))
             (Table.to_list table))
    | Ast.Fasta ->
        let arity = Schema.arity schema in
        if arity < 2 then fail "FASTA export needs at least (id, sequence) columns";
        Io_formats.to_fasta
          (List.map
             (fun (_, tuple) ->
               {
                 Io_formats.id = Value.to_display (Tuple.get tuple 0);
                 description =
                   (if arity >= 3 && not (Value.is_null (Tuple.get tuple 1)) then
                      Value.to_display (Tuple.get tuple 1)
                    else "");
                 sequence = Value.to_display (Tuple.get tuple (arity - 1));
               })
             (Table.to_list table))
  in
  write_file path contents;
  Table.live_count table

(* ------------------------------------------------------------ dependency *)

let do_create_dependency (ctx : Context.t) id sources target procedure =
  let proc =
    match Procedure.Registry.find (Tracker.registry ctx.tracker) procedure with
    | Some p -> p
    | None ->
        fail "unknown procedure %s (register it through the API first)" procedure
  in
  let rule =
    Rule.make ~id
      ~sources:(List.map (fun (t, c) -> Rule.attr t c) sources)
      ~target:(Rule.attr (fst target) (snd target))
      proc
  in
  ok_or_fail (Tracker.add_rule ctx.tracker rule);
  Message (Printf.sprintf "dependency %s created: %s" id (Rule.describe rule))

let show_outdated (ctx : Context.t) table_name =
  let table = find_table ctx table_name in
  let schema = Table.schema table in
  let cells = Tracker.outdated_cells ctx.tracker ~table:table_name in
  let out_schema =
    Schema.make
      [
        { Schema.name = "row"; ty = Value.TInt };
        { Schema.name = "column"; ty = Value.TString };
      ]
  in
  let rows =
    List.map
      (fun (row, col) ->
        let cname =
          if col < Schema.arity schema then (Schema.column_at schema col).Schema.name
          else string_of_int col
        in
        {
          Propagate.tuple = [| Value.VInt row; Value.VString cname |];
          anns = [| []; [] |];
        })
      cells
  in
  Rows { Propagate.schema = out_schema; rows }

(* ---------------------------------------------------- ANALYZE statistics *)

(* (Re)compute one table's statistics from a full scan of its live rows,
   register them, and bump the counters.  Returns the row count. *)
let analyze_table (ctx : Context.t) name =
  let table = find_table ctx name in
  let rows =
    List.rev (Table.fold table ~init:[] ~f:(fun acc _row tuple -> tuple :: acc))
  in
  let ts =
    Tstats.analyze ~table:(Table.name table) ~schema:(Table.schema table) ~rows
  in
  Stats_reg.set ctx.Context.tstats ts;
  Stats.record_stats_analyzed (Disk.stats ctx.Context.disk);
  List.length rows

(* Adaptive feedback, second half: tables whose statistics drifted get
   re-analyzed at the next statement boundary ([Db.exec] calls this after
   each successful statement).  Dropped tables just lose their entry. *)
let reanalyze_stale (ctx : Context.t) =
  List.iter
    (fun (ts : Tstats.t) ->
      if Catalog.exists ctx.Context.catalog ts.Tstats.table then
        ignore (analyze_table ctx ts.Tstats.table)
      else Stats_reg.remove ctx.Context.tstats ts.Tstats.table)
    (Stats_reg.stale ctx.Context.tstats)

(* -------------------------------------------------------- explain analyze *)

(* Run a query with the EXPLAIN ANALYZE recorder installed, returning the
   recorded operator tree alongside the result and total wall time.
   Exposed for the differential tests, which check per-node actual row
   counts against the naive oracle. *)
let analyze_query (ctx : Context.t) ~user (q : Ast.query) =
  let an = Analyze.create (Disk.stats ctx.Context.disk) in
  ctx.Context.analyze <- Some an;
  Fun.protect
    ~finally:(fun () -> ctx.Context.analyze <- None)
    (fun () ->
      let result, elapsed =
        Timer.timed (fun () ->
            Obs.span ctx.Context.obs "explain_analyze" (fun () ->
                exec_query ctx ~user q))
      in
      (Analyze.root an, result, elapsed))

(* Adaptive feedback, first half: walk the recorded tree and compare each
   table-attributed node's estimate with what actually came out of it.  A
   drift beyond [drift_ratio] in either direction means the statistics no
   longer describe the data; mark them stale so the next statement
   boundary re-analyzes. *)
let drift_ratio = 4.0

let note_estimate_drift (ctx : Context.t) root =
  let rec walk (n : Analyze.node) =
    (match n.Analyze.table with
    | Some table
      when (not (Float.is_nan n.Analyze.est_rows)) && n.Analyze.loops > 0 ->
        let est = Float.max 1.0 n.Analyze.est_rows in
        let actual = Float.max 1.0 (float_of_int n.Analyze.actual_rows) in
        let ratio = Float.max (est /. actual) (actual /. est) in
        if ratio > drift_ratio && Stats_reg.mark_stale ctx.Context.tstats table
        then Stats.record_stats_stale (Disk.stats ctx.Context.disk)
    | _ -> ());
    List.iter walk n.Analyze.children
  in
  walk root

let explain_analyze ctx ~user q =
  match analyze_query ctx ~user q with
  | Some root, result, elapsed ->
      note_estimate_drift ctx root;
      Analyze.render ~total_ns:elapsed
        ~returned:(Propagate.row_count result)
        root
  | None, _, _ -> "EXPLAIN ANALYZE: no operators recorded"

(* --------------------------------------------------------------- execute *)

let execute_exn (ctx : Context.t) ~user (stmt : Ast.statement) : outcome =
  Cancel.check ctx.Context.cancel;
  (match ctx.Context.read_only with
  | Some reason when is_write_stmt stmt -> raise (Read_only reason)
  | _ -> ());
  (match sys_write_target stmt with
  | Some view -> raise (View_read_only view)
  | None -> ());
  match stmt with
  | Ast.Query q -> Rows (exec_query ctx ~user q)
  | Ast.Explain q -> Message (Cost.explain ctx q)
  | Ast.Explain_analyze q -> Message (explain_analyze ctx ~user q)
  | Ast.Create_table { name; columns } ->
      ddl_hit ctx;
      let schema =
        Schema.make (List.map (fun (n, ty) -> { Schema.name = n; ty }) columns)
      in
      ignore (ok_or_fail (Catalog.create_table ctx.catalog ~name schema));
      Message (Printf.sprintf "table %s created" name)
  | Ast.Drop_table name ->
      ddl_hit ctx;
      if Catalog.drop_table ctx.catalog name then begin
        Stats_reg.remove ctx.Context.tstats name;
        Message (Printf.sprintf "table %s dropped" name)
      end
      else fail "unknown table %s" name
  | Ast.Analyze_stats target ->
      let tables =
        match target with
        | Some name -> [ Table.name (find_table ctx name) ]
        | None -> Catalog.table_names ctx.catalog
      in
      List.iter (fun t -> check_acl ctx ~user Acl.Select ~table:t ()) tables;
      let total =
        List.fold_left (fun acc name -> acc + analyze_table ctx name) 0 tables
      in
      Message
        (Printf.sprintf "analyzed %d table%s (%d rows)" (List.length tables)
           (if List.length tables = 1 then "" else "s")
           total)
  | Ast.Insert { table; values } ->
      let rows = do_insert ctx ~user ~table values in
      Count { affected = List.length rows; verb = "inserted" }
  | Ast.Update { table; sets; where } ->
      let cells = do_update ctx ~user ~table sets where in
      Count { affected = List.length cells; verb = "updated (cells)" }
  | Ast.Delete { table; where } ->
      let rows = do_delete ctx ~user ~table where in
      Count { affected = List.length rows; verb = "deleted" }
  | Ast.Create_ann_table { table; name; scheme; category; indexed } ->
      let tbl = find_table ctx table in
      let category = Option.map Ann.category_of_name category in
      ddl_hit ctx;
      ok_or_fail
        (Manager.create_annotation_table ctx.ann ~table:tbl ~name ?scheme ?category
           ~indexed ());
      Message (Printf.sprintf "annotation table %s created on %s" name table)
  | Ast.Drop_ann_table { table; name } ->
      if Manager.drop_annotation_table ctx.ann ~table_name:table ~name then
        Message (Printf.sprintf "annotation table %s dropped from %s" name table)
      else fail "no annotation table %s on %s" name table
  | Ast.Add_annotation { targets; value; on } -> do_add_annotation ctx ~user targets value on
  | Ast.Archive_annotation { targets; between; on } ->
      do_archive_restore ctx ~restore:false targets between on
  | Ast.Restore_annotation { targets; between; on } ->
      do_archive_restore ctx ~restore:true targets between on
  | Ast.Start_approval { table; columns; approver } ->
      ok_or_fail (Approval.start ctx.approval ~table ?columns ~approved_by:approver ());
      Message (Printf.sprintf "content approval started on %s" table)
  | Ast.Stop_approval { table; columns } ->
      if Approval.stop ctx.approval ~table ?columns () then
        Message (Printf.sprintf "content approval stopped on %s" table)
      else fail "content approval was not on for %s" table
  | Ast.Approve id ->
      ok_or_fail (Approval.approve ctx.approval id ~by:user);
      Message (Printf.sprintf "entry %d approved" id)
  | Ast.Disapprove id ->
      ok_or_fail (Approval.disapprove ctx.approval id ~by:user);
      Message (Printf.sprintf "entry %d disapproved; inverse statement executed" id)
  | Ast.Show_pending table -> Entries (Approval.pending ctx.approval ?table ())
  | Ast.Grant { privilege; table; columns; grantee } ->
      ddl_hit ctx;
      ok_or_fail (Acl.grant ctx.acl privilege ~table ?columns:columns grantee);
      Message "granted"
  | Ast.Revoke { privilege; table; grantee } ->
      if Acl.revoke ctx.acl privilege ~table grantee then Message "revoked"
      else fail "no matching grant"
  | Ast.Create_user name ->
      ok_or_fail (Principal.add_user ctx.principals name);
      Message (Printf.sprintf "user %s created" name)
  | Ast.Create_group name ->
      ok_or_fail (Principal.add_group ctx.principals name);
      Message (Printf.sprintf "group %s created" name)
  | Ast.Add_user_to_group { user = u; group } ->
      ok_or_fail (Principal.add_to_group ctx.principals ~user:u ~group);
      Message (Printf.sprintf "%s added to %s" u group)
  | Ast.Create_dependency { id; sources; target; procedure } ->
      ddl_hit ctx;
      do_create_dependency ctx id sources target procedure
  | Ast.Link_dependency { id; source_rows; target_row } ->
      ok_or_fail (Tracker.link_rows ctx.tracker ~rule_id:id ~source_rows ~target_row);
      Message (Printf.sprintf "dependency %s linked" id)
  | Ast.Validate_cell { table; row; column } ->
      let tbl = find_table ctx table in
      let col = Schema.index_of_exn (Table.schema tbl) column in
      Tracker.revalidate ctx.tracker ~table ~row ~col;
      Message (Printf.sprintf "%s[%d].%s validated" table row column)
  | Ast.Create_index { name; table; column } ->
      let tbl = find_table ctx table in
      if not (Schema.mem (Table.schema tbl) column) then
        fail "no column %s on %s" column table;
      let key = String.lowercase_ascii name in
      if Hashtbl.mem ctx.indexes key then fail "index %s already exists" name;
      ddl_hit ctx;
      let idx =
        {
          Context.idx_name = name;
          idx_table = table;
          idx_column = column;
          tree = Bdbms_index.Btree.create ctx.bp;
          built = false;
          dirty = false;
        }
      in
      build_index ctx idx;
      Hashtbl.replace ctx.indexes key idx;
      Message (Printf.sprintf "index %s created on %s(%s)" name table column)
  | Ast.Drop_index name ->
      let key = String.lowercase_ascii name in
      if Hashtbl.mem ctx.indexes key then begin
        Hashtbl.remove ctx.indexes key;
        Message (Printf.sprintf "index %s dropped" name)
      end
      else fail "no index %s" name
  | Ast.Show_outdated table -> show_outdated ctx table
  | Ast.Copy_from { table; path; format } ->
      check_acl ctx ~user Acl.Insert ~table ();
      let n = do_copy_from ctx ~user ~table ~path ~format in
      Count { affected = n; verb = "imported" }
  | Ast.Copy_to { table; path; format } ->
      check_acl ctx ~user Acl.Select ~table ();
      let n = do_copy_to ctx ~table ~path ~format in
      Count { affected = n; verb = "exported" }
  | Ast.Show_provenance { table; row; column; at } ->
      let tbl = find_table ctx table in
      let col = Schema.index_of_exn (Table.schema tbl) column in
      let records =
        match at with
        | Some t -> (
            (* Figure 8: the record governing the value at time t *)
            match Prov_store.source_at ctx.prov ~table_name:table ~row ~col ~at:t with
            | Some r -> [ r ]
            | None -> [])
        | None -> Prov_store.records_for_cell ctx.prov ~table_name:table ~row ~col
      in
      let out_schema =
        Schema.make
          [
            { Schema.name = "at"; ty = Value.TInt };
            { Schema.name = "operation"; ty = Value.TString };
            { Schema.name = "actor"; ty = Value.TString };
          ]
      in
      let rows =
        List.map
          (fun (r : Prov_record.t) ->
            {
              Propagate.tuple =
                [|
                  Value.VInt r.Prov_record.at;
                  Value.VString (Prov_record.describe r);
                  Value.VString r.Prov_record.actor;
                |];
              anns = [| []; []; [] |];
            })
          records
      in
      Rows { Propagate.schema = out_schema; rows }
  | Ast.Show_tables ->
      let out_schema =
        Schema.make
          [
            { Schema.name = "table_name"; ty = Value.TString };
            { Schema.name = "rows"; ty = Value.TInt };
            { Schema.name = "annotation_tables"; ty = Value.TString };
          ]
      in
      let rows =
        List.map
          (fun name ->
            let table = Catalog.find_exn ctx.catalog name in
            {
              Propagate.tuple =
                [|
                  Value.VString name;
                  Value.VInt (Table.live_count table);
                  Value.VString
                    (String.concat ","
                       (Manager.annotation_table_names ctx.ann ~table_name:name));
                |];
              anns = [| []; []; [] |];
            })
          (Catalog.table_names ctx.catalog)
      in
      Rows { Propagate.schema = out_schema; rows }
  | Ast.Describe name ->
      let schema, indexed_cols =
        if Sysview.is_sys name then
          match Sysview.schema_of name with
          | Some s -> (s, [])
          | None -> fail "unknown system view %s" name
        else
          ( Table.schema (find_table ctx name),
            Context.indexes_on ctx ~table:name
            |> List.map (fun (i : Context.index_def) ->
                   String.lowercase_ascii i.Context.idx_column) )
      in
      let out_schema =
        Schema.make
          [
            { Schema.name = "column"; ty = Value.TString };
            { Schema.name = "type"; ty = Value.TString };
            { Schema.name = "indexed"; ty = Value.TBool };
          ]
      in
      let rows =
        List.map
          (fun (c : Schema.column) ->
            {
              Propagate.tuple =
                [|
                  Value.VString c.Schema.name;
                  Value.VString (Value.type_name c.Schema.ty);
                  Value.VBool (List.mem (String.lowercase_ascii c.Schema.name) indexed_cols);
                |];
              anns = [| []; []; [] |];
            })
          (Schema.columns schema)
      in
      Rows { Propagate.schema = out_schema; rows }
  | Ast.Show_dependencies ->
      let rules = Rule_set.rules (Tracker.rule_set ctx.tracker) in
      let derived = Rule_set.derived_rules (Tracker.rule_set ctx.tracker) in
      Message
        (String.concat "\n" (List.map Rule.describe rules @ List.map Rule.describe derived))

let execute ctx ~user stmt =
  match execute_exn ctx ~user stmt with
  | outcome -> Ok outcome
  | exception Exec_error msg -> Error msg
  | exception View_read_only view ->
      Error (Printf.sprintf "%s is a read-only system view" view)
  | exception Expr.Eval_error msg -> Error msg
  | exception Not_found -> Error "name not found"
  | exception Invalid_argument msg -> Error msg

let run ctx ~user src =
  match Obs.span ctx.Context.obs "parse" (fun () -> Parser.parse src) with
  | Error e -> Error e
  | Ok stmt ->
      Obs.span ctx.Context.obs "execute" (fun () -> execute ctx ~user stmt)

let run_script ctx ~user src =
  match
    Obs.span ctx.Context.obs "parse" (fun () -> Parser.parse_multi src)
  with
  | Error e -> Error e
  | Ok stmts ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | stmt :: rest -> (
            match
              Obs.span ctx.Context.obs "execute" (fun () ->
                  execute ctx ~user stmt)
            with
            | Ok outcome -> go (outcome :: acc) rest
            | Error _ as e -> e)
      in
      go [] stmts

(* ---------------------------------------------------------------- render *)

let render outcome =
  match outcome with
  | Message m -> m
  | Count { affected; verb } -> Printf.sprintf "%d %s" affected verb
  | Entries entries ->
      if entries = [] then "no pending operations"
      else
        String.concat "\n"
          (List.map
             (fun (e : Approval.entry) ->
               Printf.sprintf "#%d %s by %s at t%d [%s] inverse: %s" e.Approval.id
                 (match e.Approval.operation with
                 | Approval.Op_insert { table; row } ->
                     Printf.sprintf "INSERT %s row %d" table row
                 | Approval.Op_update { table; row; col; _ } ->
                     Printf.sprintf "UPDATE %s row %d col %d" table row col
                 | Approval.Op_delete { table; row; _ } ->
                     Printf.sprintf "DELETE %s row %d" table row)
                 e.Approval.user e.Approval.at
                 (match e.Approval.status with
                 | Approval.Pending -> "pending"
                 | Approval.Approved -> "approved"
                 | Approval.Disapproved -> "disapproved")
                 (Approval.inverse_description e.Approval.operation))
             entries)
  | Rows rs ->
      let buf = Buffer.create 256 in
      let cols = Schema.columns rs.Propagate.schema in
      Buffer.add_string buf
        (String.concat " | " (List.map (fun c -> c.Schema.name) cols));
      Buffer.add_char buf '\n';
      List.iter
        (fun at ->
          Buffer.add_string buf (Tuple.to_display at.Propagate.tuple);
          (* annotations as footnotes per column *)
          Array.iteri
            (fun i anns ->
              List.iter
                (fun ann ->
                  Buffer.add_string buf
                    (Printf.sprintf "\n    @%s %s"
                       (List.nth cols i).Schema.name
                       (Format.asprintf "%a" Ann.pp ann)))
                anns)
            at.Propagate.anns;
          Buffer.add_char buf '\n')
        rs.Propagate.rows;
      Buffer.add_string buf (Printf.sprintf "(%d rows)" (List.length rs.Propagate.rows));
      Buffer.contents buf
