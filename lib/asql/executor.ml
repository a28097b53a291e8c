module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Table = Bdbms_relation.Table
module Catalog = Bdbms_relation.Catalog
module Expr = Bdbms_relation.Expr
module Batch = Bdbms_relation.Batch
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

(* Cooperative cancellation checkpoints: batch sources check on every
   batch, the naive oracle once per [checkpoint_mask + 1] annotated rows
   or considered join pairs.  A disarmed token wraps
   nothing, so the idle hot path pays a single branch per pipeline
   construction — E17 guards this at <5%. *)
let checkpoint_mask = 63

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

(* Checkpoint hook for the naive oracle's nested-loop join: called once
   per considered pair, far more often than either
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

(* The annotation envelope of one stored row: per column, the
   annotations of the ANNOTATION(...) tables ([None]: no user
   annotations; [*]: all of them), then the system outdated mark of
   Section 5 when the cell awaits re-verification.  The one place these
   semantics live: the naive oracle's scan and the batch engine's attach
   step both build envelopes here. *)
let envelope (ctx : Context.t) ~ann_tables ~table ~row ~arity =
  let user_tables =
    match ann_tables with
    | Some [ "*" ] -> None
    | names -> names
  in
  Array.init arity (fun col ->
      let user_anns =
        if ann_tables = None then []
        else
          Manager.for_cell ctx.Context.ann ~table_name:table
            ?ann_tables:user_tables ~row ~col ()
      in
      if Tracker.is_outdated ctx.Context.tracker ~table ~row ~col then
        user_anns @ [ outdated_ann ctx ~table ~row ~col ]
      else user_anns)

(* The naive oracle's annotated scan of any relation: every live row with
   its envelope.  Virtual rows carry empty envelopes: system views have
   no annotation tables (and no outdated marks). *)
let scan_rel (ctx : Context.t) rel ~ann_tables =
  match rel with
  | Plan.Base table ->
      let schema = Table.schema table in
      let arity = Schema.arity schema in
      let name = Table.name table in
      let stats = Disk.stats ctx.Context.disk in
      let seen = ref 0 in
      let rows =
        List.map
          (fun (row, tuple) ->
            incr seen;
            if !seen land checkpoint_mask = 0 then Cancel.check ctx.Context.cancel;
            Stats.record_ann_envelope stats;
            { Propagate.tuple;
              anns = envelope ctx ~ann_tables ~table:name ~row ~arity })
          (Table.to_list table)
      in
      { Propagate.schema; rows }
  | Plan.Virtual { v_schema; v_rows; _ } ->
      let arity = Schema.arity v_schema in
      {
        Propagate.schema = v_schema;
        rows =
          List.map
            (fun tuple -> { Propagate.tuple; anns = Array.make arity [] })
            (Array.to_list v_rows);
      }

(* Both engines refuse ANNOTATION(...) on a system view, before any scan. *)
let check_ann_tables (entries : (Ast.from_item * Plan.rel) list) =
  List.iter
    (fun ((f : Ast.from_item), rel) ->
      match rel with
      | Plan.Virtual { v_name; _ } when f.Ast.ann_tables <> None ->
          fail "%s is a system view: annotation tables are not supported" v_name
      | _ -> ())
    entries

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
  Table.iter table (fun row tuple -> Write.index_add tree (Tuple.get tuple col) ~row);
  idx.Context.tree <- Some tree;
  tree

(* The index's tree, built on its first use. *)
let fresh_index ctx (idx : Context.index_def) =
  match idx.Context.tree with Some tree -> tree | None -> build_index ctx idx

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
   {!Analyze} recorder: the batch engine meters {!Cost}'s nodes for its
   plan — the tree EXPLAIN prints — batch pull by batch pull, and the
   naive oracle times its materialized stages.  Without a recorder no
   node is built. *)

(* Canonical-order restore for permuted plans: the pipeline's accumulated
   layout is the slices in join order, but every column keeps its (unique,
   possibly alias-prefixed) frame name, so one projection by the frame
   schema's names puts FROM order back before the shared tail runs. *)
let frame_names (plan : Plan.t) =
  List.map
    (fun (c : Schema.column) -> c.Schema.name)
    (Schema.columns plan.Plan.schema)

(* Naive-oracle metering: evaluate [f] under the node [mk] builds,
   charging its rows and runtime to it; no node without a recorder. *)
let analyze_block an mk f =
  match an with
  | None -> (f (), None)
  | Some a ->
      let n = mk () in
      let rs = Analyze.timed_block a n f in
      Analyze.record_rows n (Propagate.row_count rs);
      (rs, Some n)

(* The materialized tail (everything finish_select does) as one RESULT
   node above [input_n], which then becomes the recorded root. *)
let analyze_result an sel input_n f =
  match (an, input_n) with
  | Some a, Some input_n ->
      let n = Cost.result_node sel input_n in
      let r = Analyze.timed_block a n f in
      Analyze.record_rows n (Propagate.row_count r);
      Analyze.set_root a n;
      r
  | _ -> f ()

(* Projection pruning for the batch engine: the set of joined-schema
   columns a SELECT can reach at runtime.  Every runtime read is
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
   HAVING over aggregate outputs).  An annotated query also reads each
   slice's hidden row-id column (its envelopes are built from it) and its
   PROMOTE columns; annotation conditions read no column value. *)
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
        List.iter mark_expr src.Plan.pushed;
        Option.iter (fun i -> needed.(i) <- true) src.Plan.row_id
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
          | Plan.Nested -> () (* a block join reads no column *))
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
                  Option.iter mark_raw (Expr.agg_column agg)))
        sel.Ast.items;
      needed
    with
    | exception _ -> None
    | needed -> if Array.for_all Fun.id needed then None else Some needed

(* The aggregate half of a SELECT list, shared by both SELECT tails:
   the GROUP BY keys and aggregates resolved against the input, every
   plain item checked to be a grouping key, and each item's (grouped
   column, output name) pair in item order. *)
let aggregate_items resolve (sel : Ast.select) =
  let keys = List.map resolve sel.Ast.group_by in
  let aggs =
    List.filter_map
      (function
        | Ast.Item { expr = Ast.Aggregate agg; alias; _ } ->
            let agg =
              match agg with
              | Expr.Count_star -> Expr.Count_star
              | Expr.Count c -> Expr.Count (resolve c)
              | Expr.Sum c -> Expr.Sum (resolve c)
              | Expr.Avg c -> Expr.Avg (resolve c)
              | Expr.Min c -> Expr.Min (resolve c)
              | Expr.Max c -> Expr.Max (resolve c)
            in
            Some (agg, Option.value alias ~default:(Expr.aggregate_name agg))
        | _ -> None)
      sel.Ast.items
  in
  let out_names =
    List.map
      (function
        | Ast.Item { expr = Ast.Col_ref c; alias; _ } ->
            let n = resolve c in
            if not (List.mem n keys) then
              fail "column %s must appear in GROUP BY" c;
            (n, Option.value alias ~default:c)
        | Ast.Item { expr = Ast.Aggregate agg; alias; _ } ->
            let n = Option.value alias ~default:(Expr.aggregate_name agg) in
            (n, n)
        | Ast.Item { expr = Ast.Scalar _; _ } ->
            fail "computed columns are not supported with GROUP BY"
        | Ast.Star -> fail "SELECT * is not supported with GROUP BY")
      sel.Ast.items
  in
  (keys, aggs, out_names)

(* Rename projected columns to their output names. *)
let output_renames out_names =
  List.filter (fun (src, dst) -> src <> dst) out_names

(* A scalar SELECT list: each plain item's (source column, output name)
   and each computed item's (column, output name, expression).  A
   computed column is extended under a name no identifier can spell and
   takes its alias only at the projection, so an alias may shadow an
   input column. *)
let scalar_items resolve items =
  List.fold_left
    (fun (names, computed) item ->
      match item with
      | Ast.Star -> fail "SELECT * cannot be mixed with other select items"
      | Ast.Item { expr = Ast.Col_ref c; alias; _ } ->
          (names @ [ (resolve c, Option.value alias ~default:c) ], computed)
      | Ast.Item { expr = Ast.Scalar e; alias; _ } ->
          let out =
            match alias with
            | Some a -> a
            | None -> fail "computed columns need AS <name>"
          in
          let col = Printf.sprintf "#%d" (List.length computed) in
          (names @ [ (col, out) ], computed @ [ (col, out, e) ])
      | Ast.Item { expr = Ast.Aggregate _; _ } -> assert false)
    ([], []) items

(* Resolver over a (partly) extended schema: an output name among
   [outputs] ((column, output name) pairs) whose column the schema
   already holds names that column before any input column does.  A
   later computed item sees the computed items' aliases; ORDER BY, which
   sorts before the projection, sees every item's. *)
let output_resolver outputs schema prefixes c =
  match
    List.find_opt
      (fun (col, out) ->
        String.lowercase_ascii out = String.lowercase_ascii c
        && Schema.mem schema col)
      outputs
  with
  | Some (col, _) -> col
  | None -> make_resolver schema prefixes c

let computed_outputs computed = List.map (fun (col, out, _) -> (col, out)) computed

(* Does this SELECT's answer carry per-cell annotation envelopes?  Only
   the annotation operators (and the system outdated warnings of Section
   5, when any are pending) need them; the batch engine then attaches
   envelopes to its surviving rows and runs the annotation-aware tail. *)
let select_needs_anns (ctx : Context.t) (sel : Ast.select) =
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

(* The FROM list's relations, once the user has passed every ACL check
   the query needs. *)
let select_entries (ctx : Context.t) ~user (sel : Ast.select) =
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
  let entries =
    List.map
      (fun (f : Ast.from_item) -> (f, find_rel ctx ~user f.Ast.table))
      sel.Ast.from
  in
  check_ann_tables entries;
  entries

(* The batch engine's plan for a SELECT — what it executes and what
   EXPLAIN describes.  An annotated query's frame carries row ids. *)
let plan_select (ctx : Context.t) ~user (sel : Ast.select) =
  let entries = select_entries ctx ~user sel in
  let frame = Plan.frame ~row_ids:(select_needs_anns ctx sel) entries in
  let resolve = make_resolver frame.Plan.schema frame.Plan.prefixes in
  (* resolve the WHERE up front (same errors as the naive evaluator),
     then let the planner classify its conjuncts *)
  let where =
    Obs.span ctx.Context.obs "resolve" (fun () ->
        Option.map (resolve_expr resolve) sel.Ast.where)
  in
  Obs.span ctx.Context.obs "plan" (fun () -> Plan.build ctx frame ~where)

let rec exec_query (ctx : Context.t) ~user (q : Ast.query) : Propagate.t =
  match q with
  | Ast.Select sel -> exec_select ctx ~user sel
  | Ast.Union (a, b) -> exec_compound ctx ~user `Union Propagate.union a b
  | Ast.Intersect (a, b) ->
      exec_compound ctx ~user `Intersect Propagate.intersect a b
  | Ast.Except (a, b) -> exec_compound ctx ~user `Except Propagate.except a b

(* Compound queries under EXPLAIN ANALYZE: each side's recorder root is
   captured and reparented under the combining node. *)
and exec_compound ctx ~user op combine a b =
  match ctx.Context.analyze with
  | None -> combine (exec_query ctx ~user a) (exec_query ctx ~user b)
  | Some an ->
      let side q =
        let rs = exec_query ctx ~user q in
        (rs, Option.get (Analyze.root an))
      in
      let ra, na = side a in
      let rb, nb = side b in
      let node = Cost.set_op_node op na nb in
      let out = Analyze.timed_block an node (fun () -> combine ra rb) in
      Analyze.record_rows node (Propagate.row_count out);
      Analyze.set_root an node;
      out

and exec_select ctx ~user (sel : Ast.select) : Propagate.t =
  match ctx.Context.exec_mode with
  | `Naive -> exec_select_naive ctx (select_entries ctx ~user sel) sel
  | `Batch ->
      (* annotation semantics pick nothing but whether envelopes are
         attached: every SELECT runs the same pipeline *)
      let plan = plan_select ctx ~user sel in
      if plan.Plan.row_ids then
        Stats.record_batch_fallback (Disk.stats ctx.Context.disk);
      exec_select_batch ctx plan sel

(* The naive reference evaluator: materialize every scan with its
   annotations, cross-product the FROM list, then filter.  Kept verbatim
   (minus index probing) as the semantic oracle the equivalence tests run
   the pipelined engine against. *)
and exec_select_naive ctx entries (sel : Ast.select) : Propagate.t =
  let an = ctx.Context.analyze in
  let est = function
    | Some (n : Analyze.node) -> n.Analyze.est_rows
    | None -> Float.nan
  in
  let multi = List.length entries > 1 in
  let scans =
    List.map
      (fun ((f : Ast.from_item), rel) ->
        analyze_block an
          (fun () ->
            Analyze.node
              ~est_rows:(float_of_int (Plan.rel_live_count rel))
              (Printf.sprintf "SCAN %s" f.Ast.table))
          (fun () ->
            let rs = scan_rel ctx rel ~ann_tables:f.Ast.ann_tables in
            if multi then prefix_schema (Plan.item_prefix f) rs else rs))
      entries
  in
  let joined, joined_n =
    match scans with
    | [] -> assert false
    | first :: rest ->
        List.fold_left
          (fun (acc, acc_n) (rs, rs_n) ->
            analyze_block an
              (fun () ->
                Analyze.node
                  ~est_rows:(est acc_n *. est rs_n)
                  ~children:(Option.to_list acc_n @ Option.to_list rs_n)
                  "NESTED-LOOP JOIN")
              (fun () ->
                Propagate.join ?on_pair:(cancel_hook ctx) acc rs
                  ~on:(Expr.Lit (Value.VBool true))))
          first rest
  in
  let prefixes = List.map Plan.item_prefix sel.Ast.from in
  let resolve = make_resolver joined.Propagate.schema prefixes in
  let filtered, filtered_n =
    match sel.Ast.where with
    | None -> (joined, joined_n)
    | Some e ->
        let sel_f = Plan.selectivity e in
        analyze_block an
          (fun () ->
            Analyze.node
              ~est_rows:(est joined_n *. sel_f)
              ~children:(Option.to_list joined_n)
              (Printf.sprintf "WHERE (selectivity %.2f)" sel_f))
          (fun () -> Propagate.select joined (resolve_expr resolve e))
  in
  analyze_result an sel filtered_n (fun () ->
      finish_select sel filtered prefixes)

(* Vectorized execution over column batches: scans decode page-at-a-time
   into column vectors, WHERE and JOIN run over selection vectors.  A
   plain query streams into the batch tail; an annotated one (its plan
   carries row ids) gets envelopes attached to the surviving rows only,
   then runs the annotation-aware tail. *)
and exec_select_batch ctx (plan : Plan.t) (sel : Ast.select) : Propagate.t =
  let bsrc, plan_n = batch_pipeline ?need:(needed_frame_cols plan sel) ctx plan in
  (* the tails consume columns positionally: a reordered plan restores
     FROM order first *)
  let bsrc =
    if plan.Plan.permuted then
      Vexec.project bsrc
        (List.map (Schema.index_of_exn bsrc.Vexec.schema) (frame_names plan))
    else bsrc
  in
  if plan.Plan.row_ids then
    Obs.span ctx.Context.obs "annotation.propagate" @@ fun () ->
    analyze_result ctx.Context.analyze sel plan_n (fun () ->
        finish_select sel (attach_envelopes ctx plan bsrc) plan.Plan.prefixes)
  else plain_tail ctx plan sel (bsrc, plan_n)

(* The top of an annotated pipeline: each surviving row gets one envelope,
   built slice by slice from (table, row id, column), and the hidden
   row-id columns are projected away — leaving the FROM-order frame the
   naive oracle's join produces. *)
and attach_envelopes ctx (plan : Plan.t) (bsrc : Vexec.src) : Propagate.t =
  let stats = Disk.stats ctx.Context.disk in
  let sources =
    List.sort
      (fun (a : Plan.source) (b : Plan.source) -> compare a.Plan.offset b.Plan.offset)
      (plan.Plan.base :: List.map (fun (st : Plan.step) -> st.Plan.src) plan.Plan.steps)
  in
  (* per source in FROM order: its data columns and its envelope maker *)
  let slices =
    List.map
      (fun (src : Plan.source) ->
        let rid = Option.get src.Plan.row_id in
        let arity = rid - src.Plan.offset in
        let envelope =
          match src.Plan.rel with
          | Plan.Base table ->
              let table = Table.name table
              and ann_tables = src.Plan.item.Ast.ann_tables in
              fun b row ->
                envelope ctx ~ann_tables ~table ~arity
                  ~row:(Value.as_int (Batch.value b ~row ~col:rid))
          | Plan.Virtual _ ->
              let empty = Array.make arity [] in
              fun _ _ -> empty
        in
        (List.init arity (fun i -> src.Plan.offset + i), envelope))
      sources
  in
  let data_cols = List.concat_map fst slices in
  let schema =
    Schema.make (List.map (Schema.column_at plan.Plan.schema) data_cols)
  in
  let data_cols = Array.of_list data_cols in
  let pull = Vexec.rows_of bsrc in
  let rec go acc =
    match pull () with
    | None -> List.rev acc
    | Some (b, row) ->
        Stats.record_ann_envelope stats;
        let tuple = Array.map (fun col -> Batch.value b ~row ~col) data_cols in
        let anns = Array.concat (List.map (fun (_, env) -> env b row) slices) in
        go ({ Propagate.tuple; anns } :: acc)
  in
  { Propagate.schema; rows = go [] }

(* The operator pipeline for one plan: scans (or a [sys.*] view's
   snapshot rows), pushed-down filters and joins, each metered under
   EXPLAIN ANALYZE.  Returns the top batch source and its recorder
   node. *)
and batch_pipeline ?need ctx (plan : Plan.t) =
  let stats = Disk.stats ctx.Context.disk in
  let an = ctx.Context.analyze in
  let batch_rows = ctx.Context.batch_rows in
  let meter n src =
    match an with None -> src | Some a -> Vexec.meter a n src
  in
  let source_batches (src : Plan.source) =
    let row_id = Option.map (fun _ -> Plan.row_id_name) src.Plan.row_id in
    let base =
      match (src.Plan.access, src.Plan.rel) with
      | Plan.Seq_scan, Plan.Base table ->
          (* this source's slice of the frame-wide pruning mask (the
             row-id column is not decoded, so not masked) *)
          let need =
            Option.map
              (fun m ->
                Array.sub m src.Plan.offset (Schema.arity (Table.schema table)))
              need
          in
          Vexec.scan ~batch_rows ?need ?row_id table
      | Plan.Seq_scan, Plan.Virtual { v_rows; _ } ->
          (* [sys.*] rows have no row id: theirs is NULL *)
          let v_rows =
            if row_id = None then v_rows
            else Array.map (fun t -> Array.append t [| Value.VNull |]) v_rows
          in
          Vexec.of_tuples ~stats ~batch_rows src.Plan.schema v_rows
      | Plan.Index_probe _, Plan.Virtual _ ->
          assert false (* no indexes exist over virtual relations *)
      | Plan.Index_probe { index; value }, Plan.Base table ->
          let tree = fresh_index ctx index in
          Stats.record_index_probe stats;
          let rows =
            match Value.hash_key value with
            | Some key -> List.sort_uniq compare (Bdbms_index.Btree.search tree key)
            | None -> [] (* [= NULL] matches no row *)
          in
          Vexec.of_rows ~batch_rows ?row_id table rows
    in
    let bsrc = Vexec.with_schema (checked_src ctx base) src.Plan.schema in
    let pushed bsrc =
      List.fold_left
        (fun bsrc e ->
          Vexec.filter
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
        let scan_n, top_n = Cost.source_nodes ctx src in
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
          | Plan.Hash { left_cols = _; left_acc_cols; right_cols; build_left } ->
              let off = step.Plan.src.Plan.offset in
              Vexec.hash_join ~stats ~batch_rows ~build_left
                ~left_keys:left_acc_cols
                ~right_keys:(List.map (fun c -> c - off) right_cols)
                acc right
          | Plan.Nested ->
              (* a block join's output can dwarf its inputs; checkpoint
                 the joined stream, not just the leaf scans *)
              checked_src ctx (Vexec.block_join ~batch_rows acc right)
        in
        let post bsrc = List.fold_left Vexec.filter bsrc step.Plan.post in
        match (acc_n, right_n) with
        | Some acc_n, Some right_n ->
            let join_n, top_n = Cost.step_nodes plan acc_n step right_n in
            let bsrc = post (meter join_n joined) in
            let bsrc = if top_n == join_n then bsrc else meter top_n bsrc in
            (bsrc, Some top_n)
        | _ -> (post joined, None))
      (source_batches plan.Plan.base)
      plan.Plan.steps
  in
  (* hash joins can amplify: checkpoint the top of the pipeline too *)
  (checked_src ctx bsrc, plan_n)

(* Everything from aggregation to LIMIT over the pipeline's top batch
   source: one chain of batch operators, rows boxed once, at the output.
   Under EXPLAIN ANALYZE each stage's {!Cost.tail_node} is stacked on the
   previous one and metered by [Vexec.meter]; OFFSET/LIMIT runs inside
   the top node, so the root accounts for exactly the rows returned. *)
and plain_tail ctx (plan : Plan.t) (sel : Ast.select)
    ((bsrc : Vexec.src), (plan_n : Analyze.node option)) : Propagate.t =
  let limit = Option.map (max 0) sel.Ast.limit in
  let offset = max 0 (Option.value sel.Ast.offset ~default:0) in
  let bounded s = Vexec.limit s ~offset ~limit in
  let stage (src, top) (clause, op) =
    match (ctx.Context.analyze, top) with
    | Some a, Some child ->
        let n = Cost.tail_node sel clause child in
        (Vexec.meter a n (op src), Some n)
    | _ -> (op src, None)
  in
  let rec run acc = function
    | [] -> (bounded (fst acc), snd acc)
    | [ (clause, op) ] -> stage acc (clause, fun s -> bounded (op s))
    | st :: rest -> run (stage acc st) rest
  in
  let out, top = run (bsrc, plan_n) (tail_stages ctx plan sel) in
  let out = Propagate.of_rows out.Vexec.schema (Vexec.drain out) in
  (match (ctx.Context.analyze, top) with
  | Some a, Some n -> Analyze.set_root a n
  | _ -> ());
  out

(* The plain tail's stage list: one batch operator per
   {!Cost.tail_clauses} entry, in execution order.  [plain_tail] runs it
   over the pipeline; EXPLAIN reads its clauses. *)
and tail_stages ctx (plan : Plan.t) (sel : Ast.select) =
  let batch_rows = ctx.Context.batch_rows in
  let prefixes = plan.Plan.prefixes in
  let resolve = make_resolver plan.Plan.schema prefixes in
  (* project [names] (source column, output name) out of [s] *)
  let project names (s : Vexec.src) =
    let p =
      Vexec.project s
        (List.map (fun (n, _) -> Schema.index_of_exn s.Vexec.schema n) names)
    in
    Vexec.with_schema p
      (Schema.rename_columns p.Vexec.schema (output_renames names))
  in
  (* ORDER BY over the stage input, its names resolved by [resolver]: a
     bounded heap under a LIMIT when [top_k] allows one, a stable sort
     otherwise *)
  let order ~top_k resolver (s : Vexec.src) =
    let r = resolver s.Vexec.schema in
    let cmp =
      order_cmp s.Vexec.schema
        (List.map (fun (c, d) -> (r c, d)) sel.Ast.order_by)
    in
    match Cost.top_k_bound sel with
    | Some k when top_k -> Vexec.top_k ~batch_rows s ~cmp ~k
    | _ -> Vexec.sort ~batch_rows s ~cmp
  in
  (* after the projection, ORDER BY names output columns *)
  let output_order ~top_k = order ~top_k (fun schema -> make_resolver schema []) in
  (* annotation clauses send a query to the annotated tail instead *)
  let annotated () = assert false in
  let op =
    if Cost.aggregated sel then begin
      let keys, aggs, out_names = aggregate_items resolve sel in
      let having (s : Vexec.src) =
        match sel.Ast.having with
        | None -> s
        | Some e ->
            Vexec.filter s (resolve_expr (make_resolver s.Vexec.schema []) e)
      in
      function
      | Cost.Aggregate -> fun s -> Vexec.group_by ~batch_rows s ~keys aggs
      | Cost.Project -> fun s -> project out_names (having s)
      | Cost.Distinct -> Vexec.distinct
      | Cost.Order { top_k } -> output_order ~top_k
      | Cost.Awhere _ | Cost.Ahaving _ | Cost.Filter _ -> annotated ()
    end
    else
      match sel.Ast.items with
      | [ Ast.Star ] -> (
          function
          | Cost.Project -> Fun.id
          | Cost.Distinct -> Vexec.distinct
          | Cost.Order { top_k } -> output_order ~top_k
          | Cost.Aggregate | Cost.Awhere _ | Cost.Ahaving _ | Cost.Filter _ ->
              annotated ())
      | items -> (
          (* PROMOTE never reaches here: it needs annotations, so it runs
             [finish_select] *)
          let names, computed = scalar_items resolve items in
          let extend s =
            List.fold_left
              (fun (s : Vexec.src) (col, _, e) ->
                let schema = s.Vexec.schema in
                let e =
                  resolve_expr (output_resolver (computed_outputs computed) schema prefixes) e
                in
                Vexec.extend s ~name:col ~ty:(Expr.type_of schema e) e)
              s computed
          in
          function
          | Cost.Order { top_k } ->
              fun s ->
                order ~top_k
                  (fun schema -> output_resolver names schema prefixes)
                  (extend s)
          | Cost.Project when sel.Ast.order_by = [] ->
              fun s -> project names (extend s)
          | Cost.Project -> project names
          | Cost.Distinct -> Vexec.distinct
          | Cost.Aggregate | Cost.Awhere _ | Cost.Ahaving _ | Cost.Filter _ ->
              annotated ())
  in
  List.map (fun clause -> (clause, op clause)) (Cost.tail_clauses sel)

(* Everything from AWHERE to LIMIT over a materialized annotated rowset —
   shared by the naive oracle and the batch engine's annotated queries. *)
and finish_select (sel : Ast.select) (filtered : Propagate.t) prefixes :
    Propagate.t =
  let resolve = make_resolver filtered.Propagate.schema prefixes in
  (* AWHERE *)
  let filtered =
    match sel.Ast.awhere with
    | None -> filtered
    | Some p -> Propagate.awhere filtered p
  in
  let projected =
    if Cost.aggregated sel then begin
      (* aggregate path *)
      let keys, aggs, out_names = aggregate_items resolve sel in
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
      let projected = Propagate.project grouped (List.map fst out_names) in
      { projected with
        Propagate.schema =
          Schema.rename_columns projected.Propagate.schema
            (output_renames out_names) }
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
          let proj_names, computed = scalar_items resolve items in
          let extended =
            List.fold_left
              (fun acc (col, _, e) ->
                let schema = acc.Propagate.schema in
                let e =
                  resolve_expr (output_resolver (computed_outputs computed) schema prefixes) e
                in
                Propagate.extend acc ~name:col ~ty:(Expr.type_of schema e) e)
              promoted computed
          in
          (* ORDER BY may reference pre-projection columns (classic SQL), so
             sort before projecting: projection preserves row order *)
          let extended =
            match sel.Ast.order_by with
            | [] -> extended
            | specs ->
                let r = output_resolver proj_names extended.Propagate.schema prefixes in
                Propagate.order_by extended (List.map (fun (c, d) -> (r c, d)) specs)
          in
          let projected = Propagate.project extended (List.map fst proj_names) in
          { projected with
            Propagate.schema =
              Schema.rename_columns projected.Propagate.schema
                (output_renames proj_names) }
    end
  in
  let already_sorted = not (Cost.aggregated sel) in
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
  let by = Some user in
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
        ok_or_fail (Write.insert ctx ~user:by table tuple))
      values
  in
  record_local_prov ctx ~table ~region:(Region.Rows rows)
    ~operation:Prov_record.Local_insert;
  rows

(* The live rows a write's WHERE selects, ascending, with their tuples:
   the SELECT planner's one-entry frame with row ids, where [item]'s
   alias or name qualifies the columns.  The pipeline is drained before
   the caller writes anything. *)
let selected_rows (ctx : Context.t) (item : Ast.from_item) table where =
  let frame = Plan.frame ~row_ids:true [ (item, Plan.Base table) ] in
  let resolve = make_resolver frame.Plan.schema frame.Plan.prefixes in
  let plan = Plan.build ctx frame ~where:(Option.map (resolve_expr resolve) where) in
  let rid = Option.get plan.Plan.base.Plan.row_id in
  let pull = Vexec.rows_of (fst (batch_pipeline ctx plan)) in
  let rec drain acc =
    match pull () with
    | None -> acc
    | Some (b, row) -> drain (Value.as_int (Batch.value b ~row ~col:rid) :: acc)
  in
  List.sort compare (drain [])
  |> List.filter_map (fun row -> Option.map (fun t -> (row, t)) (Table.get table row))

let write_target table = { Ast.table; table_alias = None; ann_tables = None }

(* Run [f changed]: the (row, column) cells [f] passes to [changed] cascade
   once, also when [f] raises (an in-memory database keeps what it wrote). *)
let cascading (ctx : Context.t) table f =
  let cells = ref [] in
  let cascade () = Write.cascade ctx table (List.concat (List.rev !cells)) in
  match f (fun c -> cells := c :: !cells) with
  | () -> cascade ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      cascade ();
      Printexc.raise_with_backtrace e bt

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
  let rows = selected_rows ctx (write_target table_name) table where in
  let by = Some user in
  let touched = ref [] in
  cascading ctx table (fun changed ->
      List.iter
        (fun (row, tuple) ->
          List.iter
            (fun (cname, col, expr) ->
              let value =
                coerce (Expr.eval schema tuple expr) (Schema.column_at schema col).Schema.ty
              in
              ignore (ok_or_fail (Write.update_cell ctx ~user:by table ~row ~col value));
              touched := (row, cname) :: !touched;
              changed [ (row, col) ])
            sets)
        rows);
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
  let rows = selected_rows ctx (write_target table_name) table where in
  let by = Some user in
  cascading ctx table (fun changed ->
      List.iter
        (fun (row, tuple) ->
          Write.delete ctx ~user:by table ~row tuple;
          changed (Write.row_cells table [ row ]))
        rows);
  rows

(* -------------------------------------------------- annotation commands *)

let single_target_table targets =
  match List.sort_uniq compare (List.map (fun (t, _) -> String.lowercase_ascii t) targets) with
  | [ _ ] -> fst (List.hd targets)
  | _ -> fail "all annotation tables in one command must belong to one user table"

(* The region covered by an ON (SELECT ...): rows matching the WHERE, and
   the projected columns (all columns when the item list is [*]).  The
   region is a set of cells, so a clause that would shape the SELECT's
   answer instead (its order, its number of rows, grouping) is refused
   rather than ignored. *)
let region_of_select (ctx : Context.t) ~table_name (sel : Ast.select) =
  let item =
    match sel.Ast.from with
    | [ f ] when String.lowercase_ascii f.Ast.table = String.lowercase_ascii table_name -> f
    | _ -> fail "the ON (SELECT ...) must select from %s only" table_name
  in
  let refused =
    List.filter_map
      (fun (present, clause) -> if present then Some clause else None)
      [
        (sel.Ast.distinct, "DISTINCT");
        (sel.Ast.group_by <> [], "GROUP BY");
        (sel.Ast.having <> None, "HAVING");
        (sel.Ast.awhere <> None, "AWHERE");
        (sel.Ast.ahaving <> None, "AHAVING");
        (sel.Ast.filter <> None, "FILTER");
        (sel.Ast.order_by <> [], "ORDER BY");
        (sel.Ast.limit <> None, "LIMIT");
        (sel.Ast.offset <> None, "OFFSET");
      ]
  in
  if refused <> [] then
    fail "the ON (SELECT ...) cannot use %s: it selects cells by FROM and WHERE only"
      (String.concat ", " refused);
  let table = find_table ctx table_name in
  let rows = List.map fst (selected_rows ctx item table sel.Ast.where) in
  let resolve = make_resolver (Table.schema table) [ Plan.item_prefix item ] in
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
  | Ast.On_select sel -> (
      match region_of_select ctx ~table_name sel with
      | Region.Rows [] | Region.Cells [] -> Message "0 rows selected, no annotation added"
      | region ->
          let ann = add ~table:(find_table ctx table_name) ~region in
          Message (Printf.sprintf "annotation %s added" ann.Ann.id))
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
        List.map (fun (_, tuple) -> ok_or_fail (Write.insert ctx ~user:None log tuple)) deleted
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
      Analyze.render ~actuals:(elapsed, Propagate.row_count result) root
  | None, _, _ -> "EXPLAIN ANALYZE: no operators recorded"

(* EXPLAIN: the nodes EXPLAIN ANALYZE would meter, for the batch engine's
   plan in every exec mode, after the same ACL checks, lookups and
   planning as the query.  The tail is checked against an input that
   yields no rows, so every name it resolves fails as in the query, and
   no row is read. *)
let explain_select ctx ~user (sel : Ast.select) =
  let plan = plan_select ctx ~user sel in
  let top = Cost.plan_node ctx plan in
  let empty = { Vexec.schema = plan.Plan.schema; next = (fun () -> None) } in
  if plan.Plan.row_ids then begin
    ignore
      (finish_select sel (attach_envelopes ctx plan empty) plan.Plan.prefixes);
    Cost.result_node sel top
  end
  else begin
    let stages = tail_stages ctx plan sel in
    ignore (List.fold_left (fun s (_, op) -> op s) empty stages);
    List.fold_left (fun n (clause, _) -> Cost.tail_node sel clause n) top stages
  end

let rec explain_query ctx ~user = function
  | Ast.Select sel -> explain_select ctx ~user sel
  | Ast.Union (a, b) -> explain_set_op ctx ~user `Union a b
  | Ast.Intersect (a, b) -> explain_set_op ctx ~user `Intersect a b
  | Ast.Except (a, b) -> explain_set_op ctx ~user `Except a b

and explain_set_op ctx ~user op a b =
  let na = explain_query ctx ~user a in
  Cost.set_op_node op na (explain_query ctx ~user b)

(* --------------------------------------------------------------- execute *)

let execute_exn (ctx : Context.t) ~user (stmt : Ast.statement) : outcome =
  Cancel.check ctx.Context.cancel;
  (match ctx.Context.read_only with
  | Some reason when Stmt_class.is_write (Stmt_class.classify stmt) ->
      raise (Read_only reason)
  | _ -> ());
  (match sys_write_target stmt with
  | Some view -> raise (View_read_only view)
  | None -> ());
  match stmt with
  | Ast.Query q -> Rows (exec_query ctx ~user q)
  | Ast.Explain q -> Message (Analyze.render (explain_query ctx ~user q))
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
        Acl.drop_table ctx.acl ~table:name;
        List.iter
          (fun (idx : Context.index_def) -> ignore (Context.drop_index ctx idx.Context.idx_name))
          (Context.indexes_on ctx ~table:name);
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
      ok_or_fail (Approval.disapprove ctx.approval id ~by:user ~undo:(Write.undo ctx));
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
      if Hashtbl.mem ctx.indexes (String.lowercase_ascii name) then
        fail "index %s already exists" name;
      ddl_hit ctx;
      let idx =
        {
          Context.idx_name = name;
          idx_table = table;
          idx_column = column;
          tree = None;
        }
      in
      ignore (build_index ctx idx);
      Context.add_index ctx idx;
      Message (Printf.sprintf "index %s created on %s(%s)" name table column)
  | Ast.Drop_index name ->
      if Context.drop_index ctx name then
        Message (Printf.sprintf "index %s dropped" name)
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
