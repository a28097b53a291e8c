(* The sys.* introspection views: live engine state surfaced as
   read-only virtual relations, queryable with the full A-SQL surface
   (WHERE/JOIN/ORDER BY/aggregates) through the regular planner.

   Each view materializes a small snapshot at plan time — instrument
   registries, bounded rings, catalog walks — so a scan never observes a
   half-updated structure and both engines (naive oracle, batch
   engine) see identical rows.  Views are not in
   the catalog: DML/DDL against them raises the executor's typed
   read-only error, ANALYZE never visits them, and ACL checks apply to
   their dotted names like any other table, so [GRANT SELECT ON
   sys.sessions TO curator] works under strict ACL.

   The server injects live per-connection rows through
   [Context.sys_providers] (the session table lives above this library);
   standalone shells fall back to a single synthetic row describing the
   local session. *)

module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Value = Bdbms_relation.Value
module Table = Bdbms_relation.Table
module Catalog = Bdbms_relation.Catalog
module SStats = Bdbms_obs.Stats
module Obs = Bdbms_obs.Obs
module Metrics = Bdbms_obs.Metrics
module Trace = Bdbms_obs.Trace
module Qlog = Bdbms_obs.Qlog
module Registry = Bdbms_stats.Registry
module Tstats = Bdbms_stats.Table_stats

let is_sys name =
  String.length name > 4
  && String.lowercase_ascii (String.sub name 0 4) = "sys."

let col name ty = { Schema.name; ty }

(* ------------------------------------------------------------- schemas *)

let metrics_schema =
  Schema.make
    [ col "name" Value.TString; col "kind" Value.TString; col "value" Value.TInt ]

let histograms_schema =
  Schema.make
    [
      col "name" Value.TString;
      col "count" Value.TInt;
      col "sum" Value.TInt;
      col "min" Value.TInt;
      col "max" Value.TInt;
      col "p50" Value.TInt;
      col "p95" Value.TInt;
      col "p99" Value.TInt;
    ]

let sessions_schema =
  Schema.make
    [
      col "id" Value.TInt;
      col "user" Value.TString;
      col "state" Value.TString;
      col "stmt" Value.TString;
      col "conflict_streak" Value.TInt;
    ]

let tables_schema =
  Schema.make
    [
      col "name" Value.TString;
      col "rows" Value.TInt;
      col "cols" Value.TInt;
      col "analyzed" Value.TBool;
      col "stale" Value.TBool;
      col "mods" Value.TInt;
    ]

let slow_queries_schema =
  Schema.make
    [
      col "seq" Value.TInt;
      col "user" Value.TString;
      col "session" Value.TInt;
      col "dur_ns" Value.TInt;
      col "rows" Value.TInt;
      col "trace_id" Value.TInt;
      col "ok" Value.TBool;
      col "sql" Value.TString;
    ]

let traces_schema =
  Schema.make
    [
      col "seq" Value.TInt;
      col "id" Value.TInt;
      col "parent" Value.TInt;
      col "depth" Value.TInt;
      col "name" Value.TString;
      col "start_ns" Value.TInt;
      col "dur_ns" Value.TInt;
      col "trace_id" Value.TInt;
    ]

(* ---------------------------------------------------------------- rows *)

(* Every counter and gauge slot of the handle's counter group, under its
   short name — the same list [Stats.pp] and [Db.metrics] render.  Inside
   a transaction this is still the handle's group, not the snapshot
   overlay's private one. *)
let metrics_rows (ctx : Context.t) =
  List.map
    (fun ((slot : SStats.slot), value) ->
      [|
        Value.VString slot.SStats.name;
        Value.VString (SStats.kind_name slot.SStats.kind);
        Value.VInt value;
      |])
    (SStats.to_list (SStats.snapshot ctx.Context.obs.Obs.stats))

let histograms_rows (ctx : Context.t) =
  List.map
    (fun { Metrics.name; count; sum; min; max; p50; p95; p99 } ->
      [|
        Value.VString name;
        Value.VInt count;
        Value.VInt sum;
        Value.VInt min;
        Value.VInt max;
        Value.VInt p50;
        Value.VInt p95;
        Value.VInt p99;
      |])
    (Metrics.views ctx.Context.obs.Obs.metrics)

let sessions_rows (ctx : Context.t) ~user =
  match List.assoc_opt "sys.sessions" ctx.Context.sys_providers with
  | Some provider -> provider ()
  | None ->
      (* standalone shell: one synthetic row for the current session *)
      [
        [|
          Value.VInt 0;
          Value.VString user;
          Value.VString "local";
          Value.VString "";
          Value.VInt 0;
        |];
      ]

let tables_rows (ctx : Context.t) =
  List.map
    (fun name ->
      let table = Catalog.find_exn ctx.Context.catalog name in
      let analyzed, stale, mods =
        match Registry.find ctx.Context.tstats name with
        | Some ts -> (true, ts.Tstats.stale, ts.Tstats.mods)
        | None -> (false, false, 0)
      in
      [|
        Value.VString name;
        Value.VInt (Table.live_count table);
        Value.VInt (Schema.arity (Table.schema table));
        Value.VBool analyzed;
        Value.VBool stale;
        Value.VInt mods;
      |])
    (Catalog.table_names ctx.Context.catalog)

let slow_queries_rows (ctx : Context.t) =
  List.map
    (fun (e : Qlog.entry) ->
      [|
        Value.VInt e.Qlog.q_seq;
        Value.VString e.Qlog.q_user;
        Value.VInt e.Qlog.q_session;
        Value.VInt e.Qlog.q_dur_ns;
        Value.VInt e.Qlog.q_rows;
        Value.VInt e.Qlog.q_trace_id;
        Value.VBool e.Qlog.q_ok;
        Value.VString e.Qlog.q_sql;
      |])
    (Qlog.slow ctx.Context.obs.Obs.qlog)

let traces_rows (ctx : Context.t) =
  List.map
    (fun (v : Trace.view) ->
      [|
        Value.VInt v.Trace.seq;
        Value.VInt v.Trace.id;
        Value.VInt v.Trace.parent;
        Value.VInt v.Trace.depth;
        Value.VString v.Trace.name;
        Value.VInt v.Trace.start_ns;
        Value.VInt v.Trace.dur_ns;
        Value.VInt v.Trace.trace_id;
      |])
    (Trace.spans ctx.Context.obs.Obs.trace)

(* ------------------------------------------------------------ dispatch *)

let views =
  [
    ("sys.metrics", metrics_schema);
    ("sys.histograms", histograms_schema);
    ("sys.sessions", sessions_schema);
    ("sys.tables", tables_schema);
    ("sys.slow_queries", slow_queries_schema);
    ("sys.traces", traces_schema);
  ]

let schema_of name = List.assoc_opt (String.lowercase_ascii name) views

(* Views exposing other users' activity (session state, raw SQL text):
   denied without an explicit grant even outside strict-ACL mode. *)
let is_privileged name =
  match String.lowercase_ascii name with
  | "sys.sessions" | "sys.slow_queries" -> true
  | _ -> false

(* Materialize one view as a virtual relation; [None] for an unknown
   sys.* name (the executor reports it like any unknown table). *)
let materialize (ctx : Context.t) ~user name =
  let canon = String.lowercase_ascii name in
  let rows_of = function
    | "sys.metrics" -> Some (metrics_rows ctx)
    | "sys.histograms" -> Some (histograms_rows ctx)
    | "sys.sessions" -> Some (sessions_rows ctx ~user)
    | "sys.tables" -> Some (tables_rows ctx)
    | "sys.slow_queries" -> Some (slow_queries_rows ctx)
    | "sys.traces" -> Some (traces_rows ctx)
    | _ -> None
  in
  match (schema_of canon, rows_of canon) with
  | Some schema, Some rows ->
      Some
        (Plan.Virtual
           { v_name = canon; v_schema = schema; v_rows = Array.of_list rows })
  | _ -> None
