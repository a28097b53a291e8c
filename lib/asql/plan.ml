module Schema = Bdbms_relation.Schema
module Expr = Bdbms_relation.Expr
module Value = Bdbms_relation.Value
module Table = Bdbms_relation.Table
module Disk = Bdbms_storage.Disk
module SStats = Bdbms_obs.Stats
module Tstats = Bdbms_stats.Table_stats
module Registry = Bdbms_stats.Registry

(* ------------------------------------------------------------ selectivity *)

(* Heuristic selectivities (textbook constants) — the fallback when a
   table has never been ANALYZEd; also used by the cost model's EXPLAIN
   estimates. *)
let rec selectivity = function
  | Expr.Cmp (Expr.Eq, _, _) -> 0.10
  | Expr.Cmp (Expr.Neq, _, _) -> 0.90
  | Expr.Cmp ((Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq), _, _) -> 0.30
  | Expr.Like _ -> 0.25
  | Expr.In_list (_, vs) -> Float.min 0.9 (0.10 *. float_of_int (List.length vs))
  | Expr.Is_null _ -> 0.05
  | Expr.And (a, b) -> selectivity a *. selectivity b
  | Expr.Or (a, b) ->
      let sa = selectivity a and sb = selectivity b in
      sa +. sb -. (sa *. sb)
  | Expr.Not a -> 1.0 -. selectivity a
  | Expr.Lit _ | Expr.Col _ | Expr.Arith _ | Expr.Concat _ -> 0.5

let conjuncts_selectivity es =
  List.fold_left (fun acc e -> acc *. selectivity e) 1.0 es

type est_src = Stats | Heuristic

let est_src_name = function Stats -> "stats" | Heuristic -> "heuristic"

(* One conjunct against one table: real statistics when the table was
   ANALYZEd and the expression shape is covered, heuristic constant
   otherwise. *)
let conjunct_selectivity ts ~schema e =
  match ts with
  | None -> selectivity e
  | Some ts -> (
      match Tstats.selectivity ts ~schema e with
      | Some s -> s
      | None -> selectivity e)

let conjuncts_selectivity_for ts ~schema es =
  List.fold_left (fun acc e -> acc *. conjunct_selectivity ts ~schema e) 1.0 es

(* ------------------------------------------------------------- relations *)

(* What a FROM item scans: a heap-backed catalog table, or a virtual
   relation (a sys.* introspection view) materialized at plan time.
   Virtual rels are small by construction — bounded rings and registry
   snapshots — so materializing them per statement is cheap and gives
   every engine path (naive/tuple, WHERE/JOIN/aggregate) the same rows. *)
type rel =
  | Base of Table.t
  | Virtual of {
      v_name : string;
      v_schema : Schema.t;
      v_rows : Bdbms_relation.Tuple.t array;
    }

let rel_name = function Base t -> Table.name t | Virtual v -> v.v_name
let rel_schema = function Base t -> Table.schema t | Virtual v -> v.v_schema

let rel_live_count = function
  | Base t -> Table.live_count t
  | Virtual v -> Array.length v.v_rows

(* --------------------------------------------------------------- the frame *)

type frame = {
  entries : (Ast.from_item * rel) list;
  schema : Schema.t;
  prefixes : string list;
  multi : bool;
  slices : (int * Schema.t) list;
  row_ids : bool;
}

(* The hidden column an annotated frame appends to each slice: the
   source row's number (NULL for [sys.*] rows).  ['#'] is no identifier
   character, so no query can name, resolve or select it. *)
let row_id_name = "#row"

(* The qualifier a query uses for this item's columns: its alias, or the
   table name with any [sys.] namespace stripped — [sys.metrics m] and
   bare [sys.metrics] both qualify as [m_...] / [metrics_...], since a
   dotted qualifier cannot appear in a column reference. *)
let item_prefix (f : Ast.from_item) =
  match f.Ast.table_alias with
  | Some a -> a
  | None -> (
      let t = f.Ast.table in
      match String.rindex_opt t '.' with
      | Some i -> String.sub t (i + 1) (String.length t - i - 1)
      | None -> t)

let frame ?(row_ids = false) entries =
  let multi = List.length entries > 1 in
  let prefixed =
    List.map
      (fun ((f : Ast.from_item), rel) ->
        let schema = rel_schema rel in
        let schema =
          if row_ids then
            Schema.make
              (Schema.columns schema
              @ [ { Schema.name = row_id_name; ty = Value.TInt } ])
          else schema
        in
        if multi then
          let prefix = item_prefix f in
          Schema.rename_columns schema
            (List.map
               (fun c -> (c.Schema.name, prefix ^ "_" ^ c.Schema.name))
               (Schema.columns schema))
        else schema)
      entries
  in
  (* the canonical output schema is the fold of Schema.concat (which
     renames collisions), exactly as the naive evaluator builds it; each
     source owns a contiguous slice of it *)
  let schema =
    match prefixed with
    | [] -> invalid_arg "Plan.frame: empty FROM"
    | first :: rest -> List.fold_left Schema.concat first rest
  in
  let columns = Schema.columns schema in
  let slices =
    let rec go offset cols = function
      | [] -> []
      | s :: rest ->
          let arity = Schema.arity s in
          let rec split n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | c :: tl -> split (n - 1) (c :: acc) tl
            | [] -> invalid_arg "Plan.frame: slice underflow"
          in
          let mine, others = split arity [] cols in
          (offset, Schema.make mine) :: go (offset + arity) others rest
    in
    go 0 columns prefixed
  in
  {
    entries;
    schema;
    prefixes = List.map (fun (f, _) -> item_prefix f) entries;
    multi;
    slices;
    row_ids;
  }

(* ---------------------------------------------------------------- the plan *)

type access =
  | Seq_scan
  | Index_probe of { index : Context.index_def; value : Value.t }

type source = {
  item : Ast.from_item;
  rel : rel;
  prefix : string;
  offset : int;
  schema : Schema.t;
  access : access;
  access_est : float;
  pushed : Expr.t list;
  est_rows : float;
  est_src : est_src;
  row_id : int option;
}

type join_kind =
  | Hash of {
      left_cols : int list;
      left_acc_cols : int list;
      right_cols : int list;
      build_left : bool;
    }
  | Nested

type step = { src : source; kind : join_kind; post : Expr.t list; est_rows : float }

type t = {
  base : source;
  steps : step list;
  schema : Schema.t;
  prefixes : string list;
  order : int list;
  permuted : bool;
  row_ids : bool;
}

let rec split_conjuncts = function
  | Expr.And (a, b) -> split_conjuncts a @ split_conjuncts b
  | e -> [ e ]

(* Classification of one resolved conjunct against the source slices. *)
type classified =
  | Pushed of int * Expr.t
  | Edge of { lo : int; lo_col : int; hi : int; hi_col : int }
      (* equi-join edge, absolute column positions, [lo < hi] source order *)
  | Deferred of int list * Expr.t
      (* applied once every source in the (sorted) list has been joined *)

let classify frame conjunct =
  let source_of pos =
    let rec go i = function
      | [] -> invalid_arg "Plan.classify: position out of range"
      | (offset, slice) :: rest ->
          if pos < offset + Schema.arity slice then i else go (i + 1) rest
    in
    go 0 frame.slices
  in
  let positions =
    List.map (Schema.index_of_exn frame.schema) (Expr.columns_used conjunct)
  in
  let sources = List.sort_uniq compare (List.map source_of positions) in
  match (sources, conjunct) with
  | [], _ -> Pushed (0, conjunct) (* column-free predicate: cheapest at base *)
  | [ i ], _ -> Pushed (i, conjunct)
  | [ i; j ], Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
      let pa = Schema.index_of_exn frame.schema a
      and pb = Schema.index_of_exn frame.schema b in
      let sa = source_of pa in
      (* orient the edge so [lo] is the earlier FROM item *)
      if sa = i then Edge { lo = i; lo_col = pa; hi = j; hi_col = pb }
      else Edge { lo = i; lo_col = pb; hi = j; hi_col = pa }
  | is, _ -> Deferred (is, conjunct)

(* An equality [col = literal] usable as an index probe, in slice-local
   terms: the pushed conjuncts reference slice column names.  Returns the
   probing conjunct alongside the access path so the caller can estimate
   its selectivity. *)
let probe_of_pushed ctx (f : Ast.from_item) base_schema slice pushed =
  List.find_map
    (fun e ->
      let probe c v =
        match Schema.index_of slice c with
        | None -> None
        | Some pos ->
            (* same position in the slice and in the base table schema *)
            let base_col = (Schema.column_at base_schema pos).Schema.name in
            Context.indexes_on ctx ~table:f.Ast.table
            |> List.find_map (fun (idx : Context.index_def) ->
                   if
                     String.lowercase_ascii idx.Context.idx_column
                     = String.lowercase_ascii base_col
                   then Some (Index_probe { index = idx; value = v }, e)
                   else None)
      in
      match e with
      | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Lit v)
      | Expr.Cmp (Expr.Eq, Expr.Lit v, Expr.Col c) ->
          probe c v
      | _ -> None)
    pushed

let build ctx frame ~where =
  let conjuncts =
    match where with None -> [] | Some e -> split_conjuncts e
  in
  let classified = List.map (classify frame) conjuncts in
  let pushed_for i =
    List.filter_map
      (function Pushed (j, e) when j = i -> Some e | _ -> None)
      classified
  in
  let stats_for =
    List.map
      (fun ((_ : Ast.from_item), rel) ->
        Registry.find ctx.Context.tstats (rel_name rel))
      frame.entries
    |> Array.of_list
  in
  let sources =
    List.mapi
      (fun i ((f : Ast.from_item), rel) ->
        let ts = stats_for.(i) in
        let offset, slice = List.nth frame.slices i in
        let pushed = pushed_for i in
        let live = float_of_int (rel_live_count rel) in
        let est_rows = live *. conjuncts_selectivity_for ts ~schema:slice pushed in
        let access, access_est =
          match probe_of_pushed ctx f (rel_schema rel) slice pushed with
          | None -> (Seq_scan, live)
          | Some (probe, conjunct) ->
              let probe_sel =
                match ts with
                | None -> 0.10
                | Some ts -> (
                    match Tstats.selectivity ts ~schema:slice conjunct with
                    | Some s -> s
                    | None -> 0.10)
              in
              (* a probe fetching most of the table is worse than the
                 scan it would save *)
              if probe_sel > 0.5 then (Seq_scan, live)
              else (probe, live *. probe_sel)
        in
        let est_src = match ts with Some _ -> Stats | None -> Heuristic in
        let row_id =
          if frame.row_ids then Some (offset + Schema.arity slice - 1) else None
        in
        { item = f; rel; prefix = item_prefix f; offset; schema = slice;
          access; access_est; pushed; est_rows; est_src; row_id })
      frame.entries
  in
  if sources = [] then invalid_arg "Plan.build: empty FROM";
  let srcs = Array.of_list sources in
  let nsrc = Array.length srcs in
  let all_edges =
    List.filter_map
      (function
        | Edge { lo; lo_col; hi; hi_col } -> Some (lo, lo_col, hi, hi_col)
        | _ -> None)
      classified
  in
  let deferreds =
    List.filter_map (function Deferred (is, e) -> Some (is, e) | _ -> None)
      classified
  in
  let all_stats = Array.for_all (fun s -> s.est_src = Stats) srcs in
  (* Join selectivity of one equi-edge: 1 / max(ndv_left, ndv_right)
     when both endpoint columns carry statistics, the 0.10 textbook
     constant otherwise. *)
  let edge_sel (lo, lo_col, hi, hi_col) =
    let ndv_of i col =
      match stats_for.(i) with
      | Some ts ->
          let local = col - srcs.(i).offset in
          if local >= 0 && local < Array.length ts.Tstats.columns then
            Some (Tstats.ndv ts.Tstats.columns.(local))
          else None
      | None -> None
    in
    match (ndv_of lo lo_col, ndv_of hi hi_col) with
    | Some a, Some b -> 1.0 /. Float.max 1.0 (Float.max a b)
    | _ -> 0.10
  in
  (* ------------------------------------------------------ join order *)
  let identity = List.init nsrc Fun.id in
  let order =
    if nsrc < 2 || not all_stats then identity
    else begin
      (* greedy bottom-up: start from the smallest filtered source, then
         repeatedly append the source minimizing the next intermediate
         estimate, preferring sources connected to the joined set by an
         equi-edge (avoids gratuitous cross products) *)
      let chosen = Array.make nsrc false in
      let start = ref 0 in
      for j = 1 to nsrc - 1 do
        if srcs.(j).est_rows < srcs.(!start).est_rows then start := j
      done;
      chosen.(!start) <- true;
      let acc_est = ref (Float.max 1.0 srcs.(!start).est_rows) in
      let order = ref [ !start ] in
      for _ = 2 to nsrc do
        let best = ref (-1) in
        let best_cost = ref infinity in
        let best_connected = ref false in
        for j = 0 to nsrc - 1 do
          if not chosen.(j) then begin
            let es =
              List.filter
                (fun (lo, _, hi, _) ->
                  (chosen.(lo) && hi = j) || (chosen.(hi) && lo = j))
                all_edges
            in
            let sel = List.fold_left (fun acc e -> acc *. edge_sel e) 1.0 es in
            let connected = es <> [] in
            let cost = !acc_est *. Float.max 1.0 srcs.(j).est_rows *. sel in
            let better =
              if connected && not !best_connected then true
              else if connected = !best_connected then cost < !best_cost
              else false
            in
            if !best < 0 || better then begin
              best := j;
              best_cost := cost;
              best_connected := connected
            end
          end
        done;
        chosen.(!best) <- true;
        acc_est := Float.max 1.0 !best_cost;
        order := !best :: !order
      done;
      List.rev !order
    end
  in
  let permuted = order <> identity in
  if permuted then SStats.record_plan_reordered (Disk.stats ctx.Context.disk);
  (* --------------------------------------- steps along the join order *)
  (* accumulated-schema offset of each source: sum of the arities of the
     sources placed before it in join order *)
  let acc_offset = Array.make nsrc 0 in
  let running = ref 0 in
  List.iter
    (fun i ->
      acc_offset.(i) <- !running;
      running := !running + Schema.arity srcs.(i).schema)
    order;
  let joined = Array.make nsrc false in
  let base = srcs.(List.hd order) in
  joined.(List.hd order) <- true;
  let emitted = Array.make (List.length deferreds) false in
  let _, rev_steps =
    List.fold_left
      (fun (acc_est, acc_steps) j ->
        let src = srcs.(j) in
        (* edges connecting the new source to the already-joined set,
           oriented left = joined side, right = new source *)
        let edges =
          List.filter_map
            (fun (lo, lo_col, hi, hi_col) ->
              if joined.(lo) && hi = j then Some ((lo, lo_col), (hi, hi_col))
              else if joined.(hi) && lo = j then
                Some ((hi, hi_col), (lo, lo_col))
              else None)
            all_edges
        in
        joined.(j) <- true;
        (* deferred conjuncts that become evaluable at this step *)
        let post =
          List.concat
            (List.mapi
               (fun k (is, e) ->
                 if
                   (not emitted.(k))
                   && List.for_all (fun i -> joined.(i)) is
                 then begin
                   emitted.(k) <- true;
                   [ e ]
                 end
                 else [])
               deferreds)
        in
        let kind =
          match edges with
          | [] -> Nested
          | _ ->
              Hash
                {
                  left_cols = List.map (fun ((_, c), _) -> c) edges;
                  left_acc_cols =
                    List.map
                      (fun ((li, c), _) ->
                        acc_offset.(li) + (c - srcs.(li).offset))
                      edges;
                  right_cols = List.map (fun (_, (_, c)) -> c) edges;
                  (* build the smaller input *)
                  build_left = acc_est <= src.est_rows;
                }
        in
        let join_sel =
          match edges with
          | [] -> 1.0
          | es ->
              if all_stats then
                List.fold_left
                  (fun acc ((li, lc), (ri, rc)) ->
                    acc *. edge_sel (li, lc, ri, rc))
                  1.0 es
              else Float.pow 0.10 (float_of_int (List.length es))
        in
        let est_rows =
          acc_est *. Float.max 1.0 src.est_rows *. join_sel
          *. conjuncts_selectivity post
        in
        (est_rows, { src; kind; post; est_rows } :: acc_steps))
      (Float.max 1.0 base.est_rows, [])
      (List.tl order)
  in
  { base; steps = List.rev rev_steps; schema = frame.schema;
    prefixes = frame.prefixes; order; permuted; row_ids = frame.row_ids }
