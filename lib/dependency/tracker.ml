module Catalog = Bdbms_relation.Catalog
module Table = Bdbms_relation.Table
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple

type report = {
  recomputed : Dep_graph.cell list;
  marked : Dep_graph.cell list;
  errors : (Dep_graph.cell * string) list;
}

let empty_report = { recomputed = []; marked = []; errors = [] }

type write = Dep_graph.cell -> Bdbms_relation.Value.t -> (unit, string) result

type t = {
  catalog : Catalog.t;
  rules : Rule_set.t;
  procs : Procedure.Registry.t;
  graph : Dep_graph.t;
  bitmaps : (string, Outdated.t) Hashtbl.t;
}

let create catalog =
  {
    catalog;
    rules = Rule_set.create ();
    procs = Procedure.Registry.create ();
    graph = Dep_graph.create (Catalog.pager catalog);
    bitmaps = Hashtbl.create 8;
  }

let rule_set t = t.rules
let registry t = t.procs
let graph t = t.graph

let norm = String.lowercase_ascii

let bitmap_for t table_name =
  let key = norm table_name in
  match Hashtbl.find_opt t.bitmaps key with
  | Some b -> b
  | None ->
      let table = Catalog.find_exn t.catalog table_name in
      let b = Outdated.create table in
      Hashtbl.replace t.bitmaps key b;
      b

let add_rule t rule =
  match Rule_set.add t.rules rule with
  | Error _ as e -> e
  | Ok () ->
      List.iter
        (fun p -> ignore (Procedure.Registry.register t.procs p))
        rule.Rule.chain;
      Ok ()

let link t ~rule_id ~sources ~target =
  match Rule_set.find t.rules rule_id with
  | None -> Error (Printf.sprintf "unknown rule %s" rule_id)
  | Some rule ->
      if List.length sources <> List.length rule.Rule.sources then
        Error
          (Printf.sprintf "rule %s has %d sources, %d cells given" rule_id
             (List.length rule.Rule.sources) (List.length sources))
      else begin
        let source_cells =
          List.map2
            (fun attr (row, col) -> Dep_graph.cell ~table:attr.Rule.table ~row ~col)
            rule.Rule.sources sources
        in
        let trow, tcol = target in
        let target_cell =
          Dep_graph.cell ~table:rule.Rule.target.Rule.table ~row:trow ~col:tcol
        in
        match
          Dep_graph.add_instance t.graph
            { Dep_graph.rule_id; sources = source_cells; target = target_cell }
        with
        | () -> Ok ()
        | exception Invalid_argument e -> Error e
      end

let attr_col t (attr : Rule.attr) =
  let table = Catalog.find_exn t.catalog attr.Rule.table in
  Schema.index_of_exn (Table.schema table) attr.Rule.column

let link_rows t ~rule_id ~source_rows ~target_row =
  match Rule_set.find t.rules rule_id with
  | None -> Error (Printf.sprintf "unknown rule %s" rule_id)
  | Some rule ->
      if List.length source_rows <> List.length rule.Rule.sources then
        Error
          (Printf.sprintf "rule %s has %d sources, %d rows given" rule_id
             (List.length rule.Rule.sources) (List.length source_rows))
      else begin
        match
          List.map2 (fun attr row -> (row, attr_col t attr)) rule.Rule.sources source_rows
        with
        | sources -> link t ~rule_id ~sources ~target:(target_row, attr_col t rule.Rule.target)
        | exception Not_found -> Error "rule references an unknown column"
      end

let read_cell t (c : Dep_graph.cell) =
  let table = Catalog.find_exn t.catalog c.Dep_graph.table in
  match Table.get table c.Dep_graph.row with
  | Some tuple -> Ok (Tuple.get tuple c.Dep_graph.col)
  | None -> Error (Format.asprintf "%a: row is not live" Dep_graph.pp_cell c)

let run_chain chain inputs =
  match chain with
  | [] -> Error "empty procedure chain"
  | first :: rest ->
      let ( let* ) = Result.bind in
      let* acc = Procedure.run first inputs in
      List.fold_left
        (fun acc proc ->
          let* prev = acc in
          Procedure.run proc [ prev ])
        (Ok acc) rest

let mark_cell t (c : Dep_graph.cell) =
  Outdated.mark (bitmap_for t c.Dep_graph.table) ~row:c.Dep_graph.row ~col:c.Dep_graph.col

let clear_cell t (c : Dep_graph.cell) =
  Outdated.clear (bitmap_for t c.Dep_graph.table) ~row:c.Dep_graph.row ~col:c.Dep_graph.col

(* Mark [cell] and everything downstream of it. *)
let mark_subtree t cell acc =
  mark_cell t cell;
  let downstream = Dep_graph.transitive_dependents t.graph cell in
  List.iter (mark_cell t) downstream;
  acc @ (cell :: downstream)

(* Cascade from a freshly-changed source cell; [write] stores each
   re-derived value. *)
let rec cascade t ~write (source : Dep_graph.cell) (report : report) visited =
  let instances = Dep_graph.instances_from t.graph source in
  List.fold_left
    (fun report inst ->
      let target = inst.Dep_graph.target in
      if List.exists (Dep_graph.cell_equal target) !visited then report
      else begin
        visited := target :: !visited;
        match Rule_set.find t.rules inst.Dep_graph.rule_id with
        | None ->
            { report with errors = (target, "dangling rule " ^ inst.Dep_graph.rule_id) :: report.errors }
        | Some rule ->
            if Rule.chain_executable rule then begin
              (* re-derive the target automatically *)
              let inputs =
                List.fold_left
                  (fun acc src ->
                    match (acc, read_cell t src) with
                    | Ok vs, Ok v -> Ok (vs @ [ v ])
                    | (Error _ as e), _ -> e
                    | Ok _, (Error _ as e) -> e)
                  (Ok []) inst.Dep_graph.sources
              in
              match Result.bind inputs (run_chain rule.Rule.chain) with
              | Ok value -> (
                  match write target value with
                  | Ok () ->
                      clear_cell t target;
                      let report =
                        { report with recomputed = report.recomputed @ [ target ] }
                      in
                      cascade t ~write target report visited
                  | Error e ->
                      let report =
                        { report with errors = report.errors @ [ (target, e) ] }
                      in
                      { report with marked = mark_subtree t target report.marked })
              | Error e ->
                  let report = { report with errors = report.errors @ [ (target, e) ] } in
                  { report with marked = mark_subtree t target report.marked }
            end
            else
              (* not executable: the target and all its dependents go stale *)
              { report with marked = mark_subtree t target report.marked }
      end)
    report instances

(* Store every bitmap whose marks changed: each public entry point that
   can mark or clear ends here, so the pages are current between calls. *)
let flush_marks t = Hashtbl.iter (fun _ b -> Outdated.flush b) t.bitmaps

let on_cell_update t ~write ~table ~row ~col =
  let cell = Dep_graph.cell ~table ~row ~col in
  clear_cell t cell;
  let report = cascade t ~write cell empty_report (ref [ cell ]) in
  flush_marks t;
  report

let on_procedure_change t ~write proc_name =
  (* every instance of every rule whose chain uses the procedure *)
  let rules = List.filter (fun r -> Rule.uses_procedure r proc_name) (Rule_set.rules t.rules) in
  let report = ref empty_report in
  List.iter
    (fun rule ->
      (* all registered instances of this rule *)
      let instances = ref [] in
      Dep_graph.iter_instances t.graph (fun inst ->
          if inst.Dep_graph.rule_id = rule.Rule.id then instances := inst :: !instances);
      List.iter
        (fun inst ->
          let target = inst.Dep_graph.target in
          if Rule.chain_executable rule then begin
            let visited = ref [] in
            (* re-run by simulating an update of the first source *)
            match inst.Dep_graph.sources with
            | src :: _ -> report := cascade t ~write src !report visited
            | [] -> ()
          end
          else report := { !report with marked = mark_subtree t target !report.marked })
        !instances)
    rules;
  flush_marks t;
  !report

let revalidate t ~table ~row ~col =
  Outdated.clear (bitmap_for t table) ~row ~col;
  flush_marks t

let is_outdated t ~table ~row ~col =
  match Hashtbl.find_opt t.bitmaps (norm table) with
  | None -> false
  | Some b -> Outdated.is_outdated b ~row ~col

let has_outdated t ~table =
  match Hashtbl.find_opt t.bitmaps (norm table) with
  | None -> false
  | Some b -> Outdated.outdated_count b > 0

let outdated_cells t ~table =
  match Hashtbl.find_opt t.bitmaps (norm table) with
  | None -> []
  | Some b -> Outdated.outdated_cells b

let outdated_heads t =
  Hashtbl.fold
    (fun name b acc ->
      match Outdated.head b with Some h -> (name, h) :: acc | None -> acc)
    t.bitmaps []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let attach_outdated t ~table head =
  Hashtbl.replace t.bitmaps (norm table)
    (Outdated.attach (Catalog.pager t.catalog) ~name:table head)

let bitmap_stats t ~table =
  match Hashtbl.find_opt t.bitmaps (norm table) with
  | None -> None
  | Some b -> Some (Outdated.raw_size_bytes b, Outdated.compressed_size_bytes b)
