module Catalog = Bdbms_relation.Catalog
module Table = Bdbms_relation.Table
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple

type report = {
  recomputed : Dep_graph.cell list;
  marked : Dep_graph.cell list;
  errors : (Dep_graph.cell * string) list;
}

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

(* A rule's rank: one more than the highest rank of the rules deriving
   its sources.  [Rule_set.add] refuses cycles, so every rule has one. *)
let rec rank t ranks (r : Rule.t) =
  match Hashtbl.find_opt ranks r.id with
  | Some k -> k
  | None ->
      let up k src =
        match Rule_set.rule_for_target t.rules src with
        | Some u -> max k (rank t ranks u + 1)
        | None -> k
      in
      let k = List.fold_left up 0 r.sources in
      Hashtbl.replace ranks r.id k;
      k

(* The cascade of one change: [changed] are the cells it wrote, [seeds]
   instances whose targets it made stale.  Every target reachable from
   either is visited once, in rule rank order, so each is derived from
   final inputs: an executable target whose chain succeeds is written
   through [write] and its mark cleared; any other target is marked, and
   so is everything downstream of it, underived.  A changed cell keeps its
   value and loses its mark.  Each bitmap touched is stored once, at the
   end. *)
let cascade t ~write ~changed seeds =
  let touched = Hashtbl.create 4 and is_changed = Hashtbl.create 16 in
  let set_mark (c : Dep_graph.cell) on =
    (* a table without a bitmap has no mark to clear *)
    if on || Hashtbl.mem t.bitmaps c.table then begin
      let b = bitmap_for t c.table in
      Hashtbl.replace touched c.table b;
      (if on then Outdated.mark else Outdated.clear) b ~row:c.row ~col:c.col
    end
  in
  List.iter (fun c -> Hashtbl.replace is_changed c (); set_mark c false) changed;
  (* every reachable target, with the instance deriving it, wave by wave *)
  let visited = Hashtbl.create 64 in
  let enter insts =
    List.fold_left
      (fun wave (inst : Dep_graph.instance) ->
        let c = inst.target in
        if Hashtbl.mem is_changed c || Hashtbl.mem visited c then wave
        else (Hashtbl.add visited c inst; c :: wave))
      [] insts
  in
  let rec close = function
    | [] -> ()
    | wave -> close (enter (Dep_graph.instances_from t.graph wave))
  in
  close (changed @ enter seeds);
  let ranks = Hashtbl.create 8 in
  let order =
    Hashtbl.fold
      (fun (c : Dep_graph.cell) (inst : Dep_graph.instance) acc ->
        let rule = Rule_set.find t.rules inst.rule_id in
        let k = Option.fold ~none:max_int ~some:(rank t ranks) rule in
        (k, inst.rule_id, c.row, rule, inst) :: acc)
      visited []
    |> List.sort (fun (k1, r1, row1, _, _) (k2, r2, row2, _, _) ->
           compare (k1, r1, row1) (k2, r2, row2))
  in
  let stats = Bdbms_storage.Pager.stats (Catalog.pager t.catalog) in
  let stale = Hashtbl.create 16 in
  let recomputed = ref [] and marked = ref [] and errors = ref [] in
  let mark ?error c =
    Option.iter (fun e -> errors := (c, e) :: !errors) error;
    set_mark c true;
    Hashtbl.replace stale c ();
    marked := c :: !marked
  in
  List.iter
    (fun (_, id, _, rule, (inst : Dep_graph.instance)) ->
      let target = inst.target in
      match rule with
      | _ when List.exists (Hashtbl.mem stale) inst.sources -> mark target
      | None -> mark target ~error:("dangling rule " ^ id)
      | Some rule when not (Rule.chain_executable rule) -> mark target
      | Some rule -> (
          let inputs =
            List.fold_left
              (fun acc src ->
                Result.bind acc (fun vs -> Result.map (fun v -> v :: vs) (read_cell t src)))
              (Ok []) inst.sources
            |> Result.map List.rev
          in
          let derive vs =
            Bdbms_obs.Stats.record_dep_derivation stats;
            Result.bind (run_chain rule.chain vs) (write target)
          in
          match Result.bind inputs derive with
          | Ok () ->
              set_mark target false;
              recomputed := target :: !recomputed
          | Error e -> mark target ~error:e))
    order;
  Hashtbl.iter (fun _ b -> Outdated.flush b) touched;
  { recomputed = List.rev !recomputed; marked = List.rev !marked; errors = List.rev !errors }

let propagate t ~write cells = cascade t ~write ~changed:cells []

let on_cell_update t ~write ~table ~row ~col =
  propagate t ~write [ Dep_graph.cell ~table ~row ~col ]

let on_procedure_change t ~write proc_name =
  let rules = List.filter (fun r -> Rule.uses_procedure r proc_name) (Rule_set.rules t.rules) in
  let seeds = ref [] in
  Dep_graph.iter_instances t.graph (fun inst ->
      if List.exists (fun r -> r.Rule.id = inst.Dep_graph.rule_id) rules then
        seeds := inst :: !seeds);
  cascade t ~write ~changed:[] (List.rev !seeds)

let revalidate t ~table ~row ~col =
  let b = bitmap_for t table in
  Outdated.clear b ~row ~col;
  Outdated.flush b

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
