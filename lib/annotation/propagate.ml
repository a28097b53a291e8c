module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Expr = Bdbms_relation.Expr
module Table = Bdbms_relation.Table
module Value = Bdbms_relation.Value

type atuple = { tuple : Tuple.t; anns : Ann.t list array }

type t = { schema : Schema.t; rows : atuple list }

let dedup_anns anns =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun ann ->
      if Hashtbl.mem seen ann.Ann.id then false
      else begin
        Hashtbl.add seen ann.Ann.id ();
        true
      end)
    anns

let union_anns a b = dedup_anns (a @ b)

let scan mgr table ?ann_tables ?include_archived () =
  let schema = Table.schema table in
  let arity = Schema.arity schema in
  let table_name = Table.name table in
  let rows =
    List.map
      (fun (row, tuple) ->
        let anns =
          Array.init arity (fun col ->
              Manager.for_cell mgr ~table_name ?ann_tables ?include_archived ~row ~col ())
        in
        { tuple; anns })
      (Table.to_list table)
  in
  { schema; rows }

let of_rows schema tuples =
  (* one shared all-empty annotation array: every operator here copies
     before writing (promote, merge_group, ...), so sharing is safe and a
     plain query wraps its answer without a per-row allocation *)
  let empty = Array.make (Schema.arity schema) [] in
  { schema; rows = List.map (fun tuple -> { tuple; anns = empty }) tuples }

let all_annotations at = dedup_anns (List.concat (Array.to_list at.anns))

let select t pred =
  { t with rows = List.filter (fun at -> Expr.eval_pred t.schema at.tuple pred) t.rows }

let project t names =
  let indices = List.map (Schema.index_of_exn t.schema) names in
  {
    schema = Schema.project t.schema names;
    rows =
      List.map
        (fun at ->
          {
            tuple = Array.of_list (List.map (fun i -> Tuple.get at.tuple i) indices);
            anns = Array.of_list (List.map (fun i -> at.anns.(i)) indices);
          })
        t.rows;
  }

let extend t ~name ~ty expr =
  {
    schema = Schema.make (Schema.columns t.schema @ [ { Schema.name; ty } ]);
    rows =
      List.map
        (fun at ->
          {
            tuple = Array.append at.tuple [| Expr.eval t.schema at.tuple expr |];
            anns = Array.append at.anns [| [] |];
          })
        t.rows;
  }

let promote t ~from ~to_ =
  let sources = List.map (Schema.index_of_exn t.schema) from in
  let target = Schema.index_of_exn t.schema to_ in
  {
    t with
    rows =
      List.map
        (fun at ->
          let anns = Array.copy at.anns in
          let promoted = List.concat_map (fun i -> at.anns.(i)) sources in
          anns.(target) <- union_anns anns.(target) promoted;
          { at with anns })
        t.rows;
  }

let awhere t pred =
  {
    t with
    rows =
      List.filter (fun at -> List.exists (Ann_pred.eval pred) (all_annotations at)) t.rows;
  }

let filter_anns t pred =
  {
    t with
    rows =
      List.map
        (fun at ->
          { at with anns = Array.map (List.filter (Ann_pred.eval pred)) at.anns })
        t.rows;
  }

(* Merge a list of atuples with identical data into one, unioning the
   annotations column-wise. *)
let merge_group = function
  | [] -> invalid_arg "Propagate.merge_group: empty group"
  | first :: rest ->
      let anns = Array.copy first.anns in
      List.iter
        (fun at -> Array.iteri (fun i a -> anns.(i) <- union_anns anns.(i) a) at.anns)
        rest;
      { first with anns }

(* Group rows by data equality, preserving first-appearance order. *)
let group_rows rows =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun at ->
      let key = Tuple.group_key at.tuple in
      match Hashtbl.find_opt tbl key with
      | Some group -> Hashtbl.replace tbl key (at :: group)
      | None ->
          Hashtbl.add tbl key [ at ];
          order := key :: !order)
    rows;
  List.rev_map (fun key -> List.rev (Hashtbl.find tbl key)) !order

let distinct t = { t with rows = List.map merge_group (group_rows t.rows) }

(* [t]'s INT columns opposite a REAL column of [other] become REAL, their
   values widened, so both sides of a set operator have one schema. *)
let widen t other =
  let cols = Schema.columns t.schema in
  let wide =
    Array.of_list
      (List.map2
         (fun c o -> c.Schema.ty = Value.TInt && o.Schema.ty = Value.TFloat)
         cols (Schema.columns other.schema))
  in
  if not (Array.mem true wide) then t
  else
    let schema =
      Schema.make
        (List.mapi (fun i c -> if wide.(i) then { c with Schema.ty = Value.TFloat } else c) cols)
    in
    let cell i = function
      | Value.VInt n when wide.(i) -> Value.VFloat (float_of_int n)
      | v -> v
    in
    { schema; rows = List.map (fun at -> { at with tuple = Array.mapi cell at.tuple }) t.rows }

let compatible op a b =
  if not (Schema.union_compatible a.schema b.schema) then
    raise (Expr.Eval_error (op ^ ": schemas are not union-compatible"));
  (widen a b, widen b a)

let union a b =
  let a, b = compatible "UNION" a b in
  distinct { a with rows = a.rows @ b.rows }

let intersect a b =
  let a, b = compatible "INTERSECT" a b in
  (* a tuple survives when present in both sides; its annotations are the
     union over all equal tuples from both sides (the paper's gene
     example: common genes carry annotations from both source tables) *)
  let b_groups = Hashtbl.create 16 in
  List.iter
    (fun at ->
      let key = Tuple.group_key at.tuple in
      let cur = try Hashtbl.find b_groups key with Not_found -> [] in
      Hashtbl.replace b_groups key (at :: cur))
    b.rows;
  let groups = group_rows a.rows in
  let rows =
    List.filter_map
      (fun group ->
        let key = Tuple.group_key (List.hd group).tuple in
        match Hashtbl.find_opt b_groups key with
        | Some b_side -> Some (merge_group (group @ List.rev b_side))
        | None -> None)
      groups
  in
  { a with rows }

let except a b =
  let a, b = compatible "EXCEPT" a b in
  let b_keys = Hashtbl.create 16 in
  List.iter (fun at -> Hashtbl.replace b_keys (Tuple.group_key at.tuple) ()) b.rows;
  let groups = group_rows a.rows in
  let rows =
    List.filter_map
      (fun group ->
        let key = Tuple.group_key (List.hd group).tuple in
        if Hashtbl.mem b_keys key then None else Some (merge_group group))
      groups
  in
  { a with rows }

let join ?on_pair a b ~on =
  let schema = Schema.concat a.schema b.schema in
  let hit = match on_pair with None -> ignore | Some f -> f in
  let rows =
    List.concat_map
      (fun ra ->
        List.filter_map
          (fun rb ->
            hit ();
            let tuple = Array.append ra.tuple rb.tuple in
            if Expr.eval_pred schema tuple on then
              Some { tuple; anns = Array.append ra.anns rb.anns }
            else None)
          b.rows)
      a.rows
  in
  { schema; rows }

(* One group of [group_by]: its key values, one accumulator per
   aggregate, and per output column the annotations of its members in
   reverse order of appearance (duplicates kept until the end). *)
type group = { key : Tuple.t; accs : Expr.acc array; seen : Ann.t list array }

let group_by t ~keys ~aggs =
  let key_cols = Array.of_list (List.map (Schema.index_of_exn t.schema) keys) in
  let schema =
    Schema.make
      (List.map (Schema.column_at t.schema) (Array.to_list key_cols)
      @ List.map
          (fun (agg, name) -> { Schema.name; ty = Expr.agg_type t.schema agg })
          aggs)
  in
  let aggs =
    Array.of_list (List.map (fun (agg, _) -> (agg, Expr.agg_input t.schema agg)) aggs)
  in
  let nkeys = Array.length key_cols in
  let new_group key =
    {
      key;
      accs = Array.map (fun _ -> Expr.new_acc ()) aggs;
      seen = Array.make (nkeys + Array.length aggs) [];
    }
  in
  (* groups in reverse order of first appearance; with no keys, the one
     global group exists even over empty input *)
  let groups = ref (if nkeys = 0 then [ new_group [||] ] else []) in
  let index = Hashtbl.create 64 in
  let group_of at =
    if nkeys = 0 then List.hd !groups
    else
      let key = Array.map (Tuple.get at.tuple) key_cols in
      let k = Tuple.group_key key in
      match Hashtbl.find_opt index k with
      | Some g -> g
      | None ->
          let g = new_group key in
          Hashtbl.add index k g;
          groups := g :: !groups;
          g
  in
  List.iter
    (fun at ->
      let g = group_of at in
      let keep col src = g.seen.(col) <- List.rev_append at.anns.(src) g.seen.(col) in
      Array.iteri keep key_cols;
      Array.iteri
        (fun j (agg, src) ->
          match src with
          | None -> Expr.agg_step agg g.accs.(j) Value.VNull
          | Some i ->
              Expr.agg_step agg g.accs.(j) (Tuple.get at.tuple i);
              keep (nkeys + j) i)
        aggs)
    t.rows;
  let row g =
    let values = Array.mapi (fun j a -> Expr.agg_result (fst aggs.(j)) a) g.accs in
    {
      tuple = Array.append g.key values;
      anns = Array.map (fun seen -> dedup_anns (List.rev seen)) g.seen;
    }
  in
  { schema; rows = List.rev_map row !groups }

let order_by t specs =
  let indices =
    List.map
      (fun (name, dir) -> (Schema.index_of_exn t.schema name, dir))
      specs
  in
  let cmp a b =
    let rec go = function
      | [] -> 0
      | (i, dir) :: rest ->
          let c = Value.compare (Tuple.get a.tuple i) (Tuple.get b.tuple i) in
          let c = match dir with `Asc -> c | `Desc -> -c in
          if c <> 0 then c else go rest
    in
    go indices
  in
  { t with rows = List.stable_sort cmp t.rows }

(* tail-recursive: LIMIT can be as large as the rowset *)
let limit t n =
  let rec take acc k = function
    | [] -> List.rev acc
    | _ when k <= 0 -> List.rev acc
    | x :: rest -> take (x :: acc) (k - 1) rest
  in
  { t with rows = take [] (max 0 n) t.rows }

let row_count t = List.length t.rows
