type rowset = { schema : Schema.t; rows : Tuple.t list }

let scan table =
  { schema = Table.schema table;
    rows = List.map snd (Table.to_list table) }

let select rs pred =
  { rs with rows = List.filter (fun t -> Expr.eval_pred rs.schema t pred) rs.rows }

let project rs names =
  {
    schema = Schema.project rs.schema names;
    rows = List.map (fun t -> Tuple.project rs.schema t names) rs.rows;
  }

let extend rs ~name ~ty expr =
  let schema = Schema.make (Schema.columns rs.schema @ [ { Schema.name; ty } ]) in
  let rows =
    List.map
      (fun t -> Array.append t [| Expr.eval rs.schema t expr |])
      rs.rows
  in
  { schema; rows }

let cross a b =
  let schema = Schema.concat a.schema b.schema in
  let rows =
    List.concat_map (fun ta -> List.map (fun tb -> Array.append ta tb) b.rows) a.rows
  in
  { schema; rows }

let join a b ~on =
  let crossed = cross a b in
  select crossed on

module TSet = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

let distinct rs =
  let _, rows =
    List.fold_left
      (fun (seen, acc) t ->
        if TSet.mem t seen then (seen, acc) else (TSet.add t seen, t :: acc))
      (TSet.empty, []) rs.rows
  in
  { rs with rows = List.rev rows }

let order_by rs specs =
  let indices =
    List.map
      (fun (name, dir) ->
        match Schema.index_of rs.schema name with
        | Some i -> (i, dir)
        | None -> raise (Expr.Eval_error ("ORDER BY: unknown column " ^ name)))
      specs
  in
  let cmp a b =
    let rec go = function
      | [] -> 0
      | (i, dir) :: rest ->
          let c = Value.compare (Tuple.get a i) (Tuple.get b i) in
          let c = match dir with `Asc -> c | `Desc -> -c in
          if c <> 0 then c else go rest
    in
    go indices
  in
  { rs with rows = List.stable_sort cmp rs.rows }

(* tail-recursive: LIMIT can be as large as the rowset *)
let take_rows k rows =
  let rec go acc k = function
    | [] -> List.rev acc
    | _ when k <= 0 -> List.rev acc
    | x :: rest -> go (x :: acc) (k - 1) rest
  in
  go [] k rows

let limit rs n = { rs with rows = take_rows (max 0 n) rs.rows }

let check_compatible op a b =
  if not (Schema.union_compatible a.schema b.schema) then
    raise (Expr.Eval_error (op ^ ": schemas are not union-compatible"))

let union a b =
  check_compatible "UNION" a b;
  distinct { a with rows = a.rows @ b.rows }

let intersect a b =
  check_compatible "INTERSECT" a b;
  let bset = TSet.of_list b.rows in
  distinct { a with rows = List.filter (fun t -> TSet.mem t bset) a.rows }

let except a b =
  check_compatible "EXCEPT" a b;
  let bset = TSet.of_list b.rows in
  distinct { a with rows = List.filter (fun t -> not (TSet.mem t bset)) a.rows }

type aggregate =
  | Count_star
  | Count of string
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

let aggregate_name = function
  | Count_star -> "COUNT(*)"
  | Count c -> "COUNT(" ^ c ^ ")"
  | Sum c -> "SUM(" ^ c ^ ")"
  | Avg c -> "AVG(" ^ c ^ ")"
  | Min c -> "MIN(" ^ c ^ ")"
  | Max c -> "MAX(" ^ c ^ ")"

let agg_column = function
  | Count_star -> None
  | Count c | Sum c | Avg c | Min c | Max c -> Some c

let agg_type schema = function
  | Count_star | Count _ -> Value.TInt
  | Avg _ -> Value.TFloat
  | Sum c ->
      (Schema.column_at schema (Schema.index_of_exn schema c)).ty
  | Min c | Max c -> (Schema.column_at schema (Schema.index_of_exn schema c)).ty

let compute_agg schema rows agg =
  let values col =
    let i = Schema.index_of_exn schema col in
    List.filter_map
      (fun t ->
        let v = Tuple.get t i in
        if Value.is_null v then None else Some v)
      rows
  in
  match agg with
  | Count_star -> Value.VInt (List.length rows)
  | Count c -> Value.VInt (List.length (values c))
  | Sum c -> (
      match values c with
      | [] -> Value.VNull
      | vs ->
          let all_int = List.for_all (function Value.VInt _ -> true | _ -> false) vs in
          if all_int then
            Value.VInt (List.fold_left (fun acc v -> acc + Value.as_int v) 0 vs)
          else
            Value.VFloat (List.fold_left (fun acc v -> acc +. Value.as_float v) 0.0 vs))
  | Avg c -> (
      match values c with
      | [] -> Value.VNull
      | vs ->
          let total = List.fold_left (fun acc v -> acc +. Value.as_float v) 0.0 vs in
          Value.VFloat (total /. float_of_int (List.length vs)))
  | Min c -> (
      match values c with
      | [] -> Value.VNull
      | v :: vs -> List.fold_left (fun m x -> if Value.compare x m < 0 then x else m) v vs)
  | Max c -> (
      match values c with
      | [] -> Value.VNull
      | v :: vs -> List.fold_left (fun m x -> if Value.compare x m > 0 then x else m) v vs)

let group_by rs ~keys ~aggs =
  List.iter
    (fun (agg, _) ->
      match agg_column agg with
      | Some c when not (Schema.mem rs.schema c) ->
          raise (Expr.Eval_error ("aggregate over unknown column " ^ c))
      | _ -> ())
    aggs;
  let out_schema =
    let key_cols =
      List.map
        (fun k -> Schema.column_at rs.schema (Schema.index_of_exn rs.schema k))
        keys
    in
    let agg_cols =
      List.map
        (fun (agg, out_name) -> { Schema.name = out_name; ty = agg_type rs.schema agg })
        aggs
    in
    Schema.make (key_cols @ agg_cols)
  in
  if keys = [] then
    let agg_values = List.map (fun (agg, _) -> compute_agg rs.schema rs.rows agg) aggs in
    { schema = out_schema; rows = [ Array.of_list agg_values ] }
  else begin
    let groups = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun t ->
        let key = Tuple.project rs.schema t keys in
        let key_repr = Tuple.group_key key in
        match Hashtbl.find_opt groups key_repr with
        | Some (k, rows) -> Hashtbl.replace groups key_repr (k, t :: rows)
        | None ->
            Hashtbl.add groups key_repr (key, [ t ]);
            order := key_repr :: !order)
      rs.rows;
    let rows =
      List.rev_map
        (fun key_repr ->
          let key, group_rows = Hashtbl.find groups key_repr in
          let group_rows = List.rev group_rows in
          let agg_values =
            List.map (fun (agg, _) -> compute_agg rs.schema group_rows agg) aggs
          in
          Array.append key (Array.of_list agg_values))
        !order
    in
    { schema = out_schema; rows }
  end

let row_count rs = List.length rs.rows

let pp fmt rs =
  Format.fprintf fmt "%a@." Schema.pp rs.schema;
  List.iter (fun t -> Format.fprintf fmt "%a@." Tuple.pp t) rs.rows
