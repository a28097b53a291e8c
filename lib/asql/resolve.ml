module Schema = Bdbms_relation.Schema
module Expr = Bdbms_relation.Expr

type outcome = Resolved of string | Unknown | Ambiguous

let column schema ~prefixes name =
  if Schema.mem schema name then Resolved name
  else begin
    (* qualified ref whose qualifier matches a known prefix? *)
    let stripped =
      List.find_map
        (fun p ->
          let p = p ^ "_" in
          let pl = String.length p in
          if
            String.length name > pl
            && String.lowercase_ascii (String.sub name 0 pl)
               = String.lowercase_ascii p
            && Schema.mem schema (String.sub name pl (String.length name - pl))
          then Some (String.sub name pl (String.length name - pl))
          else None)
        prefixes
    in
    match stripped with
    | Some n -> Resolved n
    | None -> (
        (* unique suffix match: name = column under some table prefix *)
        let suffix = "_" ^ String.lowercase_ascii name in
        let candidates =
          List.filter
            (fun c ->
              let cn = String.lowercase_ascii c.Schema.name in
              String.length cn > String.length suffix
              && String.sub cn
                   (String.length cn - String.length suffix)
                   (String.length suffix)
                 = suffix)
            (Schema.columns schema)
        in
        match candidates with
        | [ c ] -> Resolved c.Schema.name
        | [] -> Unknown
        | _ -> Ambiguous)
  end

let rec map_expr f = function
  | Expr.Col name -> Expr.Col (f name)
  | Expr.Lit _ as e -> e
  | Expr.Cmp (op, a, b) -> Expr.Cmp (op, map_expr f a, map_expr f b)
  | Expr.And (a, b) -> Expr.And (map_expr f a, map_expr f b)
  | Expr.Or (a, b) -> Expr.Or (map_expr f a, map_expr f b)
  | Expr.Not a -> Expr.Not (map_expr f a)
  | Expr.Arith (op, a, b) -> Expr.Arith (op, map_expr f a, map_expr f b)
  | Expr.Like (a, p) -> Expr.Like (map_expr f a, p)
  | Expr.In_list (a, vs) -> Expr.In_list (map_expr f a, vs)
  | Expr.Is_null a -> Expr.Is_null (map_expr f a)
  | Expr.Concat (a, b) -> Expr.Concat (map_expr f a, map_expr f b)
