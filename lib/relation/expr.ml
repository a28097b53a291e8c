type cmp = Eq | Neq | Lt | Leq | Gt | Geq

type arith = Add | Sub | Mul | Div | Mod

type t =
  | Col of string
  | Lit of Value.t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t
  | Like of t * string
  | In_list of t * Value.t list
  | Is_null of t
  | Concat of t * t

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* LIKE with % (any run) and _ (any char), via memoized recursion. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
        let r =
          if pi >= np then si >= ns
          else
            match pattern.[pi] with
            | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
            | '_' -> si < ns && go (pi + 1) (si + 1)
            | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
        in
        Hashtbl.replace memo (pi, si) r;
        r
  in
  go 0 0

let apply_cmp op a b =
  if Value.is_null a || Value.is_null b then Value.VNull
  else
    let c = Value.compare a b in
    let r =
      match op with
      | Eq -> Value.equal a b
      | Neq -> not (Value.equal a b)
      | Lt -> c < 0
      | Leq -> c <= 0
      | Gt -> c > 0
      | Geq -> c >= 0
    in
    Value.VBool r

let apply_arith op a b =
  if Value.is_null a || Value.is_null b then Value.VNull
  else
    match (a, b) with
    | Value.VInt x, Value.VInt y -> (
        match op with
        | Add -> Value.VInt (x + y)
        | Sub -> Value.VInt (x - y)
        | Mul -> Value.VInt (x * y)
        | Div -> if y = 0 then fail "division by zero" else Value.VInt (x / y)
        | Mod -> if y = 0 then fail "modulo by zero" else Value.VInt (x mod y))
    | (Value.VInt _ | Value.VFloat _), (Value.VInt _ | Value.VFloat _) -> (
        let x = Value.as_float a and y = Value.as_float b in
        match op with
        | Add -> Value.VFloat (x +. y)
        | Sub -> Value.VFloat (x -. y)
        | Mul -> Value.VFloat (x *. y)
        | Div -> if y = 0.0 then fail "division by zero" else Value.VFloat (x /. y)
        | Mod -> fail "modulo of floats")
    | _ ->
        fail "arithmetic on non-numeric values (%s, %s)" (Value.to_display a)
          (Value.to_display b)

let rec eval schema tuple expr =
  match expr with
  | Lit v -> v
  | Col name -> (
      match Schema.index_of schema name with
      | Some i -> Tuple.get tuple i
      | None -> fail "unknown column %S" name)
  | Cmp (op, a, b) -> apply_cmp op (eval schema tuple a) (eval schema tuple b)
  | And (a, b) -> (
      (* three-valued AND *)
      match (eval schema tuple a, eval schema tuple b) with
      | Value.VBool false, _ | _, Value.VBool false -> Value.VBool false
      | Value.VBool true, Value.VBool true -> Value.VBool true
      | (Value.VNull | Value.VBool _), (Value.VNull | Value.VBool _) -> Value.VNull
      | a', b' ->
          fail "AND on non-boolean values (%s, %s)" (Value.to_display a')
            (Value.to_display b'))
  | Or (a, b) -> (
      match (eval schema tuple a, eval schema tuple b) with
      | Value.VBool true, _ | _, Value.VBool true -> Value.VBool true
      | Value.VBool false, Value.VBool false -> Value.VBool false
      | (Value.VNull | Value.VBool _), (Value.VNull | Value.VBool _) -> Value.VNull
      | a', b' ->
          fail "OR on non-boolean values (%s, %s)" (Value.to_display a')
            (Value.to_display b'))
  | Not a -> (
      match eval schema tuple a with
      | Value.VBool b -> Value.VBool (not b)
      | Value.VNull -> Value.VNull
      | v -> fail "NOT on non-boolean value %s" (Value.to_display v))
  | Arith (op, a, b) -> apply_arith op (eval schema tuple a) (eval schema tuple b)
  | Like (a, pattern) -> (
      match eval schema tuple a with
      | Value.VNull -> Value.VNull
      | v -> Value.VBool (like_match ~pattern (Value.as_string v)))
  | In_list (a, vs) ->
      let v = eval schema tuple a in
      if Value.is_null v then Value.VNull
      else Value.VBool (List.exists (Value.equal v) vs)
  | Is_null a -> Value.VBool (Value.is_null (eval schema tuple a))
  | Concat (a, b) -> (
      match (eval schema tuple a, eval schema tuple b) with
      | Value.VNull, _ | _, Value.VNull -> Value.VNull
      | a', b' -> Value.VString (Value.as_string a' ^ Value.as_string b'))

let eval_pred schema tuple expr =
  match eval schema tuple expr with
  | Value.VBool b -> b
  | Value.VNull -> false
  | v -> fail "predicate evaluated to non-boolean %s" (Value.to_display v)

let columns_used expr =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add name =
    let key = String.lowercase_ascii name in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := name :: !out
    end
  in
  let rec go = function
    | Col name -> add name
    | Lit _ -> ()
    | Cmp (_, a, b) | And (a, b) | Or (a, b) | Arith (_, a, b) | Concat (a, b) ->
        go a;
        go b
    | Not a | Like (a, _) | In_list (a, _) | Is_null a -> go a
  in
  go expr;
  List.rev !out

let rec pp fmt = function
  | Col name -> Format.pp_print_string fmt name
  | Lit v -> Value.pp fmt v
  | Cmp (op, a, b) ->
      let sym =
        match op with
        | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Leq -> "<=" | Gt -> ">" | Geq -> ">="
      in
      Format.fprintf fmt "(%a %s %a)" pp a sym pp b
  | And (a, b) -> Format.fprintf fmt "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a OR %a)" pp a pp b
  | Not a -> Format.fprintf fmt "(NOT %a)" pp a
  | Arith (op, a, b) ->
      let sym =
        match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
      in
      Format.fprintf fmt "(%a %s %a)" pp a sym pp b
  | Like (a, p) -> Format.fprintf fmt "(%a LIKE %S)" pp a p
  | In_list (a, vs) ->
      Format.fprintf fmt "(%a IN (%s))" pp a
        (String.concat ", " (List.map Value.to_display vs))
  | Is_null a -> Format.fprintf fmt "(%a IS NULL)" pp a
  | Concat (a, b) -> Format.fprintf fmt "(%a || %a)" pp a pp b

let rec type_of schema = function
  | Col name -> (
      match Schema.index_of schema name with
      | Some i -> (Schema.column_at schema i).Schema.ty
      | None -> fail "unknown column %S" name)
  | Lit v -> Option.value (Value.type_of v) ~default:Value.TString
  | Cmp _ | And _ | Or _ | Not _ | Like _ | In_list _ | Is_null _ -> Value.TBool
  | Arith (_, a, b) -> (
      match (type_of schema a, type_of schema b) with
      | Value.TInt, Value.TInt -> Value.TInt
      | _ -> Value.TFloat)
  | Concat _ -> Value.TString

(* ------------------------------------------------------------ aggregates *)

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

let agg_input schema agg =
  Option.map
    (fun c ->
      match Schema.index_of schema c with
      | Some i -> i
      | None -> fail "aggregate over unknown column %s" c)
    (agg_column agg)

let agg_type schema agg =
  match (agg, agg_input schema agg) with
  | (Sum _ | Min _ | Max _), Some i -> (Schema.column_at schema i).Schema.ty
  | Avg _, _ -> Value.TFloat
  | _ -> Value.TInt

type acc = {
  mutable n : int;
  mutable isum : int;
  mutable fsum : float;
  mutable all_int : bool;
  mutable best : Value.t;
}

let new_acc () = { n = 0; isum = 0; fsum = 0.0; all_int = true; best = Value.VNull }

let agg_step agg a x =
  match agg with
  | Count_star -> a.n <- a.n + 1
  | _ when Value.is_null x -> ()
  | Count _ -> a.n <- a.n + 1
  | Sum _ | Avg _ ->
      a.n <- a.n + 1;
      (match x with Value.VInt k -> a.isum <- a.isum + k | _ -> a.all_int <- false);
      a.fsum <- a.fsum +. Value.as_float x
  | Min _ ->
      if Value.is_null a.best || Value.compare x a.best < 0 then a.best <- x
  | Max _ ->
      if Value.is_null a.best || Value.compare x a.best > 0 then a.best <- x

let agg_result agg a =
  match agg with
  | Count_star | Count _ -> Value.VInt a.n
  | Sum _ ->
      if a.n = 0 then Value.VNull
      else if a.all_int then Value.VInt a.isum
      else Value.VFloat a.fsum
  | Avg _ -> if a.n = 0 then Value.VNull else Value.VFloat (a.fsum /. float_of_int a.n)
  | Min _ | Max _ -> a.best
