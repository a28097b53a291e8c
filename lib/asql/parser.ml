module Expr = Bdbms_relation.Expr
module Value = Bdbms_relation.Value
module Ann_pred = Bdbms_annotation.Ann_pred
module Ann = Bdbms_annotation.Ann
module Ann_store = Bdbms_annotation.Ann_store
module Acl = Bdbms_auth.Acl

exception Parse_failure of string

type state = { tokens : Lexer.token array; mutable pos : int }

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_failure s)) fmt

let peek st = st.tokens.(st.pos)

let advance st = st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

(* [s] is keyword [kw] (given in upper case) in any case; allocates
   nothing, unlike comparing an upper-cased copy *)
let kw_equal s kw =
  let n = String.length kw in
  String.length s = n
  &&
  let i = ref 0 in
  while !i < n && Char.uppercase_ascii (String.unsafe_get s !i) = String.unsafe_get kw !i do
    incr i
  done;
  !i = n

(* case-insensitive keyword check without consuming *)
let at_kw st kw =
  match peek st with
  | Lexer.Ident s -> kw_equal s kw
  | _ -> false

let eat_kw st kw =
  if at_kw st kw then advance st
  else fail "expected %s, found %s" kw (Lexer.token_text (peek st))

let try_kw st kw =
  if at_kw st kw then begin
    advance st;
    true
  end
  else false

let at_symbol st s = match peek st with Lexer.Symbol s' -> s = s' | _ -> false

let eat_symbol st s =
  if at_symbol st s then advance st
  else fail "expected %s, found %s" s (Lexer.token_text (peek st))

let try_symbol st s =
  if at_symbol st s then begin
    advance st;
    true
  end
  else false

let reserved =
  [
    "SELECT"; "FROM"; "WHERE"; "AWHERE"; "GROUP"; "HAVING"; "AHAVING"; "FILTER";
    "ORDER"; "LIMIT"; "UNION"; "INTERSECT"; "EXCEPT"; "AND"; "OR"; "NOT"; "BY";
    "AS"; "ON"; "TO"; "ANNOTATION"; "PROMOTE"; "DISTINCT"; "LIKE"; "IS"; "NULL";
    "IN"; "ASC"; "DESC"; "VALUES"; "SET"; "BETWEEN"; "ANN";
  ]

let is_reserved s =
  let rec mem s = function [] -> false | kw :: rest -> kw_equal s kw || mem s rest in
  mem s reserved

let ident st =
  match next st with
  | Lexer.Ident s ->
      if is_reserved s then
        fail "unexpected keyword %s" s
      else s
  | t -> fail "expected an identifier, found %s" (Lexer.token_text t)

(* an identifier where keywords are acceptable (e.g. category names) *)
let any_ident st =
  match next st with
  | Lexer.Ident s -> s
  | t -> fail "expected an identifier, found %s" (Lexer.token_text t)

(* A table name, optionally one-level qualified — [sys.metrics].  The
   dot is consumed only when an identifier follows immediately, so the
   annotation-target syntax (t.anntable), which parses its own dot,
   is unaffected. *)
let table_ident st =
  let first = ident st in
  if
    at_symbol st "."
    &&
    match st.tokens.(st.pos + 1) with
    | Lexer.Ident s -> not (is_reserved s)
    | _ -> false
  then begin
    advance st;
    (* the dot *)
    let second = any_ident st in
    first ^ "." ^ second
  end
  else first

let int_lit st =
  match next st with
  | Lexer.Int_lit n -> n
  | t -> fail "expected an integer, found %s" (Lexer.token_text t)

let string_lit st =
  match next st with
  | Lexer.String_lit s -> s
  | t -> fail "expected a string literal, found %s" (Lexer.token_text t)

(* ----------------------------------------------------------- expressions *)

let parse_literal st =
  match peek st with
  | Lexer.Int_lit n ->
      advance st;
      Value.VInt n
  | Lexer.Float_lit f ->
      advance st;
      Value.VFloat f
  | Lexer.String_lit s ->
      advance st;
      Value.VString s
  | Lexer.Ident s when kw_equal s "TRUE" ->
      advance st;
      Value.VBool true
  | Lexer.Ident s when kw_equal s "FALSE" ->
      advance st;
      Value.VBool false
  | Lexer.Ident s when kw_equal s "NULL" ->
      advance st;
      Value.VNull
  | Lexer.Symbol "-" -> (
      advance st;
      match next st with
      | Lexer.Int_lit n -> Value.VInt (-n)
      | Lexer.Float_lit f -> Value.VFloat (-.f)
      | t -> fail "expected a number after -, found %s" (Lexer.token_text t))
  | t -> fail "expected a literal, found %s" (Lexer.token_text t)

(* column reference, possibly qualified: a.b becomes "a_b" (multi-table
   scans prefix columns by their table alias) *)
let parse_col_ref st =
  let first = ident st in
  if try_symbol st "." then
    let second = any_ident st in
    first ^ "_" ^ second
  else first

let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if try_kw st "OR" then Expr.Or (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if try_kw st "AND" then Expr.And (left, parse_and st) else left

and parse_not st =
  if try_kw st "NOT" then Expr.Not (parse_not st) else parse_comparison st

and parse_comparison st =
  let left = parse_additive st in
  if try_symbol st "=" then Expr.Cmp (Expr.Eq, left, parse_additive st)
  else if try_symbol st "<>" then Expr.Cmp (Expr.Neq, left, parse_additive st)
  else if try_symbol st "<=" then Expr.Cmp (Expr.Leq, left, parse_additive st)
  else if try_symbol st ">=" then Expr.Cmp (Expr.Geq, left, parse_additive st)
  else if try_symbol st "<" then Expr.Cmp (Expr.Lt, left, parse_additive st)
  else if try_symbol st ">" then Expr.Cmp (Expr.Gt, left, parse_additive st)
  else if try_kw st "LIKE" then Expr.Like (left, string_lit st)
  else if try_kw st "IS" then begin
    let negated = try_kw st "NOT" in
    eat_kw st "NULL";
    if negated then Expr.Not (Expr.Is_null left) else Expr.Is_null left
  end
  else if try_kw st "IN" then begin
    eat_symbol st "(";
    let rec go acc =
      let v = parse_literal st in
      if try_symbol st "," then go (v :: acc) else List.rev (v :: acc)
    in
    let values = go [] in
    eat_symbol st ")";
    Expr.In_list (left, values)
  end
  else left

and parse_additive st =
  let left = parse_term st in
  let rec go acc =
    if try_symbol st "+" then go (Expr.Arith (Expr.Add, acc, parse_term st))
    else if try_symbol st "-" then go (Expr.Arith (Expr.Sub, acc, parse_term st))
    else if try_symbol st "||" then go (Expr.Concat (acc, parse_term st))
    else acc
  in
  go left

and parse_term st =
  let left = parse_factor st in
  let rec go acc =
    if try_symbol st "*" then go (Expr.Arith (Expr.Mul, acc, parse_factor st))
    else if try_symbol st "/" then go (Expr.Arith (Expr.Div, acc, parse_factor st))
    else if try_symbol st "%" then go (Expr.Arith (Expr.Mod, acc, parse_factor st))
    else acc
  in
  go left

and parse_factor st =
  match peek st with
  | Lexer.Symbol "(" ->
      advance st;
      let e = parse_expr st in
      eat_symbol st ")";
      e
  | Lexer.Ident s when not (is_reserved s) -> Expr.Col (parse_col_ref st)
  | _ -> Expr.Lit (parse_literal st)

(* ---------------------------------------------------- annotation preds *)

let rec parse_apred st = parse_aor st

and parse_aor st =
  let left = parse_aand st in
  if try_kw st "OR" then Ann_pred.Or (left, parse_aor st) else left

and parse_aand st =
  let left = parse_aatom st in
  if try_kw st "AND" then Ann_pred.And (left, parse_aand st) else left

and parse_aatom st =
  if try_kw st "NOT" then Ann_pred.Not (parse_aatom st)
  else if try_symbol st "(" then begin
    let p = parse_apred st in
    eat_symbol st ")";
    p
  end
  else if try_kw st "ANY" then Ann_pred.Any
  else begin
    eat_kw st "ANN";
    if try_kw st "CONTAINS" then Ann_pred.Contains (string_lit st)
    else if try_kw st "AUTHOR" then begin
      eat_symbol st "=";
      Ann_pred.Author_is (string_lit st)
    end
    else if try_kw st "CATEGORY" then begin
      eat_symbol st "=";
      Ann_pred.Category_is (Ann.category_of_name (string_lit st))
    end
    else if try_kw st "ADDED" then begin
      if try_kw st "BEFORE" then Ann_pred.Added_before (int_lit st)
      else begin
        eat_kw st "AFTER";
        Ann_pred.Added_after (int_lit st)
      end
    end
    else if try_kw st "PATH" then begin
      let path = String.split_on_char '/' (string_lit st) in
      eat_symbol st "=";
      Ann_pred.Xml_path_is (path, string_lit st)
    end
    else fail "expected CONTAINS/AUTHOR/CATEGORY/ADDED/PATH after ANN"
  end

(* ----------------------------------------------------------------- select *)

let aggregate_of_name name col =
  match String.uppercase_ascii name with
  | "COUNT" -> Some (match col with None -> Expr.Count_star | Some c -> Expr.Count c)
  | "SUM" -> ( match col with Some c -> Some (Expr.Sum c) | None -> None)
  | "AVG" -> ( match col with Some c -> Some (Expr.Avg c) | None -> None)
  | "MIN" -> ( match col with Some c -> Some (Expr.Min c) | None -> None)
  | "MAX" -> ( match col with Some c -> Some (Expr.Max c) | None -> None)
  | _ -> None

let is_aggregate_name name =
  List.mem (String.uppercase_ascii name) [ "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let parse_name_list st =
  eat_symbol st "(";
  let rec go acc =
    let c = parse_col_ref st in
    if try_symbol st "," then go (c :: acc) else List.rev (c :: acc)
  in
  let names = go [] in
  eat_symbol st ")";
  names

let parse_select_item st =
  if try_symbol st "*" then Ast.Star
  else begin
    let expr =
      match peek st with
      | Lexer.Ident name when is_aggregate_name name -> (
          (* lookahead for '(' *)
          let save = st.pos in
          advance st;
          if try_symbol st "(" then begin
            let agg =
              if try_symbol st "*" then (
                eat_symbol st ")";
                Expr.Count_star)
              else begin
                let col = parse_col_ref st in
                eat_symbol st ")";
                match aggregate_of_name name (Some col) with
                | Some a -> a
                | None -> fail "bad aggregate %s" name
              end
            in
            Ast.Aggregate agg
          end
          else begin
            st.pos <- save;
            let e = parse_expr st in
            match e with Expr.Col c -> Ast.Col_ref c | e -> Ast.Scalar e
          end)
      | _ -> (
          let e = parse_expr st in
          match e with Expr.Col c -> Ast.Col_ref c | e -> Ast.Scalar e)
    in
    let promote =
      if at_kw st "PROMOTE" then begin
        advance st;
        parse_name_list st
      end
      else []
    in
    let alias =
      if try_kw st "AS" then Some (ident st)
      else None
    in
    Ast.Item { expr; alias; promote }
  end

let parse_from_item st =
  let table = table_ident st in
  let table_alias =
    match peek st with
    | Lexer.Ident s when not (is_reserved s) ->
        (* ANNOTATION is reserved: [FROM t ANNOTATION (...)] has no alias *)
        advance st;
        Some s
    | _ -> None
  in
  let ann_tables =
    if try_kw st "ANNOTATION" then begin
      eat_symbol st "(";
      let names =
        if try_symbol st "*" then [ "*" ]
        else begin
          let rec go acc =
            let n = any_ident st in
            if try_symbol st "," then go (n :: acc) else List.rev (n :: acc)
          in
          go []
        end
      in
      eat_symbol st ")";
      Some names
    end
    else None
  in
  { Ast.table; table_alias; ann_tables }

let rec parse_select st =
  eat_kw st "SELECT";
  let distinct = try_kw st "DISTINCT" in
  let rec items acc =
    let item = parse_select_item st in
    if try_symbol st "," then items (item :: acc) else List.rev (item :: acc)
  in
  let items = items [] in
  eat_kw st "FROM";
  let rec froms acc =
    let f = parse_from_item st in
    if try_symbol st "," then froms (f :: acc) else List.rev (f :: acc)
  in
  let from = froms [] in
  let where = if try_kw st "WHERE" then Some (parse_expr st) else None in
  let awhere = if try_kw st "AWHERE" then Some (parse_apred st) else None in
  let group_by, having, ahaving =
    if try_kw st "GROUP" then begin
      eat_kw st "BY";
      let rec cols acc =
        let c = parse_col_ref st in
        if try_symbol st "," then cols (c :: acc) else List.rev (c :: acc)
      in
      let keys = cols [] in
      let having = if try_kw st "HAVING" then Some (parse_expr st) else None in
      let ahaving = if try_kw st "AHAVING" then Some (parse_apred st) else None in
      (keys, having, ahaving)
    end
    else ([], None, None)
  in
  let filter = if try_kw st "FILTER" then Some (parse_apred st) else None in
  let order_by =
    if try_kw st "ORDER" then begin
      eat_kw st "BY";
      let rec specs acc =
        let c = parse_col_ref st in
        let dir =
          if try_kw st "DESC" then `Desc
          else begin
            ignore (try_kw st "ASC");
            `Asc
          end
        in
        if try_symbol st "," then specs ((c, dir) :: acc) else List.rev ((c, dir) :: acc)
      in
      specs []
    end
    else []
  in
  let limit = if try_kw st "LIMIT" then Some (int_lit st) else None in
  let offset = if try_kw st "OFFSET" then Some (int_lit st) else None in
  {
    Ast.distinct;
    items;
    from;
    where;
    awhere;
    group_by;
    having;
    ahaving;
    filter;
    order_by;
    limit;
    offset;
  }

and parse_query st =
  let left = Ast.Select (parse_select st) in
  let rec go acc =
    if try_kw st "UNION" then go (Ast.Union (acc, Ast.Select (parse_select st)))
    else if try_kw st "INTERSECT" then go (Ast.Intersect (acc, Ast.Select (parse_select st)))
    else if try_kw st "EXCEPT" then go (Ast.Except (acc, Ast.Select (parse_select st)))
    else acc
  in
  go left

(* ------------------------------------------------------------------- DML *)

let parse_values_row st =
  eat_symbol st "(";
  let rec go acc =
    let v = parse_literal st in
    if try_symbol st "," then go (v :: acc) else List.rev (v :: acc)
  in
  let row = go [] in
  eat_symbol st ")";
  row

let parse_insert st =
  eat_kw st "INTO";
  let table = table_ident st in
  eat_kw st "VALUES";
  let rec rows acc =
    let row = parse_values_row st in
    if try_symbol st "," then rows (row :: acc) else List.rev (row :: acc)
  in
  Ast.Insert { table; values = rows [] }

let parse_update_body st =
  let table = table_ident st in
  eat_kw st "SET";
  let rec sets acc =
    let col = parse_col_ref st in
    eat_symbol st "=";
    let e = parse_expr st in
    if try_symbol st "," then sets ((col, e) :: acc) else List.rev ((col, e) :: acc)
  in
  let sets = sets [] in
  let where = if try_kw st "WHERE" then Some (parse_expr st) else None in
  (table, sets, where)

let parse_delete_body st =
  eat_kw st "FROM";
  let table = table_ident st in
  let where = if try_kw st "WHERE" then Some (parse_expr st) else None in
  (table, where)

(* ---------------------------------------------------- annotation commands *)

let parse_target_list st =
  (* t.anntable [, t.anntable ...] *)
  let rec go acc =
    let table = ident st in
    eat_symbol st ".";
    let ann = any_ident st in
    if try_symbol st "," then go ((table, ann) :: acc) else List.rev ((table, ann) :: acc)
  in
  go []

let parse_on_clause st =
  eat_kw st "ON";
  eat_symbol st "(";
  let clause =
    if at_kw st "SELECT" then Ast.On_select (parse_select st)
    else if try_kw st "INSERT" then
      match parse_insert st with
      | Ast.Insert { table; values } -> Ast.On_insert { table; values }
      | _ -> assert false
    else if try_kw st "UPDATE" then begin
      let table, sets, where = parse_update_body st in
      Ast.On_update { table; sets; where }
    end
    else if try_kw st "DELETE" then begin
      let table, where = parse_delete_body st in
      Ast.On_delete { table; where }
    end
    else fail "expected SELECT/INSERT/UPDATE/DELETE in ON (...)"
  in
  eat_symbol st ")";
  clause

let parse_between st =
  if try_kw st "BETWEEN" then begin
    let lo = int_lit st in
    eat_kw st "AND";
    let hi = int_lit st in
    Some (lo, hi)
  end
  else None

let parse_archive_like st ~restore =
  eat_kw st "ANNOTATION";
  eat_kw st "FROM";
  let targets = parse_target_list st in
  let between = parse_between st in
  eat_kw st "ON";
  eat_symbol st "(";
  let select = parse_select st in
  eat_symbol st ")";
  if restore then Ast.Restore_annotation { targets; between; on = select }
  else Ast.Archive_annotation { targets; between; on = select }

(* ------------------------------------------------------------ authorization *)

let parse_grantee st =
  if try_kw st "GROUP" then Acl.Group (ident st) else Acl.User (ident st)

let parse_privilege st =
  match Acl.privilege_of_name (any_ident st) with
  | Some p -> p
  | None -> fail "expected SELECT/INSERT/UPDATE/DELETE"

let parse_columns_opt st =
  if try_kw st "COLUMNS" then begin
    eat_symbol st "(";
    let rec go acc =
      let c = any_ident st in
      if try_symbol st "," then go (c :: acc) else List.rev (c :: acc)
    in
    let cols = go [] in
    eat_symbol st ")";
    Some cols
  end
  else None

(* ------------------------------------------------------------- statements *)

let parse_create st =
  if try_kw st "TABLE" then begin
    let name = table_ident st in
    eat_symbol st "(";
    let rec cols acc =
      let cname = ident st in
      let tyname = any_ident st in
      let ty =
        match Value.type_of_name tyname with
        | Some ty -> ty
        | None -> fail "unknown type %s" tyname
      in
      if try_symbol st "," then cols ((cname, ty) :: acc)
      else List.rev ((cname, ty) :: acc)
    in
    let columns = cols [] in
    eat_symbol st ")";
    Ast.Create_table { name; columns }
  end
  else if try_kw st "ANNOTATION" then begin
    eat_kw st "TABLE";
    let name = ident st in
    eat_kw st "ON";
    let table = ident st in
    let scheme =
      if try_kw st "SCHEME" then
        if try_kw st "CELL" then Some Ann_store.Cell
        else begin
          eat_kw st "COMPACT";
          Some Ann_store.Compact
        end
      else None
    in
    let category = if try_kw st "CATEGORY" then Some (any_ident st) else None in
    let indexed = try_kw st "INDEXED" in
    Ast.Create_ann_table { table; name; scheme; category; indexed }
  end
  else if try_kw st "INDEX" then begin
    let name = ident st in
    eat_kw st "ON";
    let table = table_ident st in
    eat_symbol st "(";
    let column = any_ident st in
    eat_symbol st ")";
    Ast.Create_index { name; table; column }
  end
  else if try_kw st "USER" then Ast.Create_user (ident st)
  else if try_kw st "GROUP" then Ast.Create_group (ident st)
  else if try_kw st "DEPENDENCY" then begin
    let id = ident st in
    eat_kw st "FROM";
    let rec sources acc =
      let table = ident st in
      eat_symbol st ".";
      let col = any_ident st in
      if try_symbol st "," then sources ((table, col) :: acc)
      else List.rev ((table, col) :: acc)
    in
    let sources = sources [] in
    eat_kw st "TO";
    let ttable = ident st in
    eat_symbol st ".";
    let tcol = any_ident st in
    eat_kw st "USING";
    let procedure = any_ident st in
    Ast.Create_dependency { id; sources; target = (ttable, tcol); procedure }
  end
  else fail "expected TABLE/ANNOTATION/INDEX/USER/GROUP/DEPENDENCY after CREATE"

let parse_statement_inner st =
  if at_kw st "SELECT" then Ast.Query (parse_query st)
  else if try_kw st "EXPLAIN" then
    if try_kw st "ANALYZE" then Ast.Explain_analyze (parse_query st)
    else Ast.Explain (parse_query st)
  else if try_kw st "CREATE" then parse_create st
  else if try_kw st "DROP" then begin
    if try_kw st "TABLE" then Ast.Drop_table (table_ident st)
    else if try_kw st "INDEX" then Ast.Drop_index (ident st)
    else begin
      eat_kw st "ANNOTATION";
      eat_kw st "TABLE";
      let name = ident st in
      eat_kw st "ON";
      let table = ident st in
      Ast.Drop_ann_table { table; name }
    end
  end
  else if try_kw st "INSERT" then parse_insert st
  else if try_kw st "UPDATE" then begin
    let table, sets, where = parse_update_body st in
    Ast.Update { table; sets; where }
  end
  else if try_kw st "DELETE" then begin
    let table, where = parse_delete_body st in
    Ast.Delete { table; where }
  end
  else if try_kw st "ADD" then begin
    if try_kw st "ANNOTATION" then begin
      eat_kw st "TO";
      let targets = parse_target_list st in
      eat_kw st "VALUE";
      let value = string_lit st in
      let on = parse_on_clause st in
      Ast.Add_annotation { targets; value; on }
    end
    else begin
      eat_kw st "USER";
      let user = ident st in
      eat_kw st "TO";
      eat_kw st "GROUP";
      let group = ident st in
      Ast.Add_user_to_group { user; group }
    end
  end
  else if try_kw st "ARCHIVE" then parse_archive_like st ~restore:false
  else if try_kw st "RESTORE" then parse_archive_like st ~restore:true
  else if try_kw st "START" then begin
    eat_kw st "CONTENT";
    eat_kw st "APPROVAL";
    eat_kw st "ON";
    let table = ident st in
    let columns = parse_columns_opt st in
    eat_kw st "APPROVED";
    eat_kw st "BY";
    let approver = parse_grantee st in
    Ast.Start_approval { table; columns; approver }
  end
  else if try_kw st "STOP" then begin
    eat_kw st "CONTENT";
    eat_kw st "APPROVAL";
    eat_kw st "ON";
    let table = ident st in
    let columns = parse_columns_opt st in
    Ast.Stop_approval { table; columns }
  end
  else if try_kw st "APPROVE" then Ast.Approve (int_lit st)
  else if try_kw st "DISAPPROVE" then Ast.Disapprove (int_lit st)
  else if try_kw st "SHOW" then begin
    if try_kw st "PENDING" then
      if try_kw st "ON" then Ast.Show_pending (Some (ident st)) else Ast.Show_pending None
    else if try_kw st "OUTDATED" then Ast.Show_outdated (ident st)
    else if try_kw st "TABLES" then Ast.Show_tables
    else if try_kw st "PROVENANCE" then begin
      let table = ident st in
      eat_kw st "ROW";
      let row = int_lit st in
      eat_kw st "COLUMN";
      let column = any_ident st in
      let at = if try_kw st "AT" then Some (int_lit st) else None in
      Ast.Show_provenance { table; row; column; at }
    end
    else begin
      eat_kw st "DEPENDENCIES";
      Ast.Show_dependencies
    end
  end
  else if try_kw st "GRANT" then begin
    let privilege = parse_privilege st in
    eat_kw st "ON";
    let table = table_ident st in
    let columns = parse_columns_opt st in
    eat_kw st "TO";
    let grantee = parse_grantee st in
    Ast.Grant { privilege; table; columns; grantee }
  end
  else if try_kw st "REVOKE" then begin
    let privilege = parse_privilege st in
    eat_kw st "ON";
    let table = table_ident st in
    eat_kw st "FROM";
    let grantee = parse_grantee st in
    Ast.Revoke { privilege; table; grantee }
  end
  else if try_kw st "LINK" then begin
    eat_kw st "DEPENDENCY";
    let id = ident st in
    eat_kw st "FROM";
    eat_symbol st "(";
    let rec rows acc =
      let r = int_lit st in
      if try_symbol st "," then rows (r :: acc) else List.rev (r :: acc)
    in
    let source_rows = rows [] in
    eat_symbol st ")";
    eat_kw st "TO";
    let target_row = int_lit st in
    Ast.Link_dependency { id; source_rows; target_row }
  end
  else if try_kw st "COPY" then begin
    let table = table_ident st in
    let direction =
      if try_kw st "FROM" then `From
      else begin
        eat_kw st "TO";
        `To
      end
    in
    let path = string_lit st in
    let format =
      if try_kw st "FORMAT" then
        if try_kw st "FASTA" then Ast.Fasta
        else begin
          eat_kw st "CSV";
          Ast.Csv
        end
      else Ast.Csv
    in
    match direction with
    | `From -> Ast.Copy_from { table; path; format }
    | `To -> Ast.Copy_to { table; path; format }
  end
  else if try_kw st "DESCRIBE" then Ast.Describe (table_ident st)
  else if try_kw st "ANALYZE" then begin
    (* ANALYZE [table] -- bare ANALYZE covers every table *)
    match peek st with
    | Lexer.Ident s when not (is_reserved s) ->
        Ast.Analyze_stats (Some (table_ident st))
    | _ -> Ast.Analyze_stats None
  end
  else if try_kw st "VALIDATE" then begin
    let table = ident st in
    eat_kw st "ROW";
    let row = int_lit st in
    eat_kw st "COLUMN";
    let column = any_ident st in
    Ast.Validate_cell { table; row; column }
  end
  else fail "unrecognized statement start: %s" (Lexer.token_text (peek st))

let parse_one st =
  let stmt = parse_statement_inner st in
  ignore (try_symbol st ";");
  stmt

let parse src =
  match Lexer.tokenize src with
  | Error e -> Error e
  | Ok tokens -> (
      let st = { tokens = Array.of_list tokens; pos = 0 } in
      match parse_one st with
      | stmt ->
          if peek st = Lexer.Eof then Ok stmt
          else Error (Printf.sprintf "trailing input at %s" (Lexer.token_text (peek st)))
      | exception Parse_failure msg -> Error msg)

let parse_script src =
  let n = String.length src and located = ref [] in
  match Lexer.scan src (fun t start stop -> located := (t, start, stop) :: !located) with
  | Error e -> Error e
  | Ok () -> (
      let located = Array.of_list (List.rev ((Lexer.Eof, n, n) :: !located)) in
      let st = { tokens = Array.map (fun (t, _, _) -> t) located; pos = 0 } in
      let text first =
        let _, start, _ = located.(first) and _, _, stop = located.(st.pos - 1) in
        String.sub src start (stop - start)
      in
      let rec go acc =
        if peek st = Lexer.Eof then Ok (List.rev acc)
        else
          let first = st.pos in
          match parse_statement_inner st with
          | stmt ->
              let sql = text first in
              ignore (try_symbol st ";");
              go ((sql, stmt) :: acc)
          | exception Parse_failure msg -> Error msg
      in
      go [])
