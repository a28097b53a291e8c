type column = { name : string; ty : Value.ty }

type t = { cols : column array }

let norm s = String.lowercase_ascii s

let make cols =
  if cols = [] then invalid_arg "Schema.make: empty column list";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let key = norm c.name in
      if Hashtbl.mem seen key then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.add seen key ())
    cols;
  { cols = Array.of_list cols }

let columns t = Array.to_list t.cols
let arity t = Array.length t.cols
let column_at t i = t.cols.(i)

let index_of t name =
  let key = norm name in
  let rec go i =
    if i >= Array.length t.cols then None
    else if norm t.cols.(i).name = key then Some i
    else go (i + 1)
  in
  go 0

let index_of_exn t name =
  match index_of t name with Some i -> i | None -> raise Not_found

let mem t name = index_of t name <> None

let project t names =
  make (List.map (fun n -> t.cols.(index_of_exn t n)) names)

let concat a b =
  let names = Hashtbl.create 8 in
  Array.iter (fun c -> Hashtbl.replace names (norm c.name) ()) a.cols;
  let rename c =
    let rec fresh n =
      if Hashtbl.mem names (norm n) then fresh ("r_" ^ n) else n
    in
    let name = fresh c.name in
    Hashtbl.replace names (norm name) ();
    { c with name }
  in
  { cols = Array.append a.cols (Array.map rename b.cols) }

let rename_columns t renames =
  let apply c =
    match List.find_opt (fun (old, _) -> norm old = norm c.name) renames with
    | Some (_, fresh) -> { c with name = fresh }
    | None -> c
  in
  make (List.map apply (columns t))

let equal a b = a.cols = b.cols

let union_compatible a b =
  arity a = arity b
  && Array.for_all2
       (fun ca cb ->
         ca.ty = cb.ty
         || (ca.ty = Value.TInt && cb.ty = Value.TFloat)
         || (ca.ty = Value.TFloat && cb.ty = Value.TInt))
       a.cols b.cols

let pp fmt t =
  Format.fprintf fmt "(%s)"
    (String.concat ", "
       (List.map (fun c -> c.name ^ " " ^ Value.type_name c.ty) (columns t)))
