type privilege = Select | Insert | Update | Delete

let privilege_name = function
  | Select -> "SELECT"
  | Insert -> "INSERT"
  | Update -> "UPDATE"
  | Delete -> "DELETE"

let privilege_of_name s =
  match String.uppercase_ascii s with
  | "SELECT" -> Some Select
  | "INSERT" -> Some Insert
  | "UPDATE" -> Some Update
  | "DELETE" -> Some Delete
  | _ -> None

type grantee = User of string | Group of string

type grant_entry = { privilege : privilege; grantee : grantee; columns : string list option }

type t = {
  principals : Principal.t;
  (* table (lowercase) -> grants *)
  grants : (string, grant_entry list) Hashtbl.t;
  mutable version : int;
}

let create principals = { principals; grants = Hashtbl.create 16; version = 0 }
let version t = t.version
let bump t = t.version <- t.version + 1

let norm = String.lowercase_ascii

let grant t privilege ~table ?columns grantee =
  let valid =
    match grantee with
    | User u -> Principal.user_exists t.principals u
    | Group g -> Principal.group_exists t.principals g
  in
  if not valid then
    Error
      (match grantee with
      | User u -> Printf.sprintf "unknown user %s" u
      | Group g -> Printf.sprintf "unknown group %s" g)
  else begin
    let key = norm table in
    let cur = try Hashtbl.find t.grants key with Not_found -> [] in
    let columns = Option.map (List.map norm) columns in
    Hashtbl.replace t.grants key ({ privilege; grantee; columns } :: cur);
    bump t;
    Ok ()
  end

let revoke t privilege ~table grantee =
  let key = norm table in
  match Hashtbl.find_opt t.grants key with
  | None -> false
  | Some entries ->
      let keep, dropped =
        List.partition
          (fun e -> not (e.privilege = privilege && e.grantee = grantee))
          entries
      in
      Hashtbl.replace t.grants key keep;
      bump t;
      dropped <> []

let allowed t ~user privilege ~table ?column () =
  let key = norm table in
  match Hashtbl.find_opt t.grants key with
  | None -> false
  | Some entries ->
      let groups = Principal.groups_of t.principals user in
      List.exists
        (fun e ->
          e.privilege = privilege
          && (match e.grantee with
             | User u -> u = user
             | Group g -> List.mem g groups)
          &&
          match (e.columns, column) with
          | None, _ -> true
          | Some _, None -> false
          | Some cols, Some c -> List.mem (norm c) cols)
        entries

let grants_for t ~table =
  match Hashtbl.find_opt t.grants (norm table) with
  | None -> []
  | Some entries -> List.map (fun e -> (e.privilege, e.grantee, e.columns)) entries

(* Durable-catalog hooks: dump every grant list (sorted by table) and put
   one back verbatim, preserving entry order. *)
let dump_grants t =
  Hashtbl.fold (fun table entries acc -> (table, entries) :: acc) t.grants []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let restore_grants t ~table entries =
  Hashtbl.replace t.grants (norm table) entries;
  bump t
