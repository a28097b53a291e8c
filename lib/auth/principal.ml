type t = {
  users : (string, unit) Hashtbl.t;
  groups : (string, unit) Hashtbl.t;
  membership : (string, string list) Hashtbl.t; (* user -> groups *)
  mutable version : int;
}

let create () =
  { users = Hashtbl.create 8; groups = Hashtbl.create 8; membership = Hashtbl.create 8;
    version = 0 }

let version t = t.version
let bump t = t.version <- t.version + 1

let add_user t name =
  if Hashtbl.mem t.users name then Error (Printf.sprintf "user %s already exists" name)
  else begin
    Hashtbl.replace t.users name ();
    bump t;
    Ok ()
  end

let add_group t name =
  if Hashtbl.mem t.groups name then Error (Printf.sprintf "group %s already exists" name)
  else begin
    Hashtbl.replace t.groups name ();
    bump t;
    Ok ()
  end

let user_exists t name = Hashtbl.mem t.users name
let group_exists t name = Hashtbl.mem t.groups name

let add_to_group t ~user ~group =
  if not (user_exists t user) then Error (Printf.sprintf "unknown user %s" user)
  else if not (group_exists t group) then Error (Printf.sprintf "unknown group %s" group)
  else begin
    let cur = try Hashtbl.find t.membership user with Not_found -> [] in
    if List.mem group cur then Ok ()
    else begin
      Hashtbl.replace t.membership user (group :: cur);
      bump t;
      Ok ()
    end
  end

let groups_of t user =
  (try Hashtbl.find t.membership user with Not_found -> []) |> List.sort String.compare

let member t ~user ~group = List.mem group (groups_of t user)

let users t = Hashtbl.fold (fun k _ acc -> k :: acc) t.users [] |> List.sort String.compare
let groups t = Hashtbl.fold (fun k _ acc -> k :: acc) t.groups [] |> List.sort String.compare

let memberships t =
  Hashtbl.fold (fun user groups acc -> (user, List.sort String.compare groups) :: acc)
    t.membership []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
