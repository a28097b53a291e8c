module Value = Bdbms_relation.Value
module Tuple = Bdbms_relation.Tuple
module Clock = Bdbms_util.Clock

type status = Pending | Approved | Disapproved

type operation =
  | Op_insert of { table : string; row : int }
  | Op_update of { table : string; row : int; col : int; old_value : Value.t }
  | Op_delete of { table : string; row : int; old_tuple : Tuple.t }

type entry = {
  id : int;
  operation : operation;
  user : string;
  at : Clock.time;
  mutable status : status;
  mutable decided_by : string option;
  mutable decided_at : Clock.time option;
}

let inverse_description = function
  | Op_insert { table; row } -> Printf.sprintf "DELETE FROM %s WHERE _row = %d" table row
  | Op_update { table; row; col; old_value } ->
      Printf.sprintf "UPDATE %s SET _col%d = %s WHERE _row = %d" table col
        (Value.to_display old_value) row
  | Op_delete { table; row; old_tuple } ->
      Printf.sprintf "INSERT INTO %s AT _row %d VALUES (%s)" table row
        (Tuple.to_display old_tuple)

type config = { columns : string list option; approver : Acl.grantee }

type t = {
  principals : Principal.t;
  clock : Clock.t;
  monitored_tables : (string, config) Hashtbl.t;
  mutable log : entry list; (* newest first *)
  mutable next_id : int;
  mutable version : int;
}

let create principals clock =
  {
    principals;
    clock;
    monitored_tables = Hashtbl.create 8;
    log = [];
    next_id = 1;
    version = 0;
  }

let version t = t.version
let bump t = t.version <- t.version + 1

let norm = String.lowercase_ascii

let start t ~table ?columns ~approved_by () =
  let key = norm table in
  if Hashtbl.mem t.monitored_tables key then
    Error (Printf.sprintf "content approval is already on for %s" table)
  else begin
    let valid =
      match approved_by with
      | Acl.User u -> Principal.user_exists t.principals u
      | Acl.Group g -> Principal.group_exists t.principals g
    in
    if not valid then Error "unknown approver"
    else begin
      Hashtbl.replace t.monitored_tables key
        { columns = Option.map (List.map norm) columns; approver = approved_by };
      bump t;
      Ok ()
    end
  end

let stop t ~table ?columns () =
  let key = norm table in
  match Hashtbl.find_opt t.monitored_tables key with
  | None -> false
  | Some config -> (
      match columns with
      | None ->
          Hashtbl.remove t.monitored_tables key;
          bump t;
          true
      | Some cols -> (
          let cols = List.map norm cols in
          match config.columns with
          | None ->
              (* was whole-table: cannot subtract columns without a column
                 list; narrow to "all minus" is unsupported — treat as a
                 full stop only when the caller listed nothing we track *)
              false
          | Some existing ->
              let remaining = List.filter (fun c -> not (List.mem c cols)) existing in
              if remaining = [] then Hashtbl.remove t.monitored_tables key
              else
                Hashtbl.replace t.monitored_tables key
                  { config with columns = Some remaining };
              bump t;
              true))

let monitored t ~table ?column () =
  match Hashtbl.find_opt t.monitored_tables (norm table) with
  | None -> false
  | Some { columns = None; _ } -> true
  | Some { columns = Some cols; _ } -> (
      match column with None -> true | Some c -> List.mem (norm c) cols)

let add_entry t operation user =
  let entry =
    {
      id = t.next_id;
      operation;
      user;
      at = Clock.tick t.clock;
      status = Pending;
      decided_by = None;
      decided_at = None;
    }
  in
  t.next_id <- t.next_id + 1;
  t.log <- entry :: t.log;
  bump t;
  entry

let log_insert t ~table ~row ~user =
  if monitored t ~table () then Some (add_entry t (Op_insert { table; row }) user)
  else None

let log_update t ~table ~row ~col ~column_name ~old_value ~user =
  if monitored t ~table ~column:column_name () then
    Some (add_entry t (Op_update { table; row; col; old_value }) user)
  else None

let log_delete t ~table ~row ~old_tuple ~user =
  if monitored t ~table () then
    Some (add_entry t (Op_delete { table; row; old_tuple }) user)
  else None

let entries t = List.rev t.log

let table_of_entry e =
  match e.operation with
  | Op_insert { table; _ } | Op_update { table; _ } | Op_delete { table; _ } -> table

let pending t ?table () =
  entries t
  |> List.filter (fun e ->
         e.status = Pending
         &&
         match table with
         | None -> true
         | Some name -> norm (table_of_entry e) = norm name)

let find t id = List.find_opt (fun e -> e.id = id) t.log

let can_decide t ~user ~table =
  match Hashtbl.find_opt t.monitored_tables (norm table) with
  | None -> false
  | Some { approver; _ } -> (
      match approver with
      | Acl.User u -> u = user
      | Acl.Group g -> Principal.member t.principals ~user ~group:g)

let check_decidable t id ~by =
  match find t id with
  | None -> Error (Printf.sprintf "no log entry %d" id)
  | Some e ->
      if e.status <> Pending then Error (Printf.sprintf "entry %d is already decided" id)
      else if not (can_decide t ~user:by ~table:(table_of_entry e)) then
        Error (Printf.sprintf "user %s may not approve changes to %s" by (table_of_entry e))
      else Ok e

let decide t e ~by ~at ~status =
  e.status <- status;
  e.decided_by <- Some by;
  e.decided_at <- Some at;
  bump t

let approve t id ~by =
  match check_decidable t id ~by with
  | Error _ as e -> e
  | Ok e ->
      decide t e ~by ~at:(Clock.tick t.clock) ~status:Approved;
      Ok ()

let disapprove t id ~by ~undo =
  match check_decidable t id ~by with
  | Error _ as e -> e
  | Ok e -> (
      match undo e.operation with
      | Error _ as err -> err
      | Ok () ->
          decide t e ~by ~at:(Clock.tick t.clock) ~status:Disapproved;
          Ok ())

(* ---------------------------------------------- durable-catalog hooks *)

let dump_monitored t =
  Hashtbl.fold (fun table config acc -> (table, config) :: acc) t.monitored_tables []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let next_id t = t.next_id

let restore_monitored t ~table config =
  Hashtbl.replace t.monitored_tables (norm table) config;
  bump t

(* Entries must be fed oldest-first (the order [entries] reports). *)
let restore_entry t ~id ~operation ~user ~at ~status ~decided_by ~decided_at =
  t.log <- { id; operation; user; at; status; decided_by; decided_at } :: t.log;
  if id >= t.next_id then t.next_id <- id + 1;
  bump t

let restore_next_id t n =
  if n > t.next_id then t.next_id <- n;
  bump t
