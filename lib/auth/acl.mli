(** Identity-based GRANT/REVOKE authorization (Section 6; the classical
    model of Griffiths–Wade / Fagin the paper layers content-based
    approval on top of). *)

type privilege = Select | Insert | Update | Delete

val privilege_name : privilege -> string
val privilege_of_name : string -> privilege option

type grantee = User of string | Group of string

type grant_entry = {
  privilege : privilege;
  grantee : grantee;
  columns : string list option;
}

type t

val create : Principal.t -> t

val grant :
  t -> privilege -> table:string -> ?columns:string list -> grantee -> (unit, string) result
(** Column lists only constrain [Update]/[Select]; omitting means the whole
    table.  Fails on unknown principals. *)

val revoke : t -> privilege -> table:string -> grantee -> bool
(** Removes a grant (any column scope).  [true] when something was revoked. *)

val allowed :
  t -> user:string -> privilege -> table:string -> ?column:string -> unit -> bool
(** A user is allowed when granted directly or via any group; a grant with
    a column list covers only those columns. *)

val drop_table : t -> table:string -> unit
(** Forget every grant on a dropped table, so a later table of the same
    name starts with none. *)

val dump_grants : t -> (string * grant_entry list) list
(** Every grant list, sorted by table — for the durable catalog. *)

val restore_grants : t -> table:string -> grant_entry list -> unit
(** Reinstall a table's grant list verbatim at bootstrap. *)

val version : t -> int
(** Moves whenever a mutator above changes what {!dump_grants} reports (never
    backwards); the durable catalog reads it to skip re-encoding. *)
