(** The table catalog: name → table, case-insensitive. *)

type t

val create : Bdbms_storage.Pager.t -> t
val pager : t -> Bdbms_storage.Pager.t

val create_table : t -> name:string -> Schema.t -> (Table.t, string) result
(** Fails if the name is taken. *)

val restore_table : t -> Table.t -> unit
(** Re-register a table rebuilt from the durable catalog at bootstrap
    (overwrites any same-name entry). *)

val drop_table : t -> string -> bool
val find : t -> string -> Table.t option
val find_exn : t -> string -> Table.t
(** @raise Not_found *)

val exists : t -> string -> bool
val table_names : t -> string list
(** Sorted. *)

val version : t -> int
(** Moves whenever a mutator above changes what {!table_names} reports (never
    backwards); the durable catalog reads it to skip re-encoding. *)
