(** Users and groups for both authorization models (Section 6). *)

type t

val create : unit -> t

val add_user : t -> string -> (unit, string) result
val add_group : t -> string -> (unit, string) result
val add_to_group : t -> user:string -> group:string -> (unit, string) result

val user_exists : t -> string -> bool
val group_exists : t -> string -> bool

val groups_of : t -> string -> string list
(** Groups a user belongs to (sorted). *)

val member : t -> user:string -> group:string -> bool

val users : t -> string list

val groups : t -> string list
(** All groups (sorted). *)

val memberships : t -> (string * string list) list
(** (user, groups) pairs, both sorted — for the durable catalog. *)

val version : t -> int
(** Moves whenever a mutator above changes what {!users}, {!groups} or
    {!memberships} report (never backwards); the durable catalog reads
    it to skip re-encoding. *)
