(** Relation schemas: ordered, named, typed columns. *)

type column = { name : string; ty : Value.ty }

type t

val make : column list -> t
(** @raise Invalid_argument on duplicate (case-insensitive) column names or
    an empty column list. *)

val columns : t -> column list
val arity : t -> int
val column_at : t -> int -> column

val index_of : t -> string -> int option
(** Case-insensitive column lookup. *)

val index_of_exn : t -> string -> int
(** @raise Not_found when the column does not exist. *)

val mem : t -> string -> bool

val project : t -> string list -> t
(** Sub-schema in the given column order.
    @raise Not_found on an unknown column. *)

val concat : t -> t -> t
(** Schema of a join result; right-hand duplicates are renamed by prefixing
    ["r_"] until unique. *)

val rename_columns : t -> (string * string) list -> t
(** Apply (old, new) renamings. *)

val equal : t -> t -> bool
val union_compatible : t -> t -> bool
(** Same arity and column types (names may differ), as required by the set
    operators; INT matches REAL (the set operators widen it). *)

val pp : Format.formatter -> t -> unit
