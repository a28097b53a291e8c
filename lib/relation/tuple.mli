(** Tuples: fixed-arity arrays of values with a binary codec. *)

type t = Value.t array

val make : Value.t list -> t

val check : Schema.t -> t -> (unit, string) result
(** Arity and per-column type conformance (nulls always conform). *)

val check_cols : Schema.column array -> t -> (unit, string) result
(** {!check} against a precomputed column array (from a table layout) —
    same checks and error messages, no per-value schema lookups. *)

val get : t -> int -> Value.t
val set : t -> int -> Value.t -> t
(** Functional update (copies). *)

val project : Schema.t -> t -> string list -> t
(** Values of the named columns, in order.  @raise Not_found. *)

val encode : t -> string
val decode : string -> t
(** @raise Invalid_argument on corrupt input. *)

val decode_using : arity:int -> string -> t
(** {!decode} validating the stored arity against the caller's (from a
    table layout).  @raise Invalid_argument on corrupt input or arity
    mismatch. *)

val group_key : t -> string
(** The key GROUP BY and DISTINCT group rows under: a one-value tuple's
    {!Value.group_key}; otherwise each value's {!Value.group_key}
    prefixed by its length (so the key is self-delimiting). *)

val add_group_key : Buffer.t -> string -> unit
(** Append one column's {!Value.group_key} to a row key under
    construction, as {!group_key} does. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val size_bytes : t -> int
val to_display : t -> string
val pp : Format.formatter -> t -> unit
