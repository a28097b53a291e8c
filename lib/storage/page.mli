(** Fixed-size pages: the unit of simulated I/O.

    Pages carry raw bytes plus little-endian integer accessors used by the
    slotted-page layout and the index node layouts. *)

type t

type id = int
(** Page number within a {!Disk.t}. *)

val default_size : int
(** 4096 bytes. *)

val create : ?size:int -> unit -> t
val size : t -> int
val copy : t -> t

val get_byte : t -> int -> int
val set_byte : t -> int -> int -> unit

val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit

val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit

val get_bytes : t -> pos:int -> len:int -> string
val set_bytes : t -> pos:int -> string -> unit

val compare_bytes : t -> pos:int -> len:int -> string -> int
(** The sign of [String.compare (get_bytes t ~pos ~len) s], computed in
    place: nothing is allocated. *)

val unsafe_bytes : t -> Bytes.t
(** The page's underlying buffer, aliased (not copied) — for file I/O in
    the storage backend only. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
val zero : t -> unit
