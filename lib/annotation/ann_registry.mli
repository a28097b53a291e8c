(** The annotation registry, kept in pages.

    Every annotation is registered under its number [n] (its id is
    ["ann<n>"]): a heap record holds its body, category, author and
    creation time, and entry [n - 1] of a {!Bdbms_storage.Page_array}
    holds that record's rid and the archived state.  Both are written in
    place through the pager, so the WAL, rollback, crash recovery and
    snapshot overlays cover the registry with no code of their own, and
    a restart reattaches it from a fixed-size {!head}. *)

type t

val create : Bdbms_storage.Pager.t -> t
(** An empty registry; its pages are allocated by the first {!add}. *)

(** The registry's fixed-size durable head. *)
type head = {
  heap_last : Bdbms_storage.Page.id;
  heap_pages : int;
  live : int;  (** registered annotations *)
  map_root : Bdbms_storage.Page.id;
  length : int;  (** highest registered number *)
}

val head : t -> head option
(** [None] until the first annotation. *)

val attach : Bdbms_storage.Pager.t -> head -> t
(** Reattach a registry from its head, reading no page. *)

val add : t -> int -> Ann.t -> unit
(** Register an annotation under number [n >= 1] (with its archived
    state).  @raise Invalid_argument if its record exceeds a heap page. *)

val find : t -> int -> id:string -> Ann.t option
(** The annotation registered as number [n], decoded with the id [id]. *)

val set_archived : t -> int -> Bdbms_util.Clock.time option -> unit
(** Record annotation [n] as archived at a time ([Some]) or live
    ([None]); no-op for an unregistered number. *)

val count : t -> int
