(** Content-based approval (Section 6, Figure 11).

    The paper's model: update authority is granted broadly (lab members
    insert and update freely, so the administrator is not a bottleneck),
    but while content approval is ON for a table the system logs every
    INSERT / UPDATE / DELETE together with an automatically generated
    {e inverse statement}.  The designated approver later reviews the log:
    approving makes the change permanent; disapproving executes the
    inverse statement, removing the change's effect.  Data is visible to
    readers while pending. *)

type status = Pending | Approved | Disapproved

type operation =
  | Op_insert of { table : string; row : int }
  | Op_update of { table : string; row : int; col : int; old_value : Bdbms_relation.Value.t }
  | Op_delete of { table : string; row : int; old_tuple : Bdbms_relation.Tuple.t }

type entry = {
  id : int;
  operation : operation;
  user : string;
  at : Bdbms_util.Clock.time;
  mutable status : status;
  mutable decided_by : string option;
  mutable decided_at : Bdbms_util.Clock.time option;
}

val inverse_description : operation -> string
(** The generated inverse statement, rendered as SQL-ish text (DELETE for
    an INSERT, UPDATE-back for an UPDATE, INSERT for a DELETE). *)

type t

val create : Principal.t -> Bdbms_util.Clock.t -> t
(** The log and its decisions only: approval writes no table. *)

(** {1 Turning approval on and off (Figure 11)} *)

val start :
  t ->
  table:string ->
  ?columns:string list ->
  approved_by:Acl.grantee ->
  unit ->
  (unit, string) result
(** Fails when approval is already on for the table or the approver is
    unknown. *)

val stop : t -> table:string -> ?columns:string list -> unit -> bool
(** With [columns], stops monitoring only those columns (the rest stay
    monitored); without, stops entirely.  [false] when nothing was on. *)

val monitored : t -> table:string -> ?column:string -> unit -> bool

(** {1 Logging (called by [Bdbms_asql.Write] after applying an operation)} *)

val log_insert : t -> table:string -> row:int -> user:string -> entry option
val log_update :
  t ->
  table:string ->
  row:int ->
  col:int ->
  column_name:string ->
  old_value:Bdbms_relation.Value.t ->
  user:string ->
  entry option
val log_delete :
  t -> table:string -> row:int -> old_tuple:Bdbms_relation.Tuple.t -> user:string -> entry option
(** Each returns [Some entry] when the operation fell under monitoring and
    was logged, [None] when the table/column is not monitored. *)

(** {1 Review} *)

val pending : t -> ?table:string -> unit -> entry list
val entries : t -> entry list
val find : t -> int -> entry option

val can_decide : t -> user:string -> table:string -> bool
(** The user is the configured approver or belongs to the approver group. *)

val approve : t -> int -> by:string -> (unit, string) result
(** Marks the pending entry approved.  Fails on unknown id, non-pending
    status, or an unauthorized decider. *)

val disapprove :
  t -> int -> by:string -> undo:(operation -> (unit, string) result) ->
  (unit, string) result
(** Checks the entry as {!approve} does, runs its inverse statement
    through [undo] (the engine's is [Bdbms_asql.Write.undo], an ordinary
    write that indexes, statistics and dependent cells follow), then marks
    the entry disapproved.  Fails as {!approve} does, or with [undo]'s
    error (e.g. the row has since been deleted), leaving it pending. *)

(** {1 Durable-catalog hooks} *)

type config = { columns : string list option; approver : Acl.grantee }

val dump_monitored : t -> (string * config) list
(** Monitored tables (sorted) with their configs. *)

val next_id : t -> int

val restore_monitored : t -> table:string -> config -> unit

val restore_entry :
  t ->
  id:int ->
  operation:operation ->
  user:string ->
  at:Bdbms_util.Clock.time ->
  status:status ->
  decided_by:string option ->
  decided_at:Bdbms_util.Clock.time option ->
  unit
(** Reinstall one log entry at bootstrap; feed entries oldest-first (the
    order {!entries} reports).  Advances the id counter past [id]. *)

val restore_next_id : t -> int -> unit

val version : t -> int
(** Moves whenever a mutator changes the monitored tables, the log (an
    entry or its status) or {!next_id} (never backwards); the durable
    catalog reads it to skip re-encoding. *)
