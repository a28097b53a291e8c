(** The rule base: registration, reasoning, and closure computation
    (Section 5's "Modeling dependencies").

    Supports the paper's reasoning tasks: detecting cycles and conflicts
    among dependency rules, computing the closure of an attribute set
    (everything transitively derivable from it), computing the {e closure
    of a procedure} (all data that depends on a specific procedure), and
    deriving composite rules by chaining (Rule 1 + Rule 2 ⇒ Rule 4). *)

type t

val create : unit -> t

val add : t -> Rule.t -> (unit, string) result
(** Fails when the rule would create a {e conflict} (a second rule deriving
    the same target column) or a {e cycle} (the target already reaches a
    source transitively). *)

val rules : t -> Rule.t list

val version : t -> int
(** Moves whenever a mutator above changes what {!rules} reports (never
    backwards); the durable catalog reads it to skip re-encoding. *)

val find : t -> string -> Rule.t option

val rules_from_source : t -> Rule.attr -> Rule.t list
(** Rules having the attribute among their sources. *)

val rule_for_target : t -> Rule.attr -> Rule.t option

val attribute_closure : t -> Rule.attr list -> Rule.attr list
(** All attributes transitively derivable from the given set (the set
    itself excluded), in dependency order. *)

val procedure_closure : t -> string -> Rule.attr list
(** All attributes that depend (transitively) on the named procedure. *)

val derived_rules : t -> Rule.t list
(** Every composite rule obtainable by chaining base rules, e.g. the
    paper's Rule 4.  Ids are ["d1"], ["d2"], ... *)

val would_cycle : t -> Rule.t -> bool
