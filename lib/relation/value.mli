(** Typed cell values, including the biological sequence types.

    Besides the standard scalar types, bdbms exposes dedicated sequence
    types: [TDna] and [TProtein] for raw sequences and [TRle] for sequences
    stored run-length-compressed (Section 7.2, Figure 12) that are operated
    on without decompression. *)

type ty = TInt | TFloat | TString | TBool | TDna | TProtein | TRle

type t =
  | VNull
  | VInt of int
  | VFloat of float
  | VString of string
  | VBool of bool
  | VDna of string        (** raw nucleotide sequence over ACGT *)
  | VProtein of string    (** raw amino-acid / secondary-structure sequence *)
  | VRle of Bdbms_util.Rle.t  (** run-length-compressed sequence *)

val type_of : t -> ty option
(** [None] for [VNull] (null inhabits every type). *)

val type_name : ty -> string
val type_of_name : string -> ty option
(** Parse a type name as written in A-SQL (case-insensitive): INT, FLOAT,
    TEXT/STRING/VARCHAR, BOOL, DNA, PROTEIN, RLE. *)

val conforms : t -> ty -> bool
(** Null conforms to every type. *)

val is_null : t -> bool

val equal : t -> t -> bool
(** Structural equality; nulls are equal to each other only.  An RLE value
    equals a raw sequence value when their decoded sequences match. *)

val compare : t -> t -> int
(** Total order used by sorting and index keys: null first, then by type
    tag, then by value.  RLE values order by their decoded sequence. *)

val encode : t -> string
(** Self-describing binary encoding (tag byte + payload). *)

val decode : string -> pos:int -> t * int
(** [decode s ~pos] returns the value and the position just past it.
    @raise Invalid_argument on corrupt input. *)

val to_display : t -> string
(** Human-readable rendering for query results. *)

val size_bytes : t -> int
(** Encoded size, used in storage accounting. *)

val pp : Format.formatter -> t -> unit

(** Coercions used by the expression evaluator; raise [Invalid_argument]
    on type mismatch (never on null — callers test {!is_null} first). *)

val as_int : t -> int
val as_float : t -> float
(** Accepts both [VInt] and [VFloat]. *)

val as_string : t -> string
(** Accepts every string-like value; RLE values decode. *)

val as_bool : t -> bool

val hash_key : t -> string option
(** Equality-compatible hash key for join/grouping tables:
    [equal a b] implies [hash_key a = hash_key b] (numeric values share
    one encoding, string-likes their decoded content).  [None] for NULL —
    SQL equality never matches it.  Collisions are possible; callers must
    re-check {!equal} on candidates. *)

val group_key : t -> string
(** The key GROUP BY, DISTINCT and the set operators group under: equal
    keys exactly when {!compare} says the values are equal, except that
    an [INT] beyond 2{^53} keeps its own key rather than matching the
    nearest [FLOAT].  NULL is a value with its own key, [-0.0] groups
    with [0.0], an integral [FLOAT] with the same [INT], every NaN with
    every other, and string-likes by decoded content. *)

val float_group_key : float -> string
(** [group_key (VFloat f)], without boxing [f]. *)
