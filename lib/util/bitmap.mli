(** Two-dimensional bitmaps marking outdated cells.

    Section 5 of the paper associates a bitmap with each table: bit
    [(row, col)] is 1 when the corresponding cell is outdated and must be
    re-verified (Figure 10).  The paper proposes compressing these bitmaps
    with run-length encoding; {!compressed_size_bytes} measures that form
    while the raw bitmap stays available for O(1) updates. *)

type t

val create : rows:int -> cols:int -> t
(** All-zero bitmap.  @raise Invalid_argument on negative dimensions. *)

val rows : t -> int
val cols : t -> int

val set : t -> row:int -> col:int -> bool -> unit
(** Set or clear one bit.  @raise Invalid_argument if out of bounds. *)

val get : t -> row:int -> col:int -> bool

val unsafe_get_flat : t -> int -> bool
(** Bit [i] of the row-major bit layout, without bounds checks: for a
    single-column bitmap, [unsafe_get_flat t row] = [get t ~row ~col:0].
    The vectorized executor's per-row null test — callers must guarantee
    [0 <= i < rows * cols]. *)

val set_row : t -> row:int -> bool -> unit
(** Set every bit of a row (a fully outdated tuple). *)

val set_col : t -> col:int -> bool -> unit
(** Set every bit of a column (a fully outdated attribute). *)

val clear : t -> unit
(** Reset every bit to 0. *)

val count_set : t -> int
(** Number of 1 bits. *)

val iter_set : t -> (int -> int -> unit) -> unit
(** [iter_set t f] calls [f row col] for every 1 bit, row-major. *)

val union_into : dst:t -> src:t -> unit
(** [dst := dst lor src].  @raise Invalid_argument on dimension mismatch. *)

val append_rows : t -> int -> t
(** A copy with [n] extra all-zero rows at the bottom (table growth). *)

val raw_size_bytes : t -> int
(** Uncompressed footprint: ceil(rows*cols / 8) bytes. *)

val compressed_size_bytes : t -> int
(** Footprint of the row-major RLE form, [String.length (to_rle t)]. *)

val to_rle : t -> string
(** The row-major RLE form: a marker byte holding the first run's bit,
    then every maximal run's length as a varint (7 bits per byte, low
    bits first).  What the dependency tracker stores per table. *)

val of_rle : rows:int -> cols:int -> string -> t
(** Inverse of {!to_rle}.
    @raise Invalid_argument if the runs do not cover [rows * cols]. *)

val to_rle_runs : t -> (bool * int) list
(** Row-major maximal runs of equal bits. *)

val of_rle_runs : rows:int -> cols:int -> (bool * int) list -> t
(** Inverse of {!to_rle_runs}.
    @raise Invalid_argument if run lengths do not sum to [rows*cols]. *)

val equal : t -> t -> bool
val copy : t -> t
val pp : Format.formatter -> t -> unit
