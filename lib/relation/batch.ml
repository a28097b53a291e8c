(* Column batches for the vectorized executor.

   A batch holds ~1024 rows decoded out of heap pages into typed column
   vectors: ints and floats land in unboxed OCaml arrays, booleans in a
   byte vector, string-likes as ids into a per-batch dictionary (so a
   column of repeated gene names is interned once), and anything without
   a fast representation (RLE sequences, heterogeneous join outputs) in
   a boxed [Value.t] array.  NULLs live in a per-column one-bit-wide
   {!Bdbms_util.Bitmap}; the data slot under a null bit is unspecified.

   Operators never copy survivors between batches — a predicate compacts
   the batch's selection vector in place and downstream operators walk
   only [sel.(0 .. nsel-1)].  The representation is deliberately exposed
   (concrete in the .mli) so [Vexec] can compile predicates into direct
   per-kind array loops. *)

module Bitmap = Bdbms_util.Bitmap

type kind = KInt | KFloat | KBool | KStr | KVal

let kind_of_ty = function
  | Value.TInt -> KInt
  | Value.TFloat -> KFloat
  | Value.TBool -> KBool
  | Value.TString | Value.TDna | Value.TProtein -> KStr
  | Value.TRle -> KVal

(* Precomputed per-table decode plan: schema lookups (arity, column
   records, vector kinds) hoisted out of the per-row loop.  Shared by the
   tuple decoder ([Table.get]) and the batch decoder ([Table.batches]). *)
type layout = {
  arity : int;
  cols : Schema.column array;
  kinds : kind array;
}

let layout_of_schema schema =
  let cols = Array.of_list (Schema.columns schema) in
  {
    arity = Array.length cols;
    cols;
    kinds = Array.map (fun (c : Schema.column) -> kind_of_ty c.ty) cols;
  }

(* All-boxed layout for operator outputs (join results) whose values are
   already materialized [Value.t]s — no point re-encoding them into typed
   vectors just to box them again at the next operator. *)
let generic_layout schema =
  let cols = Array.of_list (Schema.columns schema) in
  { arity = Array.length cols; cols; kinds = Array.map (fun _ -> KVal) cols }

type data =
  | DInt of int array
  | DFloat of float array
  | DBool of Bytes.t
  | DStr of int array  (* ids into the batch dictionary *)
  | DVal of Value.t array

type col = { data : data; nulls : Bitmap.t; ty : Value.ty }

type t = {
  schema : Schema.t;
  cols : col array;
  dict : string array;
  n : int;
  mutable sel : int array;
  mutable nsel : int;
}

let default_rows = 1024

let rows t = t.n
let schema t = t.schema
let arity t = Array.length t.cols

let with_schema t schema =
  if Schema.arity schema <> Array.length t.cols then
    invalid_arg "Batch.with_schema: arity mismatch";
  { t with schema }

(* {2 Builder} *)

(* The dictionary is an open-addressing table over flat [int] arrays: a
   slot holds [id + 1] (0 = empty) and each id keeps its FNV-1a hash, so
   a probe compares hashes before bytes and doubling the table rehashes
   ids without re-reading a string.  Both entry points ([put] with a
   string, [append_span] with a page span) hash the same bytes the same
   way, so equal strings get equal ids across every [DStr] column of a
   batch — [Vexec]'s column-to-column comparison relies on it. *)
type builder = {
  b_schema : Schema.t;
  b_layout : layout;
  cap : int;
  b_cols : col array;
  b_need : bool array;  (* columns the query reads; others parsed past *)
  mutable b_slots : int array;  (* power-of-two size, at most half full *)
  mutable b_hashes : int array;  (* id -> span hash *)
  mutable b_arr : string array;  (* id -> interned string, first b_nstrs live *)
  mutable b_nstrs : int;
  mutable b_n : int;
}

let builder ?(cap = default_rows) ?need schema layout =
  if cap <= 0 then invalid_arg "Batch.builder: cap must be positive";
  let b_need =
    match need with
    | None -> Array.make layout.arity true
    | Some need ->
        if Array.length need <> layout.arity then
          invalid_arg "Batch.builder: need mask arity mismatch";
        Array.copy need
  in
  let mk_col i =
    let data =
      match layout.kinds.(i) with
      | KInt -> DInt (Array.make cap 0)
      | KFloat -> DFloat (Array.make cap 0.0)
      | KBool -> DBool (Bytes.make cap '\000')
      | KStr -> DStr (Array.make cap 0)
      | KVal -> DVal (Array.make cap Value.VNull)
    in
    let nulls = Bitmap.create ~rows:cap ~cols:1 in
    (* a pruned column reads as all-NULL: anything that boxes the full
       row (tuple_of, join outputs) must see a defined value, never a
       garbage slot — in particular a dictionary id with no entry *)
    if not b_need.(i) then Bitmap.set_col nulls ~col:0 true;
    { data; nulls; ty = layout.cols.(i).ty }
  in
  {
    b_schema = schema;
    b_layout = layout;
    cap;
    b_cols = Array.init layout.arity mk_col;
    b_need;
    b_slots = Array.make 32 0;
    b_hashes = Array.make 16 0;
    b_arr = Array.make 16 "";
    b_nstrs = 0;
    b_n = 0;
  }

let full b = b.b_n >= b.cap
let length b = b.b_n

let span_hash buf pos len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x01000193
  done;
  !h land max_int

let span_eq s buf pos len =
  String.length s = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get s !i = Bytes.unsafe_get buf (pos + !i) do
    incr i
  done;
  !i = len

(* Double the table: ids keep their hashes, so no string is re-read. *)
let grow b =
  let n = b.b_nstrs and slots = Array.make (4 * b.b_nstrs) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to n - 1 do
    let i = ref (b.b_hashes.(id) land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1
  done;
  b.b_slots <- slots;
  b.b_hashes <- Array.append b.b_hashes (Array.make n 0);
  b.b_arr <- Array.append b.b_arr (Array.make n "")

(* A repeated string costs a hash, a probe and a byte comparison; a new
   one is stored as [s], else copied out of the span.  The table is at
   most half full, so the probe ends. *)
let intern_span ?s b buf pos len =
  let h = span_hash buf pos len in
  let slots = b.b_slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) and found = ref (-1) in
  while !found < 0 && Array.unsafe_get slots !i <> 0 do
    let id = Array.unsafe_get slots !i - 1 in
    if b.b_hashes.(id) = h && span_eq b.b_arr.(id) buf pos len then found := id
    else i := (!i + 1) land mask
  done;
  if !found >= 0 then !found
  else begin
    let id = b.b_nstrs in
    slots.(!i) <- id + 1;
    b.b_hashes.(id) <- h;
    b.b_arr.(id) <- (match s with Some s -> s | None -> Bytes.sub_string buf pos len);
    b.b_nstrs <- id + 1;
    if id + 1 = Array.length b.b_arr then grow b;
    id
  end

let intern b s = intern_span ~s b (Bytes.unsafe_of_string s) 0 (String.length s)

let put b ~row ~col v =
  let c = b.b_cols.(col) in
  match (c.data, v) with
  | _, Value.VNull -> Bitmap.set c.nulls ~row ~col:0 true
  | DInt a, Value.VInt n -> a.(row) <- n
  | DFloat a, Value.VFloat f -> a.(row) <- f
  | DBool bs, Value.VBool bv -> Bytes.set bs row (if bv then '\001' else '\000')
  | DStr ids, (Value.VString s | Value.VDna s | Value.VProtein s) ->
      ids.(row) <- intern b s
  | DVal a, v -> a.(row) <- v
  | _ ->
      invalid_arg
        (Printf.sprintf "Batch.put: %s does not fit column %d"
           (Value.to_display v) col)

let append_tuple b (t : Tuple.t) =
  if full b then invalid_arg "Batch.append_tuple: builder full";
  if Array.length t <> b.b_layout.arity then
    invalid_arg "Batch.append_tuple: arity mismatch";
  let row = b.b_n in
  Array.iteri (fun col v -> put b ~row ~col v) t;
  b.b_n <- row + 1

(* Same little-endian encoding as [Value.decode]'s readers, but parsing
   a pinned page buffer in place: the [Bytes] primitives compile to plain
   loads, so the hot decode loop allocates nothing for ints and floats
   ([Int64.to_int] is the 63-bit truncation [Value.decode] applies). *)
let read_u32 buf pos = Int32.to_int (Bytes.get_int32_le buf pos) land 0xFFFF_FFFF
let read_int buf pos = Int64.to_int (Bytes.get_int64_le buf pos)
let read_f64 buf pos = Int64.float_of_bits (Bytes.get_int64_le buf pos)

let need limit pos k =
  if pos + k > limit then invalid_arg "Batch.append_payload: truncated"

(* Decode one encoded tuple record (as stored by [Tuple.encode]) straight
   out of [buf] into the column vectors, skipping both the per-record
   string copy and the [Value.t] boxing that [Tuple.decode] pays per
   value. *)
let append_span b buf ~pos:base ~len =
  if full b then invalid_arg "Batch.append_payload: builder full";
  if len < 2 then invalid_arg "Batch.append_payload: truncated";
  let limit = base + len in
  let n =
    Char.code (Bytes.unsafe_get buf base)
    lor (Char.code (Bytes.unsafe_get buf (base + 1)) lsl 8)
  in
  if n <> b.b_layout.arity then
    invalid_arg
      (Printf.sprintf "Batch.append_payload: tuple has %d values, layout has %d"
         n b.b_layout.arity);
  let row = b.b_n in
  let pos = ref (base + 2) in
  for ci = 0 to n - 1 do
    need limit !pos 1;
    let tag = Bytes.unsafe_get buf !pos in
    if not (Array.unsafe_get b.b_need ci) then
      (* pruned column: validate and step over the value, store nothing —
         nobody reads the vector slot (the executor only prunes columns
         no runtime name or index lookup can reach) *)
      match tag with
      | '\000' | '\004' | '\005' -> incr pos
      | '\001' | '\002' ->
          need limit !pos 9;
          pos := !pos + 9
      | '\003' | '\006' | '\007' | '\008' ->
          need limit !pos 5;
          let slen = read_u32 buf (!pos + 1) in
          need limit !pos (5 + slen);
          pos := !pos + 5 + slen
      | _ -> invalid_arg "Batch.append_payload: bad tag"
    else
    let c = b.b_cols.(ci) in
    (match tag with
    | '\000' ->
        Bitmap.set c.nulls ~row ~col:0 true;
        incr pos
    | '\001' -> (
        need limit !pos 9;
        let v = read_int buf (!pos + 1) in
        pos := !pos + 9;
        match c.data with
        | DInt a -> a.(row) <- v
        | DVal a -> a.(row) <- Value.VInt v
        | _ -> invalid_arg "Batch.append_payload: INT in non-int column")
    | '\002' -> (
        need limit !pos 9;
        let v = read_f64 buf (!pos + 1) in
        pos := !pos + 9;
        match c.data with
        | DFloat a -> a.(row) <- v
        | DVal a -> a.(row) <- Value.VFloat v
        | _ -> invalid_arg "Batch.append_payload: FLOAT in non-float column")
    | '\004' | '\005' -> (
        let v = tag = '\005' in
        incr pos;
        match c.data with
        | DBool bs -> Bytes.set bs row (if v then '\001' else '\000')
        | DVal a -> a.(row) <- Value.VBool v
        | _ -> invalid_arg "Batch.append_payload: BOOL in non-bool column")
    | '\003' | '\006' | '\007' | '\008' -> (
        need limit !pos 5;
        let slen = read_u32 buf (!pos + 1) in
        need limit !pos (5 + slen);
        let spos = !pos + 5 in
        pos := spos + slen;
        match (c.data, tag) with
        | DStr ids, ('\003' | '\006' | '\007') ->
            ids.(row) <- intern_span b buf spos slen
        | DVal a, _ ->
            let s = Bytes.sub_string buf spos slen in
            let v =
              match tag with
              | '\003' -> Value.VString s
              | '\006' -> Value.VDna s
              | '\007' -> Value.VProtein s
              | _ -> Value.VRle (Bdbms_util.Rle.of_string s)
            in
            a.(row) <- v
        | _ -> invalid_arg "Batch.append_payload: string tag in non-string column"
        )
    | _ -> invalid_arg "Batch.append_payload: bad tag")
  done;
  if !pos <> limit then invalid_arg "Batch.append_payload: trailing bytes";
  b.b_n <- row + 1

let append_payload b payload =
  (* strings and bytes share representation; the span core never mutates *)
  append_span b
    (Bytes.unsafe_of_string payload)
    ~pos:0 ~len:(String.length payload)

(* The builder must not be reused after [finish]: the column vectors are
   handed to the batch, not copied. *)
let finish b =
  let dict = Array.sub b.b_arr 0 b.b_nstrs in
  {
    schema = b.b_schema;
    cols = b.b_cols;
    dict;
    n = b.b_n;
    sel = Array.init b.b_n Fun.id;
    nsel = b.b_n;
  }

(* One more column after the batch's own, slot [i] of [data] being
   physical row [i]'s value: the hidden row-id column of an annotated
   scan, a computed column.  A [DVal] slot holding [VNull] is NULL; no
   other slot is.  The vector is handed over, not copied. *)
let add_column t ~name ~ty data =
  let len =
    match data with
    | DInt a | DStr a -> Array.length a
    | DFloat a -> Array.length a
    | DBool bs -> Bytes.length bs
    | DVal a -> Array.length a
  in
  if len < t.n then invalid_arg "Batch.add_column: fewer values than rows";
  let nulls = Bitmap.create ~rows:len ~cols:1 in
  (match data with
  | DVal a ->
      Array.iteri
        (fun row v -> if Value.is_null v then Bitmap.set nulls ~row ~col:0 true)
        a
  | _ -> ());
  {
    t with
    schema = Schema.make (Schema.columns t.schema @ [ { Schema.name; ty } ]);
    cols = Array.append t.cols [| { data; nulls; ty } |];
  }

(* {2 Row access} *)

(* Rows handed out by a batch are < n <= the builder's cap = the null
   bitmaps' row count, so the flat unchecked bitmap read is in bounds. *)
let is_null t ~row ~col = Bitmap.unsafe_get_flat t.cols.(col).nulls row

let value t ~row ~col =
  let c = t.cols.(col) in
  if Bitmap.unsafe_get_flat c.nulls row then Value.VNull
  else
    match c.data with
    | DInt a -> Value.VInt a.(row)
    | DFloat a -> Value.VFloat a.(row)
    | DBool bs -> Value.VBool (Bytes.get bs row <> '\000')
    | DStr ids -> (
        let s = t.dict.(ids.(row)) in
        match c.ty with
        | Value.TDna -> Value.VDna s
        | Value.TProtein -> Value.VProtein s
        | _ -> Value.VString s)
    | DVal a -> a.(row)

let tuple_of t row =
  Array.init (Array.length t.cols) (fun col -> value t ~row ~col)

(* Per-column hash key without boxing the value: mirrors [Value.hash_key]
   exactly (ints share the float bit-pattern encoding, -0.0 collapses to
   0.0, string-likes key on content, NULL has no key). *)
let hash_key t ~row ~col =
  let c = t.cols.(col) in
  if Bitmap.unsafe_get_flat c.nulls row then None
  else
    match c.data with
    | DInt a ->
        Some ("f" ^ Int64.to_string (Int64.bits_of_float (float_of_int a.(row))))
    | DFloat a ->
        let f = a.(row) in
        let f = if f = 0.0 then 0.0 (* collapse -0.0 *) else f in
        Some ("f" ^ Int64.to_string (Int64.bits_of_float f))
    | DBool bs -> Some (if Bytes.get bs row <> '\000' then "b1" else "b0")
    | DStr ids -> Some ("s" ^ t.dict.(ids.(row)))
    | DVal a -> Value.hash_key a.(row)

(* [Value.group_key] of the cell, unboxed where the vector is typed. *)
let group_key_at t ~row ~col =
  let c = t.cols.(col) in
  if Bitmap.unsafe_get_flat c.nulls row then "n"
  else
    match c.data with
    | DInt a -> "i" ^ string_of_int a.(row)
    | DFloat a -> Value.float_group_key a.(row)
    | DBool bs -> if Bytes.get bs row <> '\000' then "b1" else "b0"
    | DStr ids -> "s" ^ t.dict.(ids.(row))
    | DVal a -> Value.group_key a.(row)

(* One column keys as its own [Value.group_key]; more are framed by
   [Tuple.add_group_key], exactly as [Tuple.group_key] does. *)
let group_key t row cols =
  if Array.length cols = 1 then group_key_at t ~row ~col:cols.(0)
  else begin
    let buf = Buffer.create 32 in
    Array.iter (fun col -> Tuple.add_group_key buf (group_key_at t ~row ~col)) cols;
    Buffer.contents buf
  end

(* One column keys as its own [hash_key].  More make a self-delimiting
   key: each column's [hash_key] prefixed by its length, so no two key
   tuples share bytes.  [None] when any key column is NULL (SQL equality
   never matches NULL, so the row can neither build nor probe). *)
let join_key t row = function
  | [ col ] -> hash_key t ~row ~col
  | cols ->
      let buf = Buffer.create 32 in
      let ok =
        List.for_all
          (fun col ->
            match hash_key t ~row ~col with
            | None -> false
            | Some k ->
                Buffer.add_string buf (string_of_int (String.length k));
                Buffer.add_char buf ':';
                Buffer.add_string buf k;
                true)
          cols
      in
      if ok then Some (Buffer.contents buf) else None

(* {2 Selection vector} *)

let selected t = t.nsel
let sel_row t i = t.sel.(i)

let selected_rows t = Array.to_list (Array.sub t.sel 0 t.nsel)

let retain t f =
  let sel = t.sel in
  let kept = ref 0 in
  for i = 0 to t.nsel - 1 do
    let r = Array.unsafe_get sel i in
    if f r then begin
      Array.unsafe_set sel !kept r;
      incr kept
    end
  done;
  let dropped = t.nsel - !kept in
  t.nsel <- !kept;
  dropped

let reset_selection t =
  t.sel <- Array.init t.n Fun.id;
  t.nsel <- t.n

let set_selection t rows =
  Array.iter
    (fun r ->
      if r < 0 || r >= t.n then invalid_arg "Batch.set_selection: row out of range")
    rows;
  t.sel <- Array.copy rows;
  t.nsel <- Array.length rows
