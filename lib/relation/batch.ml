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

type builder = {
  b_schema : Schema.t;
  b_layout : layout;
  cap : int;
  b_cols : col array;
  b_need : bool array;  (* columns the query reads; others parsed past *)
  b_dict : (string, int) Hashtbl.t;
  b_spans : (int, int) Hashtbl.t;  (* span hash -> dict id *)
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
    b_dict = Hashtbl.create 64;
    b_spans = Hashtbl.create 64;
    b_arr = [||];
    b_nstrs = 0;
    b_n = 0;
  }

let full b = b.b_n >= b.cap
let length b = b.b_n

let grow_dict b =
  if b.b_nstrs >= Array.length b.b_arr then begin
    let arr = Array.make (max 16 (2 * Array.length b.b_arr)) "" in
    Array.blit b.b_arr 0 arr 0 b.b_nstrs;
    b.b_arr <- arr
  end

let intern b s =
  match Hashtbl.find_opt b.b_dict s with
  | Some id -> id
  | None ->
      let id = b.b_nstrs in
      Hashtbl.add b.b_dict s id;
      grow_dict b;
      b.b_arr.(id) <- s;
      b.b_nstrs <- id + 1;
      id

(* Dictionary lookup keyed on the raw byte span, so a repeated string
   costs a hash walk and a byte comparison — the [Bytes.sub_string] copy
   and the string-keyed [Hashtbl] probe only happen the first time a
   value is seen.  FNV-1a; collisions resolved by comparing against the
   interned strings bucketed under the same hash. *)
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

let intern_span b buf pos len =
  let h = span_hash buf pos len in
  let rec probe = function
    | id :: rest -> if span_eq b.b_arr.(id) buf pos len then id else probe rest
    | [] ->
        let id = intern b (Bytes.sub_string buf pos len) in
        (* not already bucketed under [h], else [probe] would have hit *)
        Hashtbl.add b.b_spans h id;
        id
  in
  probe (Hashtbl.find_all b.b_spans h)

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
   a pinned page buffer in place and assembling ints directly into a
   native [int] — [(b7 lsl 56)] wraps into the sign bit, which is exactly
   [Int64.to_int]'s 63-bit truncation — so the hot decode loop allocates
   nothing for ints and one box (via [Int64]) for floats. *)
let read_u32 buf pos =
  let b i = Char.code (Bytes.unsafe_get buf (pos + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let read_int buf pos =
  let b i = Char.code (Bytes.unsafe_get buf (pos + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  lor (b 4 lsl 32) lor (b 5 lsl 40) lor (b 6 lsl 48) lor (b 7 lsl 56)

let read_f64 buf pos =
  let lo = read_u32 buf pos and hi = read_u32 buf (pos + 4) in
  Int64.float_of_bits
    (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))

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
  let need k =
    if !pos + k > limit then invalid_arg "Batch.append_payload: truncated"
  in
  for ci = 0 to n - 1 do
    need 1;
    let tag = Bytes.unsafe_get buf !pos in
    if not (Array.unsafe_get b.b_need ci) then
      (* pruned column: validate and step over the value, store nothing —
         nobody reads the vector slot (the executor only prunes columns
         no runtime name or index lookup can reach) *)
      match tag with
      | '\000' | '\004' | '\005' -> incr pos
      | '\001' | '\002' ->
          need 9;
          pos := !pos + 9
      | '\003' | '\006' | '\007' | '\008' ->
          need 5;
          let slen = read_u32 buf (!pos + 1) in
          need (5 + slen);
          pos := !pos + 5 + slen
      | _ -> invalid_arg "Batch.append_payload: bad tag"
    else
    let c = b.b_cols.(ci) in
    (match tag with
    | '\000' ->
        Bitmap.set c.nulls ~row ~col:0 true;
        incr pos
    | '\001' -> (
        need 9;
        let v = read_int buf (!pos + 1) in
        pos := !pos + 9;
        match c.data with
        | DInt a -> a.(row) <- v
        | DVal a -> a.(row) <- Value.VInt v
        | _ -> invalid_arg "Batch.append_payload: INT in non-int column")
    | '\002' -> (
        need 9;
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
        need 5;
        let slen = read_u32 buf (!pos + 1) in
        need (5 + slen);
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

let group_key t row cols =
  let buf = Buffer.create 32 in
  Array.iter (fun col -> Tuple.add_group_key buf (group_key_at t ~row ~col)) cols;
  Buffer.contents buf

(* Self-delimiting multi-column key: each column's [hash_key] prefixed
   by its length, so no two key tuples share bytes; [None] when any key
   column is NULL (SQL equality never matches NULL, so the row can
   neither build nor probe). *)
let join_key t row cols =
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
