(* Batched (vectorized) operators: the plain query path.

   Every plain SELECT runs through these operators, and the naive
   oracle in the executor defines what they must compute: same rows,
   same three-valued predicate semantics, same error messages.  The
   differential test suite asserts the outputs match, so any semantic
   divergence is a bug — when in doubt an operator falls back to boxed
   evaluation with [Expr]'s semantics.

   The speed comes from three places:
   - scans decode whole heap pages into column vectors under one pin
     ([Table.batches]) instead of one closure pull + payload decode +
     [Value.t] boxing per row;
   - predicates compile to per-column loops over unboxed arrays that
     compact a selection vector in place — no survivor copying, no
     per-row closure dispatch;
   - aggregates run typed tight loops over the vectors and only box at
     finalization. *)

module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Table = Bdbms_relation.Table
module Expr = Bdbms_relation.Expr
module Batch = Bdbms_relation.Batch
module Stats = Bdbms_obs.Stats
module Bitmap = Bdbms_util.Bitmap

type src = { schema : Schema.t; next : unit -> Batch.t option }

let efail fmt = Printf.ksprintf (fun s -> raise (Expr.Eval_error s)) fmt

(* ------------------------------------------------------------- sources *)

(* [schema] plus the hidden row-id column [name], when there is one. *)
let with_row_id schema = function
  | None -> schema
  | Some name ->
      Schema.make (Schema.columns schema @ [ { Schema.name; ty = Value.TInt } ])

let scan ?batch_rows ?need ?row_id table =
  {
    schema = with_row_id (Table.schema table) row_id;
    next = Table.batches ?batch_rows ?need ?row_id table;
  }

(* Re-batch a stream of boxed rows: [pull] yields the next row, or
   [None] once exhausted (it is never called again after that).  Each
   batch asks [pull] for at most [batch_rows] rows.  [total], an upper
   bound on the rows [pull] yields, sizes the vectors of small streams
   (index probes, [sys.*] views) to fit. *)
let of_pull ?(batch_rows = Batch.default_rows) ?(total = max_int) schema layout
    pull =
  let exhausted = ref false and left = ref total in
  let next () =
    if !exhausted || !left <= 0 then None
    else begin
      let b = Batch.builder ~cap:(min batch_rows !left) schema layout in
      let rec fill () =
        if not (Batch.full b) then
          match pull () with
          | None -> exhausted := true
          | Some t ->
              Batch.append_tuple b t;
              fill ()
      in
      fill ();
      left := !left - Batch.length b;
      if Batch.length b = 0 then None else Some (Batch.finish b)
    end
  in
  { schema; next }

(* The selected rows of a source, one [(batch, physical row)] per call,
   pulling batches on demand. *)
let rows_of src =
  let cur = ref None and i = ref 0 in
  let rec pull () =
    match !cur with
    | Some b when !i < Batch.selected b ->
        incr i;
        Some (b, Batch.sel_row b (!i - 1))
    | _ -> (
        match src.next () with
        | None -> None
        | Some _ as b ->
            cur := b;
            i := 0;
            pull ())
  in
  pull

(* Every selected row of a source, boxed, in order. *)
let drain src =
  let pull = rows_of src in
  let rec go acc =
    match pull () with
    | None -> List.rev acc
    | Some (b, row) -> go (Batch.tuple_of b row :: acc)
  in
  go []

(* Candidate rows fetched point-wise (index probes): decoded through
   [Table.get] — these row sets are small, the cache may already hold
   them — and re-batched for the rest of the pipeline. *)
let of_rows ?batch_rows ?row_id table rows =
  let remaining = ref rows in
  let rec pull () =
    match !remaining with
    | [] -> None
    | r :: rest -> (
        remaining := rest;
        match Table.get table r with
        | Some t when row_id = None -> Some t
        | Some t -> Some (Array.append t [| Value.VInt r |])
        | None -> pull ())
  in
  let schema = with_row_id (Table.schema table) row_id in
  let layout =
    if row_id = None then Table.layout table else Batch.layout_of_schema schema
  in
  of_pull ?batch_rows ~total:(List.length rows) schema layout pull

(* Rows that already exist as boxed tuples ([sys.*] snapshots, a sort's
   or an aggregate's output) go into all-boxed vectors: no re-encoding,
   and no assumption that the cells fit their declared column types.
   With [stats], each batch counts as decoded, like a heap scan's. *)
let of_tuples ?stats ?batch_rows schema rows =
  let i = ref 0 in
  let src =
    of_pull ?batch_rows ~total:(Array.length rows) schema
      (Batch.generic_layout schema) (fun () ->
        if !i >= Array.length rows then None
        else begin
          incr i;
          Some rows.(!i - 1)
        end)
  in
  {
    src with
    next =
      (fun () ->
        let b = src.next () in
        (match (stats, b) with
        | Some stats, Some _ -> Stats.record_batch_decoded stats
        | _ -> ());
        b);
  }

let with_schema src schema =
  if Schema.arity schema <> Schema.arity src.schema then
    invalid_arg "Vexec.with_schema: arity mismatch";
  {
    schema;
    next =
      (fun () ->
        match src.next () with
        | None -> None
        | Some b -> Some (Batch.with_schema b schema));
  }

(* Column permutation without copying: each batch keeps its vectors,
   dictionary and selection vector, only [cols] is reordered. *)
let project src idxs =
  let idxs = Array.of_list idxs in
  let schema =
    Schema.make (Array.to_list (Array.map (Schema.column_at src.schema) idxs))
  in
  {
    schema;
    next =
      (fun () ->
        match src.next () with
        | None -> None
        | Some b ->
            Some
              { b with Batch.schema; cols = Array.map (Array.get b.Batch.cols) idxs });
  }

(* ------------------------------------------- expression compilation *)

(* Boxed evaluation of one (batch, row) cell stream — [Expr.eval] with
   column indices resolved once at compile time instead of a
   case-insensitive name search per row.  Semantics and error messages
   mirror [Expr.eval] exactly (both operands of AND/OR always evaluate,
   NULL propagation, LIKE on NULL). *)
let rec compile_eval schema expr : Batch.t -> int -> Value.t =
  match expr with
  | Expr.Lit v -> fun _ _ -> v
  | Expr.Col name -> (
      match Schema.index_of schema name with
      | Some i -> fun b row -> Batch.value b ~row ~col:i
      | None -> fun _ _ -> efail "unknown column %S" name)
  | Expr.Cmp (op, a, b) ->
      let ea = compile_eval schema a and eb = compile_eval schema b in
      fun bt row -> Expr.apply_cmp op (ea bt row) (eb bt row)
  | Expr.And (a, b) -> (
      let ea = compile_eval schema a and eb = compile_eval schema b in
      fun bt row ->
        match (ea bt row, eb bt row) with
        | Value.VBool false, _ | _, Value.VBool false -> Value.VBool false
        | Value.VBool true, Value.VBool true -> Value.VBool true
        | (Value.VNull | Value.VBool _), (Value.VNull | Value.VBool _) ->
            Value.VNull
        | a', b' ->
            efail "AND on non-boolean values (%s, %s)" (Value.to_display a')
              (Value.to_display b'))
  | Expr.Or (a, b) -> (
      let ea = compile_eval schema a and eb = compile_eval schema b in
      fun bt row ->
        match (ea bt row, eb bt row) with
        | Value.VBool true, _ | _, Value.VBool true -> Value.VBool true
        | Value.VBool false, Value.VBool false -> Value.VBool false
        | (Value.VNull | Value.VBool _), (Value.VNull | Value.VBool _) ->
            Value.VNull
        | a', b' ->
            efail "OR on non-boolean values (%s, %s)" (Value.to_display a')
              (Value.to_display b'))
  | Expr.Not a -> (
      let ea = compile_eval schema a in
      fun bt row ->
        match ea bt row with
        | Value.VBool b -> Value.VBool (not b)
        | Value.VNull -> Value.VNull
        | v -> efail "NOT on non-boolean value %s" (Value.to_display v))
  | Expr.Arith (op, a, b) ->
      let ea = compile_eval schema a and eb = compile_eval schema b in
      fun bt row -> Expr.apply_arith op (ea bt row) (eb bt row)
  | Expr.Like (a, pattern) -> (
      let ea = compile_eval schema a in
      fun bt row ->
        match ea bt row with
        | Value.VNull -> Value.VNull
        | v -> Value.VBool (Expr.like_match ~pattern (Value.as_string v)))
  | Expr.In_list (a, vs) ->
      let ea = compile_eval schema a in
      fun bt row ->
        let v = ea bt row in
        if Value.is_null v then Value.VNull
        else Value.VBool (List.exists (Value.equal v) vs)
  | Expr.Is_null a ->
      let ea = compile_eval schema a in
      fun bt row -> Value.VBool (Value.is_null (ea bt row))
  | Expr.Concat (a, b) -> (
      let ea = compile_eval schema a and eb = compile_eval schema b in
      fun bt row ->
        match (ea bt row, eb bt row) with
        | Value.VNull, _ | _, Value.VNull -> Value.VNull
        | a', b' -> Value.VString (Value.as_string a' ^ Value.as_string b'))

(* [Expr.eval_pred]'s collapse of the three-valued result. *)
let collapse = function
  | Value.VBool b -> b
  | Value.VNull -> false
  | v -> efail "predicate evaluated to non-boolean %s" (Value.to_display v)

let pred_of_eval ev bt =
  fun row -> collapse (ev bt row)

(* Typed comparators matching [Value.compare]/[Value.equal]: float
   equality is primitive [=] (so 0.0 = -0.0, nan <> nan), float ordering
   is [Float.compare] (total, nan sorts low) — both exactly what the
   boxed path computes. *)
let icmp op : int -> int -> bool =
  match op with
  | Expr.Eq -> fun x y -> x = y
  | Expr.Neq -> fun x y -> x <> y
  | Expr.Lt -> fun x y -> x < y
  | Expr.Leq -> fun x y -> x <= y
  | Expr.Gt -> fun x y -> x > y
  | Expr.Geq -> fun x y -> x >= y

let fcmp op : float -> float -> bool =
  match op with
  | Expr.Eq -> fun x y -> x = y
  | Expr.Neq -> fun x y -> not (x = y)
  | Expr.Lt -> fun x y -> Float.compare x y < 0
  | Expr.Leq -> fun x y -> Float.compare x y <= 0
  | Expr.Gt -> fun x y -> Float.compare x y > 0
  | Expr.Geq -> fun x y -> Float.compare x y >= 0

let scmp op : string -> string -> bool =
  match op with
  | Expr.Eq -> String.equal
  | Expr.Neq -> fun x y -> not (String.equal x y)
  | Expr.Lt -> fun x y -> String.compare x y < 0
  | Expr.Leq -> fun x y -> String.compare x y <= 0
  | Expr.Gt -> fun x y -> String.compare x y > 0
  | Expr.Geq -> fun x y -> String.compare x y >= 0

(* [cmp a b] with operands swapped: Value.compare is antisymmetric and
   Value.equal symmetric, so flipping the operator is exact. *)
let flip_cmp = function
  | Expr.Eq -> Expr.Eq
  | Expr.Neq -> Expr.Neq
  | Expr.Lt -> Expr.Gt
  | Expr.Leq -> Expr.Geq
  | Expr.Gt -> Expr.Lt
  | Expr.Geq -> Expr.Leq

(* Rows reaching these tests come from a batch's selection vector, so
   the flat unchecked bitmap read is in bounds (row < n <= cap). *)
let not_null nulls row = not (Bitmap.unsafe_get_flat nulls row)

let lit_content = function
  | Value.VString s | Value.VDna s | Value.VProtein s -> Some s
  | _ -> None

(* column-vs-literal comparison, specialized per vector kind at batch
   time (the same plan runs over typed base-table batches and over
   all-boxed join outputs).  NULL column -> predicate false. *)
let cmp_col_lit op i lit bt =
  let c = bt.Batch.cols.(i) in
  let nulls = c.Batch.nulls in
  let fallback row =
    match Expr.apply_cmp op (Batch.value bt ~row ~col:i) lit with
    | Value.VBool r -> r
    | _ -> false
  in
  match (c.Batch.data, lit) with
  | _, Value.VNull -> fun _ -> false
  | Batch.DInt a, Value.VInt k -> (
      (* the headline scan-filter shape: spell each operator out so the
         per-row test is a direct unboxed compare, not a closure call *)
      match op with
      | Expr.Eq -> fun row -> not_null nulls row && Array.unsafe_get a row = k
      | Expr.Neq -> fun row -> not_null nulls row && Array.unsafe_get a row <> k
      | Expr.Lt -> fun row -> not_null nulls row && Array.unsafe_get a row < k
      | Expr.Leq -> fun row -> not_null nulls row && Array.unsafe_get a row <= k
      | Expr.Gt -> fun row -> not_null nulls row && Array.unsafe_get a row > k
      | Expr.Geq -> fun row -> not_null nulls row && Array.unsafe_get a row >= k)
  | Batch.DInt a, Value.VFloat f ->
      let test = fcmp op in
      fun row -> not_null nulls row && test (float_of_int a.(row)) f
  | Batch.DFloat a, Value.VFloat f ->
      let test = fcmp op in
      fun row -> not_null nulls row && test a.(row) f
  | Batch.DFloat a, Value.VInt k ->
      let test = fcmp op and f = float_of_int k in
      fun row -> not_null nulls row && test a.(row) f
  | Batch.DStr ids, _ when lit_content lit <> None ->
      let s = Option.get (lit_content lit) in
      let test = scmp op in
      let dict = bt.Batch.dict in
      fun row -> not_null nulls row && test dict.(ids.(row)) s
  | Batch.DBool bs, Value.VBool v -> (
      match op with
      | Expr.Eq ->
          fun row -> not_null nulls row && Bytes.get bs row <> '\000' = v
      | Expr.Neq ->
          fun row -> not_null nulls row && Bytes.get bs row <> '\000' <> v
      | _ -> fallback)
  | _ -> fallback

(* column-vs-column comparison.  Two [DStr] columns share the batch
   dictionary, so equal ids <=> equal strings. *)
let cmp_col_col op i j bt =
  let ci = bt.Batch.cols.(i) and cj = bt.Batch.cols.(j) in
  let ni = ci.Batch.nulls and nj = cj.Batch.nulls in
  let fallback row =
    match
      Expr.apply_cmp op (Batch.value bt ~row ~col:i) (Batch.value bt ~row ~col:j)
    with
    | Value.VBool r -> r
    | _ -> false
  in
  let both row = not_null ni row && not_null nj row in
  match (ci.Batch.data, cj.Batch.data) with
  | Batch.DInt a, Batch.DInt b ->
      let test = icmp op in
      fun row -> both row && test a.(row) b.(row)
  | Batch.DFloat a, Batch.DFloat b ->
      let test = fcmp op in
      fun row -> both row && test a.(row) b.(row)
  | Batch.DInt a, Batch.DFloat b ->
      let test = fcmp op in
      fun row -> both row && test (float_of_int a.(row)) b.(row)
  | Batch.DFloat a, Batch.DInt b ->
      let test = fcmp op in
      fun row -> both row && test a.(row) (float_of_int b.(row))
  | Batch.DStr a, Batch.DStr b -> (
      match op with
      | Expr.Eq -> fun row -> both row && a.(row) = b.(row)
      | Expr.Neq -> fun row -> both row && a.(row) <> b.(row)
      | _ ->
          let test = scmp op in
          let dict = bt.Batch.dict in
          fun row -> both row && test dict.(a.(row)) dict.(b.(row)))
  | Batch.DBool a, Batch.DBool b -> (
      match op with
      | Expr.Eq -> fun row -> both row && Bytes.get a row = Bytes.get b row
      | Expr.Neq -> fun row -> both row && Bytes.get a row <> Bytes.get b row
      | _ -> fallback)
  | _ -> fallback

(* Compile a predicate to a per-batch row test.  AND/OR decompose into
   sub-predicates (both sides always evaluate, like the boxed path);
   comparisons against columns become typed loops; anything else runs
   the boxed [compile_eval] with [eval_pred]'s NULL collapse. *)
let rec compile_pred schema expr : Batch.t -> int -> bool =
  match expr with
  | Expr.And (a, b) ->
      let pa = compile_pred schema a and pb = compile_pred schema b in
      fun bt ->
        let fa = pa bt and fb = pb bt in
        fun row ->
          let ra = fa row in
          let rb = fb row in
          ra && rb
  | Expr.Or (a, b) ->
      let pa = compile_pred schema a and pb = compile_pred schema b in
      fun bt ->
        let fa = pa bt and fb = pb bt in
        fun row ->
          let ra = fa row in
          let rb = fb row in
          ra || rb
  | Expr.Cmp (op, Expr.Col name, Expr.Lit lit) -> (
      match Schema.index_of schema name with
      | Some i -> cmp_col_lit op i lit
      | None -> pred_of_eval (compile_eval schema expr))
  | Expr.Cmp (op, Expr.Lit lit, Expr.Col name) -> (
      match Schema.index_of schema name with
      | Some i -> cmp_col_lit (flip_cmp op) i lit
      | None -> pred_of_eval (compile_eval schema expr))
  | Expr.Cmp (op, Expr.Col na, Expr.Col nb) -> (
      match (Schema.index_of schema na, Schema.index_of schema nb) with
      | Some i, Some j -> cmp_col_col op i j
      | _ -> pred_of_eval (compile_eval schema expr))
  | Expr.Is_null (Expr.Col name) -> (
      match Schema.index_of schema name with
      | Some i ->
          fun bt ->
            let nulls = bt.Batch.cols.(i).Batch.nulls in
            fun row -> Bitmap.get nulls ~row ~col:0
      | None -> pred_of_eval (compile_eval schema expr))
  | Expr.Not (Expr.Is_null (Expr.Col name)) -> (
      (* Is_null never yields NULL, so NOT of it never collapses. *)
      match Schema.index_of schema name with
      | Some i ->
          fun bt ->
            let nulls = bt.Batch.cols.(i).Batch.nulls in
            fun row -> not_null nulls row
      | None -> pred_of_eval (compile_eval schema expr))
  | _ -> pred_of_eval (compile_eval schema expr)

(* -------------------------------------------------------------- filter *)

(* Empty batches (everything filtered out) flow through rather than
   being skipped: downstream operators must handle [nsel = 0] anyway and
   EXPLAIN ANALYZE then attributes the scan work that produced them. *)
let filter ?on_drop src expr =
  let pred = compile_pred src.schema expr in
  let next () =
    match src.next () with
    | None -> None
    | Some b ->
        let dropped = Batch.retain b (pred b) in
        (match on_drop with Some f when dropped > 0 -> f dropped | _ -> ());
        Some b
  in
  { src with next }

(* ----------------------------------------------------------- hash join *)

(* Drain the build side into a hash table of boxed tuples, stream the
   probe side row by row.  Emission order is probe order, matches in
   build order, and candidates are re-checked with [Value.equal] because
   [hash_key] collides across equality classes.  Output batches are
   all-boxed ([generic_layout]) — their values are materialized tuples
   already. *)
let hash_join ?stats ?batch_rows ~build_left ~left_keys ~right_keys left right
    =
  let out_schema = Schema.concat left.schema right.schema in
  let build_src, probe_src, build_keys, probe_keys =
    if build_left then (left, right, left_keys, right_keys)
    else (right, left, right_keys, left_keys)
  in
  let bump f = match stats with Some s -> f s | None -> () in
  let table =
    lazy
      (let h = Hashtbl.create 256 in
       let rec drain () =
         match build_src.next () with
         | None -> h
         | Some b ->
             for i = 0 to Batch.selected b - 1 do
               let row = Batch.sel_row b i in
               match Batch.join_key b row build_keys with
               | Some k ->
                   bump Stats.record_hash_build;
                   Hashtbl.add h k (Batch.tuple_of b row)
               | None -> ()
             done;
             drain ()
       in
       drain ())
  in
  let emit pt bt =
    if build_left then Array.append bt pt else Array.append pt bt
  in
  let probe = rows_of probe_src in
  (* joined tuples of the current probe row not yet handed out *)
  let pending = ref [] in
  let rec pull () =
    match !pending with
    | t :: rest ->
        pending := rest;
        Some t
    | [] -> (
        match probe () with
        | None -> None
        | Some (pb, row) ->
            bump Stats.record_hash_probe;
            (match Batch.join_key pb row probe_keys with
            | None -> ()
            | Some k ->
                let matches =
                  List.filter
                    (fun btup ->
                      List.for_all2
                        (fun bi pi ->
                          Value.equal (Tuple.get btup bi)
                            (Batch.value pb ~row ~col:pi))
                        build_keys probe_keys)
                    (Hashtbl.find_all (Lazy.force table) k)
                in
                (* find_all is newest-first; rev_map restores build order;
                   a row without a match is never boxed *)
                if matches <> [] then
                  pending := List.rev_map (emit (Batch.tuple_of pb row)) matches);
            pull ())
  in
  of_pull ?batch_rows out_schema (Batch.generic_layout out_schema) pull

(* ---------------------------------------------------------- block join *)

(* Block nested-loop join, for plan steps with no equi-join edge: the
   right side is drained once into boxed tuples, then every selected left
   row, in order, pairs with every right row, in order.  There is no join
   predicate — the step's conjuncts run as filters above it — so one
   batch considers exactly the pairs it emits, and a runaway cross
   product reaches a cancellation checkpoint every [batch_rows] pairs. *)
let block_join ?batch_rows left right =
  let schema = Schema.concat left.schema right.schema in
  let inner = lazy (Array.of_list (drain right)) in
  let outer = rows_of left in
  (* the current left row and the index of its next right partner *)
  let lt = ref [||] and ri = ref max_int in
  let rec pull () =
    let inner = Lazy.force inner in
    if !ri < Array.length inner then begin
      incr ri;
      Some (Array.append !lt inner.(!ri - 1))
    end
    else if Array.length inner = 0 then None
    else
      match outer () with
      | None -> None
      | Some (b, row) ->
          lt := Batch.tuple_of b row;
          ri := 0;
          pull ()
  in
  of_pull ?batch_rows schema (Batch.generic_layout schema) pull

(* ------------------------------------------------------- tail operators *)

(* A blocking operator's output: [build] runs at the first pull — so
   EXPLAIN ANALYZE charges the input it drains to the operator's node —
   and its result streams from there. *)
let blocking schema build =
  let out = lazy (build ()) in
  { schema; next = (fun () -> (Lazy.force out).next ()) }

(* Append a computed column: evaluated on the selected rows only, so an
   expression never runs (or fails) on a row a filter dropped. *)
let extend src ~name ~ty expr =
  let ev = compile_eval src.schema expr in
  let schema = Schema.make (Schema.columns src.schema @ [ { Schema.name; ty } ]) in
  let next () =
    match src.next () with
    | None -> None
    | Some b ->
        let vals = Array.make (Batch.rows b) Value.VNull in
        for i = 0 to Batch.selected b - 1 do
          let row = Batch.sel_row b i in
          vals.(row) <- ev b row
        done;
        Some (Batch.add_column b ~name ~ty (Batch.DVal vals))
  in
  { schema; next }

(* Streaming duplicate elimination, first appearance wins: each batch's
   selection keeps the rows whose [Batch.group_key] is new. *)
let distinct src =
  let seen = Hashtbl.create 64 in
  let cols = Array.init (Schema.arity src.schema) Fun.id in
  let next () =
    match src.next () with
    | None -> None
    | Some b as r ->
        ignore
          (Batch.retain b (fun row ->
               let k = Batch.group_key b row cols in
               if Hashtbl.mem seen k then false
               else begin
                 Hashtbl.add seen k ();
                 true
               end));
        r
  in
  { src with next }

(* OFFSET/LIMIT: trims each batch's selection to the rows past [offset]
   and within [limit], and pulls no batch once the limit is met — so a
   scan below decodes nothing past the batch that satisfied it. *)
let limit src ~offset ~limit =
  let skip = ref (max 0 offset) in
  let left = ref (match limit with Some n -> max 0 n | None -> max_int) in
  let next () =
    if !left <= 0 then None
    else
      match src.next () with
      | None -> None
      | Some b as r ->
          let nsel = Batch.selected b in
          if !skip > 0 || nsel > !left then begin
            let lo = min !skip nsel in
            let hi = lo + min (nsel - lo) !left in
            let i = ref 0 in
            ignore
              (Batch.retain b (fun _ ->
                   let k = !i in
                   incr i;
                   k >= lo && k < hi));
            skip := !skip - lo
          end;
          left := !left - Batch.selected b;
          r
  in
  if offset <= 0 && limit = None then src else { src with next }

(* ORDER BY without LIMIT: drain, stable sort, re-batch. *)
let sort ?batch_rows src ~cmp =
  blocking src.schema (fun () ->
      let rows = Array.of_list (drain src) in
      Array.stable_sort cmp rows;
      of_tuples ?batch_rows src.schema rows)

(* ORDER BY ... LIMIT: a bounded max-heap of (tuple, arrival seq) whose
   root is the worst row kept so far.  The seq tiebreak makes the order
   total and strict, so the answer equals [stable_sort cmp] cut to [k]
   without sorting (or retaining) more than [k] rows. *)
let top_k ?batch_rows src ~cmp ~k =
  blocking src.schema (fun () ->
      if k <= 0 then of_tuples ?batch_rows src.schema [||]
      else begin
        let heap = Array.make k ([||], 0) in
        let size = ref 0 in
        let ccmp (a, sa) (b, sb) =
          let c = cmp a b in
          if c <> 0 then c else Int.compare sa sb
        in
        let swap i j =
          let t = heap.(i) in
          heap.(i) <- heap.(j);
          heap.(j) <- t
        in
        let rec up i =
          if i > 0 then begin
            let p = (i - 1) / 2 in
            if ccmp heap.(i) heap.(p) > 0 then begin
              swap i p;
              up p
            end
          end
        in
        let rec down i =
          let l = (2 * i) + 1 and r = (2 * i) + 2 in
          let m = ref i in
          if l < !size && ccmp heap.(l) heap.(!m) > 0 then m := l;
          if r < !size && ccmp heap.(r) heap.(!m) > 0 then m := r;
          if !m <> i then begin
            swap i !m;
            down !m
          end
        in
        let seq = ref 0 in
        let offer t =
          let entry = (t, !seq) in
          incr seq;
          if !size < k then begin
            heap.(!size) <- entry;
            incr size;
            up (!size - 1)
          end
          else if ccmp entry heap.(0) < 0 then begin
            heap.(0) <- entry;
            down 0
          end
        in
        let rec consume () =
          match src.next () with
          | None -> ()
          | Some b ->
              for i = 0 to Batch.selected b - 1 do
                offer (Batch.tuple_of b (Batch.sel_row b i))
              done;
              consume ()
        in
        consume ();
        let kept = Array.sub heap 0 !size in
        Array.sort ccmp kept;
        of_tuples ?batch_rows src.schema (Array.map fst kept)
      end)

(* ------------------------------------------------------------ group by *)

(* Grouped and ungrouped aggregation over batches: the rows
   [Propagate.group_by] computes, in the same order (groups by first
   appearance; with no keys, one row even over empty input).  Rows
   group under [Batch.group_key] of their key columns; each aggregate
   then runs one typed loop per batch over the numeric vectors,
   updating its group's [Expr.acc] in input order as [Expr.agg_step]
   would, and boxes only at finalization ([Expr.agg_result]). *)
let group_by ?batch_rows src ~keys aggs =
  let schema = src.schema in
  let key_cols = Array.of_list (List.map (Schema.index_of_exn schema) keys) in
  let out_schema =
    Schema.make
      (List.map (fun i -> Schema.column_at schema i) (Array.to_list key_cols)
      @ List.map
          (fun (agg, out_name) ->
            { Schema.name = out_name; ty = Expr.agg_type schema agg })
          aggs)
  in
  (* each aggregate with its input column (-1 for COUNT( * )) *)
  let aggs =
    Array.of_list
      (List.map
         (fun (agg, _) ->
           (agg, Option.value (Expr.agg_input schema agg) ~default:(-1)))
         aggs)
  in
  let nagg = Array.length aggs in
  blocking out_schema (fun () ->
      (* groups, newest first, with their key values and accumulators *)
      let groups = ref [] and index = Hashtbl.create 64 in
      let new_group key_vals =
        let accs = Array.init nagg (fun _ -> Expr.new_acc ()) in
        groups := (key_vals, accs) :: !groups;
        accs
      in
      let global =
        if Array.length key_cols = 0 then Some (new_group [||]) else None
      in
      let step b =
        let nsel = Batch.selected b and sel = b.Batch.sel in
        (* the accumulators of each selected row's group *)
        let row_accs =
          match global with
          | Some accs -> Array.make nsel accs
          | None ->
              Array.init nsel (fun i ->
                  let row = sel.(i) in
                  let k = Batch.group_key b row key_cols in
                  match Hashtbl.find_opt index k with
                  | Some accs -> accs
                  | None ->
                      let accs =
                        new_group
                          (Array.map (fun col -> Batch.value b ~row ~col) key_cols)
                      in
                      Hashtbl.add index k accs;
                      accs)
        in
        Array.iteri
          (fun j (agg, idx) ->
            let acc i = (Array.unsafe_get row_accs i).(j) in
            match agg with
            | Expr.Count_star ->
                for i = 0 to nsel - 1 do
                  let a = acc i in
                  a.n <- a.n + 1
                done
            | Expr.Count _ ->
                let nulls = b.Batch.cols.(idx).Batch.nulls in
                for i = 0 to nsel - 1 do
                  if not_null nulls (Array.unsafe_get sel i) then begin
                    let a = acc i in
                    a.n <- a.n + 1
                  end
                done
            | Expr.Sum _ | Expr.Avg _ -> (
                let c = b.Batch.cols.(idx) in
                let nulls = c.Batch.nulls in
                match c.Batch.data with
                | Batch.DInt v ->
                    for i = 0 to nsel - 1 do
                      let row = Array.unsafe_get sel i in
                      if not_null nulls row then begin
                        let a = acc i and x = Array.unsafe_get v row in
                        a.n <- a.n + 1;
                        a.isum <- a.isum + x;
                        a.fsum <- a.fsum +. float_of_int x
                      end
                    done
                | Batch.DFloat v ->
                    for i = 0 to nsel - 1 do
                      let row = Array.unsafe_get sel i in
                      if not_null nulls row then begin
                        let a = acc i in
                        a.n <- a.n + 1;
                        a.all_int <- false;
                        a.fsum <- a.fsum +. Array.unsafe_get v row
                      end
                    done
                | _ ->
                    (* boxed, including [Value.as_float]'s error on
                       non-numerics *)
                    for i = 0 to nsel - 1 do
                      Expr.agg_step agg (acc i)
                        (Batch.value b ~row:(Array.unsafe_get sel i) ~col:idx)
                    done)
            | Expr.Min _ | Expr.Max _ ->
                for i = 0 to nsel - 1 do
                  Expr.agg_step agg (acc i)
                    (Batch.value b ~row:(Array.unsafe_get sel i) ~col:idx)
                done)
          aggs
      in
      let rec consume () =
        match src.next () with
        | None -> ()
        | Some b ->
            step b;
            consume ()
      in
      consume ();
      of_tuples ?batch_rows out_schema
        (Array.of_list
           (List.rev_map
              (fun (key_vals, accs) ->
                Array.append key_vals
                  (Array.mapi (fun j a -> Expr.agg_result (fst aggs.(j)) a) accs))
              !groups)))

(* ------------------------------------------------------------ metering *)

let meter recorder node src =
  {
    src with
    next = Analyze.meter_batch_pull recorder node ~rows:Batch.selected src.next;
  }
