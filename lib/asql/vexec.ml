(* Batched (vectorized) operators for the plain query path.

   Each operator here is the batch-at-a-time counterpart of a [Cursor]
   operator and must be observationally identical to it: same rows, same
   order, same three-valued predicate semantics, same error messages.
   The executor runs the same [Plan] through either pipeline and the
   differential test suite asserts the outputs match, so any semantic
   divergence is a bug — when in doubt an operator falls back to the
   boxed evaluation the tuple path uses.

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
module Ops = Bdbms_relation.Ops
module Cursor = Bdbms_relation.Cursor
module Batch = Bdbms_relation.Batch
module Stats = Bdbms_obs.Stats
module Bitmap = Bdbms_util.Bitmap

type src = { schema : Schema.t; next : unit -> Batch.t option }

let efail fmt = Printf.ksprintf (fun s -> raise (Expr.Eval_error s)) fmt

(* ------------------------------------------------------------- sources *)

let scan ?batch_rows ?need table =
  { schema = Table.schema table; next = Table.batches ?batch_rows ?need table }

(* Candidate rows fetched point-wise (index probes): decoded through
   [Table.get] — these row sets are small, the cache may already hold
   them — and re-batched for the rest of the pipeline. *)
let of_rows ?(batch_rows = Batch.default_rows) table rows =
  let schema = Table.schema table in
  let layout = Table.layout table in
  let remaining = ref rows in
  let next () =
    if !remaining = [] then None
    else begin
      let b = Batch.builder ~cap:batch_rows schema layout in
      let rec fill () =
        match !remaining with
        | [] -> ()
        | r :: rest ->
            if Batch.full b then ()
            else begin
              remaining := rest;
              (match Table.get table r with
              | Some t -> Batch.append_tuple b t
              | None -> ());
              fill ()
            end
      in
      fill ();
      if Batch.length b = 0 then None else Some (Batch.finish b)
    end
  in
  { schema; next }

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

(* Batch counterpart of [Cursor.hash_join]: drain the build side into a
   hash table of boxed tuples, stream the probe side batch-by-batch.
   Emission order matches the tuple path (probe order, matches in build
   order), and candidates are re-checked with [Value.equal] because
   [hash_key] collides across equality classes.  Output batches are
   all-boxed ([generic_layout]) — their values are materialized tuples
   already. *)
let hash_join ?stats ?(batch_rows = Batch.default_rows) ~build_left ~left_keys
    ~right_keys left right =
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
  let out_layout = Batch.generic_layout out_schema in
  let emit pt bt =
    if build_left then Array.append bt pt else Array.append pt bt
  in
  (* streaming state: leftover joined tuples from a full output batch,
     the current probe batch and position within its selection vector *)
  let pending = ref [] in
  let cur = ref None in
  let exhausted = ref false in
  let next () =
    if !exhausted && !pending = [] && !cur = None then None
    else begin
      let b = Batch.builder ~cap:batch_rows out_schema out_layout in
      let rec fill () =
        if Batch.full b then ()
        else
          match !pending with
          | t :: rest ->
              pending := rest;
              Batch.append_tuple b t;
              fill ()
          | [] -> (
              match !cur with
              | Some (pb, i) when i < Batch.selected pb ->
                  cur := Some (pb, i + 1);
                  let row = Batch.sel_row pb i in
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
                      (* find_all is newest-first; rev_map restores build
                         order, exactly like the tuple path *)
                      let pt = Batch.tuple_of pb row in
                      pending := List.rev_map (emit pt) matches);
                  fill ()
              | Some _ ->
                  cur := None;
                  fill ()
              | None ->
                  if not !exhausted then (
                    match probe_src.next () with
                    | None -> exhausted := true
                    | Some pb ->
                        cur := Some (pb, 0);
                        fill ()))
      in
      fill ();
      if Batch.length b = 0 then None else Some (Batch.finish b)
    end
  in
  { schema = out_schema; next }

(* ----------------------------------------------------------- aggregate *)

(* Streaming ungrouped aggregation: same accumulators, finalization, and
   error behaviour as [Cursor.aggregate], with typed loops for the
   numeric vectors (SUM/AVG/COUNT are the hot aggregates on scans). *)
let aggregate src aggs =
  let schema = src.schema in
  List.iter
    (fun (agg, _) ->
      match Ops.agg_column agg with
      | Some c when not (Schema.mem schema c) ->
          raise (Expr.Eval_error ("aggregate over unknown column " ^ c))
      | _ -> ())
    aggs;
  let out_schema =
    Schema.make
      (List.map
         (fun (agg, out_name) ->
           { Schema.name = out_name; ty = Ops.agg_type schema agg })
         aggs)
  in
  let accs =
    List.map
      (fun (agg, _) ->
        let idx =
          match Ops.agg_column agg with
          | None -> -1
          | Some c -> Schema.index_of_exn schema c
        in
        let st =
          match agg with
          | Ops.Count_star | Ops.Count _ -> `Cnt (ref 0)
          | Ops.Sum _ | Ops.Avg _ -> `Num (ref 0, ref 0, ref 0.0, ref true)
          | Ops.Min _ -> `Best (ref None, -1)
          | Ops.Max _ -> `Best (ref None, 1)
        in
        (agg, idx, st))
      aggs
  in
  let step_batch b =
    let nsel = Batch.selected b in
    let sel = b.Batch.sel in
    List.iter
      (fun (_, idx, st) ->
        match st with
        | `Cnt n when idx < 0 -> n := !n + nsel
        | `Cnt n ->
            let nulls = b.Batch.cols.(idx).Batch.nulls in
            let cnt = ref 0 in
            for i = 0 to nsel - 1 do
              if not_null nulls (Array.unsafe_get sel i) then incr cnt
            done;
            n := !n + !cnt
        | `Num (n, isum, fsum, all_int) -> (
            let c = b.Batch.cols.(idx) in
            let nulls = c.Batch.nulls in
            match c.Batch.data with
            | Batch.DInt a ->
                (* accumulate locally — the int and float partial sums
                   stay in registers for the whole batch instead of
                   re-boxing the closure-captured refs per row *)
                let cnt = ref 0 and is = ref 0 and fs = ref 0.0 in
                for i = 0 to nsel - 1 do
                  let row = Array.unsafe_get sel i in
                  if not_null nulls row then begin
                    let v = Array.unsafe_get a row in
                    incr cnt;
                    is := !is + v;
                    fs := !fs +. float_of_int v
                  end
                done;
                n := !n + !cnt;
                isum := !isum + !is;
                fsum := !fsum +. !fs
            | Batch.DFloat a ->
                let cnt = ref 0 and fs = ref 0.0 in
                for i = 0 to nsel - 1 do
                  let row = Array.unsafe_get sel i in
                  if not_null nulls row then begin
                    incr cnt;
                    fs := !fs +. Array.unsafe_get a row
                  end
                done;
                if !cnt > 0 then begin
                  n := !n + !cnt;
                  all_int := false;
                  fsum := !fsum +. !fs
                end
            | _ ->
                (* boxed fallback: identical to the tuple path's step,
                   including [Value.as_float]'s error on non-numerics *)
                for i = 0 to nsel - 1 do
                  let row = Array.unsafe_get sel i in
                  let v = Batch.value b ~row ~col:idx in
                  if not (Value.is_null v) then begin
                    incr n;
                    (match v with
                    | Value.VInt k -> isum := !isum + k
                    | _ -> all_int := false);
                    fsum := !fsum +. Value.as_float v
                  end
                done)
        | `Best (best, dir) ->
            for i = 0 to nsel - 1 do
              let row = Array.unsafe_get sel i in
              let v = Batch.value b ~row ~col:idx in
              if not (Value.is_null v) then
                match !best with
                | None -> best := Some v
                | Some bv -> if dir * Value.compare v bv > 0 then best := Some v
            done)
      accs
  in
  let rec drain () =
    match src.next () with
    | None -> ()
    | Some b ->
        step_batch b;
        drain ()
  in
  drain ();
  let finalize (agg, _, st) =
    match (agg, st) with
    | (Ops.Count_star | Ops.Count _), `Cnt n -> Value.VInt !n
    | Ops.Sum _, `Num (n, isum, fsum, all_int) ->
        if !n = 0 then Value.VNull
        else if !all_int then Value.VInt !isum
        else Value.VFloat !fsum
    | Ops.Avg _, `Num (n, _, fsum, _) ->
        if !n = 0 then Value.VNull else Value.VFloat (!fsum /. float_of_int !n)
    | (Ops.Min _ | Ops.Max _), `Best (best, _) -> (
        match !best with None -> Value.VNull | Some v -> v)
    | _ -> assert false
  in
  { Ops.schema = out_schema; rows = [ Array.of_list (List.map finalize accs) ] }

(* --------------------------------------------------------------- top-k *)

(* Bounded max-heap over batches; identical ordering to [Cursor.top_k]
   ((tuple, arrival-seq) entries, so ties preserve input order). *)
let top_k src ~cmp ~k =
  if k <= 0 then []
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
    let rec drain () =
      match src.next () with
      | None -> ()
      | Some b ->
          for i = 0 to Batch.selected b - 1 do
            offer (Batch.tuple_of b (Batch.sel_row b i))
          done;
          drain ()
    in
    drain ();
    let kept = Array.sub heap 0 !size in
    Array.sort ccmp kept;
    Array.to_list (Array.map fst kept)
  end

(* ------------------------------------------------------------ adapters *)

(* Lazy cursor over a batch source: boxes only selected rows, pulls the
   next batch on demand — so LIMIT downstream stops decoding after the
   batch that satisfies it. *)
let to_cursor src =
  let cur = ref None in
  let rec pull () =
    match !cur with
    | Some (b, i) when i < Batch.selected b ->
        cur := Some (b, i + 1);
        Some (Batch.tuple_of b (Batch.sel_row b i))
    | _ -> (
        match src.next () with
        | None -> None
        | Some b ->
            cur := Some (b, 0);
            pull ())
  in
  Cursor.make src.schema pull

let to_rowset src = Cursor.to_rowset (to_cursor src)

let meter recorder node src =
  {
    src with
    next = Analyze.meter_batch_pull recorder node ~rows:Batch.selected src.next;
  }
