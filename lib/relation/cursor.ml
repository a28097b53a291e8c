module Stats = Bdbms_obs.Stats

type t = {
  schema : Schema.t;
  mutable pull : unit -> Tuple.t option;
  mutable closed : bool;
}

let schema t = t.schema

let next t = if t.closed then None else t.pull ()

let close t =
  t.closed <- true;
  t.pull <- (fun () -> None)

let make schema pull = { schema; pull; closed = false }

let scan table =
  let row = ref 0 in
  let total = Table.row_count table in
  let rec pull () =
    if !row >= total then None
    else begin
      let r = !row in
      incr row;
      match Table.get table r with Some tuple -> Some tuple | None -> pull ()
    end
  in
  make (Table.schema table) pull

let of_list schema tuples =
  let remaining = ref tuples in
  make schema (fun () ->
      match !remaining with
      | [] -> None
      | t :: rest ->
          remaining := rest;
          Some t)

let select ?on_drop input pred =
  let dropped () = match on_drop with Some f -> f () | None -> () in
  let rec pull () =
    match next input with
    | None -> None
    | Some tuple ->
        if Expr.eval_pred input.schema tuple pred then Some tuple
        else begin
          dropped ();
          pull ()
        end
  in
  make input.schema pull

let rename input schema =
  if Schema.arity schema <> Schema.arity input.schema then
    invalid_arg "Cursor.rename: arity mismatch";
  make schema (fun () -> next input)

let project input names =
  let out_schema = Schema.project input.schema names in
  let indices = List.map (Schema.index_of_exn input.schema) names in
  make out_schema (fun () ->
      match next input with
      | None -> None
      | Some tuple ->
          Some (Array.of_list (List.map (fun i -> Tuple.get tuple i) indices)))

let limit input n =
  let remaining = ref n in
  make input.schema (fun () ->
      if !remaining <= 0 then begin
        close input;
        None
      end
      else
        match next input with
        | None -> None
        | Some tuple ->
            decr remaining;
            Some tuple)

let nested_loop_join outer ~rebuild ~on =
  let inner_schema = (rebuild ()).schema in
  let out_schema = Schema.concat outer.schema inner_schema in
  let current_outer = ref None in
  let current_inner = ref None in
  let rec pull () =
    match !current_outer with
    | None -> (
        match next outer with
        | None -> None
        | Some o ->
            current_outer := Some o;
            current_inner := Some (rebuild ());
            pull ())
    | Some o -> (
        match !current_inner with
        | None ->
            current_outer := None;
            pull ()
        | Some inner -> (
            match next inner with
            | None ->
                current_inner := None;
                current_outer := None;
                pull ()
            | Some i ->
                let joined = Array.append o i in
                if Expr.eval_pred out_schema joined on then Some joined else pull ()))
  in
  make out_schema pull

let to_list t =
  let rec go acc =
    match next t with None -> List.rev acc | Some tuple -> go (tuple :: acc)
  in
  go []

let to_rowset t = { Ops.schema = t.schema; rows = to_list t }

let count t =
  let rec go n = match next t with None -> n | Some _ -> go (n + 1) in
  go 0

let fold t ~init ~f =
  let rec go acc = match next t with None -> acc | Some x -> go (f acc x) in
  go init

let offset input n =
  let remaining = ref (max 0 n) in
  let rec pull () =
    if !remaining <= 0 then next input
    else
      match next input with
      | None -> None
      | Some _ ->
          decr remaining;
          pull ()
  in
  make input.schema pull

let extend input ~name ~ty expr =
  let schema = Schema.make (Schema.columns input.schema @ [ { Schema.name; ty } ]) in
  make schema (fun () ->
      match next input with
      | None -> None
      | Some t -> Some (Array.append t [| Expr.eval input.schema t expr |]))

(* Self-delimiting key over a tuple prefix-projected by [idxs]; [None] when
   any key column is NULL (SQL equality never matches NULL, so the row can
   neither build nor probe). *)
let join_key tuple idxs =
  let buf = Buffer.create 32 in
  let ok =
    List.for_all
      (fun i ->
        match Value.hash_key (Tuple.get tuple i) with
        | None -> false
        | Some k ->
            Buffer.add_string buf (string_of_int (String.length k));
            Buffer.add_char buf ':';
            Buffer.add_string buf k;
            true)
      idxs
  in
  if ok then Some (Buffer.contents buf) else None

let hash_join ?stats ~build_left ~left_keys ~right_keys left right =
  let out_schema = Schema.concat left.schema right.schema in
  let build_src, probe_src, build_keys, probe_keys =
    if build_left then (left, right, left_keys, right_keys)
    else (right, left, right_keys, left_keys)
  in
  let bump f = match stats with Some s -> f s | None -> () in
  (* build lazily on first pull so an unconsumed cursor costs nothing *)
  let table =
    lazy
      (let h = Hashtbl.create 256 in
       let rec go () =
         match next build_src with
         | None -> h
         | Some t ->
             (match join_key t build_keys with
             | Some k ->
                 bump Stats.record_hash_build;
                 Hashtbl.add h k t
             | None -> ());
             go ()
       in
       go ())
  in
  let pending = ref [] in
  let emit probe_t build_t =
    if build_left then Array.append build_t probe_t
    else Array.append probe_t build_t
  in
  let rec pull () =
    match !pending with
    | out :: rest ->
        pending := rest;
        Some out
    | [] -> (
        match next probe_src with
        | None -> None
        | Some pt -> (
            bump Stats.record_hash_probe;
            match join_key pt probe_keys with
            | None -> pull ()
            | Some k ->
                (* hash_key collides across equality classes, so re-check
                   real equality on every candidate pair *)
                let matches =
                  List.filter
                    (fun bt ->
                      List.for_all2
                        (fun bi pi ->
                          Value.equal (Tuple.get bt bi) (Tuple.get pt pi))
                        build_keys probe_keys)
                    (Hashtbl.find_all (Lazy.force table) k)
                in
                (* find_all yields newest-first; rev_map restores build order *)
                (match List.rev_map (emit pt) matches with
                | [] -> pull ()
                | out :: rest ->
                    pending := rest;
                    Some out)))
  in
  make out_schema pull

let block_join ?on left right =
  let out_schema = Schema.concat left.schema right.schema in
  let right_rows = lazy (to_list right) in
  let current = ref None in
  let rec pull () =
    match !current with
    | Some (lt, rt :: rest) -> (
        current := Some (lt, rest);
        let joined = Array.append lt rt in
        match on with
        | Some pred when not (Expr.eval_pred out_schema joined pred) -> pull ()
        | _ -> Some joined)
    | Some (_, []) ->
        current := None;
        pull ()
    | None -> (
        match next left with
        | None -> None
        | Some lt ->
            current := Some (lt, Lazy.force right_rows);
            pull ())
  in
  make out_schema pull

let top_k input ~cmp ~k =
  if k <= 0 then begin
    close input;
    []
  end
  else begin
    (* bounded max-heap of (tuple, arrival seq): the root is the worst row
       kept so far.  The seq tiebreak makes the order total and strict, so
       the result equals [stable_sort cmp; take k] without sorting (or even
       retaining) more than [k] rows. *)
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
    let rec consume () =
      match next input with
      | None -> ()
      | Some t ->
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
          end;
          consume ()
    in
    consume ();
    let kept = Array.sub heap 0 !size in
    Array.sort ccmp kept;
    Array.to_list (Array.map fst kept)
  end

(* Key under which two tuples coincide iff they are [Value.compare]-equal
   column-wise (the relation {!Ops.distinct} uses); NULLs get their own
   marker because DISTINCT, unlike joins, deduplicates them. *)
let distinct_key tuple =
  let buf = Buffer.create 32 in
  Array.iter
    (fun v ->
      match Value.hash_key v with
      | None -> Buffer.add_string buf "n;"
      | Some k ->
          Buffer.add_string buf (string_of_int (String.length k));
          Buffer.add_char buf ':';
          Buffer.add_string buf k)
    tuple;
  Buffer.contents buf

let distinct input =
  let seen = Hashtbl.create 64 in
  let rec pull () =
    match next input with
    | None -> None
    | Some t ->
        let k = distinct_key t in
        if Hashtbl.mem seen k then pull ()
        else begin
          Hashtbl.add seen k ();
          Some t
        end
  in
  make input.schema pull

let aggregate input aggs =
  let schema = input.schema in
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
  let step t =
    List.iter
      (fun (_, idx, st) ->
        match st with
        | `Cnt n when idx < 0 -> incr n (* count-star counts every row *)
        | `Cnt n -> if not (Value.is_null (Tuple.get t idx)) then incr n
        | `Num (n, isum, fsum, all_int) ->
            let v = Tuple.get t idx in
            if not (Value.is_null v) then begin
              incr n;
              (match v with
              | Value.VInt k -> isum := !isum + k
              | _ -> all_int := false);
              fsum := !fsum +. Value.as_float v
            end
        | `Best (best, dir) ->
            let v = Tuple.get t idx in
            if not (Value.is_null v) then (
              match !best with
              | None -> best := Some v
              | Some b -> if dir * Value.compare v b > 0 then best := Some v))
      accs
  in
  let rec consume () =
    match next input with
    | None -> ()
    | Some t ->
        step t;
        consume ()
  in
  consume ();
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
