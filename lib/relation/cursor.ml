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

let of_list schema tuples =
  let remaining = ref tuples in
  make schema (fun () ->
      match !remaining with
      | [] -> None
      | t :: rest ->
          remaining := rest;
          Some t)

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

let to_list t =
  let rec go acc =
    match next t with None -> List.rev acc | Some tuple -> go (tuple :: acc)
  in
  go []

let to_rowset t = { Ops.schema = t.schema; rows = to_list t }

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
