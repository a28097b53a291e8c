module Heap_file = Bdbms_storage.Heap_file
module Pager = Bdbms_storage.Pager
module Disk = Bdbms_storage.Disk
module Stats = Bdbms_obs.Stats

type slot = Live of Heap_file.rid | Dead

(* Direct-mapped cache of decoded tuples: [get] on a hot row skips the
   heap read and payload decode.  Must stay small (a query touching every
   row only pays one decode per row anyway) and is invalidated per-slot on
   any mutation of the cached row. *)
let cache_slots = 256

type cached = Empty | Cached of int * Tuple.t

type t = {
  name : string;
  schema : Schema.t;
  layout : Batch.layout;  (* schema lookups hoisted out of decode loops *)
  heap : Heap_file.t;
  stats : Stats.t;
  cache : cached array;
  mutable rows : slot array;
  mutable nrows : int;
  mutable live : int;
}

let create bp ~name schema =
  { name; schema; layout = Batch.layout_of_schema schema;
    heap = Heap_file.create bp;
    stats = Pager.stats bp;
    cache = Array.make cache_slots Empty;
    rows = Array.make 16 Dead; nrows = 0; live = 0 }

let cache_invalidate t row =
  let i = row land (cache_slots - 1) in
  match t.cache.(i) with
  | Cached (r, _) when r = row -> t.cache.(i) <- Empty
  | _ -> ()

let name t = t.name
let schema t = t.schema
let layout t = t.layout
let pager t = Heap_file.pager t.heap

let grow t =
  if t.nrows >= Array.length t.rows then begin
    let rows = Array.make (2 * Array.length t.rows) Dead in
    Array.blit t.rows 0 rows 0 t.nrows;
    t.rows <- rows
  end

let insert t tuple =
  match Tuple.check_cols t.layout.Batch.cols tuple with
  | Error _ as e -> e
  | Ok () ->
      let rid = Heap_file.insert t.heap (Tuple.encode tuple) in
      grow t;
      t.rows.(t.nrows) <- Live rid;
      t.nrows <- t.nrows + 1;
      t.live <- t.live + 1;
      Ok (t.nrows - 1)

let slot_of t row =
  if row < 0 || row >= t.nrows then Dead else t.rows.(row)

let get t row =
  match slot_of t row with
  | Dead -> None
  | Live rid -> (
      let i = row land (cache_slots - 1) in
      match t.cache.(i) with
      | Cached (r, tuple) when r = row -> Some tuple
      | _ -> (
          match Heap_file.get t.heap rid with
          | Some payload ->
              Stats.record_tuple_decode t.stats;
              let tuple = Tuple.decode_using ~arity:t.layout.Batch.arity payload in
              t.cache.(i) <- Cached (row, tuple);
              Some tuple
          | None -> None))

let update t row tuple =
  match Tuple.check_cols t.layout.Batch.cols tuple with
  | Error _ as e -> e
  | Ok () -> (
      match slot_of t row with
      | Dead -> Error (Printf.sprintf "row %d is not live" row)
      | Live rid ->
          let rid' = Heap_file.update t.heap rid (Tuple.encode tuple) in
          t.rows.(row) <- Live rid';
          cache_invalidate t row;
          Ok ())

let update_cell t ~row ~col value =
  match get t row with
  | None -> Error (Printf.sprintf "row %d is not live" row)
  | Some tuple ->
      if col < 0 || col >= Schema.arity t.schema then
        Error (Printf.sprintf "column %d out of range" col)
      else
        let column = Schema.column_at t.schema col in
        if not (Value.conforms value column.ty) then
          Error
            (Printf.sprintf "column %s expects %s" column.name
               (Value.type_name column.ty))
        else begin
          let old = Tuple.get tuple col in
          match update t row (Tuple.set tuple col value) with
          | Ok () -> Ok old
          | Error _ as e -> e
        end

let delete t row =
  match slot_of t row with
  | Dead -> false
  | Live rid ->
      ignore (Heap_file.delete t.heap rid);
      t.rows.(row) <- Dead;
      cache_invalidate t row;
      t.live <- t.live - 1;
      true

let resurrect t row tuple =
  match Tuple.check_cols t.layout.Batch.cols tuple with
  | Error _ as e -> e
  | Ok () -> (
      if row < 0 || row >= t.nrows then
        Error (Printf.sprintf "row %d was never allocated" row)
      else
        match t.rows.(row) with
        | Live _ -> Error (Printf.sprintf "row %d is live" row)
        | Dead ->
            let rid = Heap_file.insert t.heap (Tuple.encode tuple) in
            t.rows.(row) <- Live rid;
            cache_invalidate t row;
            t.live <- t.live + 1;
            Ok ())

let is_live t row = match slot_of t row with Live _ -> true | Dead -> false

let row_count t = t.nrows
let live_count t = t.live

let iter t f =
  for row = 0 to t.nrows - 1 do
    match get t row with Some tuple -> f row tuple | None -> ()
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun row tuple -> acc := f !acc row tuple);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc row tuple -> (row, tuple) :: acc))

(* Batch scan: live rows in row order, decoded straight into column
   vectors.  Consecutive rows whose records landed on the same heap page
   decode under a single pin (one page fault / CRC check per run instead
   of per row); after in-place updates relocate records the run merely
   shortens — row order is preserved regardless, so both executors see
   rows in the same order.  [row_id] names a trailing column holding each
   row's number (annotated queries attach envelopes by it). *)
let batches ?(batch_rows = Batch.default_rows) ?need ?row_id t =
  let row = ref 0 in
  fun () ->
    if !row >= t.nrows then None
    else begin
      let b = Batch.builder ~cap:batch_rows ?need t.schema t.layout in
      let ids = if row_id = None then [||] else Array.make batch_rows 0 in
      while !row < t.nrows && not (Batch.full b) do
        match t.rows.(!row) with
        | Dead -> incr row
        | Live rid ->
            let page = rid.Heap_file.page in
            Heap_file.with_page_spans t.heap page (fun buf read ->
                let in_run = ref true in
                while !in_run && !row < t.nrows && not (Batch.full b) do
                  match t.rows.(!row) with
                  | Dead -> incr row
                  | Live r when r.Heap_file.page = page ->
                      (match read r.Heap_file.slot with
                      | Some (pos, len) ->
                          Stats.record_tuple_decode t.stats;
                          if row_id <> None then ids.(Batch.length b) <- !row;
                          Batch.append_span b buf ~pos ~len
                      | None -> ());
                      incr row
                  | Live _ -> in_run := false
                done)
      done;
      if Batch.length b = 0 then None
      else begin
        Stats.record_batch_decoded t.stats;
        let batch = Batch.finish b in
        match row_id with
        | None -> Some batch
        | Some name -> Some (Batch.add_int_column batch ~name ids)
      end
    end

let storage_pages t = Heap_file.page_count t.heap
let heap_pages t = Heap_file.pages t.heap
let slots t = Array.to_list (Array.sub t.rows 0 t.nrows)

(* Reattach a table to its heap pages after a restart: the schema, the
   page list, and the row-number -> rid slot array all come from the
   durable catalog. *)
let restore bp ~name schema ~heap_pages ~slots =
  let heap = Heap_file.restore bp ~pages:heap_pages in
  let arr = Array.of_list slots in
  let nrows = Array.length arr in
  let live =
    Array.fold_left (fun n s -> match s with Live _ -> n + 1 | Dead -> n) 0 arr
  in
  let rows = Array.make (max 16 nrows) Dead in
  Array.blit arr 0 rows 0 nrows;
  {
    name;
    schema;
    layout = Batch.layout_of_schema schema;
    heap;
    stats = Pager.stats bp;
    cache = Array.make cache_slots Empty;
    rows;
    nrows;
    live;
  }
