module Heap_file = Bdbms_storage.Heap_file
module Pager = Bdbms_storage.Pager
module Page = Bdbms_storage.Page
module Page_array = Bdbms_storage.Page_array
module Stats = Bdbms_obs.Stats

(* The row map: row number -> rid, one 6-byte entry per row in a
   {!Page_array}: u32 heap page + 1, u16 slot.  All-zero is a tombstone
   (deleted row); row numbers are never reused. *)
type slot = Live of Heap_file.rid | Dead

let entry_size = 6

(* -1 for a tombstone *)
let entry_page page off = Page.get_u32 page off - 1
let entry_slot page off = Page.get_u16 page (off + 4)

let read_slot page off =
  match entry_page page off with
  | -1 -> Dead
  | p -> Live { Heap_file.page = p; slot = entry_slot page off }

let write_slot page off = function
  | Dead ->
      Page.set_u32 page off 0;
      Page.set_u16 page (off + 4) 0
  | Live (rid : Heap_file.rid) ->
      Page.set_u32 page off (rid.page + 1);
      Page.set_u16 page (off + 4) rid.slot

(* Scans copy at most this many map entries per leaf pin: arrays this
   small are allocated on the minor heap, so a scan adds no major-heap
   garbage. *)
let run_chunk = 128

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
  rows : Page_array.t;
}

let make bp ~name schema ~heap ~rows =
  { name; schema; layout = Batch.layout_of_schema schema; heap;
    stats = Pager.stats bp; cache = Array.make cache_slots Empty; rows }

let create bp ~name schema =
  let heap = Heap_file.create bp in
  make bp ~name schema ~heap ~rows:(Page_array.create bp ~entry_size)

let cache_invalidate t row =
  let i = row land (cache_slots - 1) in
  match t.cache.(i) with
  | Cached (r, _) when r = row -> t.cache.(i) <- Empty
  | _ -> ()

let name t = t.name
let schema t = t.schema
let layout t = t.layout
let pager t = Heap_file.pager t.heap

let insert t tuple =
  match Tuple.check_cols t.layout.Batch.cols tuple with
  | Error _ as e -> e
  | Ok () ->
      let rid = Heap_file.insert t.heap (Tuple.encode tuple) in
      Ok (Page_array.push t.rows (fun page off -> write_slot page off (Live rid)))

let row_count t = Page_array.length t.rows
let live_count t = Heap_file.record_count t.heap

let slot_of t row =
  if row < 0 || row >= row_count t then Dead
  else Page_array.get t.rows row read_slot

let set_slot t row slot =
  Page_array.set t.rows row (fun page off -> write_slot page off slot)

(* Live row [row]'s tuple, decoded from [rid] through the cache (a hit
   skips the heap read too). *)
let fetch t row rid =
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
      | None -> None)

let get t row =
  match t.cache.(row land (cache_slots - 1)) with
  | Cached (r, tuple) when r = row -> Some tuple (* no map lookup *)
  | _ -> ( match slot_of t row with Dead -> None | Live rid -> fetch t row rid)

let update t row tuple =
  match Tuple.check_cols t.layout.Batch.cols tuple with
  | Error _ as e -> e
  | Ok () -> (
      match slot_of t row with
      | Dead -> Error (Printf.sprintf "row %d is not live" row)
      | Live rid ->
          let rid' = Heap_file.update t.heap rid (Tuple.encode tuple) in
          if not (Heap_file.rid_equal rid rid') then set_slot t row (Live rid');
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
      set_slot t row Dead;
      cache_invalidate t row;
      true

let resurrect t row tuple =
  match Tuple.check_cols t.layout.Batch.cols tuple with
  | Error _ as e -> e
  | Ok () -> (
      if row < 0 || row >= row_count t then
        Error (Printf.sprintf "row %d was never allocated" row)
      else
        match slot_of t row with
        | Live _ -> Error (Printf.sprintf "row %d is live" row)
        | Dead ->
            let rid = Heap_file.insert t.heap (Tuple.encode tuple) in
            set_slot t row (Live rid);
            cache_invalidate t row;
            Ok ())

let is_live t row = match slot_of t row with Live _ -> true | Dead -> false

(* One map leaf pin per [run_chunk] rows, then one heap read per row;
   [f] must not mutate [t]. *)
let iter t f =
  let row = ref 0 in
  while !row < row_count t do
    let first = !row in
    let slots =
      Page_array.run t.rows first (fun page off n ->
          Array.init (min n run_chunk) (fun k ->
              read_slot page (off + (k * entry_size))))
    in
    Array.iteri
      (fun k slot ->
        match slot with
        | Dead -> ()
        | Live rid -> (
            match fetch t (first + k) rid with
            | Some tuple -> f (first + k) tuple
            | None -> ()))
      slots;
    row := first + Array.length slots
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun row tuple -> acc := f !acc row tuple);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc row tuple -> (row, tuple) :: acc))

(* Batch scan: live rows in row order, decoded straight into column
   vectors.  Each pull first copies up to [run_chunk] of the row map's
   entries from the current map leaf into [pages]/[slots] (one leaf
   pin), then decodes
   consecutive rows whose records landed on the same heap page under a
   single pin (one page fault / CRC check per run instead of per row) —
   never two pages pinned at once.  After in-place updates relocate
   records the run merely shortens; row order is preserved regardless, so
   both executors see rows in the same order.  The copy is dropped at the
   end of every pull, so a mutation between pulls is seen.  [row_id]
   names a trailing column holding each row's number (annotated queries
   attach envelopes by it). *)
let batches ?(batch_rows = Batch.default_rows) ?need ?row_id t =
  let pages = Array.make run_chunk 0 and slots = Array.make run_chunk 0 in
  let row = ref 0 in
  fun () ->
    if !row >= row_count t then None
    else begin
      let b = Batch.builder ~cap:batch_rows ?need t.schema t.layout in
      let ids = if row_id = None then [||] else Array.make batch_rows 0 in
      while !row < row_count t && not (Batch.full b) do
        (* rows [first, first + n) of the map are copied out *)
        let first = !row in
        let n =
          Page_array.run t.rows first (fun page off n ->
              let n = min n run_chunk in
              for k = 0 to n - 1 do
                let o = off + (k * entry_size) in
                pages.(k) <- entry_page page o;
                slots.(k) <- entry_slot page o
              done;
              n)
        in
        while !row < first + n && not (Batch.full b) do
          let page = pages.(!row - first) in
          if page < 0 then incr row
          else
            Heap_file.with_page_spans t.heap page (fun buf read ->
                let in_run = ref true in
                while !in_run && !row < first + n && not (Batch.full b) do
                  let k = !row - first in
                  if pages.(k) < 0 then incr row
                  else if pages.(k) <> page then in_run := false
                  else begin
                    (match read slots.(k) with
                    | Some (pos, len) ->
                        Stats.record_tuple_decode t.stats;
                        if row_id <> None then ids.(Batch.length b) <- !row;
                        Batch.append_span b buf ~pos ~len
                    | None -> ());
                    incr row
                  end
                done)
        done
      done;
      if Batch.length b = 0 then None
      else begin
        Stats.record_batch_decoded t.stats;
        let batch = Batch.finish b in
        match row_id with
        | None -> Some batch
        | Some name ->
            Some (Batch.add_column batch ~name ~ty:Value.TInt (Batch.DInt ids))
      end
    end

let storage_pages t = Heap_file.page_count t.heap

type head = {
  map_root : Page.id;
  nrows : int;
  live : int;
  heap_last : Page.id;
  heap_pages : int;
}

let head t =
  {
    map_root = Page_array.root t.rows;
    nrows = row_count t;
    live = live_count t;
    heap_last = Heap_file.last_page t.heap;
    heap_pages = Heap_file.page_count t.heap;
  }

(* Reattach a table after a restart from its catalog head: the heap and
   the row map are rebuilt from a handful of integers, reading no page. *)
let attach bp ~name schema h =
  let heap =
    Heap_file.attach bp ~last_page:h.heap_last ~page_count:h.heap_pages
      ~live:h.live
  in
  let rows =
    Page_array.attach bp ~entry_size ~root:h.map_root ~length:h.nrows
  in
  make bp ~name schema ~heap ~rows
