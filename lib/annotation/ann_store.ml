module Rect = Bdbms_util.Rect
module Heap_file = Bdbms_storage.Heap_file
module Rtree = Bdbms_index.Rtree

type scheme = Cell | Compact

type t = {
  scheme : scheme;
  heap : Heap_file.t;
  index : Rtree.t option;
  (* rid table for R-tree payloads (the R-tree stores ints) *)
  mutable rids : Heap_file.rid array;
  mutable nrids : int;
  mutable records : int;
  mutable bytes : int;
}

let create ?(indexed = false) scheme bp =
  {
    scheme;
    heap = Heap_file.create bp;
    index = (if indexed then Some (Rtree.create bp) else None);
    rids = Array.make 16 { Heap_file.page = 0; slot = 0 };
    nrids = 0;
    records = 0;
    bytes = 0;
  }

let scheme t = t.scheme
let indexed t = t.index <> None

let rect_to_mbr rect =
  {
    Rtree.x_lo = float_of_int rect.Rect.col_lo;
    x_hi = float_of_int rect.Rect.col_hi;
    y_lo = float_of_int rect.Rect.row_lo;
    y_hi = float_of_int rect.Rect.row_hi;
  }

let register_rid t rid rect =
  match t.index with
  | None -> ()
  | Some rt ->
      if t.nrids >= Array.length t.rids then begin
        let rids = Array.make (2 * Array.length t.rids) { Heap_file.page = 0; slot = 0 } in
        Array.blit t.rids 0 rids 0 t.nrids;
        t.rids <- rids
      end;
      t.rids.(t.nrids) <- rid;
      Rtree.insert rt (rect_to_mbr rect) t.nrids;
      t.nrids <- t.nrids + 1

(* record codecs *)

let add_u32 buf n =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let read_u32 s pos =
  let b i = Char.code s.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let read_str s pos =
  let len = read_u32 s pos in
  (String.sub s (pos + 4) len, pos + 4 + len)

let encode_cell_record ~row ~col ~ann_id ~body =
  let buf = Buffer.create 32 in
  add_u32 buf row;
  add_u32 buf col;
  add_str buf ann_id;
  add_str buf body;
  Buffer.contents buf

let decode_cell_record s =
  let row = read_u32 s 0 and col = read_u32 s 4 in
  let ann_id, pos = read_str s 8 in
  let body, _ = read_str s pos in
  (row, col, ann_id, body)

let encode_rect_record ~rect ~ann_id ~body =
  let buf = Buffer.create 32 in
  add_u32 buf rect.Rect.row_lo;
  add_u32 buf rect.Rect.row_hi;
  add_u32 buf rect.Rect.col_lo;
  add_u32 buf rect.Rect.col_hi;
  add_str buf ann_id;
  add_str buf body;
  Buffer.contents buf

let decode_rect_record s =
  let rect =
    Rect.make ~row_lo:(read_u32 s 0) ~row_hi:(read_u32 s 4) ~col_lo:(read_u32 s 8)
      ~col_hi:(read_u32 s 12)
  in
  let ann_id, pos = read_str s 16 in
  let body, _ = read_str s pos in
  (rect, ann_id, body)

let insert_record t payload rect =
  let rid = Heap_file.insert t.heap payload in
  register_rid t rid rect;
  t.records <- t.records + 1;
  t.bytes <- t.bytes + String.length payload

let add t ~ann_id ~body rects =
  match t.scheme with
  | Cell ->
      List.iter
        (fun rect ->
          List.iter
            (fun (row, col) ->
              insert_record t
                (encode_cell_record ~row ~col ~ann_id ~body)
                (Rect.cell ~row ~col))
            (Rect.cells rect))
        rects
  | Compact ->
      List.iter
        (fun rect -> insert_record t (encode_rect_record ~rect ~ann_id ~body) rect)
        rects

let dedup ids = List.sort_uniq String.compare ids

let ids_matching t pred =
  let out = ref [] in
  Heap_file.iter t.heap (fun _ payload ->
      match t.scheme with
      | Cell ->
          let row, col, ann_id, _ = decode_cell_record payload in
          if pred (Rect.cell ~row ~col) then out := ann_id :: !out
      | Compact ->
          let rect, ann_id, _ = decode_rect_record payload in
          if pred rect then out := ann_id :: !out);
  dedup !out

(* Index-assisted lookup: probe the R-tree for candidate records, fetch
   and re-check only those (the window is exact, so the re-check only
   strips R-tree duplicates). *)
let ids_via_index t rt query pred =
  let candidates = Rtree.search rt (rect_to_mbr query) in
  let out = ref [] in
  List.iter
    (fun (_, eid) ->
      match Heap_file.get t.heap t.rids.(eid) with
      | None -> ()
      | Some payload -> (
          match t.scheme with
          | Cell ->
              let row, col, ann_id, _ = decode_cell_record payload in
              if pred (Rect.cell ~row ~col) then out := ann_id :: !out
          | Compact ->
              let rect, ann_id, _ = decode_rect_record payload in
              if pred rect then out := ann_id :: !out))
    candidates;
  dedup !out

let ids_for_cell t ~row ~col =
  let pred rect = Rect.contains rect ~row ~col in
  match t.index with
  | Some rt -> ids_via_index t rt (Rect.cell ~row ~col) pred
  | None -> ids_matching t pred

let ids_for_rect t query =
  let pred rect = Rect.intersects rect query in
  match t.index with
  | Some rt -> ids_via_index t rt query pred
  | None -> ids_matching t pred

let record_count t = t.records
let logical_bytes t = t.bytes
let storage_pages t = Heap_file.page_count t.heap
let index_pages t = match t.index with None -> 0 | Some rt -> Rtree.node_pages rt
let heap_pages t = Heap_file.pages t.heap

(* Reattach a store to its heap pages after a restart.  The record and
   byte counters are recounted from the heap, and the R-tree (derived
   data, not serialized) is rebuilt by re-inserting every record; the
   previous incarnation's index pages are abandoned. *)
let restore ?(indexed = false) scheme bp ~heap_pages =
  let heap = Heap_file.restore bp ~pages:heap_pages in
  let t =
    {
      scheme;
      heap;
      index = (if indexed then Some (Rtree.create bp) else None);
      rids = Array.make 16 { Heap_file.page = 0; slot = 0 };
      nrids = 0;
      records = 0;
      bytes = 0;
    }
  in
  Heap_file.iter heap (fun rid payload ->
      t.records <- t.records + 1;
      t.bytes <- t.bytes + String.length payload;
      if t.index <> None then
        let rect =
          match scheme with
          | Cell ->
              let row, col, _, _ = decode_cell_record payload in
              Rect.cell ~row ~col
          | Compact ->
              let rect, _, _ = decode_rect_record payload in
              rect
        in
        register_rid t rid rect);
  t
