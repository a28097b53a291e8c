module Pager = Bdbms_storage.Pager
module Page = Bdbms_storage.Page
module Page_array = Bdbms_storage.Page_array
module Heap_file = Bdbms_storage.Heap_file
module Xml_lite = Bdbms_util.Xml_lite

(* Annotation number [n] (id "ann<n>", n >= 1) is entry [n - 1] of a
   {!Page_array}: u32 heap page + 1, u16 slot, u8 archived, u32 archival
   time — all zero when there is no annotation [n].  The entry's rid
   names a heap record holding the rest, which never changes: the body's
   XML, the category, the author and the creation time.  Archival and
   restore rewrite the entry alone. *)

let entry_size = 11

type head = {
  heap_last : Page.id;
  heap_pages : int;
  live : int;
  map_root : Page.id;
  length : int;
}

type t = { bp : Pager.t; mutable store : (Heap_file.t * Page_array.t) option }

let create bp = { bp; store = None }

let attach bp h =
  {
    bp;
    store =
      Some
        ( Heap_file.attach bp ~last_page:h.heap_last ~page_count:h.heap_pages ~live:h.live,
          Page_array.attach bp ~entry_size ~root:h.map_root ~length:h.length );
  }

let head t =
  Option.map
    (fun (heap, map) ->
      {
        heap_last = Heap_file.last_page heap;
        heap_pages = Heap_file.page_count heap;
        live = Heap_file.record_count heap;
        map_root = Page_array.root map;
        length = Page_array.length map;
      })
    t.store

(* The pages are allocated by the first annotation. *)
let store t =
  match t.store with
  | Some s -> s
  | None ->
      let s = (Heap_file.create t.bp, Page_array.create t.bp ~entry_size) in
      t.store <- Some s;
      s

let add_str b s =
  Buffer.add_int32_le b (Int32.of_int (String.length s));
  Buffer.add_string b s

let encode (ann : Ann.t) =
  let b = Buffer.create 64 in
  add_str b (Ann.body_string ann);
  add_str b (Ann.category_name ann.category);
  add_str b ann.author;
  Buffer.add_int32_le b (Int32.of_int ann.created_at);
  Buffer.contents b

let decode ~id s ~archived_at =
  let pos = ref 0 in
  let u32 () =
    let v = Int32.to_int (String.get_int32_le s !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v
  in
  let str () =
    let len = u32 () in
    let v = String.sub s !pos len in
    pos := !pos + len;
    v
  in
  let body = Xml_lite.parse (str ()) in
  let category = Ann.category_of_name (str ()) in
  let author = str () in
  let ann = Ann.make ~id ~body ~category ~author ~created_at:(u32 ()) in
  match archived_at with Some at -> Ann.archive ann ~at | None -> ann

let write_entry page off (rid : Heap_file.rid) archived_at =
  Page.set_u32 page off (rid.page + 1);
  Page.set_u16 page (off + 4) rid.slot;
  match archived_at with
  | Some at ->
      Page.set_byte page (off + 6) 1;
      Page.set_u32 page (off + 7) at
  | None ->
      Page.set_byte page (off + 6) 0;
      Page.set_u32 page (off + 7) 0

let read_entry page off =
  match Page.get_u32 page off with
  | 0 -> None
  | p ->
      let archived_at =
        if Page.get_byte page (off + 6) = 0 then None else Some (Page.get_u32 page (off + 7))
      in
      Some ({ Heap_file.page = p - 1; slot = Page.get_u16 page (off + 4) }, archived_at)

let add t n (ann : Ann.t) =
  let heap, map = store t in
  let rid = Heap_file.insert heap (encode ann) in
  while Page_array.length map < n do
    ignore (Page_array.push map (fun _ _ -> ()))
  done;
  Page_array.set map (n - 1) (fun page off -> write_entry page off rid ann.archived_at)

let entry t n =
  match t.store with
  | Some (heap, map) when n >= 1 && n <= Page_array.length map ->
      Option.map (fun e -> (heap, map, e)) (Page_array.get map (n - 1) read_entry)
  | _ -> None

let find t n ~id =
  match entry t n with
  | None -> None
  | Some (heap, _, (rid, archived_at)) ->
      Option.map (fun s -> decode ~id s ~archived_at) (Heap_file.get heap rid)

let set_archived t n archived_at =
  match entry t n with
  | None -> ()
  | Some (_, map, (rid, _)) ->
      Page_array.set map (n - 1) (fun page off -> write_entry page off rid archived_at)

let count t =
  match t.store with None -> 0 | Some (heap, _) -> Heap_file.record_count heap
