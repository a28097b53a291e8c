module Bitmap = Bdbms_util.Bitmap
module Pager = Bdbms_storage.Pager
module Page = Bdbms_storage.Page
module Page_array = Bdbms_storage.Page_array
module Table = Bdbms_relation.Table
module Schema = Bdbms_relation.Schema

(* The stored form is the bitmap's RLE bytes ({!Bitmap.to_rle}) in a
   {!Page_array} of whole-page entries: byte [i] of the blob sits in
   entry [i / page_size].  Pages are written through the pager like any
   other, so the WAL, rollback, crash recovery and snapshot overlays
   cover them.  The decoded bitmap is a working copy, loaded on first
   use after an {!attach}. *)

type head = {
  rows : int;
  cols : int;
  set : int;
  root : Page.id;
  pages : int;
  bytes : int;
}

type t = {
  bp : Pager.t;
  name : string;
  cols : int;
  mutable rows : int;  (* of the stored form *)
  mutable set : int;
  mutable bitmap : Bitmap.t option;
  mutable blob : Page_array.t option;  (* [None] until the first mark is stored *)
  mutable bytes : int;
  mutable dirty : bool;
}

let create table =
  let rows = max 1 (Table.row_count table) in
  let cols = Schema.arity (Table.schema table) in
  { bp = Table.pager table; name = Table.name table; cols; rows; set = 0;
    bitmap = Some (Bitmap.create ~rows ~cols); blob = None; bytes = 0;
    dirty = false }

let attach bp ~name (h : head) =
  let ps = Pager.page_size bp in
  { bp; name; cols = h.cols; rows = h.rows; set = h.set; bitmap = None;
    blob = Some (Page_array.attach bp ~entry_size:ps ~root:h.root ~length:h.pages);
    bytes = h.bytes; dirty = false }

let head t =
  match t.blob with
  | None -> None
  | Some a ->
      Some { rows = t.rows; cols = t.cols; set = t.set; root = Page_array.root a;
             pages = Page_array.length a; bytes = t.bytes }

let table_name t = t.name

let read_blob t a =
  let ps = Pager.page_size t.bp in
  let b = Buffer.create t.bytes in
  let rec go k =
    let off = k * ps in
    if off < t.bytes then begin
      Page_array.get a k (fun page pos ->
          Buffer.add_string b (Page.get_bytes page ~pos ~len:(min ps (t.bytes - off))));
      go (k + 1)
    end
  in
  go 0;
  Buffer.contents b

let bitmap t =
  match t.bitmap with
  | Some b -> b
  | None ->
      let b =
        match t.blob with
        | Some a when t.bytes > 0 ->
            Bitmap.of_rle ~rows:t.rows ~cols:t.cols (read_blob t a)
        | _ -> Bitmap.create ~rows:t.rows ~cols:t.cols
      in
      t.bitmap <- Some b;
      b

let flush t =
  if t.dirty then begin
    t.dirty <- false;
    let b = bitmap t in
    if t.set > 0 || t.blob <> None then begin
      let ps = Pager.page_size t.bp in
      let a =
        match t.blob with
        | Some a -> a
        | None ->
            let a = Page_array.create t.bp ~entry_size:ps in
            t.blob <- Some a;
            a
      in
      let s = Bitmap.to_rle b in
      let len = String.length s in
      let rec go k =
        let off = k * ps in
        if off < len then begin
          let chunk = String.sub s off (min ps (len - off)) in
          let write page pos = Page.set_bytes page ~pos chunk in
          if k < Page_array.length a then Page_array.set a k write
          else ignore (Page_array.push a write);
          go (k + 1)
        end
      in
      go 0;
      t.rows <- Bitmap.rows b;
      t.bytes <- len;
      Bdbms_obs.Stats.record_dep_bitmap_flush (Pager.stats t.bp)
    end
  end

let mark t ~row ~col =
  let b = bitmap t in
  let have = Bitmap.rows b in
  let b =
    if row < have then b
    else begin
      let b = Bitmap.append_rows b (max (row + 1 - have) have) in
      t.bitmap <- Some b;
      t.dirty <- true;
      b
    end
  in
  if not (Bitmap.get b ~row ~col) then begin
    Bitmap.set b ~row ~col true;
    t.set <- t.set + 1;
    t.dirty <- true
  end

let clear t ~row ~col =
  if t.set > 0 then begin
    let b = bitmap t in
    if row < Bitmap.rows b && Bitmap.get b ~row ~col then begin
      Bitmap.set b ~row ~col false;
      t.set <- t.set - 1;
      t.dirty <- true
    end
  end

let is_outdated t ~row ~col =
  t.set > 0
  &&
  let b = bitmap t in
  row < Bitmap.rows b && Bitmap.get b ~row ~col

let outdated_cells t =
  if t.set = 0 then []
  else begin
    let out = ref [] in
    Bitmap.iter_set (bitmap t) (fun row col -> out := (row, col) :: !out);
    List.rev !out
  end

let outdated_count t = t.set

let raw_size_bytes t = Bitmap.raw_size_bytes (bitmap t)
let compressed_size_bytes t = Bitmap.compressed_size_bytes (bitmap t)

let pp fmt t = Bitmap.pp fmt (bitmap t)
