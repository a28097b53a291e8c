(* A growable array of fixed-size entries kept in pages: a radix tree of
   page-id pages over leaf pages.

   Leaf page: entries packed from byte 0, [page_size / entry_size] of
   them.  Interior page: u32 child page id + 1 (0 = no child yet),
   [page_size / 4] of them.  An array of depth 0 is a single leaf (the
   root); one of depth d covers [per_leaf * fanout^d] entries.  The depth
   is a function of the length — appending entry [cap d] first puts a
   new interior root above the old one — so the array is reattached from
   (root, length) alone, reading no page.

   Every write goes through [Pager.with_page_mut], so the WAL logs the
   array's pages at write-back like any heap page; rollback, crash
   recovery and snapshot overlays need nothing of their own.  Every
   access pins one page at a time. *)

type t = {
  bp : Pager.t;
  esize : int;
  per_leaf : int;
  fanout : int;
  mutable root : Page.id;
  mutable depth : int;
  mutable length : int;
}

let capacity t depth =
  let rec go d cap = if d = 0 then cap else go (d - 1) (cap * t.fanout) in
  go depth t.per_leaf

let depth_for t length =
  let rec go d = if length <= capacity t d then d else go (d + 1) in
  go 0

let make bp ~entry_size ~root ~length =
  let ps = Pager.page_size bp in
  if entry_size < 1 || ps / entry_size < 1 || ps / 4 < 2 then
    invalid_arg "Page_array: entry does not fit a page";
  let t =
    { bp; esize = entry_size; per_leaf = ps / entry_size; fanout = ps / 4;
      root; depth = 0; length }
  in
  t.depth <- depth_for t length;
  t

(* A fresh page is zeroed: an empty leaf, every entry all-zero. *)
let create bp ~entry_size =
  make bp ~entry_size ~root:(Pager.alloc_page bp) ~length:0

let attach = make

let root t = t.root
let length t = t.length

(* The leaf holding entry [i] and the entry's index in it.  With
   [alloc], missing pages on the path are allocated (only an append
   reaches one). *)
let leaf t i ~alloc =
  let rec down page depth i =
    if depth = 0 then (page, i)
    else
      let span = capacity t (depth - 1) in
      let pos = 4 * (i / span) in
      let child =
        match Pager.with_page t.bp page (fun p -> Page.get_u32 p pos) - 1 with
        | c when c >= 0 -> c
        | _ when alloc ->
            let c = Pager.alloc_page t.bp in
            Pager.with_page_mut t.bp page (fun p -> Page.set_u32 p pos (c + 1));
            c
        | _ -> invalid_arg "Page_array: missing page"
      in
      down child (depth - 1) (i mod span)
  in
  down t.root t.depth i

let check t i =
  if i < 0 || i >= t.length then
    invalid_arg (Printf.sprintf "Page_array: index %d out of [0, %d)" i t.length)

let get t i f =
  check t i;
  let page, k = leaf t i ~alloc:false in
  Pager.with_page t.bp page (fun p -> f p (k * t.esize))

let set t i f =
  check t i;
  let page, k = leaf t i ~alloc:false in
  Pager.with_page_mut t.bp page (fun p -> f p (k * t.esize))

let run t i f =
  check t i;
  let page, k = leaf t i ~alloc:false in
  let n = min (t.per_leaf - k) (t.length - i) in
  Pager.with_page t.bp page (fun p -> f p (k * t.esize) n)

let push t f =
  let i = t.length in
  if i = capacity t t.depth then begin
    let root = Pager.alloc_page t.bp in
    Pager.with_page_mut t.bp root (fun p -> Page.set_u32 p 0 (t.root + 1));
    t.root <- root;
    t.depth <- t.depth + 1
  end;
  let page, k = leaf t i ~alloc:true in
  Pager.with_page_mut t.bp page (fun p -> f p (k * t.esize));
  t.length <- i + 1;
  i
