module Pager = Bdbms_storage.Pager
module Page = Bdbms_storage.Page

type node =
  | Leaf of { entries : (string * int) array; next : Page.id option }
  | Internal of { children : Page.id array; seps : string array }
      (* |children| = |seps| + 1; child.(i) holds keys < seps.(i),
         child.(i+1) holds keys >= seps.(i) *)

type t = {
  bp : Pager.t;
  cmp : string -> string -> int;
  bytewise : bool;
      (* [cmp] is the default byte order: reads compare keys in place *)
  mutable root : Page.id;
  mutable entry_count : int;
  mutable node_pages : int;
  mutable height : int;
}

(* ---------------------------------------------------------- node codec *)

let write_node page node =
  Page.zero page;
  match node with
  | Leaf { entries; next } ->
      Page.set_byte page 0 (Char.code 'L');
      Page.set_u16 page 1 (Array.length entries);
      Page.set_u32 page 3 (match next with None -> 0 | Some id -> id + 1);
      let pos = ref 7 in
      Array.iter
        (fun (key, value) ->
          Page.set_u16 page !pos (String.length key);
          Page.set_bytes page ~pos:(!pos + 2) key;
          Page.set_u32 page (!pos + 2 + String.length key) value;
          pos := !pos + 6 + String.length key)
        entries
  | Internal { children; seps } ->
      Page.set_byte page 0 (Char.code 'I');
      Page.set_u16 page 1 (Array.length children);
      Page.set_u32 page 3 children.(0);
      let pos = ref 7 in
      Array.iteri
        (fun i sep ->
          Page.set_u16 page !pos (String.length sep);
          Page.set_bytes page ~pos:(!pos + 2) sep;
          Page.set_u32 page (!pos + 2 + String.length sep) children.(i + 1);
          pos := !pos + 6 + String.length sep)
        seps

let read_node page =
  let tag = Char.chr (Page.get_byte page 0) in
  match tag with
  | 'L' ->
      let count = Page.get_u16 page 1 in
      let next = match Page.get_u32 page 3 with 0 -> None | n -> Some (n - 1) in
      let pos = ref 7 in
      let entries =
        Array.init count (fun _ ->
            let klen = Page.get_u16 page !pos in
            let key = Page.get_bytes page ~pos:(!pos + 2) ~len:klen in
            let value = Page.get_u32 page (!pos + 2 + klen) in
            pos := !pos + 6 + klen;
            (key, value))
      in
      Leaf { entries; next }
  | 'I' ->
      let nchildren = Page.get_u16 page 1 in
      let first = Page.get_u32 page 3 in
      let pos = ref 7 in
      let seps = Array.make (nchildren - 1) "" in
      let children = Array.make nchildren first in
      for i = 0 to nchildren - 2 do
        let klen = Page.get_u16 page !pos in
        seps.(i) <- Page.get_bytes page ~pos:(!pos + 2) ~len:klen;
        children.(i + 1) <- Page.get_u32 page (!pos + 2 + klen);
        pos := !pos + 6 + klen
      done;
      Internal { children; seps }
  | c -> invalid_arg (Printf.sprintf "Btree: corrupt node tag %C" c)

let node_size = function
  | Leaf { entries; _ } ->
      Array.fold_left (fun acc (k, _) -> acc + 6 + String.length k) 7 entries
  | Internal { seps; _ } ->
      Array.fold_left (fun acc s -> acc + 6 + String.length s) 7 seps

(* -------------------------------------------------------------- helpers *)

let load t page_id = Pager.with_page t.bp page_id read_node

let store t page_id node = Pager.with_page_mut t.bp page_id (fun p -> write_node p node)

let alloc_node t node =
  let id = Pager.alloc_page t.bp in
  t.node_pages <- t.node_pages + 1;
  store t id node;
  id

let create ?cmp bp =
  let t =
    { bp; cmp = Option.value cmp ~default:String.compare; bytewise = cmp = None;
      root = 0; entry_count = 0; node_pages = 0; height = 1 }
  in
  t.root <- alloc_node t (Leaf { entries = [||]; next = None });
  t

type head = { root : Page.id; height : int; entries : int; node_pages : int }

let head (t : t) =
  { root = t.root; height = t.height; entries = t.entry_count; node_pages = t.node_pages }

(* Nothing is read: the nodes stay where the head says they are. *)
let attach ?cmp bp h =
  { bp; cmp = Option.value cmp ~default:String.compare; bytewise = cmp = None;
    root = h.root; entry_count = h.entries; node_pages = h.node_pages;
    height = h.height }

let page_capacity t = Pager.page_size t.bp

(* index of the child to follow for [key] when inserting (equal keys go
   right, next to the separator copy) *)
let child_index t seps key =
  let n = Array.length seps in
  let rec go i = if i >= n then n else if t.cmp key seps.(i) < 0 then i else go (i + 1) in
  go 0

(* first entry index in a sorted entry array with entry key >= key *)
let lower_bound t entries key =
  let n = Array.length entries in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cmp (fst entries.(mid)) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* --------------------------------------------------------------- insert *)

type split = { sep : string; right : Page.id }

let insert_into_array arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j -> if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let remove_from_array arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

let rec insert_rec t page_id key value : split option =
  match load t page_id with
  | Leaf { entries; next } ->
      let i = lower_bound t entries key in
      let entries = insert_into_array entries i (key, value) in
      let node = Leaf { entries; next } in
      if node_size node <= page_capacity t then begin
        store t page_id node;
        None
      end
      else begin
        let n = Array.length entries in
        let mid = n / 2 in
        let left = Array.sub entries 0 mid in
        let right = Array.sub entries mid (n - mid) in
        let right_id = alloc_node t (Leaf { entries = right; next }) in
        store t page_id (Leaf { entries = left; next = Some right_id });
        Some { sep = fst right.(0); right = right_id }
      end
  | Internal { children; seps } -> (
      let i = child_index t seps key in
      match insert_rec t children.(i) key value with
      | None -> None
      | Some { sep; right } ->
          let seps = insert_into_array seps i sep in
          let children = insert_into_array children (i + 1) right in
          let node = Internal { children; seps } in
          if node_size node <= page_capacity t then begin
            store t page_id node;
            None
          end
          else begin
            (* split internal node: middle separator moves up *)
            let n = Array.length seps in
            let mid = n / 2 in
            let up = seps.(mid) in
            let left_seps = Array.sub seps 0 mid in
            let right_seps = Array.sub seps (mid + 1) (n - mid - 1) in
            let left_children = Array.sub children 0 (mid + 1) in
            let right_children = Array.sub children (mid + 1) (Array.length children - mid - 1) in
            let right_id = alloc_node t (Internal { children = right_children; seps = right_seps }) in
            store t page_id (Internal { children = left_children; seps = left_seps });
            Some { sep = up; right = right_id }
          end)

let insert t ~key ~value =
  if String.length key > page_capacity t / 4 then
    invalid_arg "Btree.insert: key too large for page size";
  (match insert_rec t t.root key value with
  | None -> ()
  | Some { sep; right } ->
      let old_root = t.root in
      t.root <- alloc_node t (Internal { children = [| old_root; right |]; seps = [| sep |] });
      t.height <- t.height + 1);
  t.entry_count <- t.entry_count + 1

(* ------------------------------------------------------ in-page reads *)

(* Reads walk each node's bytes under its pin instead of decoding it: a
   bytewise tree compares keys in place and allocates nothing per entry;
   a tree with a custom [cmp] extracts one key per comparison. *)

(* [t.cmp (stored key at [pos, pos+len)) key] *)
let cmp_stored t key page pos len =
  if t.bytewise then Page.compare_bytes page ~pos ~len key
  else t.cmp (Page.get_bytes page ~pos ~len) key

(* [key <= separator at [pos, pos+len)]: the child left of that separator
   may hold [key] *)
let key_le t key page pos len =
  if t.bytewise then Page.compare_bytes page ~pos ~len key >= 0
  else t.cmp key (Page.get_bytes page ~pos ~len) <= 0

(* The one descent of every read: from [page_id] down to a leaf, taking in
   each internal node the child left of the first separator that
   satisfies [left_of page pos len] (the last child if none does).
   Duplicates of a separator key can remain in the left sibling after a
   split, so a key probe descends left-biased and scans forward. *)
let rec descend t ~left_of page_id =
  let child =
    Pager.with_page t.bp page_id (fun page ->
        match Char.chr (Page.get_byte page 0) with
        | 'L' -> -1
        | 'I' ->
            let nseps = Page.get_u16 page 1 - 1 in
            let child = ref (Page.get_u32 page 3) and pos = ref 7 and i = ref 0 in
            while !i < nseps do
              let klen = Page.get_u16 page !pos in
              if left_of page (!pos + 2) klen then i := nseps
              else begin
                child := Page.get_u32 page (!pos + 2 + klen);
                pos := !pos + 6 + klen;
                incr i
              end
            done;
            !child
        | c -> invalid_arg (Printf.sprintf "Btree: corrupt node tag %C" c))
  in
  if child < 0 then page_id else descend t ~left_of child

(* Visits leaf entries in key order from leaf [page_id] on, across next
   pointers, until [visit page pos len value] returns [true]. *)
let rec scan_leaves t page_id visit =
  let next =
    Pager.with_page t.bp page_id (fun page ->
        let count = Page.get_u16 page 1 in
        let pos = ref 7 and i = ref 0 and stop = ref false in
        while (not !stop) && !i < count do
          let klen = Page.get_u16 page !pos in
          if visit page (!pos + 2) klen (Page.get_u32 page (!pos + 2 + klen)) then
            stop := true
          else begin
            pos := !pos + 6 + klen;
            incr i
          end
        done;
        if !stop then -1 else Page.get_u32 page 3 - 1)
  in
  if next >= 0 then scan_leaves t next visit

(* --------------------------------------------------------------- search *)

let search t key =
  let leaf = descend t ~left_of:(key_le t key) t.root in
  (* collect equal keys; skip any smaller keys first (the left-biased
     descent may land before them) *)
  let acc = ref [] in
  scan_leaves t leaf (fun page pos len v ->
      let c = cmp_stored t key page pos len in
      if c = 0 then acc := v :: !acc;
      c > 0);
  List.rev !acc

let delete t ~key ~value =
  let leaf_id = descend t ~left_of:(key_le t key) t.root in
  let rec try_delete page_id =
    match load t page_id with
    | Internal _ -> assert false
    | Leaf { entries; next } ->
        let i = lower_bound t entries key in
        let rec scan j =
          if j >= Array.length entries then None
          else
            let k, v = entries.(j) in
            if t.cmp k key <> 0 then None
            else if v = value then Some j
            else scan (j + 1)
        in
        (match scan i with
        | Some j ->
            store t page_id (Leaf { entries = remove_from_array entries j; next });
            t.entry_count <- t.entry_count - 1;
            true
        | None -> (
            (* the matching entry may live further right: either the leaf is
               entirely below the key (left-biased descent) or duplicates
               spill across the leaf boundary *)
            let may_continue =
              Array.length entries = 0
              || t.cmp (fst entries.(Array.length entries - 1)) key <= 0
            in
            match next with
            | Some next_id when may_continue -> try_delete next_id
            | _ -> false))
  in
  try_delete leaf_id

(* ---------------------------------------------------------------- range *)

let range t ?lo ?hi () =
  let in_lo page pos len =
    match lo with
    | None -> true
    | Some (k, inclusive) ->
        let c = cmp_stored t k page pos len in
        if inclusive then c >= 0 else c > 0
  in
  let past_hi page pos len =
    match hi with
    | None -> false
    | Some (k, inclusive) ->
        let c = cmp_stored t k page pos len in
        if inclusive then c > 0 else c >= 0
  in
  let start_leaf =
    match lo with
    | None -> descend t ~left_of:(fun _ _ _ -> true) t.root
    | Some (k, _) -> descend t ~left_of:(key_le t k) t.root
  in
  let out = ref [] in
  scan_leaves t start_leaf (fun page pos len v ->
      past_hi page pos len
      || begin
        if in_lo page pos len then out := (Page.get_bytes page ~pos ~len, v) :: !out;
        false
      end);
  List.rev !out

let prefix_search t prefix =
  match Key_codec.successor prefix with
  | Some hi -> range t ~lo:(prefix, true) ~hi:(hi, false) ()
  | None -> range t ~lo:(prefix, true) ()

let range_probe t ~probe =
  let leaf =
    descend t ~left_of:(fun page pos len -> probe (Page.get_bytes page ~pos ~len) >= 0) t.root
  in
  let out = ref [] in
  scan_leaves t leaf (fun page pos len v ->
      let k = Page.get_bytes page ~pos ~len in
      let p = probe k in
      if p = 0 then out := (k, v) :: !out;
      p > 0);
  List.rev !out

let entry_count (t : t) = t.entry_count
let height (t : t) = t.height
let node_pages (t : t) = t.node_pages
