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

let create ?(cmp = String.compare) bp =
  let t = { bp; cmp; root = 0; entry_count = 0; node_pages = 0; height = 1 } in
  t.root <- alloc_node t (Leaf { entries = [||]; next = None });
  t

type head = { root : Page.id; height : int; entries : int; node_pages : int }

let head (t : t) =
  { root = t.root; height = t.height; entries = t.entry_count; node_pages = t.node_pages }

(* Nothing is read: the nodes stay where the head says they are. *)
let attach ?(cmp = String.compare) bp h =
  { bp; cmp; root = h.root; entry_count = h.entries; node_pages = h.node_pages;
    height = h.height }

let page_capacity t = Pager.page_size t.bp

(* index of the child to follow for [key] when inserting (equal keys go
   right, next to the separator copy) *)
let child_index t seps key =
  let n = Array.length seps in
  let rec go i = if i >= n then n else if t.cmp key seps.(i) < 0 then i else go (i + 1) in
  go 0

(* leftmost child that may contain [key]: duplicates of a separator key can
   remain in the left sibling after a split, so searches must descend
   left-biased and scan forward *)
let child_index_left t seps key =
  let n = Array.length seps in
  let rec go i = if i >= n then n else if t.cmp key seps.(i) <= 0 then i else go (i + 1) in
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

(* --------------------------------------------------------------- search *)

let rec find_leaf t page_id key =
  match load t page_id with
  | Leaf _ -> page_id
  | Internal { children; seps } -> find_leaf t children.(child_index_left t seps key) key

let search t key =
  let leaf_id = find_leaf t t.root key in
  (* collect equal keys, following next pointers across leaves; skip any
     smaller keys first (left-biased descent may land before them) *)
  let rec collect page_id acc =
    match load t page_id with
    | Internal _ -> assert false
    | Leaf { entries; next } ->
        let acc = ref acc and stop = ref false in
        Array.iter
          (fun (k, v) ->
            if not !stop then
              let c = t.cmp k key in
              if c = 0 then acc := v :: !acc else if c > 0 then stop := true)
          entries;
        if !stop || next = None then List.rev !acc
        else collect (Option.get next) !acc
  in
  collect leaf_id []

let delete t ~key ~value =
  let leaf_id = find_leaf t t.root key in
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
  let in_lo key =
    match lo with
    | None -> true
    | Some (k, inclusive) ->
        let c = t.cmp key k in
        if inclusive then c >= 0 else c > 0
  in
  let past_hi key =
    match hi with
    | None -> false
    | Some (k, inclusive) ->
        let c = t.cmp key k in
        if inclusive then c > 0 else c >= 0
  in
  let start_leaf =
    match lo with
    | None ->
        let rec leftmost page_id =
          match load t page_id with
          | Leaf _ -> page_id
          | Internal { children; _ } -> leftmost children.(0)
        in
        leftmost t.root
    | Some (k, _) -> find_leaf t t.root k
  in
  let out = ref [] in
  let rec scan page_id =
    match load t page_id with
    | Internal _ -> assert false
    | Leaf { entries; next } ->
        let stop = ref false in
        Array.iter
          (fun (k, v) ->
            if not !stop then
              if past_hi k then stop := true
              else if in_lo k then out := (k, v) :: !out)
          entries;
        if (not !stop) && next <> None then scan (Option.get next)
  in
  scan start_leaf;
  List.rev !out

let prefix_search t prefix =
  match Key_codec.successor prefix with
  | Some hi -> range t ~lo:(prefix, true) ~hi:(hi, false) ()
  | None -> range t ~lo:(prefix, true) ()

let range_probe t ~probe =
  (* descend to the leftmost leaf that may contain probe >= 0 *)
  let rec descend page_id =
    match load t page_id with
    | Leaf _ -> page_id
    | Internal { children; seps } ->
        let n = Array.length seps in
        let rec find i = if i >= n then n else if probe seps.(i) >= 0 then i else find (i + 1) in
        descend children.(find 0)
  in
  let out = ref [] in
  let rec scan page_id =
    match load t page_id with
    | Internal _ -> assert false
    | Leaf { entries; next } ->
        let stop = ref false in
        Array.iter
          (fun (k, v) ->
            if not !stop then
              let p = probe k in
              if p > 0 then stop := true else if p = 0 then out := (k, v) :: !out)
          entries;
        if (not !stop) && next <> None then scan (Option.get next)
  in
  scan (descend t.root);
  List.rev !out

let entry_count (t : t) = t.entry_count
let height (t : t) = t.height
let node_pages (t : t) = t.node_pages
