(* The catalog root anchored at page 0: a dual-slot shadow root (the
   LMDB-style double meta page) plus a linked chain of blob pages.

   Page 0 holds two fixed-position root slots.  A catalog write never
   updates the slot it was read from: the blob is written to chain
   pages first, then the *other* slot is written with a higher
   generation.  A reader takes the valid slot with the highest
   generation, so a crash anywhere during the swap leaves the previous
   root intact — the old slot's bytes are identical in the old and new
   page-0 images, so even a torn page-0 store cannot invalidate it
   (and [Disk] additionally stores page 0 last at checkpoints).

   Layout of page 0:
     0..3   magic "META"
     8..    slot A (32 bytes), slot B (32 bytes)
   Slot:
     +0  magic "ROOT"
     +4  u32 generation
     +8  u32 blob length in bytes
     +12 u32 CRC-32 of the blob
     +16 u32 first chain page id + 1 (0 = empty blob)
     +20 u32 CRC-32 of the slot bytes [+0, +20)
   Chain page:
     0..3  u32 next chain page id + 1 (0 = end of chain)
     4..   blob payload

   Chain pages are owned by the meta layer forever once allocated: a
   shrinking blob leaves them linked past the live prefix (readers stop
   at the blob length) and a growing blob reuses them before allocating
   more, so rewriting the catalog does not leak pages.  All page traffic
   goes through pin-scoped [Disk.with_page]/[Disk.with_page_mut], so
   chain and root updates are WAL-logged (at write-back) like any data
   page and roll back with the transaction, and a bounded pool reads the
   chain one resident page at a time. *)

module Stats = Bdbms_obs.Stats

module Crc32 = Bdbms_util.Crc32

let page_magic = "META"
let slot_magic = "ROOT"
let slot_off = function 0 -> 8 | _ -> 40
let slot_bytes = 20 (* covered by the slot CRC *)

type slot = { generation : int; blob_len : int; blob_crc : int; first : int }

let min_page_size = 72

let check_page_size ps =
  if ps < min_page_size then
    invalid_arg
      (Printf.sprintf "Meta_page: page_size %d < minimum %d" ps min_page_size)

(* ------------------------------------------------------------- slots *)

let parse_slot page idx =
  let off = slot_off idx in
  if Page.get_bytes page ~pos:off ~len:4 <> slot_magic then None
  else begin
    let u32 p = Page.get_u32 page p in
    let stored_crc = u32 (off + slot_bytes) in
    let actual =
      Crc32.bytes (Page.unsafe_bytes page) ~pos:off ~len:slot_bytes
    in
    if stored_crc land 0xFFFFFFFF <> actual land 0xFFFFFFFF then None
    else
      Some
        {
          generation = u32 (off + 4);
          blob_len = u32 (off + 8);
          blob_crc = u32 (off + 12);
          first = u32 (off + 16) - 1;
        }
  end

let write_slot page idx slot =
  let off = slot_off idx in
  Page.set_bytes page ~pos:off slot_magic;
  Page.set_u32 page (off + 4) slot.generation;
  Page.set_u32 page (off + 8) slot.blob_len;
  Page.set_u32 page (off + 12) slot.blob_crc;
  Page.set_u32 page (off + 16) (slot.first + 1);
  let crc = Crc32.bytes (Page.unsafe_bytes page) ~pos:off ~len:slot_bytes in
  Page.set_u32 page (off + slot_bytes) (crc land 0xFFFFFFFF)

(* The valid slot with the highest generation, with its index. *)
let current_slot page =
  match (parse_slot page 0, parse_slot page 1) with
  | None, None -> None
  | Some a, None -> Some (0, a)
  | None, Some b -> Some (1, b)
  | Some a, Some b ->
      if a.generation >= b.generation then Some (0, a) else Some (1, b)

(* ------------------------------------------------------------ public *)

let ensure_root disk =
  check_page_size (Disk.page_size disk);
  if Disk.page_count disk = 0 then begin
    let id = Disk.alloc disk in
    assert (id = 0)
  end

let chain_capacity disk = Disk.page_size disk - 4

(* Walks a slot's full chain (to its true end, not just the live blob
   prefix) so a writer can reuse every page it owns. *)
let chain_pages disk first =
  let limit = Disk.page_count disk in
  let rec go acc id steps =
    if id < 0 || steps > limit then List.rev acc
    else
      let next = Disk.with_page disk id (fun page -> Page.get_u32 page 0 - 1) in
      go (id :: acc) next (steps + 1)
  in
  go [] first 0

let all_zero page =
  let b = Page.unsafe_bytes page in
  let n = Bytes.length b in
  let rec go i = i >= n || (Bytes.get b i = '\000' && go (i + 1)) in
  go 0

let read_root disk =
  check_page_size (Disk.page_size disk);
  if Disk.page_count disk = 0 then None
  else begin
    let root =
      Disk.with_page disk 0 (fun page0 ->
          if all_zero page0 then `Empty
          else if Page.get_bytes page0 ~pos:0 ~len:4 <> page_magic then
            raise (Backend.Corrupt { page = 0; detail = "catalog root magic" })
          else
            match current_slot page0 with
            | None ->
                raise
                  (Backend.Corrupt
                     { page = 0; detail = "no valid catalog root slot" })
            | Some (_, slot) -> `Root slot)
    in
    match root with
    | `Empty -> None
    | `Root slot ->
        let cap = chain_capacity disk in
        let blob = Bytes.create slot.blob_len in
        let got = ref 0 in
        let id = ref slot.first in
        while !got < slot.blob_len do
          if !id < 0 then
            raise
              (Backend.Corrupt
                 { page = 0; detail = "catalog chain shorter than blob" });
          (* one chain page pinned at a time: bounded pools stream *)
          let next =
            Disk.with_page disk !id (fun page ->
                let chunk = min cap (slot.blob_len - !got) in
                Bytes.blit (Page.unsafe_bytes page) 4 blob !got chunk;
                got := !got + chunk;
                Page.get_u32 page 0 - 1)
          in
          id := next
        done;
        let crc = Crc32.bytes blob in
        if crc land 0xFFFFFFFF <> slot.blob_crc land 0xFFFFFFFF then
          raise (Backend.Corrupt { page = 0; detail = "catalog blob CRC" });
        Some blob
  end

(* [len] bytes of [a] from [ia] equal those of [b] from [ib]. *)
let sub_equal a ia b ib len =
  let rec words i =
    if i + 8 > len then tail i
    else
      Bytes.get_int64_le a (ia + i) = Bytes.get_int64_le b (ib + i)
      && words (i + 8)
  and tail i =
    i >= len || (Bytes.get a (ia + i) = Bytes.get b (ib + i) && tail (i + 1))
  in
  words 0

(* Whether [slot]'s chain already holds exactly [blob]: O(1) on a length
   mismatch, else compared in place one pinned chain page at a time,
   stopping at the first differing page. *)
let holds disk slot blob =
  let len = Bytes.length blob in
  let cap = chain_capacity disk in
  let rec go id got =
    got >= len
    || id >= 0
       &&
       let chunk = min cap (len - got) in
       match
         Disk.with_page disk id (fun page ->
             if sub_equal (Page.unsafe_bytes page) 4 blob got chunk then
               Some (Page.get_u32 page 0 - 1)
             else None)
       with
       | Some next -> go next (got + chunk)
       | None -> false
  in
  slot.blob_len = len && go slot.first 0

let swap_root disk blob =
  ensure_root disk;
  let fault = Disk.fault disk in
  Fault.hit fault Fault.Catalog_write;
  let cur, target_slot =
    Disk.with_page disk 0 (fun page0 ->
        let cur = current_slot page0 in
        let target_idx =
          match cur with None -> 0 | Some (idx, _) -> 1 - idx
        in
        (cur, parse_slot page0 target_idx))
  in
  let target_idx, generation =
    match cur with
    | None -> (0, 1)
    | Some (idx, s) -> (1 - idx, s.generation + 1)
  in
  (* Reuse the target slot's previous chain, extending it if the blob
     outgrew it.  (The target slot is the *older* of the two roots, so
     its chain pages are no longer referenced by the current root.) *)
  let owned =
    match target_slot with
    | Some s -> chain_pages disk s.first
    | None -> []
  in
  let cap = chain_capacity disk in
  let len = Bytes.length blob in
  let needed = (len + cap - 1) / cap in
  let total = ref owned in
  let have = List.length owned in
  if needed > have then begin
    let fresh = ref [] in
    for _ = have + 1 to needed do
      fresh := Disk.alloc disk :: !fresh
    done;
    total := owned @ List.rev !fresh
  end;
  let pages = Array.of_list !total in
  (* Rewrite the live prefix in place; links past it are already there. *)
  for i = 0 to needed - 1 do
    Disk.with_page_mut disk pages.(i) (fun page ->
        let next =
          if i + 1 < Array.length pages then pages.(i + 1) + 1 else 0
        in
        Page.set_u32 page 0 next;
        let chunk = min cap (len - (i * cap)) in
        Bytes.blit blob (i * cap) (Page.unsafe_bytes page) 4 chunk)
  done;
  (* The chain is in place; crashing here must leave the old root live. *)
  Fault.hit fault Fault.Root_swap;
  Disk.with_page_mut disk 0 (fun page0 ->
      Page.set_bytes page0 ~pos:0 page_magic;
      write_slot page0 target_idx
        {
          generation;
          blob_len = len;
          blob_crc = Crc32.bytes blob land 0xFFFFFFFF;
          first = (if needed > 0 then pages.(0) else -1);
        });
  Stats.record_root_swap (Disk.stats disk)

(* An unchanged catalog (a read-only statement's commit) dirties
   nothing, so [Disk.commit] then writes no log record and no fsync. *)
let write_root disk blob =
  check_page_size (Disk.page_size disk);
  let live =
    if Disk.page_count disk = 0 then None
    else Disk.with_page disk 0 current_slot
  in
  match live with
  | Some (_, slot) when holds disk slot blob -> ()
  | _ -> swap_root disk blob

let generation disk =
  if Disk.page_count disk = 0 then 0
  else
    match Disk.with_page disk 0 current_slot with
    | None -> 0
    | Some (_, s) -> s.generation
