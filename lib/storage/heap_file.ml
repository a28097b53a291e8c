(* Page layout:
     0: u16 slot count
     2: u16 free-space pointer (offset of the lowest record byte)
     4: slot directory, 4 bytes per slot: u16 offset (0xffff = dead), u16 len
   Record payloads grow down from the end of the page. *)

type rid = { page : Page.id; slot : int }

type t = {
  bp : Pager.t;
  mutable pages : Page.id array option;
      (* in allocation order; [None] for a file reattached by {!attach},
         whose owner reaches records by rid alone *)
  mutable npages : int;
  mutable last_page : Page.id;
  mutable live : int;
}

let header_size = 4
let slot_size = 4
let dead_offset = 0xffff

let page_size t = Pager.page_size t.bp

let init_page page =
  Page.set_u16 page 0 0;
  Page.set_u16 page 2 (Page.size page)

let add_page t id =
  (match t.pages with
  | Some pages when t.npages >= Array.length pages ->
      let grown = Array.make (2 * Array.length pages) 0 in
      Array.blit pages 0 grown 0 t.npages;
      grown.(t.npages) <- id;
      t.pages <- Some grown
  | Some pages -> pages.(t.npages) <- id
  | None -> ());
  t.npages <- t.npages + 1

let create bp =
  let id = Pager.alloc_page bp in
  Pager.with_page_mut bp id init_page;
  let t = { bp; pages = Some (Array.make 8 0); npages = 0; last_page = id; live = 0 } in
  add_page t id;
  t

let pager t = t.bp

let max_record_size t = page_size t - header_size - slot_size

let free_space page =
  let nslots = Page.get_u16 page 0 in
  let free_ptr = Page.get_u16 page 2 in
  free_ptr - (header_size + (nslots * slot_size))

let slot_entry page slot =
  let base = header_size + (slot * slot_size) in
  (Page.get_u16 page base, Page.get_u16 page (base + 2))

let set_slot_entry page slot ~off ~len =
  let base = header_size + (slot * slot_size) in
  Page.set_u16 page base off;
  Page.set_u16 page (base + 2) len

(* Try to place [payload] in [page]; return the slot if it fits. *)
let try_place page payload =
  let len = String.length payload in
  let nslots = Page.get_u16 page 0 in
  (* reuse a dead slot if any (costs no directory growth) *)
  let rec find_dead s =
    if s >= nslots then None
    else
      let off, _ = slot_entry page s in
      if off = dead_offset then Some s else find_dead (s + 1)
  in
  let dead = find_dead 0 in
  let needed_dir = match dead with None -> slot_size | Some _ -> 0 in
  if free_space page < len + needed_dir then None
  else begin
    let free_ptr = Page.get_u16 page 2 in
    let off = free_ptr - len in
    Page.set_bytes page ~pos:off payload;
    Page.set_u16 page 2 off;
    let slot =
      match dead with
      | Some s -> s
      | None ->
          Page.set_u16 page 0 (nslots + 1);
          nslots
    in
    set_slot_entry page slot ~off ~len;
    Some slot
  end

let insert t payload =
  if String.length payload > max_record_size t then
    invalid_arg
      (Printf.sprintf "Heap_file.insert: record of %d bytes exceeds max %d"
         (String.length payload) (max_record_size t));
  let placed =
    Pager.with_page_mut t.bp t.last_page (fun page -> try_place page payload)
  in
  let rid =
    match placed with
    | Some slot -> { page = t.last_page; slot }
    | None ->
        let id = Pager.alloc_page t.bp in
        Pager.with_page_mut t.bp id init_page;
        add_page t id;
        t.last_page <- id;
        let slot =
          Pager.with_page_mut t.bp id (fun page ->
              match try_place page payload with
              | Some s -> s
              | None -> assert false)
        in
        { page = id; slot }
  in
  t.live <- t.live + 1;
  rid

let get t rid =
  Pager.with_page t.bp rid.page (fun page ->
      let nslots = Page.get_u16 page 0 in
      if rid.slot < 0 || rid.slot >= nslots then None
      else
        let off, len = slot_entry page rid.slot in
        if off = dead_offset then None
        else Some (Page.get_bytes page ~pos:off ~len))

let with_page_spans t page_id f =
  Pager.with_page t.bp page_id (fun page ->
      let nslots = Page.get_u16 page 0 in
      f (Page.unsafe_bytes page) (fun slot ->
          if slot < 0 || slot >= nslots then None
          else
            let off, len = slot_entry page slot in
            if off = dead_offset then None else Some (off, len)))

let delete t rid =
  let deleted =
    Pager.with_page_mut t.bp rid.page (fun page ->
        let nslots = Page.get_u16 page 0 in
        if rid.slot < 0 || rid.slot >= nslots then false
        else
          let off, _ = slot_entry page rid.slot in
          if off = dead_offset then false
          else begin
            set_slot_entry page rid.slot ~off:dead_offset ~len:0;
            true
          end)
  in
  if deleted then t.live <- t.live - 1;
  deleted

let update t rid payload =
  let fits_in_place =
    Pager.with_page_mut t.bp rid.page (fun page ->
        let nslots = Page.get_u16 page 0 in
        if rid.slot < 0 || rid.slot >= nslots then raise Not_found;
        let off, len = slot_entry page rid.slot in
        if off = dead_offset then raise Not_found;
        let new_len = String.length payload in
        if new_len <= len then begin
          (* overwrite prefix of the old payload region *)
          Page.set_bytes page ~pos:off payload;
          set_slot_entry page rid.slot ~off ~len:new_len;
          true
        end
        else if free_space page >= new_len then begin
          let free_ptr = Page.get_u16 page 2 in
          let off' = free_ptr - new_len in
          Page.set_bytes page ~pos:off' payload;
          Page.set_u16 page 2 off';
          set_slot_entry page rid.slot ~off:off' ~len:new_len;
          true
        end
        else false)
  in
  if fits_in_place then rid
  else begin
    ignore (delete t rid);
    insert t payload
  end

let listed t =
  match t.pages with
  | Some pages -> Array.sub pages 0 t.npages
  | None -> invalid_arg "Heap_file: page list of a file reattached by its head"

let iter t f =
  Array.iter
    (fun page_id ->
      (* Snapshot live slots first so [f] may mutate the file. *)
      let records =
        Pager.with_page t.bp page_id (fun page ->
            let nslots = Page.get_u16 page 0 in
            let out = ref [] in
            for slot = nslots - 1 downto 0 do
              let off, len = slot_entry page slot in
              if off <> dead_offset then
                out := ({ page = page_id; slot }, Page.get_bytes page ~pos:off ~len) :: !out
            done;
            !out)
      in
      List.iter (fun (rid, payload) -> f rid payload) records)
    (listed t)

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun rid payload -> acc := f !acc rid payload);
  !acc

let record_count t = t.live
let page_count t = t.npages
let last_page t = t.last_page
let pages t = Array.to_list (listed t)

(* Reattach a heap file to pages it owned before a restart.  The live
   count is recounted from the slot directories rather than trusted from
   the caller's serialized copy. *)
let restore bp ~pages:ids =
  match ids with
  | [] -> invalid_arg "Heap_file.restore: empty page list"
  | _ ->
      let arr = Array.of_list ids in
      let n = Array.length arr in
      let t = { bp; pages = Some arr; npages = n; last_page = arr.(n - 1); live = 0 } in
      let live = ref 0 in
      Array.iter
        (fun id ->
          Pager.with_page bp id (fun page ->
              let nslots = Page.get_u16 page 0 in
              for s = 0 to nslots - 1 do
                let off, _ = slot_entry page s in
                if off <> dead_offset then incr live
              done))
        arr;
      t.live <- !live;
      t

(* Reattach a file from its head: nothing is read.  Inserts continue on
   [last_page]; the page list is not known, so {!iter} and {!pages} are
   unavailable. *)
let attach bp ~last_page ~page_count ~live =
  { bp; pages = None; npages = page_count; last_page; live }

let rid_equal a b = a.page = b.page && a.slot = b.slot
