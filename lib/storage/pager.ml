(* The pager: a bounded frame table with pin/unpin reference counts and
   steal/no-force eviction.

   This is the layer that turns the storage stack from "the whole page
   set lives in memory" into a demand-paged store: at most [capacity]
   pages are resident at once, a page access faults the page in from the
   source (file slot, WAL image, or the mem backend's simulated store)
   and later evicts some unpinned frame to make room.  Pages are accessed
   only under a pin ([with_page] / [with_page_mut]), which excludes the
   frame from eviction for the duration of the callback, so a caller can
   never observe its page being stolen mid-access.

   The pager itself knows nothing about WAL or backends: [Disk] supplies
   a [source] of closures.  [src_write_back ~evicting:true] is where Disk
   enforces WAL-before-data (flush the log record covering the frame's
   last update before the frame may be dropped); the pager's only
   obligation is to call it before forgetting a dirty frame.

   Eviction picks among *unpinned* frames only:
   - [Lru]: intrusive doubly-linked recency list, victim = least
     recently used unpinned frame (walk from the tail).
   - [Clock]: second-chance FIFO with lazy deletion of stale entries;
     pinned frames are requeued without losing their reference bit.
   If every frame is pinned, [Pool_exhausted] is raised — a typed error
   instead of an unbounded search. *)

module Stats = Bdbms_obs.Stats

module Crc32 = Bdbms_util.Crc32

type policy = Lru | Clock

exception Pool_exhausted of { capacity : int; pinned : int }

let () =
  Printexc.register_printer (function
    | Pool_exhausted { capacity; pinned } ->
        Some
          (Printf.sprintf
             "Pager.Pool_exhausted(capacity=%d, pinned=%d): all frames pinned"
             capacity pinned)
    | _ -> None)

(* How a pin-scoped access is counted in [Stats]: a normal access counts
   residency hits; [Disk.read]'s compatibility path counts every access
   as a read (its historical meaning); [Disk.write]'s counts nothing
   (the write-back does the counting). Physical page-ins always count. *)
type accounting = Count_hit | Count_read | Count_none

type source = {
  src_page_size : int;
  src_stats : Stats.t;
  src_page_count : unit -> int;
  src_load : Page.id -> Page.t -> unit;
      (* fills the supplied page (a recycled frame, arbitrary bytes) with
         the page's image *)
  src_write_back : Page.id -> Page.t -> evicting:bool -> unit;
  src_alloc : unit -> Page.id;
}

type frame = {
  f_id : Page.id;
  f_page : Page.t;
  mutable f_pins : int;
  mutable f_dirty : bool;
  mutable f_ref : bool; (* for Clock *)
  (* intrusive doubly-linked LRU list *)
  mutable f_prev : frame option;
  mutable f_next : frame option;
}

type t = {
  policy : policy;
  cap : int;
  src : source;
  frames : (Page.id, frame) Hashtbl.t;
  (* LRU list: head = most recently used, tail = eviction victim *)
  mutable head : frame option;
  mutable tail : frame option;
  (* Clock: FIFO queue with lazy revalidation *)
  clock_queue : Page.id Queue.t;
  mutable pinned_frames : int; (* frames with f_pins > 0 *)
  mutable dirty_frames : int;
      (* frames with f_dirty: a read-only commit asks [has_dirty] and
         [flush_dirty] without folding over the whole pool *)
  guard : bool; (* verify with_page callbacks did not mutate *)
  mutable on_first_dirty : (Page.id -> Page.t -> unit) option;
      (* observer of clean->dirty frame transitions; the snapshot layer
         captures committed pre-images here.  Receives the resident page
         (not a copy) and must not mutate or retain it. *)
  mutable p_cancel : Bdbms_util.Cancel.t option;
      (* cooperative cancellation checked at every pin: a cancelled scan
         stops before faulting in its next page *)
  mutable mutations : int; (* mutable pins taken, ever *)
  mutable free : Page.t list;
      (* pages of evicted frames, reused by the next fault or allocation:
         the pool's buffers number at most [cap] + 1 *)
}

let create ?(policy = Lru) ?(guard = false) ~capacity src =
  if capacity < 1 then invalid_arg "Pager.create: capacity must be >= 1";
  {
    policy;
    cap = capacity;
    src;
    frames = Hashtbl.create (min capacity 1024);
    head = None;
    tail = None;
    clock_queue = Queue.create ();
    pinned_frames = 0;
    dirty_frames = 0;
    guard;
    on_first_dirty = None;
    p_cancel = None;
    mutations = 0;
    free = [];
  }

let set_on_first_dirty t hook = t.on_first_dirty <- hook
let set_cancel t c = t.p_cancel <- c
let mutations t = t.mutations

let capacity t = t.cap
let page_size t = t.src.src_page_size
let stats t = t.src.src_stats
let resident t = Hashtbl.length t.frames
let pinned t = t.pinned_frames

(* ------------------------------------------------------------- LRU list *)

let is_frame opt frame = match opt with Some f -> f == frame | None -> false

let list_unlink t frame =
  (match frame.f_prev with
  | Some p -> p.f_next <- frame.f_next
  | None -> if is_frame t.head frame then t.head <- frame.f_next);
  (match frame.f_next with
  | Some n -> n.f_prev <- frame.f_prev
  | None -> if is_frame t.tail frame then t.tail <- frame.f_prev);
  frame.f_prev <- None;
  frame.f_next <- None

let list_push_front t frame =
  frame.f_next <- t.head;
  frame.f_prev <- None;
  (match t.head with Some h -> h.f_prev <- Some frame | None -> ());
  t.head <- Some frame;
  if t.tail = None then t.tail <- Some frame

let touch t frame =
  frame.f_ref <- true;
  if t.policy = Lru && not (is_frame t.head frame) then begin
    list_unlink t frame;
    list_push_front t frame
  end

(* ------------------------------------------------------------ free list *)

(* The guard's poison: a caller that kept a page past its pin reads this,
   not a plausible stale page. *)
let poison = '\xdb'

let take_page t =
  match t.free with
  | p :: rest ->
      t.free <- rest;
      p
  | [] -> Page.create ~size:t.src.src_page_size ()

let keep_page t page =
  if t.guard then Bytes.fill (Page.unsafe_bytes page) 0 (Page.size page) poison;
  t.free <- page :: t.free

(* [f ()], handing [page] back to the free list if it raises. *)
let keeping_on_error t page f =
  match f () with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      keep_page t page;
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------- eviction *)

(* Writes the frame back (if dirty) and forgets it.  The write-back runs
   first: if it raises (injected crash, real I/O error), the frame stays
   resident and the pager's structures are untouched. *)
let evict t frame =
  if frame.f_dirty then begin
    t.src.src_write_back frame.f_id frame.f_page ~evicting:true;
    frame.f_dirty <- false;
    t.dirty_frames <- t.dirty_frames - 1;
    Stats.record_writeback t.src.src_stats
  end;
  if t.policy = Lru then list_unlink t frame;
  Hashtbl.remove t.frames frame.f_id;
  keep_page t frame.f_page;
  Stats.record_eviction t.src.src_stats

let exhausted t = Pool_exhausted { capacity = t.cap; pinned = t.pinned_frames }

let evict_lru t =
  let rec find = function
    | None -> raise (exhausted t)
    | Some f -> if f.f_pins = 0 then f else find f.f_prev
  in
  evict t (find t.tail)

let evict_clock t =
  (* Second chance over a FIFO queue with lazy deletion of stale entries;
     pinned frames are requeued with their reference bit intact.  The
     budget bounds the sweep; if it runs dry (everything pinned or
     referenced twice around) fall back to any unpinned frame. *)
  let budget = ref (2 * (Queue.length t.clock_queue + 1)) in
  let victim = ref None in
  while !victim = None && !budget > 0 && not (Queue.is_empty t.clock_queue) do
    decr budget;
    let id = Queue.pop t.clock_queue in
    match Hashtbl.find_opt t.frames id with
    | None -> () (* stale: frame already evicted *)
    | Some f ->
        if f.f_pins > 0 then Queue.push id t.clock_queue
        else if f.f_ref then begin
          f.f_ref <- false;
          Queue.push id t.clock_queue
        end
        else victim := Some f
  done;
  match !victim with
  | Some f -> evict t f
  | None -> (
      match
        Hashtbl.fold
          (fun _ f acc -> if f.f_pins = 0 then Some f else acc)
          t.frames None
      with
      | Some f -> evict t f
      | None -> raise (exhausted t))

let make_room t =
  if Hashtbl.length t.frames >= t.cap then
    match t.policy with Lru -> evict_lru t | Clock -> evict_clock t

(* --------------------------------------------------------------- access *)

let install t page_id page =
  keeping_on_error t page (fun () -> make_room t);
  let frame =
    {
      f_id = page_id;
      f_page = page;
      f_pins = 0;
      f_dirty = false;
      f_ref = true;
      f_prev = None;
      f_next = None;
    }
  in
  Hashtbl.replace t.frames page_id frame;
  (match t.policy with
  | Lru -> list_push_front t frame
  | Clock -> Queue.push page_id t.clock_queue);
  frame

let fetch t ~accounting page_id =
  let count = t.src.src_page_count () in
  if page_id < 0 || page_id >= count then
    invalid_arg
      (Printf.sprintf "Pager: page %d not allocated (count=%d)" page_id count);
  match Hashtbl.find_opt t.frames page_id with
  | Some frame ->
      (match accounting with
      | Count_hit -> Stats.record_hit t.src.src_stats
      | Count_read -> Stats.record_read t.src.src_stats
      | Count_none -> ());
      touch t frame;
      frame
  | None ->
      (* Fault the page in.  Load before making room so a load failure
         (corruption, injected crash) does not evict anything; its page
         goes back to the free list. *)
      let page = take_page t in
      keeping_on_error t page (fun () -> t.src.src_load page_id page);
      Stats.record_read t.src.src_stats;
      Stats.record_page_in t.src.src_stats;
      install t page_id page

let pin t frame =
  frame.f_pins <- frame.f_pins + 1;
  if frame.f_pins = 1 then begin
    t.pinned_frames <- t.pinned_frames + 1;
    Stats.record_pinned t.src.src_stats t.pinned_frames
  end

let unpin t frame =
  frame.f_pins <- frame.f_pins - 1;
  if frame.f_pins = 0 then t.pinned_frames <- t.pinned_frames - 1

let with_pin t ~accounting ~dirty page_id f =
  (match t.p_cancel with
  | None -> ()
  | Some c -> Bdbms_util.Cancel.check c);
  let frame = fetch t ~accounting page_id in
  pin t frame;
  if dirty then begin
    t.mutations <- t.mutations + 1;
    if not frame.f_dirty then begin
      (* the frame still holds its last written-back (or loaded) image:
         announce it before the mutation callback can touch it *)
      (match t.on_first_dirty with
      | Some hook -> hook page_id frame.f_page
      | None -> ());
      frame.f_dirty <- true;
      t.dirty_frames <- t.dirty_frames + 1
    end
  end;
  Fun.protect
    ~finally:(fun () -> unpin t frame)
    (fun () ->
      if t.guard && not dirty then begin
        let crc_of p =
          Crc32.bytes (Page.unsafe_bytes p) ~pos:0 ~len:(Page.size p)
        in
        let before = crc_of frame.f_page in
        let r = f frame.f_page in
        if crc_of frame.f_page <> before then
          failwith
            (Printf.sprintf
               "Pager.with_page: page %d mutated under a read-only pin \
                (use with_page_mut)"
               page_id);
        r
      end
      else f frame.f_page)

let with_page ?(accounting = Count_hit) t page_id f =
  with_pin t ~accounting ~dirty:false page_id f

(* The frame is marked dirty before [f] runs: even if [f] raises
   mid-mutation, the half-written page is written back rather than
   silently dropped at eviction. *)
let with_page_mut ?(accounting = Count_hit) t page_id f =
  with_pin t ~accounting ~dirty:true page_id f

let alloc_page t =
  let id = t.src.src_alloc () in
  let page = take_page t in
  Page.zero page;
  let (_ : frame) = install t id page in
  id

(* ---------------------------------------------------------- write-backs *)

let flush_one t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | Some frame when frame.f_dirty ->
      t.src.src_write_back page_id frame.f_page ~evicting:false;
      frame.f_dirty <- false;
      t.dirty_frames <- t.dirty_frames - 1
  | _ -> ()

(* Write back every dirty frame (in page-id order, for deterministic log
   contents under the crash-anywhere fuzz) without evicting anything. *)
let flush_dirty t =
  if t.dirty_frames > 0 then begin
    let dirty =
      Hashtbl.fold (fun id f acc -> if f.f_dirty then id :: acc else acc) t.frames []
    in
    List.iter (flush_one t) (List.sort compare dirty)
  end

let has_dirty t = t.dirty_frames > 0

let peek t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | Some f -> Some f.f_page
  | None -> None
