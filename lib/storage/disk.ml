(* The disk: a demand-paged store with an optional durability layer.

   Residency is delegated to a [Pager]: at most [pool_pages] frames are
   in memory at once, and all page traffic goes through pin-scoped
   accesses ([with_page] / [with_page_mut]) or the historical copying
   [read]/[write] API layered on top of them.

   - [create] gives the simulated disk (in-memory backend, no log).  Its
     "stable store" is a growable page array beneath the pager; by
     default the pool is unbounded (degenerate everything-resident mode),
     but a bounded pool faults pages in and out of the array exactly like
     the durable mode does with the file, which is what the eviction
     tests and the LRU/Clock ablation measure.
   - [open_file] gives a durable disk.  The WAL discipline is redo-only
     full-page images with steal/no-force buffer management:

       * [alloc] appends an Alloc record immediately.
       * a dirty frame's image is appended as a Page_write record when it
         is written back — at [commit]/[checkpoint] (all dirty frames),
         on the historical [write] (immediately, preserving its
         log-before-return contract), or when the pager evicts it.
       * WAL-before-data: an evicted dirty frame's record is group-
         flushed before the frame is forgotten.  If the page has a
         *committed* Page_write in the current log it is also stolen to
         its file slot (replay fully rewrites the slot, so uncommitted
         or torn slot contents are harmless); otherwise its latest image
         lives only in the log and page-ins read it back from there
         ([In_wal] below) until the next checkpoint.
       * [checkpoint] commits, stores every since-checkpoint dirty page
         to its slot (root page 0 strictly last), fsyncs, and resets the
         log.

     On open, recovery streams: every stored slot's CRC trailer is
     verified (one page resident at a time), then the committed log
     prefix is replayed directly onto the slots — a bad slot is real
     corruption only if no replayed record fully rewrites it.  The log
     is untouched until the replayed state is synced, so a crash during
     recovery just replays again. *)

module Obs = Bdbms_obs.Obs
module Stats = Bdbms_obs.Stats

type location =
  | In_slot (* latest image stolen to (or already in) its file slot *)
  | In_wal of int (* latest image is the Page_write record at this offset *)

type durable = {
  backend : Backend.t;
  wal : Wal.t;
  dirty : (int, unit) Hashtbl.t; (* pages written since the last checkpoint *)
  loc : (int, location) Hashtbl.t; (* where a dirty page's latest image is *)
  logged : (int, unit) Hashtbl.t; (* pages with an uncommitted Page_write *)
  stealable : (int, unit) Hashtbl.t; (* pages with a committed Page_write *)
  autockpt_bytes : int; (* checkpoint when the log outgrows this *)
  mutable uncommitted : int; (* records appended since the last commit *)
  mutable released : bool;
      (* descriptors closed: a second close could hit a number the
         process has since reused for another file or socket *)
}

type overlay_base = {
  ob_count : int; (* pages the base held when the overlay was created *)
  ob_read : Page.id -> Page.t; (* committed-version read from the base *)
}

type core = {
  page_size : int;
  stats : Stats.t; (* the [obs] handle's group when given, else private *)
  fault : Fault.t;
  obs : Obs.t option;
  mutable mem : Page.t array; (* mem mode: the simulated stable store *)
  mutable count : int;
  base : overlay_base option; (* overlay mode: copy-on-write over a base *)
  local : (int, unit) Hashtbl.t; (* overlay mode: ids written locally *)
  durable : durable option;
  recovery : Recovery.outcome option; (* from [open_file], durable only *)
}

type t = { core : core; pager : Pager.t }

let page_size t = t.core.page_size
let stats t = t.core.stats
let page_count t = t.core.count
let fault t = t.core.fault
let is_durable t = t.core.durable <> None
let crashed t = Fault.crashed t.core.fault
let recovery_info t = t.core.recovery
let used_bytes t = t.core.count * t.core.page_size
let pager t = t.pager
let resident t = Pager.resident t.pager
let pool_pages t = Pager.capacity t.pager

let path t =
  match t.core.durable with None -> None | Some d -> Backend.path d.backend

let wal_size t =
  match t.core.durable with None -> 0 | Some d -> Wal.size d.wal

let has_uncommitted t =
  match t.core.durable with
  | None -> false
  | Some d -> d.uncommitted > 0 || Pager.has_dirty t.pager

(* ------------------------------------------------------- pager source *)

let env_guard () =
  match Sys.getenv_opt "BDBMS_PAGER_GUARD" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let mem_ensure c n =
  if n > Array.length c.mem then begin
    let cap = max n (2 * max 1 (Array.length c.mem)) in
    let arr = Array.make cap (Page.create ~size:c.page_size ()) in
    (* an overlay starts with count = base pages but an empty array, so
       only blit what the array actually holds *)
    Array.blit c.mem 0 arr 0 (min c.count (Array.length c.mem));
    c.mem <- arr
  end

let load_slot c d id =
  let page, verdict = Backend.load d.backend id in
  (match verdict with
  | Backend.Crc_ok -> Stats.record_page_crc_verified c.stats
  | Backend.Crc_zero -> () (* allocated but never stored: legitimately zero *)
  | Backend.Crc_bad ->
      Stats.record_page_crc_verified c.stats;
      Stats.record_crc_failure c.stats;
      raise
        (Backend.Corrupt
           { page = id; detail = "stored page failed CRC verification" }));
  page

let src_load c id =
  match c.durable with
  | None -> (
      match c.base with
      | Some b when id < b.ob_count && not (Hashtbl.mem c.local id) ->
          b.ob_read id
      | _ -> Page.copy c.mem.(id))
  | Some d -> (
      match Hashtbl.find_opt d.loc id with
      | Some (In_wal off) ->
          (* Defensive: an [In_wal] image is flushed before its frame is
             dropped, but the historical [write] path records offsets
             that may still sit in the append buffer. *)
          if off >= Wal.flushed_bytes d.wal then Wal.flush d.wal;
          Wal.read_page_image d.wal ~off ~page_id:id ~page_size:c.page_size
      | Some In_slot | None -> load_slot c d id)

let push_record c d id page ~evicting =
  if evicting then Fault.hit c.fault Fault.Evict_writeback;
  let data = Page.get_bytes page ~pos:0 ~len:c.page_size in
  let off = Wal.append_located d.wal (Wal.Page_write { page_id = id; data }) in
  d.uncommitted <- d.uncommitted + 1;
  Hashtbl.replace d.dirty id ();
  Hashtbl.replace d.logged id ();
  Hashtbl.replace d.loc id (In_wal off);
  Stats.record_write c.stats;
  if evicting then begin
    (* WAL-before-data: the record covering this image must be durable
       before the frame is forgotten. *)
    if off >= Wal.flushed_bytes d.wal then begin
      Stats.record_wal_forced_flush c.stats;
      Wal.flush d.wal
    end;
    (* Steal to the file slot only when a *committed* Page_write in the
       current log fully rewrites this page at replay — then uncommitted
       or torn slot contents can never survive a crash.  Otherwise the
       image stays reachable in the log via [In_wal]. *)
    if Hashtbl.mem d.stealable id then begin
      Fault.hit c.fault Fault.Evict_store;
      Backend.store d.backend id page;
      Hashtbl.replace d.loc id In_slot
    end
  end

let src_write_back c id page ~evicting =
  let work () =
    match c.durable with
    | None ->
        mem_ensure c (id + 1);
        c.mem.(id) <- Page.copy page;
        if c.base <> None then Hashtbl.replace c.local id ();
        Stats.record_write c.stats
    | Some d -> push_record c d id page ~evicting
  in
  if evicting then
    match c.obs with
    | Some o -> Obs.timed o o.Obs.evict_writeback_hist "pager.evict_writeback" work
    | None -> work ()
  else work ()

let src_alloc c () =
  Fault.check c.fault;
  let id = c.count in
  (match c.durable with
  | None ->
      mem_ensure c (id + 1);
      c.mem.(id) <- Page.create ~size:c.page_size ()
  | Some d ->
      Wal.append d.wal (Wal.Alloc { page_id = id });
      Hashtbl.replace d.dirty id ();
      d.uncommitted <- d.uncommitted + 1);
  c.count <- c.count + 1;
  Stats.record_alloc c.stats;
  Stats.record_write c.stats;
  id

let make_pager core ~policy ~guard ~capacity =
  let src =
    {
      Pager.src_page_size = core.page_size;
      src_stats = core.stats;
      src_page_count = (fun () -> core.count);
      src_load = (fun id -> src_load core id);
      src_write_back =
        (fun id page ~evicting -> src_write_back core id page ~evicting);
      src_alloc = (fun () -> src_alloc core ());
    }
  in
  let guard = match guard with Some g -> g | None -> env_guard () in
  Pager.create ~policy ~guard ~capacity src

(* ------------------------------------------------------------ creation *)

(* Count into the handle's group, so a rollback's re-bootstrap keeps
   counting where the old context stopped. *)
let scope = function Some o -> o.Obs.stats | None -> Stats.create ()

let make_mem ?(page_size = Page.default_size) ?pool_pages
    ?(policy = Pager.Lru) ?guard ?obs ?base () =
  let core =
    {
      page_size;
      stats = scope obs;
      fault = Fault.create ();
      obs;
      mem = Array.make 64 (Page.create ~size:page_size ());
      count = (match base with Some b -> b.ob_count | None -> 0);
      base;
      local = Hashtbl.create 16;
      durable = None;
      recovery = None;
    }
  in
  (* Unbounded by default: the degenerate everything-resident mode. *)
  let capacity = match pool_pages with Some n -> n | None -> max_int in
  { core; pager = make_pager core ~policy ~guard ~capacity }

let create ?page_size ?pool_pages ?policy ?guard ?obs () =
  make_mem ?page_size ?pool_pages ?policy ?guard ?obs ()

(* A copy-on-write overlay: reads below [base_count] that were not locally
   overwritten come from [base_read] (the snapshot layer's committed-
   version lookup); writes and fresh allocations live only in this
   overlay's private store and die with it.  Ephemeral by construction —
   [commit]/[checkpoint] are no-ops, nothing reaches the base. *)
let overlay ~page_size ?pool_pages ?policy ?guard ?obs ~base_count ~base_read
    () =
  make_mem ~page_size ?pool_pages ?policy ?guard ?obs
    ~base:{ ob_count = base_count; ob_read = base_read }
    ()

let is_overlay t = t.core.base <> None

let set_on_first_dirty t hook = Pager.set_on_first_dirty t.pager hook

(* One token serves both cancellation sites: the pager checks it at each
   pin, the backend's retry loops poll it between backoff sleeps. *)
let set_cancel t c =
  Pager.set_cancel t.pager c;
  Fault.set_cancel t.core.fault c

(* Single-attempt I/O health check; true for mem/overlay disks (nothing
   to probe) and for a file whose fsync currently succeeds. *)
let probe_io t =
  match t.core.durable with
  | None -> true
  | Some d -> Backend.probe d.backend

let default_pool_pages = 256

let open_file ?(page_size = Page.default_size) ?fault
    ?(wal_autocheckpoint = 4 * 1024 * 1024) ?wal_group_bytes
    ?(pool_pages = default_pool_pages) ?(policy = Pager.Lru) ?guard ?obs path =
  (* The whole open — CRC sweep, replay, sync — is the recovery
     bootstrap; it feeds the recovery histogram (and a span when a
     pre-enabled tracer is passed in). *)
  let run () =
  let fault = match fault with Some f -> f | None -> Fault.create () in
  let stats = scope obs in
  let backend, stored = Backend.file ~fault ?obs ~page_size ~path () in
  (* Verify every stored slot's CRC trailer, one page resident at a time.
     A bad page is not an error yet: a crash during a checkpoint store or
     an eviction steal legitimately tears pages whose redo records are in
     the log, so judgement is deferred until after replay — only a bad
     page NOT fully rewritten by a replayed record is real corruption. *)
  let bad = Hashtbl.create 4 in
  (try
     for i = 0 to stored - 1 do
       let _page, verdict = Backend.load backend i in
       match verdict with
       | Backend.Crc_ok -> Stats.record_page_crc_verified stats
       | Backend.Crc_zero -> ()
       | Backend.Crc_bad ->
           Stats.record_page_crc_verified stats;
           Stats.record_crc_failure stats;
           Hashtbl.replace bad i ()
     done
   with e ->
     Backend.close backend;
     raise e);
  let count = ref stored in
  let apply = function
    | Wal.Page_write { page_id; data } ->
        if page_id + 1 > !count then count := page_id + 1;
        let p = Page.create ~size:page_size () in
        Page.set_bytes p ~pos:0 data;
        Backend.store backend page_id p;
        Hashtbl.remove bad page_id
    | Wal.Alloc { page_id } ->
        if page_id + 1 > !count then count := page_id + 1
    | Wal.Commit -> ()
  in
  let wal_path = path ^ ".wal" in
  match
    let outcome = Recovery.replay ~wal_path ~max_record:(page_size + 64) ~apply in
    Stats.record_recovered stats outcome.Recovery.applied;
    if Hashtbl.length bad > 0 then begin
      let page = Hashtbl.fold (fun k () acc -> min k acc) bad max_int in
      raise
        (Backend.Corrupt
           { page; detail = "stored page failed CRC verification" })
    end;
    (* Make the replayed state durable before the log is reset.  The log
       is untouched until the sync lands, so a crash anywhere in here
       just replays again on the next open. *)
    Backend.set_count backend !count;
    Backend.sync backend;
    (Wal.open_reset ~fault ~stats ?obs ?group_bytes:wal_group_bytes wal_path, outcome)
  with
  | wal, outcome ->
      let core =
        {
          page_size;
          stats;
          fault;
          obs;
          mem = [||];
          count = !count;
          base = None;
          local = Hashtbl.create 1;
          durable =
            Some
              {
                backend;
                wal;
                dirty = Hashtbl.create 64;
                loc = Hashtbl.create 64;
                logged = Hashtbl.create 64;
                stealable = Hashtbl.create 64;
                autockpt_bytes = wal_autocheckpoint;
                uncommitted = 0;
                released = false;
              };
          recovery = Some outcome;
        }
      in
      { core; pager = make_pager core ~policy ~guard ~capacity:pool_pages }
  | exception e ->
      Backend.close backend;
      raise e
  in
  match obs with
  | Some o -> Obs.timed o o.Obs.recovery_hist "recovery.bootstrap" run
  | None -> run ()

(* ------------------------------------------------------------- page ops *)

let alloc t =
  Fault.check t.core.fault;
  Pager.alloc_page t.pager

let with_page t id f = Pager.with_page t.pager id f
let with_page_mut t id f = Pager.with_page_mut t.pager id f

let read t id = Pager.with_page ~accounting:Pager.Count_read t.pager id Page.copy

let write t id page =
  if Page.size page <> t.core.page_size then
    invalid_arg "Disk.write: page size mismatch";
  Fault.check t.core.fault;
  Pager.with_page_mut ~accounting:Pager.Count_none t.pager id (fun dst ->
      Page.blit ~src:page ~src_pos:0 ~dst ~dst_pos:0 ~len:(Page.size page));
  (* Immediate push-down preserves the historical contract: the redo
     record is appended before control returns to the caller. *)
  Pager.flush_one t.pager id

(* ----------------------------------------------------------- durability *)

let checkpoint t =
  match t.core.durable with
  | None -> ()
  | Some d ->
      let work () =
      Fault.check t.core.fault;
      Pager.flush_dirty t.pager;
      if d.uncommitted > 0 then begin
        Wal.commit d.wal;
        d.uncommitted <- 0
      end;
      (* Store phase: harvest each since-checkpoint dirty page's latest
         image — the resident frame if there is one, else the page's WAL
         record, else it was already stolen to (or never left) its slot.
         The catalog root (page 0) is stored strictly last: all other
         pages are stored and synced before the root lands, so even
         without the log a crash mid-checkpoint can never leave a root
         slot pointing at unstored catalog pages. *)
      Backend.set_count d.backend t.core.count;
      let ids =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) d.dirty [])
      in
      let store id =
        match Pager.peek t.pager id with
        | Some page -> Backend.store d.backend id page
        | None -> (
            match Hashtbl.find_opt d.loc id with
            | Some (In_wal off) ->
                Backend.store d.backend id
                  (Wal.read_page_image d.wal ~off ~page_id:id
                     ~page_size:t.core.page_size)
            | Some In_slot | None -> ())
      in
      let root_dirty = List.mem 0 ids in
      List.iter (fun id -> if id <> 0 then store id) ids;
      Backend.sync d.backend;
      if root_dirty then begin
        store 0;
        Backend.sync d.backend
      end;
      Wal.reset d.wal;
      Hashtbl.reset d.dirty;
      Hashtbl.reset d.loc;
      Hashtbl.reset d.logged;
      Hashtbl.reset d.stealable;
      Stats.record_checkpoint t.core.stats
      in
      (match t.core.obs with
      | Some o -> Obs.timed o o.Obs.checkpoint_hist "disk.checkpoint" work
      | None -> work ())

let commit t =
  match t.core.durable with
  | None -> ()
  | Some d ->
      Fault.check t.core.fault;
      Pager.flush_dirty t.pager;
      if d.uncommitted > 0 then begin
        Wal.commit d.wal;
        d.uncommitted <- 0;
        (* Every page whose Page_write is now sealed by the commit marker
           is replay-covered: its slot may be stolen. *)
        Hashtbl.iter (fun id () -> Hashtbl.replace d.stealable id ()) d.logged;
        Hashtbl.reset d.logged;
        if Wal.size d.wal > d.autockpt_bytes then checkpoint t
      end

let release d =
  if not d.released then begin
    d.released <- true;
    Backend.close d.backend;
    Wal.close d.wal
  end

let close t =
  match t.core.durable with
  | None -> ()
  | Some d ->
      if not (d.released || Fault.crashed t.core.fault) then checkpoint t;
      release d

(* Closes the file descriptors without flushing anything — simulates a
   process death for tests and benchmarks.  Idempotent: a rollback whose
   re-open failed abandons the same disk again on retry. *)
let abandon t =
  match t.core.durable with None -> () | Some d -> release d
