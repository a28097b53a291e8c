module Disk = Bdbms_storage.Disk
module Meta_page = Bdbms_storage.Meta_page
module Stats = Bdbms_obs.Stats
module Pager = Bdbms_storage.Pager
module Clock = Bdbms_util.Clock
module Catalog = Bdbms_relation.Catalog
module Manager = Bdbms_annotation.Manager
module Prov_store = Bdbms_provenance.Prov_store
module Tracker = Bdbms_dependency.Tracker
module Procedure = Bdbms_dependency.Procedure
module Principal = Bdbms_auth.Principal
module Acl = Bdbms_auth.Acl
module Approval = Bdbms_auth.Approval
module Obs = Bdbms_obs.Obs
module Cancel = Bdbms_util.Cancel

(* The two SELECT engines.  [`Naive] materializes every intermediate
   (the semantic oracle), [`Batch] is the vectorized pipeline (annotated
   and ASQL-extended queries run it too, with envelopes attached to the
   result rows by row id). *)
type exec_mode = [ `Naive | `Batch ]

let exec_modes : (string * exec_mode) list =
  [ ("naive", `Naive); ("batch", `Batch) ]

let exec_mode_of_string s = List.assoc_opt (String.lowercase_ascii s) exec_modes
let exec_mode_name m = fst (List.find (fun (_, m') -> m' = m) exec_modes)

type index_def = {
  idx_name : string;
  idx_table : string;
  idx_column : string;
  mutable tree : Bdbms_index.Btree.t option;
}

type t = {
  disk : Disk.t;
  bp : Pager.t;
  clock : Clock.t;
  catalog : Catalog.t;
  ann : Manager.t;
  prov : Prov_store.t;
  tracker : Tracker.t;
  principals : Principal.t;
  acl : Acl.t;
  approval : Approval.t;
  mutable strict_acl : bool;
  mutable auto_provenance : bool;
  mutable exec_mode : exec_mode;
  mutable batch_rows : int;
  indexes : (string, index_def) Hashtbl.t;
  mutable indexes_version : int; (* bumped by [add_index]/[drop_index] *)
  tstats : Bdbms_stats.Registry.t;
      (* per-table optimizer statistics (ANALYZE results + DML deltas);
         persisted through the durable catalog as opaque blobs *)
  obs : Obs.t;
  cancel : Cancel.t;
      (* cooperative cancellation/deadline token shared with the pager
         and the backend retry loops (via [Disk.set_cancel]) *)
  mutable read_only : string option;
      (* [Some reason] while the engine is in degraded mode: write
         statements fail fast with a retryable error, reads keep
         serving *)
  mutable analyze : Analyze.t option;
  mutable session_label : string option;
      (* owning session (server mode), for trace-span attribution *)
  mutable sys_providers :
    (string * (unit -> Bdbms_relation.Tuple.t list)) list;
      (* extra row sources for sys.* virtual tables, keyed by view name.
         The server installs the live-session provider here; an entry
         shadows the view's built-in local fallback.  Copied across
         [Db.rollback]'s context recreation and into transaction
         snapshots. *)
  mutable persisted_epoch : int option;
      (* [catalog_epoch] when the page-0 root last equalled the metadata;
         [None] until this context's first persist *)
}

let superuser = "admin"

let norm = String.lowercase_ascii

let indexes_on t ~table =
  Hashtbl.fold
    (fun _ idx acc -> if norm idx.idx_table = norm table then idx :: acc else acc)
    t.indexes []

let create ?(page_size = 4096) ?pool_pages ?policy ?path ?disk ?fault ?obs ()
    =
  (* The observability handle outlives the context: [Db.rollback]
     recreates the context but passes the same handle back in, so traces
     and histograms accumulate across transactions. *)
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let disk =
    match (disk, path) with
    | Some disk, _ ->
        (* caller-supplied store — the server's per-snapshot overlay *)
        disk
    | None, None -> Disk.create ~page_size ?pool_pages ?policy ~obs ()
    | None, Some path ->
        Disk.open_file ~page_size ?fault ?pool_pages ?policy ~obs path
  in
  (* the catalog root must own page 0, so reserve it before any table or
     heap file can allocate (no-op when reopening an existing file) *)
  if Disk.is_durable disk then Meta_page.ensure_root disk;
  let cancel = Cancel.create () in
  Disk.set_cancel disk (Some cancel);
  let bp = Disk.pager disk in
  let clock = Clock.create () in
  let catalog = Catalog.create bp in
  let ann = Manager.create bp clock in
  let prov = Prov_store.create ann in
  let tracker = Tracker.create catalog in
  let principals = Principal.create () in
  ignore (Principal.add_user principals superuser);
  let acl = Acl.create principals in
  let approval = Approval.create principals clock in
  {
    disk;
    bp;
    clock;
    catalog;
    ann;
    prov;
    tracker;
    principals;
    acl;
    approval;
    strict_acl = false;
    auto_provenance = false;
    exec_mode = `Batch;
    batch_rows = 1024;
    indexes = Hashtbl.create 8;
    indexes_version = 0;
    tstats = Bdbms_stats.Registry.create ();
    obs;
    cancel;
    read_only = None;
    analyze = None;
    session_label = None;
    sys_providers = [];
    persisted_epoch = None;
  }

let durable t = Disk.is_durable t.disk

let add_index t idx =
  Hashtbl.replace t.indexes (norm idx.idx_name) idx;
  t.indexes_version <- t.indexes_version + 1

let drop_index t name =
  Hashtbl.mem t.indexes (norm name)
  && begin
       Hashtbl.remove t.indexes (norm name);
       t.indexes_version <- t.indexes_version + 1;
       true
     end

(* Run [f] under a statement deadline (no-op when [timeout_ms] is
   [None]); any cancellation state is restored afterwards. *)
let with_deadline t ?timeout_ms f = Cancel.with_deadline t.cancel ?timeout_ms f

let components t =
  {
    Durable_catalog.dc_clock = t.clock;
    dc_catalog = t.catalog;
    dc_ann = t.ann;
    dc_prov = t.prov;
    dc_tracker = t.tracker;
    dc_principals = t.principals;
    dc_acl = t.acl;
    dc_approval = t.approval;
  }

let index_infos t =
  Hashtbl.fold
    (fun _ idx acc ->
      {
        Durable_catalog.ix_name = idx.idx_name;
        ix_table = idx.idx_table;
        ix_column = idx.idx_column;
      }
      :: acc)
    t.indexes []

let encode_catalog t =
  Stats.record_catalog_encode (Disk.stats t.disk);
  Durable_catalog.encode (components t) ~indexes:(index_infos t)
    ~stats:(Bdbms_stats.Registry.encode_all t.tstats)

(* Every input of [encode_catalog] changes only through a mutator that
   moves one of these counters, and each counter only grows, so the sum
   is unchanged exactly when none of them moved.  The paged heads (table
   heads, annotation heap pages and registry, dependency-instance and
   outdated heads) change only together with a page write, which the
   pager's mutation count covers; the clock's time is its own counter. *)
let catalog_epoch t =
  Pager.mutations t.bp + Clock.now t.clock + Catalog.version t.catalog
  + Manager.version t.ann + Prov_store.version t.prov
  + Principal.version t.principals + Acl.version t.acl
  + Bdbms_dependency.Rule_set.version (Tracker.rule_set t.tracker)
  + Approval.version t.approval + Bdbms_stats.Registry.version t.tstats
  + t.indexes_version

(* Serialize the whole engine metadata into the page-0 catalog.  The
   chain pages go through pin-scoped mutation, so the catalog is
   redo-logged at write-back and becomes durable exactly with the commit
   that follows; an unchanged catalog is compared in place and writes
   nothing.  When the epoch has not moved since the root last took this
   context's metadata, nothing can differ, so nothing is encoded.  The
   epoch is taken again after the write: the chain pages it dirtied are
   the catalog's own. *)
let persist_catalog t =
  if durable t then
    Obs.timed t.obs t.obs.Obs.root_swap_hist "catalog.root_swap" (fun () ->
        if t.persisted_epoch <> Some (catalog_epoch t) then begin
          Meta_page.write_root t.disk (encode_catalog t);
          t.persisted_epoch <- Some (catalog_epoch t)
        end)

let bootstrap t =
  Obs.span t.obs "catalog.bootstrap" @@ fun () ->
  (* A snapshot overlay is not durable but carries the committed catalog
     root at page 0 through its base — bootstrap from it all the same. *)
  match
    if durable t || Disk.is_overlay t.disk then Meta_page.read_root t.disk
    else None
  with
  | None -> 0
  | Some blob ->
      let infos, stats_blobs, count =
        Durable_catalog.restore t.bp (components t) blob
      in
      Bdbms_stats.Registry.restore t.tstats stats_blobs;
      List.iter
        (fun (ix : Durable_catalog.index_info) ->
          add_index t
            {
              idx_name = ix.ix_name;
              idx_table = ix.ix_table;
              idx_column = ix.ix_column;
              tree = None;
            })
        infos;
      Stats.record_catalog_replayed (Disk.stats t.disk) count;
      count

(* Durability control: [Disk.commit]/[Disk.checkpoint] write back every
   dirty frame (appending the redo records) before the log operation. *)
let commit t =
  persist_catalog t;
  Disk.commit t.disk

let checkpoint t =
  persist_catalog t;
  Disk.checkpoint t.disk

let close t =
  if not (Disk.crashed t.disk) then persist_catalog t;
  Disk.close t.disk

let register_procedure t proc =
  Procedure.Registry.register (Tracker.registry t.tracker) proc
