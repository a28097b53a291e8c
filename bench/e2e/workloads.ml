(* The four E20 workloads.  Each is a closed loop of two clients run as
   [admin]; keys and constants come from the seed, and every reply is
   checked against an answer the bench computes itself from the
   generated rows.  See README.md for why each one exists. *)

module Prng = Bdbms_util.Prng
module Translate = Bdbms_bio.Translate

type client = {
  warmup : int;  (** ops before the window (set-up time counts them) *)
  warm : Conn.t -> unit;  (** one warm-up op *)
  step : Conn.t -> bool;  (** one window op; [false] once the work is done *)
}

type instance = {
  load : string;  (** the set-up script, run by one [Db.exec_script] *)
  loaded_bytes : int;  (** user literal bytes the set-up loads *)
  client : int -> client;
  post : Conn.t -> unit;
      (** oracles after the window (after the crash and restart when the
          workload has one) *)
}

type spec = {
  name : string;
  pool : int;  (** server buffer pool, pages *)
  work_per_s : float option;
      (** fixed work, in transactions or INSERTs per client per second of
          [--seconds]; [None]: a timed window instead *)
  read_tail : float option;  (** tail percentile of reads, when it has them *)
  write_tail : float option;
  primary : Conn.kind;  (** the op kind [p50_ms] and [tail_ms] report *)
  crash : bool;  (** kill -9 and restart after the window *)
  prepare : seed:int -> toy:bool -> work:int -> instance;
      (** [work]: the fixed work (transactions or INSERTs per client) *)
}

let client_rng seed c = Prng.create ((seed * 1_000_003) + (7919 * (c + 1)))
let ( let* ) = Result.bind

(* --------------------------------------------------------- set-up SQL *)

(* Genes (and optionally their proteins) loaded in 250-row INSERTs, the
   [gene_gid] B+-tree, 7% of genes annotated in [notes], then ANALYZE.
   The seed picks which genes are annotated, not how many nor with
   which comments: the catalog, rewritten at every commit, then has the
   same size for every seed. *)
let load_script ?(proteins = [||]) ?(extra = []) rng genes =
  let gene_rows = Gen.inserts "gene" Gen.gene_values genes in
  let prot_rows =
    if proteins = [||] then []
    else Gen.protein_ddl :: Gen.inserts "protein" Gen.protein_values proteins
  in
  let annotations =
    let order = Array.copy genes in
    Prng.shuffle rng order;
    List.init (Array.length genes * 7 / 100) (fun i -> Gen.annotate_sql i order.(i))
  in
  let bytes =
    Array.fold_left (fun a g -> a + Gen.literal_bytes (Gen.gene_values g)) 0 genes
    + Array.fold_left (fun a p -> a + Gen.literal_bytes (Gen.protein_values p)) 0 proteins
  in
  let stmts =
    (Gen.gene_ddl :: gene_rows)
    @ [ "CREATE INDEX gene_gid ON gene (gid)" ]
    @ prot_rows @ extra
    @ ("CREATE ANNOTATION TABLE notes ON gene" :: annotations)
    @ [ "ANALYZE" ]
  in
  (String.concat ";\n" stmts, bytes)

let split_line line = String.split_on_char '|' line |> List.map String.trim

(* ------------------------------------------------------------- lookup *)

let lookup_row (g : Gen.gene) = Printf.sprintf "%s | %s | %d | %d" g.gid g.gname g.gc g.len

let lookup =
  let prepare ~seed ~toy ~work:_ =
    let n = if toy then 200 else 5000 in
    let rng = Prng.create seed in
    let genes = Gen.genes rng n in
    let load, loaded_bytes = load_script rng genes in
    let z = Gen.zipf n in
    let client c =
      let rng = client_rng seed c in
      let op conn =
        let g = genes.(Gen.zipf_key z rng) in
        Conn.op conn Conn.Read (fun () ->
            let sql =
              Printf.sprintf "SELECT gid, gname, gc, len FROM gene WHERE gid = '%s'" g.gid
            in
            match Conn.expect_rows conn sql with
            | Ok (_, [ r ]) when r.Conn.line = lookup_row g -> true
            | Ok _ -> Conn.fail conn ("wrong row for " ^ g.gid)
            | Error e -> Conn.fail conn e)
      in
      { warmup = (if toy then 20 else 200); warm = op; step = (fun conn -> op conn; true) }
    in
    { load; loaded_bytes; client; post = ignore }
  in
  { name = "lookup"; pool = 4096; work_per_s = None; read_tail = Some 0.99; write_tail = None;
    primary = Conn.Read; crash = false; prepare }

(* --------------------------------------------------------------- scan *)

let scan =
  let prepare ~seed ~toy ~work:_ =
    let n = if toy then 400 else 10000 in
    let rng = Prng.create seed in
    let genes = Gen.genes rng n in
    let proteins = Gen.proteins rng genes in
    let load, loaded_bytes = load_script ~proteins rng genes in
    (* oracle indexes: genes by (len desc, gid), and per family the GC of
       each protein's gene *)
    let by_len = Array.copy genes in
    Array.sort
      (fun (a : Gen.gene) (b : Gen.gene) ->
        match compare b.len a.len with 0 -> compare a.gid b.gid | c -> c)
      by_len;
    let fam_gc = Array.make 50 [] in
    Array.iteri
      (fun i (p : Gen.protein) -> fam_gc.(p.fam) <- genes.(i).gc :: fam_gc.(p.fam))
      proteins;
    let group_lines gcs =
      let counts = Hashtbl.create 64 in
      List.iter
        (fun gc ->
          Hashtbl.replace counts gc (1 + Option.value ~default:0 (Hashtbl.find_opt counts gc)))
        gcs;
      Hashtbl.fold (fun gc k acc -> Printf.sprintf "%d | %d" gc k :: acc) counts []
      |> List.sort compare
    in
    let check_rows conn sql ~header ~ordered expected =
      match Conn.expect_rows conn sql with
      | Ok (h, rows) ->
          let got = List.map (fun r -> r.Conn.line) rows in
          let got = if ordered then got else List.sort compare got in
          h = header && got = expected || Conn.fail conn ("wrong answer :: " ^ sql)
      | Error e -> Conn.fail conn e
    in
    (* three templates in rotation: scan-filter-aggregate, hash join +
       GROUP BY, top-10 *)
    let template k rng conn =
      match k mod 3 with
      | 0 ->
          let l = Prng.int_in rng ~lo:60 ~hi:180 in
          check_rows conn ~header:"gc | n" ~ordered:false
            (Printf.sprintf "SELECT gc, COUNT(*) AS n FROM gene WHERE len >= %d GROUP BY gc" l)
            (group_lines
               (Array.fold_left
                  (fun acc (g : Gen.gene) -> if g.len >= l then g.gc :: acc else acc)
                  [] genes))
      | 1 ->
          let f = Prng.int rng 50 in
          check_rows conn ~header:"g_gc | n" ~ordered:false
            (Printf.sprintf
               "SELECT g.gc, COUNT(*) AS n FROM gene g, protein p WHERE g.gid = p.gid AND \
                p.fam = %d GROUP BY g.gc"
               f)
            (group_lines fam_gc.(f))
      | _ ->
          let x = Prng.int_in rng ~lo:35 ~hi:60 in
          let top = ref [] and k = ref 0 in
          Array.iter
            (fun (g : Gen.gene) ->
              if !k < 10 && g.gc >= x then begin
                top := Printf.sprintf "%s | %d" g.gid g.len :: !top;
                incr k
              end)
            by_len;
          check_rows conn ~header:"gid | len" ~ordered:true
            (Printf.sprintf
               "SELECT gid, len FROM gene WHERE gc >= %d ORDER BY len DESC, gid LIMIT 10" x)
            (List.rev !top)
    in
    let client c =
      let rng = client_rng seed c in
      let k = ref c in
      let op conn =
        let t = !k in
        incr k;
        Conn.op conn Conn.Read (fun () -> template t rng conn)
      in
      { warmup = (if toy then 3 else 6); warm = op; step = (fun conn -> op conn; true) }
    in
    { load; loaded_bytes; client; post = ignore }
  in
  { name = "scan"; pool = 128; work_per_s = None; read_tail = Some 0.95; write_tail = None;
    primary = Conn.Read; crash = false; prepare }

(* ----------------------------------------------------------- curation *)

(* What client A has sent for each curated gene, newest first, and what
   committed.  A records a version before sending it, and client B reads
   the record after its reply arrives, so a read may show any version A
   has sent (a read racing a commit sees either side of it); the
   post-run oracle demands the last committed one. *)
type history = {
  mu : Mutex.t;
  sent : (int, string list) Hashtbl.t;  (** gene -> sequences sent *)
  notes : (int, string list) Hashtbl.t;  (** gene -> notes sent *)
  committed : (int, string) Hashtbl.t;  (** gene -> last committed sequence *)
  committed_notes : (int, string list) Hashtbl.t;
}

let curation =
  let prepare ~seed ~toy ~work =
    let n = if toy then 100 else 2000 in
    let rng = Prng.create seed in
    let genes = Gen.genes rng n in
    let proteins = Gen.proteins rng genes in
    let links =
      List.concat_map
        (fun i ->
          [ Printf.sprintf "LINK DEPENDENCY r1 FROM (%d) TO %d" i i;
            Printf.sprintf "LINK DEPENDENCY r2 FROM (%d) TO %d" i i ])
        (List.init n Fun.id)
    in
    let load, loaded_bytes =
      load_script ~proteins
        ~extra:
          ("CREATE DEPENDENCY r1 FROM gene.gsequence TO protein.psequence USING P"
          :: "CREATE DEPENDENCY r2 FROM protein.psequence TO protein.mw USING MolWeight"
          :: links)
        rng genes
    in
    let h =
      {
        mu = Mutex.create ();
        sent = Hashtbl.create 64;
        notes = Hashtbl.create 64;
        committed = Hashtbl.create 64;
        committed_notes = Hashtbl.create 64;
      }
    in
    let locked f = Mutex.protect h.mu f in
    let find tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
    let sent tbl k = locked (fun () -> find tbl k) in
    let push tbl k v = locked (fun () -> Hashtbl.replace tbl k (v :: find tbl k)) in
    let versions k () = genes.(k).seq :: sent h.sent k in
    let a_done = Atomic.make false in
    let z = Gen.zipf n in
    let mw_text p = Printf.sprintf "%g" (Translate.molecular_weight p) in
    (* the protein row must be derived from a version of its gene, and its
       weight from that protein; [vs ()] is read after the reply *)
    let protein_ok k vs conn =
      let g = genes.(k) in
      match
        Conn.expect_rows conn
          (Printf.sprintf "SELECT pid, psequence, mw FROM protein WHERE gid = '%s'" g.gid)
      with
      | Ok (_, [ r ]) -> (
          match split_line r.Conn.line with
          | [ pid; pseq; mw ] ->
              pid = proteins.(k).pid
              && List.exists (fun v -> Gen.translate_exn v = pseq) (vs ())
              && mw = mw_text pseq
              || Conn.fail conn ("underived protein for " ^ g.gid)
          | _ -> Conn.fail conn "bad protein row")
      | Ok _ -> Conn.fail conn ("expected one protein for " ^ g.gid)
      | Error e -> Conn.fail conn e
    in
    let gene_ok k vs ~notes ~all_notes conn =
      let g = genes.(k) in
      match
        Conn.expect_rows conn
          (Printf.sprintf "SELECT gid, gsequence FROM gene ANNOTATION(notes) WHERE gid = '%s'"
             g.gid)
      with
      | Ok (_, [ r ]) -> (
          let shown =
            List.filter_map
              (fun a ->
                if String.length a > 10 && String.sub a 0 10 = "@gsequence" then
                  match String.index_opt a ']' with
                  | Some i ->
                      Some (String.trim (String.sub a (i + 1) (String.length a - i - 1)))
                  | None -> Some a
                else None)
              r.Conn.anns
          in
          let notes = notes () in
          match split_line r.Conn.line with
          | [ gid; seq ] ->
              gid = g.gid && List.mem seq (vs ())
              && List.for_all (fun a -> List.mem a notes) shown
              && ((not all_notes) || List.for_all (fun a -> List.mem a shown) notes)
              || Conn.fail conn ("wrong curated gene " ^ g.gid)
          | _ -> Conn.fail conn "bad gene row")
      | Ok _ -> Conn.fail conn ("expected one gene for " ^ g.gid)
      | Error e -> Conn.fail conn e
    in
    (* client B: alternate annotated gene reads and derived protein reads *)
    let reader rng =
      let flip = ref false in
      fun conn ->
        let k = Gen.zipf_key z rng in
        flip := not !flip;
        Conn.op conn Conn.Read (fun () ->
            if !flip then
              gene_ok k (versions k) ~notes:(fun () -> sent h.notes k) ~all_notes:false conn
            else protein_ok k (versions k) conn)
    in
    (* client A: [work] curation transactions *)
    let writer rng =
      let done_ = ref 0 in
      fun conn ->
        if !done_ >= work then (Atomic.set a_done true; false)
        else begin
          incr done_;
          let k = Gen.zipf_key z rng in
          let g = genes.(k) in
          let seq = Gen.orf rng in
          let note = Printf.sprintf "curated %d.%d" seed !done_ in
          push h.sent k seq;
          push h.notes k note;
          let gc = Gen.gc_percent seq and len = String.length seq in
          conn.Conn.user_bytes <-
            conn.Conn.user_bytes
            + Gen.literal_bytes [ seq; note; string_of_int gc; string_of_int len ];
          Conn.op conn Conn.Write (fun () ->
              let r =
                let* () = Conn.expect_ok conn "BEGIN" in
                let* () =
                  Conn.expect_count conn
                    (Printf.sprintf
                       "UPDATE gene SET gsequence = '%s', gc = %d, len = %d WHERE gid = '%s'"
                       seq gc len g.gid)
                    3 (* cells *)
                in
                let* () =
                  Conn.expect_ok conn
                    (Printf.sprintf
                       "ADD ANNOTATION TO gene.notes VALUE '%s' ON (SELECT gsequence FROM gene \
                        WHERE gid = '%s')"
                       note g.gid)
                in
                Conn.expect_ok conn "COMMIT"
              in
              match r with
              | Ok () ->
                  locked (fun () -> Hashtbl.replace h.committed k seq);
                  push h.committed_notes k note;
                  true
              | Error e ->
                  ignore (Conn.query conn "ROLLBACK");
                  Conn.fail conn e);
          true
        end
    in
    let client c =
      let rng = client_rng seed c in
      let read = reader rng and write = writer rng in
      {
        warmup = (if toy then 4 else 10);
        warm = read;
        step =
          (if c = 0 then (fun conn ->
             (* B stops when A does, even when A fails *)
             match write conn with
             | more -> more
             | exception e -> Atomic.set a_done true; raise e)
           else fun conn -> (not (Atomic.get a_done)) && (read conn; true));
      }
    in
    (* every curated gene shows its last committed sequence and all its
       notes, and its protein is derived from that sequence *)
    let post conn =
      Hashtbl.iter
        (fun k seq ->
          Conn.verify conn
            ("curated gene " ^ genes.(k).gid)
            (gene_ok k
               (fun () -> [ seq ])
               ~notes:(fun () -> find h.committed_notes k)
               ~all_notes:true conn
            && protein_ok k (fun () -> [ seq ]) conn))
        h.committed
    in
    { load; loaded_bytes; client; post }
  in
  {
    name = "curation";
    pool = 4096;
    work_per_s = Some 5.;
    read_tail = Some 0.95;
    write_tail = Some 0.90;
    primary = Conn.Write;
    crash = false;
    prepare;
  }

(* ------------------------------------------------------------- ingest *)

let ingest =
  let prepare ~seed ~toy ~work =
    let n = if toy then 200 else 5000 and per = if toy then 10 else 50 in
    let rng = Prng.create seed in
    let genes = Gen.genes rng n in
    let load, loaded_bytes = load_script rng genes in
    let acked = Mutex.create () and batches = ref [] in
    let client c =
      let rng = client_rng seed c in
      let sent = ref 0 in
      let step conn =
        if !sent >= work then false
        else begin
          let batch =
            Array.init per (fun i ->
                Gen.gene_of rng (Printf.sprintf "JZ%d%07d" c ((!sent * per) + i)))
          in
          incr sent;
          let rows = Array.to_list (Array.map Gen.gene_values batch) in
          conn.Conn.user_bytes <-
            List.fold_left (fun a r -> a + Gen.literal_bytes r) conn.Conn.user_bytes rows;
          Conn.op conn Conn.Write (fun () ->
              match Conn.expect_count conn (Gen.insert_sql "gene" rows) per with
              | Ok () ->
                  Mutex.protect acked (fun () ->
                      batches := Array.map (fun (g : Gen.gene) -> g.gid) batch :: !batches);
                  true
              | Error e -> Conn.fail conn e);
          true
        end
      in
      { warmup = 0; warm = ignore; step }
    in
    (* every acknowledged row is there, and nothing else was added *)
    let post conn =
      match Conn.expect_rows conn "SELECT gid FROM gene WHERE gid >= 'JZ'" with
      | Error e -> Conn.verify conn e false
      | Ok (_, rows) ->
          let present = Hashtbl.create 4096 in
          List.iter (fun r -> Hashtbl.replace present r.Conn.line ()) rows;
          List.iter
            (fun b ->
              Conn.verify conn ("acknowledged rows lost from batch " ^ b.(0))
                (Array.for_all (Hashtbl.mem present) b))
            !batches;
          Conn.verify conn "unacknowledged rows present"
            (List.length rows = List.length !batches * per)
    in
    { load; loaded_bytes; client; post }
  in
  {
    name = "ingest";
    pool = 256;
    work_per_s = Some 25.;
    read_tail = None;
    write_tail = Some 0.99;
    primary = Conn.Write;
    crash = true;
    prepare;
  }

let all = [ lookup; scan; curation; ingest ]
let find name = List.find_opt (fun w -> w.name = name) all
