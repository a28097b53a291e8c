(* One workload, end to end: set it up (several times, for a steady
   [setup_s]), measure a window against the server process, scrape its
   instruments around the window, check the oracles, and — with
   [traced] — repeat the workload in-process with spans. *)

module Db = Bdbms.Db
module Client = Bdbms_server.Client
module Engine = Bdbms_server.Engine
module Session = Bdbms_server.Session
module W = Workloads

type config = {
  server : string;  (** the bdbms_serve executable *)
  seed : int;
  seconds : float;
  toy : bool;  (** smoke-test sizes *)
  workdir : string;
  traced : bool;
  trace_out : string option;
}

type result = {
  spec : W.spec;
  setup_s : float list;
  window_s : float;
  clients : Conn.t list;  (** the window's recorders *)
  checks : Conn.t;  (** post-run oracles *)
  scrape : Scrape.window;
  rss_mb : float list;  (** the server's resident set, sampled over the window *)
  peak_rss_mb : float;
  probe_ms : float * float;  (** [Calib]'s task time during the set-ups and during the window *)
  space_amp : float;
  recovery_s : float option;
  traced : (Conn.t list * Conn.t * Metric.t list) option;
}

let now = Unix.gettimeofday

(* set-ups per measured run *)
let setups = 3

(* Fixed work is sized from [seconds] only, never from the speed of the
   code under test, so both sides of a comparison do the same work and
   end in the same state; the rates make it last about [seconds] on the
   machine README.md describes. *)
let work (spec : W.spec) ~toy ~seconds =
  match spec.work_per_s with
  | None -> 0
  | Some _ when toy -> 3
  | Some rate -> int_of_float (Float.round (rate *. seconds))

(* [f 0] on this thread and [f 1] on a second one: the two clients. *)
let both f =
  let err = ref None in
  let th = Thread.create (fun () -> try f 1 with e -> err := Some e) () in
  (match f 0 with () -> () | exception e -> Thread.join th; raise e);
  Thread.join th;
  Option.iter raise !err

let remove_db path =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".wal" ]

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () -> close_in ic; close_out oc)
    (fun () -> output_string oc (really_input_string ic (in_channel_length ic)))

let load ~path ~pool (inst : W.instance) =
  remove_db path;
  let db = Db.create ~pool_pages:pool ~path () in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      match Db.exec_script db inst.load with
      | Ok _ -> ()
      | Error e -> failwith ("set-up script failed: " ^ e))

let warm_up (clients : W.client array) conns =
  both (fun c ->
      let w = Conn.fresh conns.(c) in
      for _ = 1 to clients.(c).warmup do
        clients.(c).warm w
      done)

let window (spec : W.spec) (clients : W.client array) conns ~seconds =
  let t0 = now () in
  let deadline = t0 +. seconds in
  both (fun c ->
      let step = clients.(c).step and conn = conns.(c) in
      if spec.work_per_s = None then
        while now () < deadline && step conn do () done
      else while step conn do () done);
  now () -. t0

(* [f ()] while a second thread reads the server's resident set every
   0.25 s; its result and the samples, in MB. *)
let sampling_rss srv f =
  let stop = Atomic.make false and samples = ref [] in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          samples := Server_proc.rss_mb srv :: !samples;
          Thread.delay 0.25
        done)
      ()
  in
  let r = Fun.protect ~finally:(fun () -> Atomic.set stop true; Thread.join th) f in
  (r, !samples)

let socket_conn c = Conn.create ~client:0 (fun _ sql -> Client.query c sql)

(* ------------------------------------------------------------ measured *)

let measured cfg (spec : W.spec) =
  let base = Filename.concat cfg.workdir spec.name in
  let db = base ^ ".db" and sock = base ^ ".sock" and log = base ^ ".log" in
  let work = work spec ~toy:cfg.toy ~seconds:cfg.seconds in
  (* [setup_s] is the median of [setups] set-ups; a toy or traced run
     (whose summary reports no [setup_s]) sets up once *)
  let reps = if cfg.toy || cfg.traced then 1 else setups in
  let spawn () = Server_proc.spawn ~server:cfg.server ~db ~sock ~pool:spec.pool ~log in
  let rec set_up rep acc =
    let t0 = now () in
    let inst = spec.prepare ~seed:cfg.seed ~toy:cfg.toy ~work in
    load ~path:db ~pool:spec.pool inst;
    if cfg.traced then copy_file db (base ^ "-traced.db");
    let srv = spawn () in
    let raw = Array.init 2 (fun _ -> Server_proc.connect srv) in
    let conns =
      Array.mapi (fun c r -> Conn.create ~client:c (fun _ sql -> Client.query r sql)) raw
    in
    let clients = Array.init 2 inst.client in
    warm_up clients conns;
    let acc = (now () -. t0) :: acc in
    if rep < reps then begin
      Array.iter Client.close raw;
      Server_proc.stop srv;
      set_up (rep + 1) acc
    end
    else (List.rev acc, inst, srv, raw, clients, conns)
  in
  let probe = Calib.start () in
  let setup_s, inst, srv, raw, clients, conns = set_up 1 [] in
  let setup_probe_ms = Calib.stop probe in
  let before = Scrape.start raw.(0) in
  let (window_s, window_probe_ms), rss =
    sampling_rss srv (fun () ->
        let probe = Calib.start () in
        let window_s = window spec clients conns ~seconds:cfg.seconds in
        (window_s, Calib.stop probe))
  in
  let probe_ms = (setup_probe_ms, window_probe_ms) in
  let scrape = Scrape.window ~before ~after:(Scrape.finish raw.(0)) in
  let peak_rss_mb = Server_proc.peak_rss_mb srv in
  Array.iter Client.close raw;
  let checks, recovery_s =
    if spec.crash then begin
      Server_proc.crash srv;
      let t0 = now () in
      let srv = spawn () in
      let c = Server_proc.connect srv in
      let recovery_s = now () -. t0 in
      let checks = socket_conn c in
      inst.post checks;
      Client.close c;
      Server_proc.stop srv;
      (checks, Some recovery_s)
    end
    else begin
      let c = Server_proc.connect srv in
      let checks = socket_conn c in
      inst.post checks;
      Client.close c;
      Server_proc.stop srv;
      (checks, None)
    end
  in
  let user_bytes =
    inst.loaded_bytes + Array.fold_left (fun a c -> a + c.Conn.user_bytes) 0 conns
  in
  let space_amp =
    float_of_int (file_size db + file_size (db ^ ".wal")) /. float_of_int user_bytes
  in
  remove_db db;
  {
    spec;
    setup_s;
    window_s;
    clients = Array.to_list conns;
    checks;
    scrape;
    rss_mb = rss;
    peak_rss_mb;
    probe_ms;
    space_amp;
    recovery_s;
    traced = None;
  }

(* -------------------------------------------------------------- traced *)

let traced cfg (spec : W.spec) ~request_us ~wire_us =
  let path = Filename.concat cfg.workdir (spec.name ^ "-traced.db") in
  let work = max 1 (work spec ~toy:cfg.toy ~seconds:cfg.seconds / 3) in
  let inst = spec.prepare ~seed:cfg.seed ~toy:cfg.toy ~work in
  let engine = Engine.create ~pool_pages:spec.pool ~path () in
  Fun.protect
    ~finally:(fun () -> Engine.close engine; remove_db path)
    (fun () ->
      let lock = Mutex.create () in
      let session () =
        match Session.create engine ~user:"admin" with
        | Ok s -> s
        | Error e -> failwith (Engine.error_message e)
      in
      let sessions = Array.init 2 (fun _ -> session ()) in
      let accs = Array.init 2 (fun _ -> Traced.acc ()) in
      let tracers = Array.init 2 Conn.tracer in
      let conns =
        Array.init 2 (fun c ->
            Conn.create ~tracer:tracers.(c) ~client:c
              (Traced.transport engine lock sessions.(c) accs.(c) ~wire_s:(wire_us /. 1e6)))
      in
      let clients = Array.init 2 inst.client in
      warm_up clients conns;
      ignore (window spec clients conns ~seconds:(cfg.seconds /. 3.));
      let checks = Conn.fresh conns.(0) in
      inst.post checks;
      Array.iter Session.close sessions;
      let spans = tracers.(0).Conn.spans @ tracers.(1).Conn.spans in
      Option.iter (fun file -> Traced.write_spans file spans) cfg.trace_out;
      let sum f = Array.fold_left (fun a c -> a + f c) 0 conns in
      let layers =
        Traced.layers spans (Array.to_list accs) ~ops:(sum (fun c -> c.Conn.ops))
          ~requests:(sum (fun c -> c.Conn.requests))
          ~request_us
      in
      (Array.to_list conns, checks, layers))

(* The traced run replays the measured run's wire time (client round
   trip minus server request time) as a pause after each reply, so the
   engine sees requests arrive as it did over the socket.  Its session and
   render time per request is checked against the measured run's server
   request time ([trace.agreement]). *)
let run cfg spec =
  let r = measured cfg spec in
  if not cfg.traced then r
  else
    let requests = List.fold_left (fun a c -> a + c.Conn.requests) 0 r.clients in
    let rtt_ns = List.fold_left (fun a c -> a + c.Conn.rtt_ns) 0 r.clients in
    let request_us = Scrape.request_us r.scrape in
    let rtt_us = float_of_int rtt_ns /. 1000. /. float_of_int (max 1 requests) in
    let wire_us = Float.max 0. (rtt_us -. request_us) in
    { r with traced = Some (traced cfg spec ~request_us ~wire_us) }
