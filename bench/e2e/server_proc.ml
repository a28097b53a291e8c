(* The server under test as a child process: [bdbms_serve] on a Unix
   socket, started, probed until it answers a Hello, and stopped (SIGTERM,
   which drains and checkpoints) or crashed (SIGKILL).  Every start is
   paired with a [waitpid], so no process outlives the bench. *)

module Client = Bdbms_server.Client

type t = { pid : int; sock : string }

let args ~server ~db ~sock ~pool =
  [|
    server; "--db"; db; "--unix"; sock; "--idle-timeout"; "0"; "--pool-pages";
    string_of_int pool;
  |]

(* Servers not yet stopped, killed at exit should the bench fail
   half-way. *)
let live : t list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun t ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~server ~db ~sock ~pool ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () -> Unix.create_process server (args ~server ~db ~sock ~pool) null out out)
  in
  let t = { pid; sock } in
  live := t :: !live;
  t

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* A session on the server, retrying until it accepts one.  The first
   success after a start is the moment the server became usable, which is
   what [recovery_s] times. *)
let connect ?(timeout_s = 60.) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let attempt () =
    let c = Client.connect_unix t.sock in
    match Client.hello c ~user:"admin" with
    | Ok _ -> Ok c
    | Error e -> Client.close c; Error e
    | exception e -> Client.close c; raise e
  in
  let rec go () =
    match attempt () with
    | Ok c -> c
    | Error e -> failwith ("hello refused: " ^ e)
    | exception (Unix.Unix_error _ | Bdbms_server.Protocol.Protocol_error _) ->
        if exited t then failwith "server exited during start-up (see its log)";
        if Unix.gettimeofday () > deadline then failwith "server did not start";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* A "Vm...:" line of the server's /proc status, in MB, read while it
   runs. *)
let status_mb t key =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let k = String.length key in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > k && String.sub line 0 k = key ->
            Scanf.sscanf (String.sub line k (String.length line - k)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

let rss_mb t = status_mb t "VmRSS:"
let peak_rss_mb t = status_mb t "VmHWM:"

let reap t =
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun u -> u.pid <> t.pid) !live

let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap t

let crash t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t
