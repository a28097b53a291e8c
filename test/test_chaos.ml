(* Chaos harness: randomized client sessions against a live server while
   a chaos thread arms transient I/O faults and latency spikes in the
   storage stack.  The oracle invariants, per seed:

   - no acked commit is lost: every INSERT acknowledged to a client is
     in the final table, and survives a full server restart;
   - no wrong answers: every value in the final table was sent by some
     client (acked or in the errored-write "unknown" set — an error
     response means not-committed, except for the one documented window
     where the post-commit checkpoint fails after the commit marker is
     durable, which is why errored writes land in "unknown" rather than
     "must be absent");
   - no session wedges: every client thread finishes its script;
   - deadlines hold: once faults are disarmed, a statement with a
     deadline is aborted within 2x its deadline;
   - the engine heals: after the faults clear, writes succeed again;
   - the index over the table holds exactly the table's values, live and
     after the restart ({!Fixtures.check_indexes}).

   Runs 8 seeds under the normal test suite; `make fuzz-chaos` sets
   BDBMS_FUZZ_CHAOS=1 for the full 200-seed campaign. *)

module Fault = Bdbms_storage.Fault
module Engine = Bdbms_server.Engine
module Server = Bdbms_server.Server
module Client = Bdbms_server.Client
module P = Bdbms_server.Protocol

let fuzz_on =
  match Sys.getenv_opt "BDBMS_FUZZ_CHAOS" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let seeds = if fuzz_on then 200 else 8
let clients_per_seed = 3
let ops_per_client = 12

let failf fmt = Printf.ksprintf (fun s -> Alcotest.fail s) fmt

let tmp_base =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bdbms_chaos_%d" (Unix.getpid ()))

let cleanup path sock =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal"; sock ]

(* ------------------------------------------------------- oracle state *)

type oracle = {
  mu : Mutex.t;
  mutable acked : int list; (* server said yes: MUST be in the final table *)
  mutable unknown : int list; (* server said no: MAY be in the final table *)
}

let ack o v = Mutex.protect o.mu (fun () -> o.acked <- v :: o.acked)
let unk o v = Mutex.protect o.mu (fun () -> o.unknown <- v :: o.unknown)

(* Parse the rendered [SELECT n FROM chaos] table back into values. *)
let parse_rows rendered =
  String.split_on_char '\n' rendered
  |> List.filter_map (fun line -> int_of_string_opt (String.trim line))

(* ------------------------------------------------------ client script *)

(* Values are unique per (seed, client, op) so set inclusion is exact. *)
let value ~seed ~cid ~op = (seed * 1_000_000) + (cid * 1_000) + op

let run_client ~sock ~seed ~cid oracle =
  let rng = Random.State.make [| seed; cid; 0xC4A05 |] in
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.hello c ~user:"admin" with
  | Ok _ -> ()
  | Error e -> failf "seed %d client %d: hello refused: %s" seed cid e);
  (* explicit transaction; the *commit* response decides the fate *)
  let rec txn ~retry v =
    let ok r = match r with P.Error_resp _ -> false | _ -> true in
    if not (ok (Client.query c "BEGIN")) then unk oracle v
    else if not (ok (Client.query c (Printf.sprintf "INSERT INTO chaos VALUES (%d)" v)))
    then begin
      unk oracle v;
      ignore (Client.query c "ROLLBACK")
    end
    else
      match Client.query c "COMMIT" with
      | P.Error_resp { code; _ } when retry && P.code_retryable code ->
          (* the transaction aborted whole; retry it once from BEGIN *)
          unk oracle v;
          txn ~retry:false (v + 500)
      | P.Error_resp _ -> unk oracle v
      | _ -> ack oracle v
  in
  for op = 1 to ops_per_client do
    let v = value ~seed ~cid ~op in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 ->
        (* read: any response is fine, the session just must not wedge *)
        ignore (Client.query c "SELECT COUNT(*) AS c FROM chaos")
    | 3 | 4 -> txn ~retry:true v
    | _ -> (
        (* autocommit write through the client's retry loop *)
        let resp, _retries =
          Client.query_retry c
            (Printf.sprintf "INSERT INTO chaos VALUES (%d)" v)
        in
        match resp with
        | P.Error_resp _ -> unk oracle v
        | _ -> ack oracle v)
  done

(* ------------------------------------------------------- chaos driver *)

let run_chaos ~seed fault stop_flag =
  let rng = Random.State.make [| seed; 0xFA017 |] in
  while not (Atomic.get stop_flag) do
    (match Random.State.int rng 4 with
    | 0 ->
        let kind =
          match Random.State.int rng 3 with
          | 0 -> Fault.Eio
          | 1 -> Fault.Enospc
          | _ -> Fault.Short_write
        in
        Fault.arm_io fault ~count:(1 + Random.State.int rng 8) kind
    | 1 ->
        Fault.arm_latency fault
          ~ms:(1. +. Random.State.float rng 2.)
          ~ops:(1 + Random.State.int rng 5)
    | 2 -> Fault.disarm fault
    | _ -> ());
    Thread.delay (0.001 +. Random.State.float rng 0.004)
  done;
  Fault.disarm fault

(* ------------------------------------------------------- the invariant *)

let check_inclusion ~seed ~what ~final ~acked ~unknown =
  let mem v l = List.exists (( = ) v) l in
  List.iter
    (fun v ->
      if not (mem v final) then
        failf "seed %d (%s): acked commit %d lost (final table: %d rows)"
          seed what v (List.length final))
    acked;
  List.iter
    (fun v ->
      if not (mem v acked || mem v unknown) then
        failf "seed %d (%s): value %d in the table was never acknowledged"
          seed what v)
    final

let final_rows_via client =
  match Client.query client "SELECT n FROM chaos" with
  | P.Rows { rendered } -> parse_rows rendered
  | P.Error_resp { message; _ } -> failf "final read failed: %s" message
  | _ -> failf "final read: unexpected response"

(* ---------------------------------------------------------- one seed *)

let run_seed seed =
  let path = Printf.sprintf "%s_%d.db" tmp_base seed in
  let sock = Printf.sprintf "%s_%d.sock" tmp_base seed in
  cleanup path sock;
  let fault = Fault.create () in
  let engine = Engine.create ~fault ~path () in
  let server = Server.create ~idle_timeout_s:30. engine in
  Server.listen_unix server sock;
  List.iter
    (fun sql ->
      match Engine.execute engine sql with
      | Ok _ -> ()
      | Error e -> failf "seed %d: %s: %s" seed sql (Engine.error_message e))
    [ "CREATE TABLE chaos (n INT)"; "CREATE INDEX chaos_n ON chaos (n)" ];
  let oracle = { mu = Mutex.create (); acked = []; unknown = [] } in
  let stop_flag = Atomic.make false in
  let chaos = Thread.create (fun () -> run_chaos ~seed fault stop_flag) () in
  let clients =
    List.init clients_per_seed (fun cid ->
        Thread.create (fun () -> run_client ~sock ~seed ~cid oracle) ())
  in
  (* no session may wedge: every script finishes *)
  List.iter Thread.join clients;
  Atomic.set stop_flag true;
  Thread.join chaos;
  Fault.disarm fault;

  (* quiet phase: the engine must heal and take writes again.  Also tops
     the table up so the deadline probe below has a genuinely slow join. *)
  let c = Client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.hello c ~user:"admin" with
  | Ok _ -> ()
  | Error e -> failf "seed %d: quiet-phase hello: %s" seed e);
  for i = 1 to 40 do
    let v = (seed * 1_000_000) + 900_000 + i in
    let rec insist attempt =
      if attempt > 50 then
        failf "seed %d: engine never healed (write %d still failing)" seed i;
      match
        Client.query c (Printf.sprintf "INSERT INTO chaos VALUES (%d)" v)
      with
      | P.Error_resp { code; _ } when P.code_retryable code ->
          Thread.delay 0.01;
          insist (attempt + 1)
      | P.Error_resp { message; _ } ->
          failf "seed %d: heal write rejected outright: %s" seed message
      | _ -> ack oracle v
    in
    insist 1
  done;

  (* deadlines hold: a slow 5-way cross join (>= 40^5 tuples) against a
     250ms deadline must come back E_timeout within 2x the deadline *)
  let deadline_ms = 250 in
  let t0 = Unix.gettimeofday () in
  (match
     Client.query c ~timeout_ms:deadline_ms
       "SELECT COUNT(*) AS c FROM chaos a, chaos b, chaos c, chaos d, chaos e"
   with
  | P.Error_resp { code = P.E_timeout; _ } ->
      let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      if elapsed_ms > 2. *. float_of_int deadline_ms then
        failf "seed %d: timeout took %.0fms against a %dms deadline" seed
          elapsed_ms deadline_ms
  | P.Error_resp { message; _ } ->
      failf "seed %d: deadline probe errored oddly: %s" seed message
  | _ -> failf "seed %d: 4-way cross join beat a %dms deadline" seed deadline_ms);
  (* ...and the session survives the abort *)
  (match Client.query c "SELECT COUNT(*) AS c FROM chaos" with
  | P.Rows _ -> ()
  | _ -> failf "seed %d: session dead after a timeout" seed);

  (* oracle check on the live server *)
  let final = final_rows_via c in
  check_inclusion ~seed ~what:"live" ~final ~acked:oracle.acked
    ~unknown:oracle.unknown;
  let check_index what engine =
    Fixtures.check_indexes ~what:(Printf.sprintf "seed %d: %s" seed what)
      (Bdbms.Db.context (Engine.db engine))
  in
  check_index "live" engine;

  (* durability: restart the whole stack and re-check *)
  Server.stop server;
  Engine.close engine;
  let engine2 = Engine.create ~path () in
  Fun.protect
    ~finally:(fun () ->
      Engine.close engine2;
      cleanup path sock)
  @@ fun () ->
  let final2 =
    match Engine.execute engine2 "SELECT n FROM chaos" with
    | Ok outcome -> parse_rows (Bdbms_asql.Executor.render outcome)
    | Error e -> failf "seed %d: post-restart read: %s" seed (Engine.error_message e)
  in
  check_inclusion ~seed ~what:"restarted" ~final:final2 ~acked:oracle.acked
    ~unknown:oracle.unknown;
  (* a probe rebuilds the index from the recovered table *)
  let probe = Printf.sprintf "SELECT n FROM chaos WHERE n = %d" ((seed * 1_000_000) + 900_001) in
  (match Engine.execute engine2 probe with
  | Ok _ -> ()
  | Error e -> failf "seed %d: post-restart probe: %s" seed (Engine.error_message e));
  check_index "restarted" engine2

let () =
  Printf.printf "chaos: %d seed(s)%s\n%!" seeds
    (if fuzz_on then " [BDBMS_FUZZ_CHAOS]" else "");
  for seed = 1 to seeds do
    run_seed seed;
    if fuzz_on && seed mod 20 = 0 then
      Printf.printf "chaos: %d/%d seeds clean\n%!" seed seeds
  done;
  Printf.printf "chaos: all %d seed(s) clean\n%!" seeds
