(* bdbench: E20, the end-to-end benchmark of bdbms over the wire.

     bdbench run --server _build/default/bin/bdbms_serve.exe --seed 1 [--workload W]
     bdbench repeat 10 --server ... [--workload W]
     bdbench compare BASE.jsonl NEW.jsonl

   [run] prints every metric as "name value unit n=samples", appends one
   JSON record per workload to --out, and exits 1 if any oracle failed.
   The metric names and bounds come from BENCHMARK.json in the current
   directory (the root of the checkout).  See README.md for the workloads
   and the metrics. *)

open Cmdliner

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let append_record out json =
  let oc = open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string json ^ "\n"))

let specs = function
  | None -> Workloads.all
  | Some name -> (
      match Workloads.find name with
      | Some w -> [ w ]
      | None ->
          failwith
            (Printf.sprintf "unknown workload %S (lookup|scan|curation|ingest)" name))

let out_file cfg = function
  | Some f -> f
  | None -> Filename.concat cfg.Runner.workdir "results.jsonl"

(* Run the workloads once; the records go to [out] and are returned,
   with whether every oracle held.  A single workload's run ends with its
   summary line. *)
let run_set cfg ~workloads ~out ~summary =
  ensure_dir cfg.Runner.workdir;
  let ws = specs workloads in
  let results =
    List.map
      (fun spec ->
        let r = Runner.run cfg spec in
        Report.print r;
        let record = Report.record ~cfg r in
        append_record out record;
        let _, failed, errors = Report.tally r in
        List.iter
          (Printf.eprintf "E20 %s: oracle failure: %s\n%!" spec.Workloads.name)
          errors;
        if summary && List.length ws = 1 then
          print_endline (Report.summary ~traced:cfg.Runner.traced r);
        (record, failed = 0))
      ws
  in
  (List.map fst results, List.for_all snd results)

let run cfg workloads out =
  let _, ok = run_set cfg ~workloads ~out:(out_file cfg out) ~summary:true in
  if ok then 0 else 1

let repeat n cfg workloads out =
  let out = out_file cfg out in
  let sets =
    List.init n (fun i ->
        run_set { cfg with Runner.seed = cfg.Runner.seed + i } ~workloads ~out
          ~summary:false)
  in
  Ledger.summarize (List.concat_map fst sets) (Ledger.bounds ());
  if List.for_all snd sets then 0 else 1

let compare base next =
  let n =
    Ledger.compare_sets (Ledger.read_records base) (Ledger.read_records next)
      (Ledger.bounds ())
  in
  if n > 0 then (
    Printf.printf "%d regression(s)\n" n;
    1)
  else 0

(* ------------------------------------------------------------- options *)

let config =
  let open Arg in
  let server =
    required
    & opt (some file) None
    & info [ "server" ] ~docv:"PATH" ~doc:"The bdbms_serve executable."
  in
  let seed = value & opt int 1 & info [ "seed" ] ~doc:"Seed of every generated input." in
  let seconds =
    value & opt float 10.
    & info [ "seconds" ] ~doc:"Window length (and fixed-work size) of a measured run."
  in
  let toy = value & flag & info [ "toy" ] ~doc:"Toy sizes: the smoke test." in
  let workdir =
    value & opt string "_bdbench"
    & info [ "workdir" ] ~docv:"DIR"
        ~doc:"Working directory (databases, sockets, logs, records)."
  in
  let traced =
    value & flag
    & info [ "traced" ]
        ~doc:"Also run the workload in-process with spans, for the per-layer split."
  in
  let trace_out =
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE" ~doc:"Write the traced run's spans here (JSONL)."
  in
  let make server seed seconds toy workdir traced trace_out =
    { Runner.server; seed; seconds; toy; workdir; traced; trace_out }
  in
  Term.(const make $ server $ seed $ seconds $ toy $ workdir $ traced $ trace_out)

let workload =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~docv:"W"
        ~doc:"lookup, scan, curation or ingest (default: all four).")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Append the JSON records here.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run the workloads once, checking every reply.")
    Term.(const run $ config $ workload $ out)

let repeat_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  Cmd.v
    (Cmd.info "repeat"
       ~doc:"N sets on seeds S..S+N-1; each metric's median, quartiles and spread.")
    Term.(const repeat $ n $ config $ workload $ out)

let compare_cmd =
  let file i name = Arg.(required & pos i (some file) None & info [] ~docv:name) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Per-workload deltas of every end-to-end metric against its bound.")
    Term.(const compare $ file 0 "BASE" $ file 1 "NEW")

let probe_cmd =
  Cmd.v
    (Cmd.info "probe"
       ~doc:"The machine-speed probe a run starts beside itself (see calib.ml).")
    Term.(const (fun () -> Calib.serve (); 0) $ const ())

let () =
  (* exit through at_exit, which stops any server or probe still running *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "bdbench" ~doc:"E20: bdbms end to end, over the wire")
          [ run_cmd; repeat_cmd; compare_cmd; probe_cmd ]))
