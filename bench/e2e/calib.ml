(* The speed of the machine while a run measures.

   On a shared host the same code runs up to a third slower, or faster,
   for a minute or more at a time, uniformly across a window.  So while
   the bench sets up and while it measures, a probe process (this
   executable's [probe] command) runs a fixed CPU task — hashing, string
   allocation and an array sort, like the server's own work — every
   [period_s], and the reported times and rates are scaled by how much
   slower than [reference_ms] the task ran meanwhile.  The probe runs
   beside the workload on purpose: timed alone, on the otherwise idle
   machine, it moved more than the workload did (README.md, "Machine
   speed").  The wall-clock values stay in the record. *)

(* The task's mean time, in ms, beside the workloads on the machine
   README.md describes: the speed every scaled metric is expressed at. *)
let reference_ms = 1.6

let period_s = 0.025

let task () =
  let h = Hashtbl.create 64 in
  for i = 0 to 1500 do
    Hashtbl.replace h (string_of_int (i mod 700)) (String.make 20 'x' ^ string_of_int i)
  done;
  let a = Array.init 2000 (fun i -> i * 7919 mod 2003) in
  Array.sort compare a;
  Hashtbl.length h + a.(17)

(* The probe process: run the task, wait [period_s], again, until its
   standard input closes; then print the count and the summed time. *)
let serve () =
  let n = ref 0 and total = ref 0. in
  let rec loop () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (task ()));
    total := !total +. (Unix.gettimeofday () -. t0);
    incr n;
    match Unix.select [ Unix.stdin ] [] [] period_s with
    | [], _, _ -> loop ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Printf.printf "%d %.17g\n%!" !n !total

type t = { pid : int; to_probe : Unix.file_descr; from_probe : in_channel }

(* Probes not yet stopped, killed at exit should the bench fail
   half-way. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close in_r; Unix.close out_w)
      (fun () -> Unix.create_process exe [| exe; "probe" |] in_r out_w Unix.stderr)
  in
  live := pid :: !live;
  { pid; to_probe = in_w; from_probe = Unix.in_channel_of_descr out_r }

(* Stop the probe; the task's mean time while it ran, in ms. *)
let stop t =
  Unix.close t.to_probe;
  let line = try input_line t.from_probe with End_of_file -> "" in
  close_in t.from_probe;
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) t.pid) !live;
  match Scanf.sscanf_opt line "%d %f" (fun n total -> (n, total)) with
  | Some (n, total) when n > 0 -> total *. 1000. /. float_of_int n
  | _ -> failwith "the machine-speed probe printed no result"
