(* Shared helpers for the benchmark harness: table rendering, timing, and
   I/O accounting. *)

module Stats = Bdbms_obs.Stats
module Disk = Bdbms_storage.Disk
module Pager = Bdbms_storage.Pager

let print_table ~title ~headers ~rows =
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)) row in
  measure headers;
  List.iter measure rows;
  let pad i s = s ^ String.make (widths.(i) - String.length s) ' ' in
  let line row = "| " ^ String.concat " | " (List.mapi pad row) ^ " |" in
  let rule =
    "+" ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  Printf.printf "\n%s\n%s\n%s\n%s\n" title rule (line headers) rule;
  List.iter (fun row -> print_endline (line row)) rows;
  print_endline rule

let time_us f =
  let start = Unix.gettimeofday () in
  let result = f () in
  let elapsed = (Unix.gettimeofday () -. start) *. 1e6 in
  (result, elapsed)

(* Logical page accesses (buffer hits + physical reads + writes) between
   two snapshots: the cache-independent cost measure used throughout. *)
let accesses_between ~before ~after =
  let d = Stats.diff ~after ~before in
  d.Stats.reads + d.Stats.writes + d.Stats.hits

let measure_accesses disk f =
  let before = Stats.snapshot (Disk.stats disk) in
  let result = f () in
  let after = Stats.snapshot (Disk.stats disk) in
  (result, accesses_between ~before ~after)

let mk_pool ?(page_size = 1024) ?(capacity = 4096) () =
  let d = Disk.create ~page_size ~pool_pages:capacity () in
  (d, Disk.pager d)

let fmt_f f = Printf.sprintf "%.2f" f
let fmt_f1 f = Printf.sprintf "%.1f" f
let fmt_i = string_of_int
