(* Shared helpers for the benchmark harness: table rendering, timing, and
   I/O accounting. *)

module Stats = Bdbms_obs.Stats
module Disk = Bdbms_storage.Disk
module Pager = Bdbms_storage.Pager

(* Deterministic mode ([main.exe --deterministic]) prints every table
   without its timing columns, so the output is a pure function of the
   code: page counts, record and byte counts, ratios and answers.  A
   column is a timing column when its header has an "ms", "us" or "s"
   unit word ("A-SQL ms", "ms/update", "updates/s"). *)
let deterministic = ref false

let timing_header h =
  String.split_on_char ' ' h
  |> List.concat_map (String.split_on_char '/')
  |> List.exists (fun w -> w = "ms" || w = "us" || w = "s")

let print_table ~title ~headers ~rows =
  let headers, rows =
    if not !deterministic then (headers, rows)
    else
      let keep = List.map (fun h -> not (timing_header h)) headers in
      let only row = List.filteri (fun i _ -> List.nth keep i) row in
      (only headers, List.map only rows)
  in
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

(* Lower quartile, median and upper quartile of a non-empty list, each
   interpolated between the two nearest ranks. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let at p =
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  (at 0.25, at 0.5, at 0.75)

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
