(* Hierarchical trace spans over a fixed-size ring buffer.

   A span is one timed region of engine work (a statement, a WAL group
   flush, one eviction write-back); spans nest via an explicit stack, so
   the buffer reconstructs into a tree.  Completed spans are written into
   a ring of preallocated slots — tracing never allocates per span and
   never grows, so it can stay compiled into every path.  When disabled
   (the default), [with_span] is one mutable-field load and a branch: the
   E14 bench holds this disabled path under 5% of statement cost.

   Spans are recorded at completion (that is when the duration is known),
   so a parent always lands *after* its children; the tree renderer works
   from parent links, treating spans whose parent has been overwritten by
   ring wraparound (or never completed) as roots. *)

module Timer = Bdbms_util.Timer

type span = {
  mutable s_seq : int; (* global completion sequence number, -1 = empty *)
  mutable s_id : int;
  mutable s_parent : int; (* span id, 0 = root *)
  mutable s_depth : int;
  mutable s_name : string;
  mutable s_start : Timer.ns;
  mutable s_stop : Timer.ns;
  mutable s_tid : int; (* trace id in force when the span completed; 0 = none *)
}

type t = {
  ring : span array;
  mutable on : bool;
  mutable seq : int; (* completed spans ever *)
  mutable next_id : int;
  mutable stack : (int * int) list; (* (span id, depth) of open spans *)
  mutable cur_tid : int;
      (* ambient trace id: stamped onto every span recorded while set.
         The server sets it from the query frame for the request's
         extent; [Db] generates one per local statement. *)
}

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  {
    ring =
      Array.init capacity (fun _ ->
          {
            s_seq = -1;
            s_id = 0;
            s_parent = 0;
            s_depth = 0;
            s_name = "";
            s_start = 0;
            s_stop = 0;
            s_tid = 0;
          });
    on = false;
    seq = 0;
    next_id = 1;
    stack = [];
    cur_tid = 0;
  }

let capacity t = Array.length t.ring
let enabled t = t.on

let set_enabled t v =
  t.on <- v;
  if not v then t.stack <- []

let mark t = t.seq

let trace_id t = t.cur_tid

let with_trace_id t tid f =
  let saved = t.cur_tid in
  t.cur_tid <- tid;
  Fun.protect ~finally:(fun () -> t.cur_tid <- saved) f

let clear t =
  Array.iter (fun s -> s.s_seq <- -1) t.ring;
  t.seq <- 0;
  t.next_id <- 1;
  t.stack <- []

let record t ~id ~parent ~depth ~name ~start ~stop =
  let slot = t.ring.(t.seq mod Array.length t.ring) in
  slot.s_seq <- t.seq;
  slot.s_id <- id;
  slot.s_parent <- parent;
  slot.s_depth <- depth;
  slot.s_name <- name;
  slot.s_start <- start;
  slot.s_stop <- stop;
  slot.s_tid <- t.cur_tid;
  t.seq <- t.seq + 1

let enter t name =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let parent, depth =
    match t.stack with [] -> (0, 0) | (p, d) :: _ -> (p, d + 1)
  in
  t.stack <- (id, depth) :: t.stack;
  (id, parent, depth, name, Timer.now_ns ())

let exit_span t (id, parent, depth, name, start) =
  (match t.stack with
  | (top, _) :: rest when top = id -> t.stack <- rest
  | _ ->
      (* a child span leaked past its parent's exit (exception unwound
         through enter/exit pairs): drop stale frames *)
      t.stack <- List.filter (fun (sid, _) -> sid <> id) t.stack);
  record t ~id ~parent ~depth ~name ~start ~stop:(Timer.now_ns ())

let with_span t name f =
  if not t.on then f ()
  else begin
    let frame = enter t name in
    match f () with
    | v ->
        exit_span t frame;
        v
    | exception e ->
        exit_span t frame;
        raise e
  end

(* ------------------------------------------------------------- reading *)

type view = {
  name : string;
  start_ns : Timer.ns;
  dur_ns : Timer.ns;
  id : int;
  parent : int;
  depth : int;
  seq : int;
  trace_id : int;
}

(* Completed spans still in the ring with seq >= since, oldest first. *)
let spans ?(since = 0) t =
  let all =
    Array.fold_left
      (fun acc s ->
        if s.s_seq >= since then
          {
            name = s.s_name;
            start_ns = s.s_start;
            dur_ns = s.s_stop - s.s_start;
            id = s.s_id;
            parent = s.s_parent;
            depth = s.s_depth;
            seq = s.s_seq;
            trace_id = s.s_tid;
          }
          :: acc
        else acc)
      [] t.ring
  in
  List.sort (fun a b -> compare a.seq b.seq) all

(* ----------------------------------------------------------- rendering *)

(* Tree: children grouped under their parent when it survives in the
   buffer; orphans (parent overwritten / still open) render as roots.
   Siblings order by start time. *)
let render_tree ?since t =
  let vs = spans ?since t in
  if vs = [] then "(no spans recorded; enable tracing first)\n"
  else begin
    let ids = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace ids v.id v) vs;
    let children = Hashtbl.create 64 in
    let roots = ref [] in
    List.iter
      (fun v ->
        if v.parent <> 0 && Hashtbl.mem ids v.parent then
          Hashtbl.replace children v.parent
            (v :: (Option.value (Hashtbl.find_opt children v.parent) ~default:[]))
        else roots := v :: !roots)
      vs;
    let by_start = List.sort (fun a b -> compare a.start_ns b.start_ns) in
    let buf = Buffer.create 512 in
    let rec render indent v =
      Buffer.add_string buf
        (Printf.sprintf "%s%s  %s\n" indent v.name
           (Format.asprintf "%a" Timer.pp_ns v.dur_ns));
      List.iter
        (render (indent ^ "  "))
        (by_start (Option.value (Hashtbl.find_opt children v.id) ~default:[]))
    in
    List.iter (render "") (by_start !roots);
    Buffer.contents buf
  end

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Flat JSON array of span objects (parent links included), for tooling. *)
let render_json ?since t =
  let vs = spans ?since t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"id\":%d,\"parent\":%d,\"depth\":%d,\"start_ns\":%d,\"dur_ns\":%d,\"trace_id\":%d}"
           (json_escape v.name) v.id v.parent v.depth v.start_ns v.dur_ns
           v.trace_id))
    vs;
  Buffer.add_string buf "]";
  Buffer.contents buf
