module Pager = Bdbms_storage.Pager
module Page = Bdbms_storage.Page
module Page_array = Bdbms_storage.Page_array
module Btree = Bdbms_index.Btree

type cell = { table : string; row : int; col : int }

let cell ~table ~row ~col = { table = String.lowercase_ascii table; row; col }

let pp_cell fmt c = Format.fprintf fmt "%s[%d,%d]" c.table c.row c.col

type instance = { rule_id : string; sources : cell list; target : cell }

(* A rule fixes the (table, column) of each source and of the target, so
   an instance is its rows alone, and each rule keeps its instances in
   two paged structures:

   - forward: a {!Page_array} indexed by target row, one entry of
     [4 * sources] bytes — each source's row + 1; all zero means the
     target row has no instance;
   - reverse: a {!Btree} keyed by (source position u8, source row u32 BE,
     target row u32 BE), value the target row, so the instances fed by a
     source cell are one prefix scan.

   Both are written in place through the pager (WAL, rollback, recovery
   and snapshot overlays need nothing of their own) and reattach from a
   fixed-size {!head}.  A rule's structures are allocated by its first
   instance. *)
type rule_graph = {
  rule : string;
  srcs : (string * int) array;  (* (table, column) of each source *)
  tgt : string * int;
  fwd : Page_array.t;
  back : Btree.t;
  mutable count : int;
}

type t = { bp : Pager.t; rules : (string, rule_graph) Hashtbl.t }

let create bp = { bp; rules = Hashtbl.create 4 }

(* Rules in id order, so every walk is deterministic. *)
let graphs t =
  Hashtbl.fold (fun _ g acc -> g :: acc) t.rules []
  |> List.sort (fun a b -> String.compare a.rule b.rule)

let rev_key ~pos ~src_row ~tgt_row =
  let b = Bytes.create 9 in
  Bytes.set_uint8 b 0 pos;
  Bytes.set_int32_be b 1 (Int32.of_int src_row);
  Bytes.set_int32_be b 5 (Int32.of_int tgt_row);
  Bytes.unsafe_to_string b

let rev_prefix ~pos ~src_row = String.sub (rev_key ~pos ~src_row ~tgt_row:0) 0 5

(* Source rows of [g]'s instance at [row], if it has one. *)
let source_rows g row =
  if row >= Page_array.length g.fwd then None
  else
    Page_array.get g.fwd row (fun page off ->
        if Page.get_u32 page off = 0 then None
        else Some (Array.init (Array.length g.srcs) (fun i -> Page.get_u32 page (off + (4 * i)) - 1)))

let instance_of g ~row rows =
  {
    rule_id = g.rule;
    sources =
      Array.to_list (Array.mapi (fun i (table, col) -> { table; row = rows.(i); col }) g.srcs);
    target = { table = fst g.tgt; row; col = snd g.tgt };
  }

let graph_for t inst =
  let srcs = Array.of_list (List.map (fun c -> (c.table, c.col)) inst.sources) in
  let tgt = (inst.target.table, inst.target.col) in
  match Hashtbl.find_opt t.rules inst.rule_id with
  | Some g ->
      if g.srcs <> srcs || g.tgt <> tgt then
        invalid_arg
          (Printf.sprintf "Dep_graph.add_instance: cells do not match rule %s" inst.rule_id);
      g
  | None ->
      if srcs = [||] then invalid_arg "Dep_graph.add_instance: no sources";
      let g =
        {
          rule = inst.rule_id;
          srcs;
          tgt;
          fwd = Page_array.create t.bp ~entry_size:(4 * Array.length srcs);
          back = Btree.create t.bp;
          count = 0;
        }
      in
      Hashtbl.replace t.rules inst.rule_id g;
      g

(* One instance per target cell and rule: linking a target again
   replaces its sources. *)
let add_instance t inst =
  let g = graph_for t inst in
  let row = inst.target.row in
  (match source_rows g row with
  | Some old ->
      Array.iteri
        (fun pos src_row ->
          ignore (Btree.delete g.back ~key:(rev_key ~pos ~src_row ~tgt_row:row) ~value:row))
        old
  | None -> g.count <- g.count + 1);
  while Page_array.length g.fwd <= row do
    ignore (Page_array.push g.fwd (fun _ _ -> ()))
  done;
  Page_array.set g.fwd row (fun page off ->
      List.iteri (fun i c -> Page.set_u32 page (off + (4 * i)) (c.row + 1)) inst.sources);
  List.iteri
    (fun pos c ->
      Btree.insert g.back ~key:(rev_key ~pos ~src_row:c.row ~tgt_row:row) ~value:row)
    inst.sources

(* Target rows of [g]'s instances having one of [rows] (ascending,
   distinct) at source position [pos]: one range scan of the reverse tree
   per run of consecutive rows, so a lone row is one prefix probe and a
   statement over a block of rows sweeps it once. *)
let targets_fed g ~pos rows =
  let scan lo hi =
    Btree.range g.back
      ~lo:(rev_prefix ~pos ~src_row:lo, true)
      ~hi:(rev_prefix ~pos ~src_row:(hi + 1), false)
      ()
  in
  let rec runs acc lo hi = function
    | r :: rest when r = hi + 1 -> runs acc lo r rest
    | r :: rest -> runs (scan lo hi :: acc) r r rest
    | [] -> List.concat_map (List.map snd) (List.rev (scan lo hi :: acc))
  in
  match rows with [] -> [] | r :: rest -> runs [] r r rest

let instances_from t cells =
  List.concat_map
    (fun g ->
      List.concat
        (List.mapi
           (fun pos (table, col) ->
             let rows =
               List.filter_map
                 (fun c -> if c.table = table && c.col = col then Some c.row else None)
                 cells
             in
             List.filter_map
               (fun row -> Option.map (instance_of g ~row) (source_rows g row))
               (targets_fed g ~pos (List.sort_uniq Int.compare rows)))
           (Array.to_list g.srcs)))
    (graphs t)

let instance_for_target t target =
  List.find_map
    (fun g ->
      if g.tgt <> (target.table, target.col) then None
      else Option.map (instance_of g ~row:target.row) (source_rows g target.row))
    (graphs t)

(* Entries are copied out of each leaf before [f] runs, so [f] may touch
   pages itself. *)
let iter_instances t f =
  List.iter
    (fun g ->
      let n = Page_array.length g.fwd and k = Array.length g.srcs in
      let rec go i =
        if i < n then begin
          let chunk =
            Page_array.run g.fwd i (fun page off m ->
                List.init m (fun j ->
                    let base = off + (4 * k * j) in
                    if Page.get_u32 page base = 0 then None
                    else
                      Some (i + j, Array.init k (fun s -> Page.get_u32 page (base + (4 * s)) - 1))))
          in
          List.iter
            (function Some (row, rows) -> f (instance_of g ~row rows) | None -> ())
            chunk;
          go (i + List.length chunk)
        end
      in
      go 0)
    (graphs t)

let instance_count t = Hashtbl.fold (fun _ g acc -> acc + g.count) t.rules 0

(* ------------------------------------------------------ durable heads *)

type head = {
  rule_name : string;
  source_cols : (string * int) list;  (** (table, column) of each source *)
  target_col : string * int;
  fwd_root : Page.id;
  fwd_length : int;
  rev : Btree.head;
  instances : int;
}

let heads t =
  List.map
    (fun g ->
      {
        rule_name = g.rule;
        source_cols = Array.to_list g.srcs;
        target_col = g.tgt;
        fwd_root = Page_array.root g.fwd;
        fwd_length = Page_array.length g.fwd;
        rev = Btree.head g.back;
        instances = g.count;
      })
    (graphs t)

let attach t h =
  let srcs = Array.of_list h.source_cols in
  Hashtbl.replace t.rules h.rule_name
    {
      rule = h.rule_name;
      srcs;
      tgt = h.target_col;
      fwd =
        Page_array.attach t.bp ~entry_size:(4 * Array.length srcs) ~root:h.fwd_root
          ~length:h.fwd_length;
      back = Btree.attach t.bp h.rev;
      count = h.instances;
    }
