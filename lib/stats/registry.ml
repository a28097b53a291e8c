module Value = Bdbms_relation.Value

type t = { tables : (string, Table_stats.t) Hashtbl.t; mutable version : int }

let key = String.lowercase_ascii
let create () = { tables = Hashtbl.create 16; version = 0 }
let version t = t.version
let bump t = t.version <- t.version + 1
let find t name = Hashtbl.find_opt t.tables (key name)

let set t (ts : Table_stats.t) =
  Hashtbl.replace t.tables (key ts.Table_stats.table) ts;
  bump t

let remove t name =
  Hashtbl.remove t.tables (key name);
  bump t

let all t =
  Hashtbl.fold (fun _ ts acc -> ts :: acc) t.tables []
  |> List.sort (fun a b ->
         compare a.Table_stats.table b.Table_stats.table)

let stale t = List.filter Table_stats.is_stale (all t)

let note t name f =
  match find t name with
  | Some ts ->
      f ts;
      bump t
  | None -> ()

let note_insert t name row = note t name (fun ts -> Table_stats.note_insert ts row)
let note_update t name ~col v = note t name (fun ts -> Table_stats.note_update ts ~col v)
let note_delete t name row = note t name (fun ts -> Table_stats.note_delete ts row)

let mark_stale t name =
  match find t name with
  | Some ts when not (Table_stats.is_stale ts) ->
      Table_stats.mark_stale ts;
      bump t;
      true
  | _ -> false

(* ----------------------------------------------------------- codec *)
(* One self-contained versioned blob per table; the durable catalog
   treats these as opaque strings under its own record tag. *)

let blob_version = 1

exception Malformed

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_u32 b v =
  add_u8 b v;
  add_u8 b (v lsr 8);
  add_u8 b (v lsr 16);
  add_u8 b (v lsr 24)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_f64 b f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

let add_bool b v = add_u8 b (if v then 1 else 0)

let add_opt b add = function
  | None -> add_u8 b 0
  | Some v ->
      add_u8 b 1;
      add b v

let add_list b add xs =
  add_u32 b (List.length xs);
  List.iter (add b) xs

let add_value b v = add_str b (Value.encode v)

type reader = { buf : string; mutable pos : int }

let need r n = if r.pos + n > String.length r.buf then raise Malformed

let u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let u32 r =
  let a = u8 r in
  let b = u8 r in
  let c = u8 r in
  let d = u8 r in
  a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

let str r =
  let n = u32 r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let f64 r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (u8 r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let bool r = u8 r <> 0
let opt read r = if u8 r = 0 then None else Some (read r)

let list read r =
  let n = u32 r in
  if n < 0 then raise Malformed;
  List.init n (fun _ -> read r)

let value r =
  let s = str r in
  try fst (Value.decode s ~pos:0) with Invalid_argument _ -> raise Malformed

let encode_table (ts : Table_stats.t) =
  let b = Buffer.create 256 in
  add_u8 b blob_version;
  add_str b ts.table;
  add_u32 b ts.analyzed_rows;
  add_u32 b ts.live_rows;
  add_u32 b ts.mods;
  add_bool b ts.stale;
  add_u32 b (Array.length ts.columns);
  Array.iter
    (fun (cs : Table_stats.col_stats) ->
      add_f64 b cs.null_frac;
      add_str b (Hll.to_string cs.hll);
      add_opt b add_value cs.min_v;
      add_opt b add_value cs.max_v;
      add_list b
        (fun b (v, f) ->
          add_value b v;
          add_f64 b f)
        cs.mcvs;
      add_opt b
        (fun b (h : Histogram.t) ->
          add_list b add_value (Array.to_list h.bounds))
        cs.hist)
    ts.columns;
  Buffer.contents b

let decode_table blob =
  try
    let r = { buf = blob; pos = 0 } in
    if u8 r <> blob_version then None
    else begin
      let table = str r in
      let analyzed_rows = u32 r in
      let live_rows = u32 r in
      let mods = u32 r in
      let stale = bool r in
      let ncols = u32 r in
      if ncols < 0 || ncols > 65536 then raise Malformed;
      let columns =
        Array.init ncols (fun _ ->
            let null_frac = f64 r in
            let hll = try Hll.of_string (str r) with Invalid_argument _ -> raise Malformed in
            let min_v = opt value r in
            let max_v = opt value r in
            let mcvs =
              list
                (fun r ->
                  let v = value r in
                  let f = f64 r in
                  (v, f))
                r
            in
            let hist =
              match opt (list value) r with
              | None -> None
              | Some bounds -> Histogram.of_bounds (Array.of_list bounds)
            in
            { Table_stats.null_frac; hll; min_v; max_v; mcvs; hist })
      in
      if r.pos <> String.length blob then raise Malformed;
      Some { Table_stats.table; analyzed_rows; live_rows; mods; stale; columns }
    end
  with Malformed | Invalid_argument _ -> None

let encode_all t = List.map encode_table (all t)

let restore t blobs =
  List.iter (fun blob -> Option.iter (set t) (decode_table blob)) blobs
