type t = Value.t array

let make vs = Array.of_list vs

let check schema t =
  if Array.length t <> Schema.arity schema then
    Error
      (Printf.sprintf "arity mismatch: tuple has %d values, schema has %d"
         (Array.length t) (Schema.arity schema))
  else begin
    let problem = ref None in
    Array.iteri
      (fun i v ->
        if !problem = None then
          let col = Schema.column_at schema i in
          if not (Value.conforms v col.ty) then
            problem :=
              Some
                (Printf.sprintf "column %s expects %s, got %s" col.name
                   (Value.type_name col.ty) (Value.to_display v)))
      t;
    match !problem with None -> Ok () | Some msg -> Error msg
  end

(* [check] against a precomputed column array (a [Batch.layout]'s view of
   the schema), so the hot insert/update path skips the per-value
   [Schema.column_at] calls.  Error messages match [check] exactly. *)
let check_cols (cols : Schema.column array) t =
  if Array.length t <> Array.length cols then
    Error
      (Printf.sprintf "arity mismatch: tuple has %d values, schema has %d"
         (Array.length t) (Array.length cols))
  else begin
    let problem = ref None in
    Array.iteri
      (fun i v ->
        if !problem = None then
          let col = cols.(i) in
          if not (Value.conforms v col.ty) then
            problem :=
              Some
                (Printf.sprintf "column %s expects %s, got %s" col.name
                   (Value.type_name col.ty) (Value.to_display v)))
      t;
    match !problem with None -> Ok () | Some msg -> Error msg
  end

let get t i = t.(i)

let set t i v =
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

let project schema t names =
  Array.of_list (List.map (fun n -> t.(Schema.index_of_exn schema n)) names)

let encode t =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr (Array.length t land 0xff));
  Buffer.add_char buf (Char.chr ((Array.length t lsr 8) land 0xff));
  Array.iter (fun v -> Buffer.add_string buf (Value.encode v)) t;
  Buffer.contents buf

let decode s =
  if String.length s < 2 then invalid_arg "Tuple.decode: truncated";
  let n = Char.code s.[0] lor (Char.code s.[1] lsl 8) in
  let pos = ref 2 in
  let t =
    Array.init n (fun _ ->
        let v, pos' = Value.decode s ~pos:!pos in
        pos := pos';
        v)
  in
  if !pos <> String.length s then invalid_arg "Tuple.decode: trailing bytes";
  t

(* [decode] when the caller already knows the arity (from a table layout):
   validates the stored header against it instead of trusting the payload
   to size the result. *)
let decode_using ~arity s =
  if String.length s < 2 then invalid_arg "Tuple.decode: truncated";
  let n = Char.code s.[0] lor (Char.code s.[1] lsl 8) in
  if n <> arity then
    invalid_arg
      (Printf.sprintf "Tuple.decode_using: payload has %d values, expected %d" n
         arity);
  let pos = ref 2 in
  let t =
    Array.init n (fun _ ->
        let v, pos' = Value.decode s ~pos:!pos in
        pos := pos';
        v)
  in
  if !pos <> String.length s then invalid_arg "Tuple.decode: trailing bytes";
  t

let add_group_key buf k =
  Buffer.add_string buf (string_of_int (String.length k));
  Buffer.add_char buf ':';
  Buffer.add_string buf k

let group_key t =
  if Array.length t = 1 then Value.group_key t.(0)
  else begin
    let buf = Buffer.create 32 in
    Array.iter (fun v -> add_group_key buf (Value.group_key v)) t;
    Buffer.contents buf
  end

let equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let size_bytes t = String.length (encode t)

let to_display t =
  String.concat " | " (Array.to_list (Array.map Value.to_display t))

let pp fmt t = Format.pp_print_string fmt (to_display t)
