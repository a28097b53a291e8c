module Rle = Bdbms_util.Rle

type ty = TInt | TFloat | TString | TBool | TDna | TProtein | TRle

type t =
  | VNull
  | VInt of int
  | VFloat of float
  | VString of string
  | VBool of bool
  | VDna of string
  | VProtein of string
  | VRle of Rle.t

let type_of = function
  | VNull -> None
  | VInt _ -> Some TInt
  | VFloat _ -> Some TFloat
  | VString _ -> Some TString
  | VBool _ -> Some TBool
  | VDna _ -> Some TDna
  | VProtein _ -> Some TProtein
  | VRle _ -> Some TRle

let type_name = function
  | TInt -> "INT"
  | TFloat -> "FLOAT"
  | TString -> "TEXT"
  | TBool -> "BOOL"
  | TDna -> "DNA"
  | TProtein -> "PROTEIN"
  | TRle -> "RLE"

let type_of_name name =
  match String.uppercase_ascii name with
  | "INT" | "INTEGER" -> Some TInt
  | "FLOAT" | "REAL" | "DOUBLE" -> Some TFloat
  | "TEXT" | "STRING" | "VARCHAR" -> Some TString
  | "BOOL" | "BOOLEAN" -> Some TBool
  | "DNA" -> Some TDna
  | "PROTEIN" -> Some TProtein
  | "RLE" -> Some TRle
  | _ -> None

let conforms v ty = match type_of v with None -> true | Some ty' -> ty = ty'

let is_null = function VNull -> true | _ -> false

let seq_string = function
  | VString s | VDna s | VProtein s -> Some s
  | VRle r -> Some (Rle.decode r)
  | _ -> None

let equal a b =
  match (a, b) with
  | VNull, VNull -> true
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> x = y
  | VInt x, VFloat y | VFloat y, VInt x -> float_of_int x = y
  | VBool x, VBool y -> x = y
  | (VString _ | VDna _ | VProtein _ | VRle _), (VString _ | VDna _ | VProtein _ | VRle _)
    -> (
      (* sequence-like values compare by decoded content *)
      match (a, b) with
      | VRle x, VRle y -> Rle.equal x y || Rle.compare x y = 0
      | VRle x, other | other, VRle x -> (
          match seq_string other with
          | Some s -> Rle.compare_raw x s = 0
          | None -> false)
      | _ -> (
          match (seq_string a, seq_string b) with
          | Some x, Some y -> String.equal x y
          | _ -> false))
  | _ -> false

let type_rank = function
  | VNull -> 0
  | VBool _ -> 1
  | VInt _ | VFloat _ -> 2
  | VString _ | VDna _ | VProtein _ | VRle _ -> 3

let compare a b =
  let ra = type_rank a and rb = type_rank b in
  if ra <> rb then Int.compare ra rb
  else
    match (a, b) with
    | VNull, VNull -> 0
    | VBool x, VBool y -> Bool.compare x y
    | VInt x, VInt y -> Int.compare x y
    | VFloat x, VFloat y -> Float.compare x y
    | VInt x, VFloat y -> Float.compare (float_of_int x) y
    | VFloat x, VInt y -> Float.compare x (float_of_int y)
    | VRle x, VRle y -> Rle.compare x y
    | VRle x, other -> (
        match seq_string other with
        | Some s -> Rle.compare_raw x s
        | None -> assert false)
    | other, VRle y -> (
        match seq_string other with
        | Some s -> -Rle.compare_raw y s
        | None -> assert false)
    | _ -> (
        match (seq_string a, seq_string b) with
        | Some x, Some y -> String.compare x y
        | _ -> assert false)

(* Binary codec: 1 tag byte, then payload.
   Integers as 8-byte little-endian two's complement; floats as int64 bits;
   strings as u32 length + bytes. *)

let add_u32 buf n =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let add_i64 buf (n : int64) =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xffL)))
  done

let read_u32 s pos =
  let b i = Char.code s.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let read_i64 s pos =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  !v

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let encode v =
  let buf = Buffer.create 16 in
  (match v with
  | VNull -> Buffer.add_char buf '\000'
  | VInt n ->
      Buffer.add_char buf '\001';
      add_i64 buf (Int64.of_int n)
  | VFloat f ->
      Buffer.add_char buf '\002';
      add_i64 buf (Int64.bits_of_float f)
  | VString s ->
      Buffer.add_char buf '\003';
      add_str buf s
  | VBool b -> Buffer.add_char buf (if b then '\005' else '\004')
  | VDna s ->
      Buffer.add_char buf '\006';
      add_str buf s
  | VProtein s ->
      Buffer.add_char buf '\007';
      add_str buf s
  | VRle r ->
      Buffer.add_char buf '\008';
      add_str buf (Rle.to_string r));
  Buffer.contents buf

let decode s ~pos =
  if pos >= String.length s then invalid_arg "Value.decode: truncated";
  let tag = s.[pos] in
  let need n =
    if pos + 1 + n > String.length s then invalid_arg "Value.decode: truncated"
  in
  match tag with
  | '\000' -> (VNull, pos + 1)
  | '\001' ->
      need 8;
      (VInt (Int64.to_int (read_i64 s (pos + 1))), pos + 9)
  | '\002' ->
      need 8;
      (VFloat (Int64.float_of_bits (read_i64 s (pos + 1))), pos + 9)
  | '\004' -> (VBool false, pos + 1)
  | '\005' -> (VBool true, pos + 1)
  | '\003' | '\006' | '\007' | '\008' ->
      need 4;
      let len = read_u32 s (pos + 1) in
      need (4 + len);
      let payload = String.sub s (pos + 5) len in
      let v =
        match tag with
        | '\003' -> VString payload
        | '\006' -> VDna payload
        | '\007' -> VProtein payload
        | _ -> VRle (Rle.of_string payload)
      in
      (v, pos + 5 + len)
  | _ -> invalid_arg "Value.decode: bad tag"

let size_bytes v = String.length (encode v)

let to_display = function
  | VNull -> "NULL"
  | VInt n -> string_of_int n
  | VFloat f -> Printf.sprintf "%g" f
  | VString s -> s
  | VBool b -> if b then "true" else "false"
  | VDna s -> s
  | VProtein s -> s
  | VRle r -> Rle.to_string r

let pp fmt v = Format.pp_print_string fmt (to_display v)

let as_int = function
  | VInt n -> n
  | v -> invalid_arg ("Value.as_int: " ^ to_display v)

let as_float = function
  | VInt n -> float_of_int n
  | VFloat f -> f
  | v -> invalid_arg ("Value.as_float: " ^ to_display v)

let as_string v =
  match seq_string v with
  | Some s -> s
  | None -> invalid_arg ("Value.as_string: " ^ to_display v)

let as_bool = function
  | VBool b -> b
  | v -> invalid_arg ("Value.as_bool: " ^ to_display v)

(* Equality-compatible hash key: [hash_key a = hash_key b] whenever
   [equal a b] (ints and floats share the numeric encoding, string-likes
   their decoded content).  The reverse need not hold — a hash join must
   re-check [equal] on each candidate pair — and NULL has no key because
   SQL equality never matches it. *)
let hash_key = function
  | VNull -> None
  | VBool b -> Some (if b then "b1" else "b0")
  | (VInt _ | VFloat _) as v ->
      let f = as_float v in
      let f = if f = 0.0 then 0.0 (* collapse -0.0 *) else f in
      Some ("f" ^ Int64.to_string (Int64.bits_of_float f))
  | v -> (
      match seq_string v with Some s -> Some ("s" ^ s) | None -> None)

(* Integral floats in int range key like the int they equal (-0.0 is
   integral, so it keys as 0); every NaN is one key, since [compare]
   makes them equal. *)
let float_group_key f =
  if Float.is_integer f && Float.abs f < 0x1p62 then
    "i" ^ string_of_int (int_of_float f)
  else if Float.is_nan f then "fnan"
  else "f" ^ Int64.to_string (Int64.bits_of_float f)

let group_key = function
  | VNull -> "n"
  | VBool b -> if b then "b1" else "b0"
  | VInt n -> "i" ^ string_of_int n
  | VFloat f -> float_group_key f
  | v -> "s" ^ as_string v
