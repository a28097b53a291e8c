type t = { rows : int; cols : int; bits : Bytes.t }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Bitmap.create";
  let nbytes = (rows * cols + 7) / 8 in
  { rows; cols; bits = Bytes.make nbytes '\000' }

let rows t = t.rows
let cols t = t.cols

let index t row col =
  if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
    invalid_arg "Bitmap: out of bounds";
  (row * t.cols) + col

let set t ~row ~col v =
  let i = index t row col in
  let byte = i / 8 and bit = i mod 8 in
  let cur = Char.code (Bytes.get t.bits byte) in
  let cur' = if v then cur lor (1 lsl bit) else cur land lnot (1 lsl bit) in
  Bytes.set t.bits byte (Char.chr (cur' land 0xff))

let get t ~row ~col =
  let i = index t row col in
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

let unsafe_get_flat t i =
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_row t ~row v =
  for col = 0 to t.cols - 1 do
    set t ~row ~col v
  done

let set_col t ~col v =
  for row = 0 to t.rows - 1 do
    set t ~row ~col v
  done

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let count_set t =
  let n = ref 0 in
  for row = 0 to t.rows - 1 do
    for col = 0 to t.cols - 1 do
      if get t ~row ~col then incr n
    done
  done;
  !n

let iter_set t f =
  for row = 0 to t.rows - 1 do
    for col = 0 to t.cols - 1 do
      if get t ~row ~col then f row col
    done
  done

let union_into ~dst ~src =
  if dst.rows <> src.rows || dst.cols <> src.cols then
    invalid_arg "Bitmap.union_into: dimension mismatch";
  for i = 0 to Bytes.length dst.bits - 1 do
    let v = Char.code (Bytes.get dst.bits i) lor Char.code (Bytes.get src.bits i) in
    Bytes.set dst.bits i (Char.chr v)
  done

let copy t = { t with bits = Bytes.copy t.bits }

let append_rows t n =
  if n < 0 then invalid_arg "Bitmap.append_rows";
  let t' = create ~rows:(t.rows + n) ~cols:t.cols in
  iter_set t (fun row col -> set t' ~row ~col true);
  t'

let raw_size_bytes t = (t.rows * t.cols + 7) / 8

let to_rle_runs t =
  let total = t.rows * t.cols in
  if total = 0 then []
  else begin
    let at i = get t ~row:(i / t.cols) ~col:(i mod t.cols) in
    let out = ref [] in
    let cur = ref (at 0) and len = ref 1 in
    for i = 1 to total - 1 do
      let b = at i in
      if b = !cur then incr len
      else begin
        out := (!cur, !len) :: !out;
        cur := b;
        len := 1
      end
    done;
    out := (!cur, !len) :: !out;
    List.rev !out
  end

let of_rle_runs ~rows ~cols runs =
  let t = create ~rows ~cols in
  let pos = ref 0 in
  List.iter
    (fun (b, len) ->
      if len < 0 then invalid_arg "Bitmap.of_rle_runs: negative run";
      if b then
        for i = !pos to !pos + len - 1 do
          set t ~row:(i / cols) ~col:(i mod cols) true
        done;
      pos := !pos + len)
    runs;
  if !pos <> rows * cols then invalid_arg "Bitmap.of_rle_runs: length mismatch";
  t

(* The RLE byte form of [to_rle_runs]: a marker byte holding the first
   run's bit, then each run's length as a varint (7 bits per byte, low
   first). *)
let to_rle t =
  let b = Buffer.create 16 in
  let rec varint n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      varint (n lsr 7)
    end
  in
  let runs = to_rle_runs t in
  Buffer.add_char b (match runs with (true, _) :: _ -> '\001' | _ -> '\000');
  List.iter (fun (_, len) -> varint len) runs;
  Buffer.contents b

let of_rle ~rows ~cols s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bitmap.of_rle: empty";
  let rec varint pos shift acc =
    if pos >= n then invalid_arg "Bitmap.of_rle: truncated run";
    let c = Char.code s.[pos] in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then (acc, pos + 1) else varint (pos + 1) (shift + 7) acc
  in
  let rec runs pos bit acc =
    if pos >= n then List.rev acc
    else
      let len, pos = varint pos 0 0 in
      runs pos (not bit) ((bit, len) :: acc)
  in
  of_rle_runs ~rows ~cols (runs 1 (s.[0] <> '\000') [])

let compressed_size_bytes t = String.length (to_rle t)

let equal a b = a.rows = b.rows && a.cols = b.cols && Bytes.equal a.bits b.bits

let pp fmt t =
  for row = 0 to t.rows - 1 do
    for col = 0 to t.cols - 1 do
      Format.pp_print_char fmt (if get t ~row ~col then '1' else '0')
    done;
    if row < t.rows - 1 then Format.pp_print_newline fmt ()
  done
