(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320), slicing-by-8.  Used by the
   WAL, page trailers and the catalog to detect torn or corrupted data;
   check value for "123456789" is 0xCBF43926.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic bytewise table, and table k advances a byte's contribution
   through k further zero bytes, so one step folds eight input bytes
   with eight lookups.  The bounds are checked once per call; the loops
   then use unchecked loads. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Closed, so the non-flambda compiler inlines them into the loops. *)
let[@inline] tbl t k i = Array.unsafe_get t ((k lsl 8) lor i)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let digest_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32: pos/len out of range";
  let t = tables in
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i and c = !crc in
    crc :=
      tbl t 7 ((c lxor byte s p) land 0xff)
      lxor tbl t 6 (((c lsr 8) lxor byte s (p + 1)) land 0xff)
      lxor tbl t 5 (((c lsr 16) lxor byte s (p + 2)) land 0xff)
      lxor tbl t 4 ((c lsr 24) lxor byte s (p + 3))
      lxor tbl t 3 (byte s (p + 4))
      lxor tbl t 2 (byte s (p + 5))
      lxor tbl t 1 (byte s (p + 6))
      lxor tbl t 0 (byte s (p + 7));
    i := p + 8
  done;
  for p = stop8 to pos + len - 1 do
    let c = !crc in
    crc := tbl t 0 ((c lxor byte s p) land 0xff) lxor (c lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let string ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  digest_sub s pos len

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  digest_sub (Bytes.unsafe_to_string b) pos len
