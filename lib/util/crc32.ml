(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320).  Used by the WAL, page
   trailers and the catalog to detect torn or corrupted data; check value
   for "123456789" is 0xCBF43926.  The slicing-by-8 loop is C
   (crc32_stubs.c); the bounds are checked here, once per call. *)

external init : unit -> unit = "bdbms_crc32_init"

external digest_unsafe : string -> int -> int -> int = "bdbms_crc32_digest"
[@@noalloc]

let () = init ()

let digest_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32: pos/len out of range";
  digest_unsafe s pos len

let string ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  digest_sub s pos len

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  digest_sub (Bytes.unsafe_to_string b) pos len
