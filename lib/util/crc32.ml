(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320).  Used by the WAL, page
   trailers and the catalog to detect torn or corrupted data; check value
   for "123456789" is 0xCBF43926.  The kernels are C (crc32_stubs.c): a
   carry-less-multiply fold on x86-64 with PCLMULQDQ, slicing-by-8 on
   every other host and for the fold's tail; the bounds are checked here,
   once per call. *)

external init : unit -> unit = "bdbms_crc32_init"
external folded_kernel : unit -> bool = "bdbms_crc32_folded"

external digest_unsafe : string -> int -> int -> int = "bdbms_crc32_digest"
[@@noalloc]

external portable_unsafe : string -> int -> int -> int = "bdbms_crc32_portable"
[@@noalloc]

let () = init ()

(* True when [string]/[bytes] run the folded kernel on this host. *)
let folded = folded_kernel ()

let checked digest s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32: pos/len out of range";
  digest s pos len

let string ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  checked digest_unsafe s pos len

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  checked digest_unsafe (Bytes.unsafe_to_string b) pos len

(* The slicing-by-8 kernel alone, whatever the host: the reference the
   folded one is tested against. *)
let portable ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  checked portable_unsafe s pos len
