type t = Bytes.t
type id = int

let default_size = 4096

let create ?(size = default_size) () = Bytes.make size '\000'
let size = Bytes.length
let copy = Bytes.copy

let get_byte t i = Char.code (Bytes.get t i)
let set_byte t i v = Bytes.set t i (Char.chr (v land 0xff))

let get_u16 t i = Bytes.get_uint16_le t i

let set_u16 t i v =
  set_byte t i (v land 0xff);
  set_byte t (i + 1) ((v lsr 8) land 0xff)

let get_u32 t i = Int32.to_int (Bytes.get_int32_le t i) land 0xffff_ffff

let set_u32 t i v =
  set_byte t i (v land 0xff);
  set_byte t (i + 1) ((v lsr 8) land 0xff);
  set_byte t (i + 2) ((v lsr 16) land 0xff);
  set_byte t (i + 3) ((v lsr 24) land 0xff)

let get_bytes t ~pos ~len = Bytes.sub_string t pos len
let set_bytes t ~pos s = Bytes.blit_string s 0 t pos (String.length s)

let compare_bytes t ~pos ~len s =
  if pos < 0 || len < 0 || pos + len > Bytes.length t then invalid_arg "Page.compare_bytes";
  let slen = String.length s in
  let n = if len < slen then len else slen in
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get t (pos + !i) = String.unsafe_get s !i do
    incr i
  done;
  if !i < n then Char.code (Bytes.unsafe_get t (pos + !i)) - Char.code (String.unsafe_get s !i)
  else len - slen

let unsafe_bytes t = t

let blit ~src ~src_pos ~dst ~dst_pos ~len = Bytes.blit src src_pos dst dst_pos len
let zero t = Bytes.fill t 0 (Bytes.length t) '\000'
