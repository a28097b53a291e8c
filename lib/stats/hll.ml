(* HyperLogLog sketch: p = 10 index bits, m = 1024 one-byte registers. *)

let p = 10
let m = 1 lsl p

(* [memo] caches {!estimate}: the planner asks for a column's NDV
   several times per plan and the register loop costs far more than a
   one-row probe.  Only a rising register can change the estimate, so
   [add] clears the memo just then. *)
type t = { regs : Bytes.t; mutable memo : float option }

let create () = { regs = Bytes.make m '\000'; memo = None }
let copy t = { regs = Bytes.copy t.regs; memo = t.memo }

(* FNV-1a, 64-bit.  Hashtbl.hash folds only a prefix of long strings
   and yields 30-bit values — useless for distinguishing millions of
   keys — so we hash properly here. *)
let fnv1a (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let add t key =
  let h = fnv1a key in
  let idx = Int64.to_int (Int64.logand h (Int64.of_int (m - 1))) in
  let rest = Int64.shift_right_logical h p in
  (* rank = 1-based position of the lowest set bit of the remaining
     54 hash bits (capped when they are all zero) *)
  let rank =
    let rec go i =
      if i >= 64 - p then (64 - p) + 1
      else if Int64.logand (Int64.shift_right_logical rest i) 1L = 1L then i + 1
      else go (i + 1)
    in
    go 0
  in
  if rank > Char.code (Bytes.get t.regs idx) then begin
    Bytes.set t.regs idx (Char.chr rank);
    t.memo <- None
  end

let merge a b =
  let out = Bytes.copy a.regs in
  for i = 0 to m - 1 do
    if Bytes.get b.regs i > Bytes.get out i then Bytes.set out i (Bytes.get b.regs i)
  done;
  { regs = out; memo = None }

let alpha = 0.7213 /. (1.0 +. (1.079 /. float_of_int m))

let compute regs =
  let sum = ref 0.0 and zeros = ref 0 in
  for i = 0 to m - 1 do
    let r = Char.code (Bytes.get regs i) in
    if r = 0 then incr zeros;
    sum := !sum +. Float.ldexp 1.0 (-r)
  done;
  let raw = alpha *. float_of_int m *. float_of_int m /. !sum in
  if raw <= 2.5 *. float_of_int m && !zeros > 0 then
    (* linear counting is more accurate in the small range *)
    float_of_int m *. log (float_of_int m /. float_of_int !zeros)
  else raw

let estimate t =
  match t.memo with
  | Some e -> e
  | None ->
      let e = compute t.regs in
      t.memo <- Some e;
      e

let to_string t = Bytes.to_string t.regs

let of_string s =
  if String.length s <> m then invalid_arg "Hll.of_string: bad register count";
  { regs = Bytes.of_string s; memo = None }
