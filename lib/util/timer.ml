(* Monotonic wall-clock timer, distinct from the logical [Clock] the
   annotation/provenance managers timestamp with.

   The observability layer ([Bdbms_obs]) needs real elapsed time:
   nanosecond readings whose differences are meaningful.  The host clock
   ([Unix.gettimeofday]) can step backwards under NTP adjustment, so
   readings are clamped to be non-decreasing — [now_ns] never goes
   backwards within a process, which is all span and histogram math
   needs. *)

type ns = int

let last = ref 0

let now_ns () : ns =
  let t = int_of_float (Unix.gettimeofday () *. 1e9) in
  if t > !last then last := t;
  !last

let since_ns start : ns = now_ns () - start

(* Time a thunk; the elapsed time is reported even if [f] raises. *)
let timed f =
  let start = now_ns () in
  let result = f () in
  (result, now_ns () - start)

let ns_to_ms ns = float_of_int ns /. 1e6

let pp_ns fmt ns =
  let f = float_of_int ns in
  if f < 1e3 then Format.fprintf fmt "%dns" ns
  else if f < 1e6 then Format.fprintf fmt "%.1fus" (f /. 1e3)
  else if f < 1e9 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else Format.fprintf fmt "%.2fs" (f /. 1e9)
