(* Sample buffers and order statistics. *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 256 0.; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n

let merge ss =
  let out = samples () in
  List.iter (fun s -> for i = 0 to s.n - 1 do add out s.a.(i) done) ss;
  out

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 1]. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let percentile s p = percentile_sorted (sorted s) p

let median_list vs =
  let a = Array.of_list vs in
  Array.sort Float.compare a;
  percentile_sorted a 0.5

(* Quartiles as Python's [statistics.quantiles(values, n=4)] computes them
   (the default "exclusive" method), so the spreads this bench reports are
   the ones a reader recomputes from the same values. *)
let quartiles vs =
  let a = Array.of_list vs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread vs =
  let q1, med, q3 = quartiles vs in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med
