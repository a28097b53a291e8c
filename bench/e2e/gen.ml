(* Deterministic inputs for the E20 workloads: E. coli-style genes, the
   proteins derived from them, the scrambled-Zipfian key stream, and the
   SQL that loads them.  Everything is a pure function of the seed, so the
   oracles can recompute every expected answer in the bench process; the
   server only ever sees the generated SQL. *)

module Prng = Bdbms_util.Prng
module Dna = Bdbms_bio.Dna
module Translate = Bdbms_bio.Translate

type gene = { gid : string; gname : string; seq : string; gc : int; len : int }

type protein = {
  pid : string;
  p_gid : string;
  pseq : string;
  mw : float;
  fam : int;
}

let name_prefixes =
  [| "mra"; "fts"; "yab"; "fru"; "cai"; "fix"; "isp"; "dna"; "rec"; "pol" |]

let gc_percent seq = int_of_float (Float.round (100. *. Dna.gc_content seq))

(* Open reading frames of 20..60 codons, so lengths (and the top-10 by
   length) vary from gene to gene. *)
let orf rng = Dna.random_gene rng ~codons:(Prng.int_in rng ~lo:20 ~hi:60)

let gene_of rng gid =
  let seq = orf rng in
  {
    gid;
    gname =
      Printf.sprintf "%s%c" (Prng.choose rng name_prefixes)
        (Char.chr (Char.code 'A' + Prng.int rng 26));
    seq;
    gc = gc_percent seq;
    len = String.length seq;
  }

(* JW0001..JWnnnn: the Keio-collection naming of the loaded genes. *)
let gid_of i = Printf.sprintf "JW%04d" (i + 1)
let genes rng n = Array.init n (fun i -> gene_of rng (gid_of i))

let translate_exn seq =
  match Translate.translate seq with
  | Ok p -> p
  | Error e -> failwith ("Gen.translate: " ^ e)

let protein_of rng i g =
  let pseq = translate_exn g.seq in
  {
    pid = Printf.sprintf "P%05d" (i + 1);
    p_gid = g.gid;
    pseq;
    mw = Translate.molecular_weight pseq;
    fam = Prng.int rng 50;
  }

let proteins rng genes = Array.mapi (protein_of rng) genes

(* ------------------------------------------------------------------ SQL *)

let quote s = "'" ^ s ^ "'"

let gene_values g =
  [ quote g.gid; quote g.gname; quote g.seq; string_of_int g.gc; string_of_int g.len ]

let protein_values p =
  [ quote p.pid; quote p.p_gid; quote p.pseq; Printf.sprintf "%.17g" p.mw; string_of_int p.fam ]

(* The bytes of user data a statement carries: the literals, without SQL
   syntax — the denominator of space amplification. *)
let literal_bytes values =
  List.fold_left
    (fun acc v ->
      let n = String.length v in
      acc + if n >= 2 && v.[0] = '\'' then n - 2 else n)
    0 values

let insert_sql table rows =
  Printf.sprintf "INSERT INTO %s VALUES %s" table
    (String.concat ", "
       (List.map (fun vs -> "(" ^ String.concat ", " vs ^ ")") rows))

(* Multi-row INSERTs of 250 rows each. *)
let inserts table to_values rows =
  let chunk = 250 in
  let rec go acc batch k = function
    | [] -> List.rev (if batch = [] then acc else insert_sql table (List.rev batch) :: acc)
    | r :: rest ->
        if k = chunk then go (insert_sql table (List.rev batch) :: acc) [ to_values r ] 1 rest
        else go acc (to_values r :: batch) (k + 1) rest
  in
  go [] [] 0 (Array.to_list rows)

let gene_ddl =
  "CREATE TABLE gene (gid TEXT, gname TEXT, gsequence DNA, gc INT, len INT)"

let protein_ddl =
  "CREATE TABLE protein (pid TEXT, gid TEXT, psequence PROTEIN, mw FLOAT, fam INT)"

let comments =
  [|
    "obtained from GenoBase"; "possibly split by frameshift"; "pseudogene";
    "This gene has an unknown function"; "verified against lab notebook";
    "low sequencing coverage in this region"; "homolog of B. subtilis divIB";
  |]

(* The [i]th ADD ANNOTATION: on one gene's name cell, the comments taken
   in turn. *)
let annotate_sql i g =
  Printf.sprintf
    "ADD ANNOTATION TO gene.notes VALUE '%s' ON (SELECT gname FROM gene WHERE \
     gid = '%s')"
    comments.(i mod Array.length comments) g.gid

(* ------------------------------------------------------- key selection *)

(* YCSB's scrambled Zipfian: a Zipf(0.99) rank over [0, n), hashed
   (FNV-1a) so the hot keys spread over the whole table instead of
   clustering at its start. *)
type zipf = { n : int; theta : float; alpha : float; zetan : float; eta : float }

let zipf n =
  let theta = 0.99 in
  let zeta k =
    let s = ref 0. in
    for i = 1 to k do
      s := !s +. (1. /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n in
  {
    n;
    theta;
    alpha = 1. /. (1. -. theta);
    zetan;
    eta =
      (1. -. ((2. /. float_of_int n) ** (1. -. theta)))
      /. (1. -. (zeta 2 /. zetan));
  }

let fnv1a i =
  let h = ref 0xcbf29ce484222325L in
  for b = 0 to 7 do
    let byte = Int64.of_int ((i lsr (8 * b)) land 0xff) in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
  done;
  Int64.to_int (Int64.shift_right_logical !h 2)

let zipf_rank z rng =
  let u = Prng.float rng 1.0 in
  let uz = u *. z.zetan in
  if uz < 1. then 0
  else if uz < 1. +. (0.5 ** z.theta) then 1
  else
    min (z.n - 1)
      (int_of_float
         (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.) ** z.alpha)))

let zipf_key z rng = fnv1a (zipf_rank z rng) mod z.n
