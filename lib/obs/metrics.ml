(* The metrics registry: named log-scale latency histograms, and the
   Prometheus-style text exposition of those plus the {!Stats} counters.

   Histograms are cheap enough to stay always-on: an observation is a
   bucket-index computation (a handful of shifts) plus two int stores.
   There is no locking and no allocation on the hot path.

   Histograms are log-linear (HDR-style): values below [linear_cutoff]
   get exact buckets; above it each power-of-two octave is split into
   [sub_per_octave] sub-buckets, bounding the relative quantile error to
   1/sub_per_octave (~6%).  Quantiles are computed on demand by walking
   the bucket array, so [observe] never sorts or samples. *)

let linear_cutoff = 32 (* exact buckets for 0..31 *)
let sub_per_octave = 16
let sub_shift = 4 (* log2 sub_per_octave *)

(* Bucket count for 62-bit values: 32 linear + one sub-bucketed band per
   octave from 2^5 up to 2^62. *)
let n_buckets = linear_cutoff + ((62 - 5 + 1) * sub_per_octave)

type histogram = {
  h_name : string;
  h_help : string;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type t = { mutable hists : histogram list (* registration order, newest first *) }

let create () = { hists = [] }

let histogram t ?(help = "") name =
  if List.exists (fun h -> h.h_name = name) t.hists then
    invalid_arg (Printf.sprintf "Metrics: %s already registered" name);
  let h =
    {
      h_name = name;
      h_help = help;
      h_buckets = Array.make n_buckets 0;
      h_count = 0;
      h_sum = 0;
      h_min = max_int;
      h_max = 0;
    }
  in
  t.hists <- h :: t.hists;
  h

let histograms t = List.rev t.hists

(* ------------------------------------------------------------- buckets *)

let bit_length v =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
  go 0 v

let bucket_of v =
  if v < linear_cutoff then v
  else
    let msb = bit_length v - 1 in
    let sub = (v lsr (msb - sub_shift)) land (sub_per_octave - 1) in
    linear_cutoff + ((msb - 5) * sub_per_octave) + sub

(* Lower bound of a bucket: the smallest value mapping to it (the
   quantile estimate reported; under-reports by < 1/sub_per_octave). *)
let bucket_floor i =
  if i < linear_cutoff then i
  else
    let band = (i - linear_cutoff) / sub_per_octave in
    let sub = (i - linear_cutoff) mod sub_per_octave in
    let msb = band + 5 in
    (1 lsl msb) lor (sub lsl (msb - sub_shift))

let observe h v =
  let v = if v < 0 then 0 else v in
  let i = bucket_of v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let count h = h.h_count
let sum h = h.h_sum

(* The value at quantile [q] (0 < q <= 1): the floor of the bucket where
   the cumulative count first reaches [ceil (q * count)], clamped to the
   observed min/max so tiny histograms read sensibly. *)
let quantile h q =
  if h.h_count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let rec walk i acc =
      if i >= n_buckets then h.h_max
      else
        let acc = acc + h.h_buckets.(i) in
        if acc >= rank then bucket_floor i else walk (i + 1) acc
    in
    let v = walk 0 0 in
    if v < h.h_min then h.h_min else if v > h.h_max then h.h_max else v
  end

let reset_histogram h =
  Array.fill h.h_buckets 0 n_buckets 0;
  h.h_count <- 0;
  h.h_sum <- 0;
  h.h_min <- max_int;
  h.h_max <- 0

(* ---------------------------------------------------------- exposition *)

(* Prometheus-ish text format.  Each {!Stats} slot is one sample named
   [bdbms_<name>_total] (a counter) or [bdbms_<name>] (a gauge).
   Histograms are exposed summary-style: quantile series plus _count and
   _sum, in the unit they were recorded in (nanoseconds for *_ns). *)

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* Prometheus text-format escaping.  HELP text escapes backslash and
   newline; label values additionally escape the double quote.  Without
   this a help string (or a future label) containing a quote or newline
   would corrupt the whole exposition for a real scraper. *)
let escape ~quote s =
  let needs_escape = function
    | '\\' | '\n' -> true
    | '"' -> quote
    | _ -> false
  in
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '"' when quote -> Buffer.add_string buf "\\\""
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let escape_help = escape ~quote:false
let escape_label_value = escape ~quote:true

let add_sample buf ~name ~help ~kind sample =
  if help <> "" then Printf.bprintf buf "# HELP %s %s\n" name (escape_help help);
  Printf.bprintf buf "# TYPE %s %s\n%s" name kind sample

let render_counter buf ((slot : Stats.slot), v) =
  let name =
    match slot.Stats.kind with
    | Stats.Counter -> "bdbms_" ^ slot.Stats.name ^ "_total"
    | Stats.Gauge -> "bdbms_" ^ slot.Stats.name
  in
  add_sample buf ~name ~help:slot.Stats.help ~kind:(Stats.kind_name slot.Stats.kind)
    (Printf.sprintf "%s %d\n" name v)

let render_histogram buf h =
  add_sample buf ~name:h.h_name ~help:h.h_help ~kind:"summary" "";
  List.iter
    (fun q ->
      Printf.bprintf buf "%s{quantile=\"%s\"} %d\n" h.h_name
        (escape_label_value (float_str q))
        (quantile h q))
    [ 0.5; 0.95; 0.99 ];
  Printf.bprintf buf "%s_count %d\n%s_sum %d\n" h.h_name h.h_count h.h_name h.h_sum

let render ~counters t =
  let buf = Buffer.create 4096 in
  List.iter (render_counter buf) (Stats.to_list counters);
  List.iter (render_histogram buf) (histograms t);
  Buffer.contents buf

(* One human line per histogram, for the CLI. *)
let summary_line h =
  if h.h_count = 0 then Printf.sprintf "%-32s (no observations)" h.h_name
  else
    Printf.sprintf "%-32s n=%-6d p50=%-10s p95=%-10s p99=%-10s max=%s"
      h.h_name h.h_count
      (Format.asprintf "%a" Bdbms_util.Timer.pp_ns (quantile h 0.5))
      (Format.asprintf "%a" Bdbms_util.Timer.pp_ns (quantile h 0.95))
      (Format.asprintf "%a" Bdbms_util.Timer.pp_ns (quantile h 0.99))
      (Format.asprintf "%a" Bdbms_util.Timer.pp_ns h.h_max)

(* ----------------------------------------------------- introspection *)

(* Read-only snapshots of every histogram, in registration order — the
   feed for the sys.histograms virtual table. *)

type view = {
  name : string;
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

let views t =
  List.map
    (fun h ->
      {
        name = h.h_name;
        count = h.h_count;
        sum = h.h_sum;
        min = (if h.h_count = 0 then 0 else h.h_min);
        max = h.h_max;
        p50 = quantile h 0.5;
        p95 = quantile h 0.95;
        p99 = quantile h 0.99;
      })
    (histograms t)
