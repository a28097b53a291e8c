(* Sets of run records: [repeat]'s medians and quartiles, and [compare]'s
   verdicts against the bounds BENCHMARK.json fixes. *)

type bound = { name : string; unit : string; lower_better : bool; bound : float }

(* BENCHMARK.json sits at the root of the checkout the bench runs from. *)
let bench_json = "BENCHMARK.json"

(* The entries BENCHMARK.json lists under [key], or [None] when the file
   cannot be read. *)
let entries key =
  match In_channel.with_open_bin bench_json In_channel.input_all with
  | text -> Some (Json.to_list (Json.member key (Json.parse text)))
  | exception Sys_error _ -> None

let bounds () =
  match entries "end_to_end" with
  | None -> failwith ("cannot read " ^ bench_json)
  | Some ms ->
      List.filter_map
        (fun m ->
          match
            ( Json.to_str (Json.member "name" m),
              Json.to_str (Json.member "better" m),
              Json.to_num (Json.member "bound" m) )
          with
          | Some name, Some better, Some bound ->
              Some
                {
                  name;
                  unit = Option.value ~default:"" (Json.to_str (Json.member "unit" m));
                  lower_better = better = "lower";
                  bound;
                }
          | _ -> None)
        ms

let read_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.parse

let workload r = Option.value ~default:"?" (Json.to_str (Json.member "workload" r))

(* The values of one end-to-end metric over the records of a workload. *)
let values records ~workload:w name =
  List.filter_map
    (fun r ->
      if workload r <> w then None
      else
        match Json.member "metrics" r with
        | Some ms ->
            Json.to_num
              (Json.member "value" (Option.value ~default:Json.Null (Json.member name ms)))
        | None -> None)
    records

let workloads records = List.sort_uniq compare (List.map workload records)

let summarize records bounds =
  List.iter
    (fun w ->
      Printf.printf "== %s (%d runs)\n" w
        (List.length (List.filter (fun r -> workload r = w) records));
      Printf.printf "  %-16s %12s %12s %12s %8s %6s\n" "metric" "q1" "median" "q3"
        "spread" "bound";
      List.iter
        (fun b ->
          match values records ~workload:w b.name with
          | [] -> Printf.printf "  %-16s (no values)\n" b.name
          | vs ->
              let q1, med, q3 = Stat.quartiles vs in
              let sp = Stat.spread vs in
              Printf.printf "  %-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n" b.name q1 med q3
                (100. *. sp) (100. *. b.bound)
                (if sp > b.bound then "  SPREAD EXCEEDS BOUND"
                 else if sp > b.bound /. 3. then "  (spread above a third of the bound)"
                 else ""))
        bounds)
    (workloads records)

(* Per workload and metric: the change of the median, and a verdict.  A
   metric whose spread on either side exceeds its bound is unresolved,
   unless every new run reads better than every base run. *)
let compare_sets base next bounds =
  let regressions = ref 0 in
  List.iter
    (fun w ->
      Printf.printf "== %s\n" w;
      List.iter
        (fun b ->
          match (values base ~workload:w b.name, values next ~workload:w b.name) with
          | [], _ | _, [] -> Printf.printf "  %-16s (missing)\n" b.name
          | bv, nv ->
              let _, bm, _ = Stat.quartiles bv and _, nm, _ = Stat.quartiles nv in
              let change = if bm = 0. then 0. else (nm -. bm) /. Float.abs bm in
              let worse = if b.lower_better then change else -.change in
              let lo = List.fold_left min infinity and hi = List.fold_left max neg_infinity in
              let better_all = if b.lower_better then hi nv < lo bv else lo nv > hi bv in
              let spread = Float.max (Stat.spread bv) (Stat.spread nv) in
              let verdict =
                if better_all then "better"
                else if spread > b.bound then "unresolved"
                else if worse > b.bound then (incr regressions; "REGRESSION")
                else "ok"
              in
              Printf.printf
                "  %-16s %12.6g -> %12.6g %-6s %+7.2f%% (bound %.0f%%, spread %.2f%%) %s\n"
                b.name bm nm b.unit (100. *. change) (100. *. b.bound) (100. *. spread)
                verdict)
        bounds)
    (List.filter (fun w -> List.mem w (workloads next)) (workloads base));
  !regressions
