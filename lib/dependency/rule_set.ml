type t = { mutable rules : Rule.t list; mutable version : int }

let create () = { rules = []; version = 0 }
let version t = t.version

let rules t = t.rules

let find t id = List.find_opt (fun r -> r.Rule.id = id) t.rules

let rules_from_source t attr =
  List.filter (fun r -> List.exists (Rule.attr_equal attr) r.Rule.sources) t.rules

let rule_for_target t attr =
  List.find_opt (fun r -> Rule.attr_equal r.Rule.target attr) t.rules

(* attributes reachable (strictly downstream) from [attrs] *)
let reachable t attrs =
  let visited = ref [] in
  let rec go frontier =
    match frontier with
    | [] -> ()
    | attr :: rest ->
        let next =
          rules_from_source t attr
          |> List.map (fun r -> r.Rule.target)
          |> List.filter (fun a -> not (List.exists (Rule.attr_equal a) !visited))
        in
        visited := !visited @ next;
        go (rest @ next)
  in
  go attrs;
  !visited

let would_cycle t rule =
  (* adding [rule] cycles iff its target already reaches one of its sources,
     or target equals a source *)
  List.exists (Rule.attr_equal rule.Rule.target) rule.Rule.sources
  ||
  let downstream = reachable { t with rules = rule :: t.rules } [ rule.Rule.target ] in
  List.exists (fun s -> List.exists (Rule.attr_equal s) downstream) rule.Rule.sources

let add t rule =
  match find t rule.Rule.id with
  | Some _ -> Error (Printf.sprintf "rule id %s already exists" rule.Rule.id)
  | None -> (
      match rule_for_target t rule.Rule.target with
      | Some existing ->
          Error
            (Format.asprintf "conflict: %a is already derived by rule %s"
               Rule.pp_attr rule.Rule.target existing.Rule.id)
      | None ->
          if would_cycle t rule then
            Error (Printf.sprintf "rule %s would create a dependency cycle" rule.Rule.id)
          else begin
            t.rules <- t.rules @ [ rule ];
            t.version <- t.version + 1;
            Ok ()
          end)

let attribute_closure t attrs = reachable t attrs

let procedure_closure t proc_name =
  (* direct targets of rules using the procedure, plus everything downstream *)
  let direct =
    List.filter (fun r -> Rule.uses_procedure r proc_name) t.rules
    |> List.map (fun r -> r.Rule.target)
  in
  let rec dedup acc = function
    | [] -> List.rev acc
    | a :: rest ->
        if List.exists (Rule.attr_equal a) acc then dedup acc rest
        else dedup (a :: acc) rest
  in
  dedup [] (direct @ reachable t direct)

let derived_rules t =
  (* fixpoint of pairwise composition *)
  let counter = ref 0 in
  let fresh () =
    incr counter;
    "d" ^ string_of_int !counter
  in
  let known = ref t.rules in
  let results = ref [] in
  let exists_equiv rule =
    List.exists
      (fun r ->
        Rule.attr_equal r.Rule.target rule.Rule.target
        && List.length r.Rule.sources = List.length rule.Rule.sources
        && List.for_all2 Rule.attr_equal r.Rule.sources rule.Rule.sources
        && List.length r.Rule.chain = List.length rule.Rule.chain)
      !known
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r1 ->
        List.iter
          (fun r2 ->
            match Rule.compose ~id:(fresh ()) r1 r2 with
            | Some d when not (exists_equiv d) ->
                known := !known @ [ d ];
                results := !results @ [ d ];
                changed := true
            | Some _ -> decr counter
            | None -> ())
          !known)
      !known
  done;
  !results
