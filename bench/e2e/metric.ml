(* One reported number: its name, value, unit and sample count.  A value
   of [None] is printed and recorded as null, with the reason. *)

type t = { name : string; value : float option; unit : string; n : int; why_null : string }

let v name unit ~n value = { name; value = Some value; unit; n; why_null = "" }
let null name unit ~why = { name; value = None; unit; n = 0; why_null = why }

(* [num / den], null when there is nothing to divide by. *)
let ratio name unit ~n ~why num den =
  if den = 0. then null name unit ~why else v name unit ~n (num /. den)

let to_json m =
  Json.Obj
    ([ ("value", Json.num_opt m.value); ("unit", Json.Str m.unit); ("n", Json.int m.n) ]
    @ if m.value = None then [ ("why", Json.Str m.why_null) ] else [])

let print m =
  match m.value with
  | Some x -> Printf.printf "%-40s %14.6g %-6s n=%d\n" m.name x m.unit m.n
  | None -> Printf.printf "%-40s %14s %-6s (%s)\n" m.name "null" m.unit m.why_null
