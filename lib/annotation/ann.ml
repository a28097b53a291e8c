module Xml_lite = Bdbms_util.Xml_lite
module Clock = Bdbms_util.Clock

type category =
  | Comment
  | Provenance
  | Curation
  | Quality
  | Custom of string

type t = {
  id : string;
  body : Xml_lite.t;
  category : category;
  author : string;
  created_at : Clock.time;
  archived : bool;
  archived_at : Clock.time option;
}

let make ~id ~body ~category ~author ~created_at =
  { id; body; category; author; created_at; archived = false; archived_at = None }

let body_text t = Xml_lite.text_content t.body
let body_string t = Xml_lite.to_string t.body

let archive t ~at = { t with archived = true; archived_at = Some at }

let category_name = function
  | Comment -> "comment"
  | Provenance -> "provenance"
  | Curation -> "curation"
  | Quality -> "quality"
  | Custom s -> s

let category_of_name s =
  match String.lowercase_ascii s with
  | "comment" -> Comment
  | "provenance" -> Provenance
  | "curation" -> Curation
  | "quality" -> Quality
  | other -> Custom other

let equal_id a b = String.equal a.id b.id

let pp fmt t =
  Format.fprintf fmt "[%s %s@%a by %s%s] %s" t.id (category_name t.category)
    Clock.pp_time t.created_at t.author
    (if t.archived then " (archived)" else "")
    (body_text t)
