(** Abstract syntax of A-SQL: standard SQL plus the paper's extensions
    (Figures 4, 6, 7 and 11). *)

module Expr = Bdbms_relation.Expr
module Value = Bdbms_relation.Value
module Ann_pred = Bdbms_annotation.Ann_pred
module Ann_store = Bdbms_annotation.Ann_store
module Acl = Bdbms_auth.Acl

type select_item =
  | Star
  | Item of {
      expr : item_expr;
      alias : string option;
      promote : string list;  (** PROMOTE (Cj, Ck, ...) on this column *)
    }

and item_expr =
  | Col_ref of string
  | Scalar of Expr.t          (** computed column *)
  | Aggregate of Expr.aggregate

type from_item = {
  table : string;
  table_alias : string option;
  ann_tables : string list option;
      (** [Some names] = the ANNOTATION(S1, S2, ...) operator; [None] = no
          annotation propagation from this table *)
}

type order_dir = [ `Asc | `Desc ]

type select = {
  distinct : bool;
  items : select_item list;
  from : from_item list;
  where : Expr.t option;
  awhere : Ann_pred.t option;
  group_by : string list;
  having : Expr.t option;
  ahaving : Ann_pred.t option;
  filter : Ann_pred.t option;
  order_by : (string * order_dir) list;
  limit : int option;
  offset : int option;
}

type query =
  | Select of select
  | Union of query * query
  | Intersect of query * query
  | Except of query * query

(** The statement an ADD ANNOTATION's ON clause wraps (Section 3.2: it can
    be a SELECT — annotate the covered cells — or a DML statement, which
    executes and annotates what it touched; deleted tuples go to a log
    table together with the annotation). *)
type on_clause =
  | On_select of select
  | On_insert of { table : string; values : Value.t list list }
  | On_update of { table : string; sets : (string * Expr.t) list; where : Expr.t option }
  | On_delete of { table : string; where : Expr.t option }

type copy_format = Csv | Fasta

type statement =
  | Query of query
  | Explain of query
  | Explain_analyze of query
  | Create_table of { name : string; columns : (string * Value.ty) list }
  | Drop_table of string
  | Insert of { table : string; values : Value.t list list }
  | Update of { table : string; sets : (string * Expr.t) list; where : Expr.t option }
  | Delete of { table : string; where : Expr.t option }
  (* --- annotation management (Figures 4 and 6) --- *)
  | Create_ann_table of {
      table : string;
      name : string;
      scheme : Ann_store.scheme option;
      category : string option;
      indexed : bool;
    }
  | Drop_ann_table of { table : string; name : string }
  | Add_annotation of {
      targets : (string * string) list;  (** (user table, annotation table) *)
      value : string;                    (** XML or plain text body *)
      on : on_clause;
    }
  | Archive_annotation of {
      targets : (string * string) list;
      between : (int * int) option;
      on : select;
    }
  | Restore_annotation of {
      targets : (string * string) list;
      between : (int * int) option;
      on : select;
    }
  (* --- update authorization (Figure 11) --- *)
  | Start_approval of {
      table : string;
      columns : string list option;
      approver : Acl.grantee;
    }
  | Stop_approval of { table : string; columns : string list option }
  | Approve of int
  | Disapprove of int
  | Show_pending of string option
  (* --- identity-based authorization --- *)
  | Grant of { privilege : Acl.privilege; table : string; columns : string list option; grantee : Acl.grantee }
  | Revoke of { privilege : Acl.privilege; table : string; grantee : Acl.grantee }
  | Create_user of string
  | Create_group of string
  | Add_user_to_group of { user : string; group : string }
  (* --- dependency management (Section 5) --- *)
  | Create_dependency of {
      id : string;
      sources : (string * string) list;  (** (table, column) *)
      target : string * string;
      procedure : string;                (** registered procedure name *)
    }
  | Link_dependency of { id : string; source_rows : int list; target_row : int }
  | Validate_cell of { table : string; row : int; column : string }
  | Create_index of { name : string; table : string; column : string }
  | Drop_index of string
  | Show_outdated of string
  | Show_dependencies
  | Show_provenance of { table : string; row : int; column : string; at : int option }
  | Show_tables
  | Describe of string
  | Copy_from of { table : string; path : string; format : copy_format }
  | Copy_to of { table : string; path : string; format : copy_format }
  | Analyze_stats of string option
      (** ANALYZE [table]: (re)build optimizer statistics; [None] = all tables *)
