(** Tokenizer for A-SQL.

    Keywords are case-insensitive; identifiers keep their case; string
    literals use single quotes with [''] escaping. *)

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Symbol of string
      (** one of ( ) , . ; = <> < <= > >= + - * / % || *)
  | Eof

val tokenize : string -> (token list, string) result

val scan : string -> (token -> int -> int -> unit) -> (unit, string) result
(** [scan src emit] calls [emit token start stop] for each token in
    order, [stop] exclusive; no [Eof] is emitted. *)

val pp_token : Format.formatter -> token -> unit
val token_text : token -> string
