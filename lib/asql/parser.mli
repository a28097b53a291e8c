(** Recursive-descent parser for A-SQL.

    Accepts standard SQL plus the paper's extensions: the A-SQL SELECT of
    Figure 7 (ANNOTATION / PROMOTE / AWHERE / AHAVING / FILTER), the
    annotation commands of Figures 4 and 6 (CREATE / DROP ANNOTATION
    TABLE, ADD / ARCHIVE / RESTORE ANNOTATION), the content-approval
    commands of Figure 11 (START / STOP CONTENT APPROVAL, APPROVE /
    DISAPPROVE), GRANT / REVOKE, and dependency DDL (CREATE / LINK
    DEPENDENCY, VALIDATE, SHOW OUTDATED).

    Annotation conditions (AWHERE / AHAVING / FILTER) use the form
    [ANN CONTAINS 'x'], [ANN AUTHOR = 'u'], [ANN CATEGORY = 'c'],
    [ANN ADDED BEFORE t], [ANN ADDED AFTER t], [ANN PATH 'a/b' = 'v'],
    combined with AND / OR / NOT and parentheses.

    In multi-table SELECTs, reference columns as [alias.column] (columns
    are internally prefixed with the table alias). *)

val parse : string -> (Ast.statement, string) result
(** Parse one statement (a trailing [;] is allowed). *)

val split_statements : string -> (string list, string) result
(** Cut a script at its [;] tokens without parsing it: each statement's
    source text, from its first token to its last.  A [;] inside a string
    literal or a comment does not cut.  [Error] when the script does not
    tokenize (an unterminated string literal). *)

val parse_script : string -> ((string * Ast.statement) list, string) result
(** Parse each statement {!split_statements} cuts, with its source text. *)
