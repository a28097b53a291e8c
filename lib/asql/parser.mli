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

val parse_script : string -> ((string * Ast.statement) list, string) result
(** Parse a [;]-separated script: each statement with its source text
    (from its first token to its last, the [;] left out). *)
