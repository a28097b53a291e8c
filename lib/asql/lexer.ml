type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Symbol of string
  | Eof

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* [emit token start stop] for each token, [stop] exclusive. *)
let scan src emit =
  let n = String.length src in
  let pos = ref 0 in
  let error = ref None in
  let start = ref 0 in
  let emit t = emit t !start !pos in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  while !error = None && !pos < n do
    let c = src.[!pos] in
    start := !pos;
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '-' && peek 1 = Some '-' then begin
      (* line comment *)
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      emit (Ident (String.sub src start (!pos - start)))
    end
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        incr pos
      done;
      let is_float =
        !pos + 1 < n && src.[!pos] = '.' && is_digit src.[!pos + 1]
      in
      if is_float then begin
        incr pos;
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done;
        (* exponent *)
        if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
          incr pos;
          if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then incr pos;
          while !pos < n && is_digit src.[!pos] do
            incr pos
          done
        end;
        emit (Float_lit (float_of_string (String.sub src start (!pos - start))))
      end
      else if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E')
              && (match peek 1 with
                 | Some d when is_digit d -> true
                 | Some ('+' | '-') -> (match peek 2 with Some d -> is_digit d | None -> false)
                 | _ -> false)
      then begin
        incr pos;
        if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then incr pos;
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done;
        emit (Float_lit (float_of_string (String.sub src start (!pos - start))))
      end
      else emit (Int_lit (int_of_string (String.sub src start (!pos - start))))
    end
    else if c = '\'' then begin
      (* string literal with '' escape *)
      incr pos;
      let buf = Buffer.create 16 in
      let finished = ref false in
      while (not !finished) && !error = None do
        if !pos >= n then error := Some "unterminated string literal"
        else if src.[!pos] = '\'' then
          if peek 1 = Some '\'' then begin
            Buffer.add_char buf '\'';
            pos := !pos + 2
          end
          else begin
            incr pos;
            finished := true
          end
        else begin
          Buffer.add_char buf src.[!pos];
          incr pos
        end
      done;
      if !error = None then emit (String_lit (Buffer.contents buf))
    end
    else begin
      let two = if !pos + 1 < n then String.sub src !pos 2 else "" in
      match two with
      | "<>" | "<=" | ">=" | "||" | "!=" ->
          pos := !pos + 2;
          emit (Symbol (if two = "!=" then "<>" else two))
      | _ -> (
          match c with
          | '(' | ')' | ',' | '.' | ';' | '=' | '<' | '>' | '+' | '-' | '*' | '/' | '%' ->
              incr pos;
              emit (Symbol (String.make 1 c))
          | c -> error := Some (Printf.sprintf "unexpected character %C" c))
    end
  done;
  match !error with Some e -> Error e | None -> Ok ()

let tokenize src =
  let tokens = ref [] in
  Result.map
    (fun () -> List.rev (Eof :: !tokens))
    (scan src (fun t _ _ -> tokens := t :: !tokens))

let token_text = function
  | Ident s -> s
  | Int_lit n -> string_of_int n
  | Float_lit f -> string_of_float f
  | String_lit s -> Printf.sprintf "'%s'" s
  | Symbol s -> s
  | Eof -> "<eof>"

let pp_token fmt t = Format.pp_print_string fmt (token_text t)
