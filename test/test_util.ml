(* Tests for bdbms_util: RLE, bitmaps, rectangles, XML, PRNG, clock. *)

open Bdbms_util

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ RLE *)

let test_rle_roundtrip_basic () =
  List.iter
    (fun s -> checks ("roundtrip " ^ s) s (Rle.decode (Rle.encode s)))
    [ ""; "A"; "AAAA"; "ABAB"; "LLLEEEEEEEHHH"; "AABBBCCCCDDDDD" ]

let test_rle_paper_example () =
  (* Figure 12's convention: LLLEEEEEEEH... encodes to L3E7H... *)
  let s = "LLLEEEEEEEHHHHHHHHHHHHHHHHHHHHHHEEEEEELLEEELHHHHHHHHHHLL" in
  let r = Rle.encode s in
  checks "textual form prefix" "L3E7H22E6L2E3L1H10L2" (Rle.to_string r);
  checki "raw length" (String.length s) (Rle.raw_length r)

let test_rle_of_string () =
  let r = Rle.of_string "L3E7H22" in
  checks "decode" ("LLL" ^ "EEEEEEE" ^ String.make 22 'H') (Rle.decode r);
  Alcotest.check_raises "missing length" (Invalid_argument "Rle.of_string: missing run length")
    (fun () -> ignore (Rle.of_string "LE3"))

let test_rle_char_at () =
  let r = Rle.encode "AABBBC" in
  checki "char 0" (Char.code 'A') (Char.code (Rle.char_at r 0));
  checki "char 1" (Char.code 'A') (Char.code (Rle.char_at r 1));
  checki "char 2" (Char.code 'B') (Char.code (Rle.char_at r 2));
  checki "char 5" (Char.code 'C') (Char.code (Rle.char_at r 5));
  Alcotest.check_raises "oob" (Invalid_argument "Rle.char_at") (fun () ->
      ignore (Rle.char_at r 6))

let test_rle_sub () =
  let r = Rle.encode "AAABBBCCC" in
  checks "middle" "ABBBC" (Rle.decode (Rle.sub r ~pos:2 ~len:5));
  checks "prefix" "AAA" (Rle.decode (Rle.sub r ~pos:0 ~len:3));
  checks "suffix" "CCC" (Rle.decode (Rle.sub r ~pos:6 ~len:3));
  checks "empty" "" (Rle.decode (Rle.sub r ~pos:4 ~len:0))

let test_rle_append () =
  let a = Rle.encode "AAB" and b = Rle.encode "BBC" in
  let c = Rle.append a b in
  checks "merged boundary" "A2B3C1" (Rle.to_string c)

let test_rle_compare () =
  let cmp a b = Rle.compare (Rle.encode a) (Rle.encode b) in
  checkb "eq" true (cmp "AABB" "AABB" = 0);
  checkb "lt" true (cmp "AAB" "AAC" < 0);
  checkb "prefix lt" true (cmp "AA" "AAA" < 0);
  checkb "gt" true (cmp "B" "AZZZ" > 0);
  checki "compare_raw eq" 0 (Rle.compare_raw (Rle.encode "HELLO") "HELLO")

let test_rle_find_substring () =
  let r = Rle.encode "LLLEEEHHHHLL" in
  let find p = Rle.find_substring r ~pattern:p in
  check Alcotest.(option int) "EEH" (Some 4) (find "EEHH");
  check Alcotest.(option int) "prefix" (Some 0) (find "LLLE");
  check Alcotest.(option int) "first LL inside LLL" (Some 0) (find "LL");
  check Alcotest.(option int) "suffix" (Some 9) (find "HLL");
  check Alcotest.(option int) "miss" None (find "HLH");
  check Alcotest.(option int) "empty" (Some 0) (find "");
  check Alcotest.(option int) "whole" (Some 0) (find "LLLEEEHHHHLL")

let test_rle_compression_stats () =
  let r = Rle.encode (String.make 100 'H') in
  checki "runs" 1 (Rle.run_count r);
  checki "encoded size" 4 (Rle.encoded_size_bytes r);
  checkb "ratio" true (Rle.compression_ratio r > 20.0)

let rle_qcheck =
  let open QCheck in
  let seq_gen =
    (* run-heavy strings over a small alphabet, like secondary structures *)
    let gen =
      Gen.(
        list_size (int_bound 20)
          (pair (oneofl [ 'H'; 'E'; 'L' ]) (int_range 1 12))
        >|= fun runs ->
        String.concat "" (List.map (fun (c, n) -> String.make n c) runs))
    in
    make ~print:Print.string gen
  in
  [
    Test.make ~name:"rle roundtrip" ~count:500 seq_gen (fun s ->
        Rle.decode (Rle.encode s) = s);
    Test.make ~name:"rle textual roundtrip" ~count:500 seq_gen (fun s ->
        Rle.decode (Rle.of_string (Rle.to_string (Rle.encode s))) = s);
    Test.make ~name:"rle compare agrees with string compare" ~count:500
      (pair seq_gen seq_gen)
      (fun (a, b) ->
        let c = Rle.compare (Rle.encode a) (Rle.encode b) in
        compare c 0 = compare (String.compare a b) 0);
    Test.make ~name:"rle char_at agrees" ~count:200 seq_gen (fun s ->
        QCheck.assume (s <> "");
        let r = Rle.encode s in
        let ok = ref true in
        String.iteri (fun i c -> if Rle.char_at r i <> c then ok := false) s;
        !ok);
    Test.make ~name:"rle find_substring agrees with naive search" ~count:300
      (pair seq_gen seq_gen)
      (fun (s, p) ->
        QCheck.assume (String.length p <= String.length s && p <> "");
        let naive =
          let n = String.length s and m = String.length p in
          let rec go i =
            if i + m > n then None
            else if String.sub s i m = p then Some i
            else go (i + 1)
          in
          go 0
        in
        Rle.find_substring (Rle.encode s) ~pattern:p = naive);
    Test.make ~name:"rle sub agrees with String.sub" ~count:300
      (pair seq_gen (pair small_nat small_nat))
      (fun (s, (pos, len)) ->
        QCheck.assume (pos + len <= String.length s);
        Rle.decode (Rle.sub (Rle.encode s) ~pos ~len) = String.sub s pos len);
  ]

(* --------------------------------------------------------------- Bitmap *)

let test_bitmap_basic () =
  let b = Bitmap.create ~rows:3 ~cols:4 in
  checki "empty count" 0 (Bitmap.count_set b);
  Bitmap.set b ~row:1 ~col:2 true;
  checkb "get set bit" true (Bitmap.get b ~row:1 ~col:2);
  checkb "get clear bit" false (Bitmap.get b ~row:0 ~col:0);
  checki "count" 1 (Bitmap.count_set b);
  Bitmap.set b ~row:1 ~col:2 false;
  checki "count after clear" 0 (Bitmap.count_set b)

let test_bitmap_row_col () =
  let b = Bitmap.create ~rows:4 ~cols:3 in
  Bitmap.set_row b ~row:2 true;
  checki "row set" 3 (Bitmap.count_set b);
  Bitmap.set_col b ~col:0 true;
  (* row 2 col 0 was already set *)
  checki "col adds" 6 (Bitmap.count_set b)

let test_bitmap_rle_roundtrip () =
  let b = Bitmap.create ~rows:5 ~cols:8 in
  Bitmap.set_row b ~row:1 true;
  Bitmap.set b ~row:3 ~col:4 true;
  let runs = Bitmap.to_rle_runs b in
  let b' = Bitmap.of_rle_runs ~rows:5 ~cols:8 runs in
  checkb "roundtrip" true (Bitmap.equal b b')

let test_bitmap_compression () =
  (* clustered outdated cells compress well; scattered do not *)
  let clustered = Bitmap.create ~rows:100 ~cols:10 in
  for row = 40 to 60 do
    Bitmap.set_row clustered ~row true
  done;
  checkb "clustered compresses below raw" true
    (Bitmap.compressed_size_bytes clustered < Bitmap.raw_size_bytes clustered);
  let scattered = Bitmap.create ~rows:100 ~cols:10 in
  for i = 0 to 99 do
    Bitmap.set scattered ~row:i ~col:(i * 7 mod 10) true
  done;
  checkb "scattered compresses worse than clustered" true
    (Bitmap.compressed_size_bytes scattered
    > Bitmap.compressed_size_bytes clustered)

let test_bitmap_union () =
  let a = Bitmap.create ~rows:2 ~cols:2 and b = Bitmap.create ~rows:2 ~cols:2 in
  Bitmap.set a ~row:0 ~col:0 true;
  Bitmap.set b ~row:1 ~col:1 true;
  Bitmap.union_into ~dst:a ~src:b;
  checki "union count" 2 (Bitmap.count_set a);
  let c = Bitmap.create ~rows:3 ~cols:2 in
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Bitmap.union_into: dimension mismatch") (fun () ->
      Bitmap.union_into ~dst:a ~src:c)

let test_bitmap_append_rows () =
  let b = Bitmap.create ~rows:2 ~cols:3 in
  Bitmap.set b ~row:1 ~col:2 true;
  let b' = Bitmap.append_rows b 2 in
  checki "rows" 4 (Bitmap.rows b');
  checkb "old bit kept" true (Bitmap.get b' ~row:1 ~col:2);
  checki "count" 1 (Bitmap.count_set b')

let bitmap_qcheck =
  let open QCheck in
  let ops_gen =
    make
      ~print:(fun l -> String.concat ";" (List.map (fun (r, c, v) ->
           Printf.sprintf "(%d,%d,%b)" r c v) l))
      Gen.(list_size (int_bound 40) (triple (int_bound 9) (int_bound 6) bool))
  in
  [
    Test.make ~name:"bitmap rle roundtrip" ~count:300 ops_gen (fun ops ->
        let b = Bitmap.create ~rows:10 ~cols:7 in
        List.iter (fun (row, col, v) -> Bitmap.set b ~row ~col v) ops;
        Bitmap.equal b (Bitmap.of_rle_runs ~rows:10 ~cols:7 (Bitmap.to_rle_runs b))
        && Bitmap.equal b (Bitmap.of_rle ~rows:10 ~cols:7 (Bitmap.to_rle b)));
    Test.make ~name:"bitmap count matches iter_set" ~count:300 ops_gen (fun ops ->
        let b = Bitmap.create ~rows:10 ~cols:7 in
        List.iter (fun (row, col, v) -> Bitmap.set b ~row ~col v) ops;
        let n = ref 0 in
        Bitmap.iter_set b (fun _ _ -> incr n);
        !n = Bitmap.count_set b);
  ]

(* ----------------------------------------------------------------- Rect *)

let test_rect_basic () =
  let r = Rect.make ~row_lo:1 ~row_hi:3 ~col_lo:0 ~col_hi:2 in
  checki "area" 9 (Rect.area r);
  checkb "contains" true (Rect.contains r ~row:2 ~col:1);
  checkb "not contains" false (Rect.contains r ~row:0 ~col:1);
  Alcotest.check_raises "bad rect" (Invalid_argument "Rect.make") (fun () ->
      ignore (Rect.make ~row_lo:3 ~row_hi:1 ~col_lo:0 ~col_hi:0))

let test_rect_intersection () =
  let a = Rect.make ~row_lo:0 ~row_hi:4 ~col_lo:0 ~col_hi:4 in
  let b = Rect.make ~row_lo:3 ~row_hi:6 ~col_lo:2 ~col_hi:8 in
  (match Rect.intersection a b with
  | Some i ->
      checki "i.row_lo" 3 i.Rect.row_lo;
      checki "i.row_hi" 4 i.Rect.row_hi;
      checki "i.col_lo" 2 i.Rect.col_lo;
      checki "i.col_hi" 4 i.Rect.col_hi
  | None -> Alcotest.fail "expected intersection");
  let c = Rect.make ~row_lo:10 ~row_hi:11 ~col_lo:0 ~col_hi:1 in
  checkb "disjoint" true (Rect.intersection a c = None)

let test_rect_merge () =
  let a = Rect.make ~row_lo:0 ~row_hi:1 ~col_lo:0 ~col_hi:2 in
  let b = Rect.make ~row_lo:2 ~row_hi:3 ~col_lo:0 ~col_hi:2 in
  (match Rect.try_merge a b with
  | Some m -> checki "merged area" 12 (Rect.area m)
  | None -> Alcotest.fail "expected vertical merge");
  let c = Rect.make ~row_lo:0 ~row_hi:1 ~col_lo:3 ~col_hi:3 in
  (match Rect.try_merge a c with
  | Some m -> checki "merged horiz area" 8 (Rect.area m)
  | None -> Alcotest.fail "expected horizontal merge");
  let d = Rect.make ~row_lo:5 ~row_hi:6 ~col_lo:5 ~col_hi:6 in
  checkb "no merge" true (Rect.try_merge a d = None)

let test_rect_cover () =
  (* an L-shape covers with 2 rectangles *)
  let cells = [ (0, 0); (0, 1); (1, 0); (2, 0) ] in
  let cover = Rect.cover_of_cells cells in
  let covered = List.concat_map Rect.cells cover in
  checki "cover is exact" 4 (List.length covered);
  List.iter
    (fun c -> checkb "cell covered" true (List.mem c covered))
    cells;
  (* full rectangle covers with 1 *)
  let full = Rect.cover_of_cells (Rect.cells (Rect.make ~row_lo:0 ~row_hi:3 ~col_lo:0 ~col_hi:2)) in
  checki "full rect single cover" 1 (List.length full)

let test_rect_subtract () =
  let a = Rect.make ~row_lo:0 ~row_hi:4 ~col_lo:0 ~col_hi:4 in
  let hole = Rect.make ~row_lo:1 ~row_hi:2 ~col_lo:1 ~col_hi:2 in
  let parts = Rect.subtract a hole in
  let total = List.fold_left (fun acc r -> acc + Rect.area r) 0 parts in
  checki "subtract area" (25 - 4) total;
  List.iter
    (fun p -> checkb "no overlap with hole" false (Rect.intersects p hole))
    parts

let rect_qcheck =
  let open QCheck in
  let cells_gen =
    make
      ~print:(fun l -> String.concat ";" (List.map (fun (r, c) -> Printf.sprintf "(%d,%d)" r c) l))
      Gen.(list_size (int_bound 30) (pair (int_bound 8) (int_bound 8)))
  in
  [
    Test.make ~name:"cover_of_cells covers exactly the input set" ~count:300 cells_gen
      (fun cells ->
        let module S = Set.Make (struct
          type t = int * int
          let compare = compare
        end) in
        let input = S.of_list cells in
        let cover = Rect.cover_of_cells cells in
        let output = S.of_list (List.concat_map Rect.cells cover) in
        S.equal input output);
    Test.make ~name:"cover rectangles are pairwise disjoint" ~count:300 cells_gen
      (fun cells ->
        let cover = Array.of_list (Rect.cover_of_cells cells) in
        let ok = ref true in
        Array.iteri
          (fun i a ->
            Array.iteri (fun j b -> if i < j && Rect.intersects a b then ok := false) cover)
          cover;
        !ok);
  ]

(* ------------------------------------------------------------------ XML *)

let test_xml_roundtrip () =
  let doc =
    Xml_lite.element "Annotation"
      ~attrs:[ ("curator", "admin") ]
      [ Xml_lite.element "source" [ Xml_lite.text "GenoBase" ];
        Xml_lite.element "note" [ Xml_lite.text "obtained from <RegulonDB> & more" ] ]
  in
  let s = Xml_lite.to_string doc in
  let doc' = Xml_lite.parse s in
  checkb "roundtrip" true (doc = doc')

let test_xml_parse_basic () =
  let doc = Xml_lite.parse "<Annotation>obtained from GenoBase</Annotation>" in
  checks "text" "obtained from GenoBase" (Xml_lite.text_content doc);
  check Alcotest.(option string) "tag" (Some "Annotation") (Xml_lite.tag doc)

let test_xml_attrs_and_path () =
  let doc =
    Xml_lite.parse
      "<prov><source db=\"RegulonDB\" table=\"genes\"/><time>42</time></prov>"
  in
  let sources = Xml_lite.find_path doc [ "source" ] in
  checki "one source" 1 (List.length sources);
  check Alcotest.(option string) "db attr" (Some "RegulonDB")
    (Xml_lite.attr (List.hd sources) "db");
  checks "time" "42" (Xml_lite.text_content (List.hd (Xml_lite.find_path doc [ "time" ])))

let test_xml_errors () =
  let expect_fail s =
    match Xml_lite.parse s with
    | exception Xml_lite.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  expect_fail "<a><b></a></b>";
  expect_fail "<a>";
  expect_fail "no xml";
  expect_fail "<a></a><b></b>"

let test_xml_escape () =
  checks "escape" "&lt;a&gt; &amp; &quot;b&quot;" (Xml_lite.escape "<a> & \"b\"");
  checks "unescape" "<a> & \"b\"" (Xml_lite.unescape "&lt;a&gt; &amp; &quot;b&quot;")

let test_xml_schema () =
  let schema =
    Xml_lite.Schema.make ~root:"provenance"
      [
        {
          Xml_lite.Schema.tag = "provenance";
          required_attrs = [];
          allowed_children = Some [ "source"; "operation"; "time" ];
          required_children = [ "source"; "time" ];
        };
        {
          Xml_lite.Schema.tag = "source";
          required_attrs = [ "db" ];
          allowed_children = None;
          required_children = [];
        };
      ]
  in
  let good = Xml_lite.parse "<provenance><source db=\"X\"/><time>3</time></provenance>" in
  checkb "valid" true (Xml_lite.Schema.validate schema good = Ok ());
  let missing_attr = Xml_lite.parse "<provenance><source/><time>3</time></provenance>" in
  checkb "missing attr" true (Result.is_error (Xml_lite.Schema.validate schema missing_attr));
  let bad_child = Xml_lite.parse "<provenance><source db=\"X\"/><time>3</time><junk/></provenance>" in
  checkb "bad child" true (Result.is_error (Xml_lite.Schema.validate schema bad_child));
  let wrong_root = Xml_lite.parse "<prov><source db=\"X\"/></prov>" in
  checkb "wrong root" true (Result.is_error (Xml_lite.Schema.validate schema wrong_root))

(* ----------------------------------------------------------- PRNG/clock *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    checki "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create 43 in
  let diff = ref false in
  let a' = Prng.create 42 in
  for _ = 1 to 20 do
    if Prng.int a' 1000 <> Prng.int c 1000 then diff := true
  done;
  checkb "different seeds differ" true !diff

let test_prng_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 10 in
    checkb "in bounds" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 100 do
    let v = Prng.int_in t ~lo:5 ~hi:8 in
    checkb "in range" true (v >= 5 && v <= 8)
  done

let test_prng_geometric_mean () =
  let t = Prng.create 11 in
  let n = 20000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Prng.geometric t ~p:0.25
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* mean of geometric(p) is 1/p = 4 *)
  checkb "geometric mean near 4" true (mean > 3.6 && mean < 4.4)

let test_clock () =
  let c = Clock.create () in
  checki "start" 1 (Clock.now c);
  checki "tick" 2 (Clock.tick c);
  checki "tick2" 3 (Clock.tick c);
  Clock.advance_to c 10;
  checki "advanced" 10 (Clock.now c);
  Clock.advance_to c 5;
  checki "no regress" 10 (Clock.now c)

let test_idgen () =
  let g = Idgen.create ~prefix:"ann" () in
  checks "first" "ann1" (Idgen.next g);
  checks "second" "ann2" (Idgen.next g);
  checki "raw" 3 (Idgen.next_int g)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bdbms_util"
    [
      ( "rle",
        [
          Alcotest.test_case "roundtrip basic" `Quick test_rle_roundtrip_basic;
          Alcotest.test_case "paper example" `Quick test_rle_paper_example;
          Alcotest.test_case "of_string" `Quick test_rle_of_string;
          Alcotest.test_case "char_at" `Quick test_rle_char_at;
          Alcotest.test_case "sub" `Quick test_rle_sub;
          Alcotest.test_case "append" `Quick test_rle_append;
          Alcotest.test_case "compare" `Quick test_rle_compare;
          Alcotest.test_case "find_substring" `Quick test_rle_find_substring;
          Alcotest.test_case "compression stats" `Quick test_rle_compression_stats;
        ] );
      ("rle-properties", q rle_qcheck);
      ( "bitmap",
        [
          Alcotest.test_case "basic" `Quick test_bitmap_basic;
          Alcotest.test_case "row/col" `Quick test_bitmap_row_col;
          Alcotest.test_case "rle roundtrip" `Quick test_bitmap_rle_roundtrip;
          Alcotest.test_case "compression" `Quick test_bitmap_compression;
          Alcotest.test_case "union" `Quick test_bitmap_union;
          Alcotest.test_case "append rows" `Quick test_bitmap_append_rows;
        ] );
      ("bitmap-properties", q bitmap_qcheck);
      ( "rect",
        [
          Alcotest.test_case "basic" `Quick test_rect_basic;
          Alcotest.test_case "intersection" `Quick test_rect_intersection;
          Alcotest.test_case "merge" `Quick test_rect_merge;
          Alcotest.test_case "cover" `Quick test_rect_cover;
          Alcotest.test_case "subtract" `Quick test_rect_subtract;
        ] );
      ("rect-properties", q rect_qcheck);
      ( "xml",
        [
          Alcotest.test_case "roundtrip" `Quick test_xml_roundtrip;
          Alcotest.test_case "parse basic" `Quick test_xml_parse_basic;
          Alcotest.test_case "attrs and path" `Quick test_xml_attrs_and_path;
          Alcotest.test_case "errors" `Quick test_xml_errors;
          Alcotest.test_case "escape" `Quick test_xml_escape;
          Alcotest.test_case "schema validation" `Quick test_xml_schema;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "geometric mean" `Quick test_prng_geometric_mean;
        ] );
      ( "clock",
        [
          Alcotest.test_case "clock" `Quick test_clock;
          Alcotest.test_case "idgen" `Quick test_idgen;
        ] );
    ]
