(* Searching compressed sequences without decompressing them (Section 7.2,
   Figure 12): protein secondary structures are RLE-compressed and indexed
   with the SBC-tree; substring queries run on the compressed form, and the
   storage/search costs are compared against the String B-tree over the
   uncompressed sequences.

   Run with: dune exec examples/sequence_search.exe *)

module Prng = Bdbms_util.Prng
module Rle = Bdbms_util.Rle
module Secondary = Bdbms_bio.Secondary
module Sbc_tree = Bdbms_sbc.Sbc_tree
module String_btree = Bdbms_sbc.String_btree
module Disk = Bdbms_storage.Disk
module Pager = Bdbms_storage.Pager
module Stats = Bdbms_obs.Stats

let mk_pool () =
  let d = Disk.create ~page_size:1024 ~pool_pages:4096 () in
  (d, Disk.pager d)

let () =
  let rng = Prng.create 42 in
  print_endline "=== bdbms sequence search: the SBC-tree over RLE sequences ===\n";

  (* a corpus of secondary structures like Figure 12's *)
  let corpus = Bdbms_bio.Workload.structures rng ~n:40 ~len:400 ~mean_run:8.0 in
  let sample = List.hd corpus in
  Printf.printf "sample structure (first 60 chars):\n  %s...\n" (String.sub sample 0 60);
  Printf.printf "its RLE form (as in Figure 12):\n  %s...\n\n"
    (String.sub (Rle.to_string (Rle.encode sample)) 0 60);

  let disk_sbc, bp_sbc = mk_pool () in
  let disk_str, bp_str = mk_pool () in
  let sbc = Sbc_tree.create bp_sbc in
  let strb = String_btree.create bp_str in
  List.iter (fun s -> ignore (Sbc_tree.insert sbc s)) corpus;
  List.iter (fun s -> ignore (String_btree.insert strb s)) corpus;

  Printf.printf "indexed %d sequences (%d total characters)\n" (List.length corpus)
    (List.fold_left (fun acc s -> acc + String.length s) 0 corpus);
  Printf.printf "  SBC-tree: %d suffix entries (one per run), %d pages total\n"
    (Sbc_tree.entry_count sbc) (Sbc_tree.total_pages sbc);
  Printf.printf "  String B-tree: %d suffix entries (one per char), %d pages total\n"
    (String_btree.entry_count strb) (String_btree.total_pages strb);
  Printf.printf "  storage reduction: %.1fx\n\n"
    (float_of_int (String_btree.total_pages strb) /. float_of_int (Sbc_tree.total_pages sbc));

  (* substring queries over the compressed data *)
  let patterns = [ "HHHHEEEE"; "LLLH"; "EEEEEEEEEEEE"; "HLH" ] in
  List.iter
    (fun pattern ->
      Stats.reset (Disk.stats disk_sbc);
      Stats.reset (Disk.stats disk_str);
      let sbc_hits = Sbc_tree.substring_search sbc pattern in
      let sbc_io = Stats.total_io (Stats.snapshot (Disk.stats disk_sbc)) in
      let str_hits = String_btree.substring_search strb pattern in
      let str_io = Stats.total_io (Stats.snapshot (Disk.stats disk_str)) in
      Printf.printf
        "substring %-14s -> SBC-tree: %3d run-aligned hits (%4d I/Os) | String B-tree: %3d occurrences (%4d I/Os)\n"
        (Printf.sprintf "%S" pattern)
        (List.length sbc_hits) sbc_io (List.length str_hits) str_io;
      (* verify: every SBC hit is a real occurrence *)
      let texts = Array.of_list corpus in
      List.iter
        (fun { Sbc_tree.seq; pos } ->
          let s = texts.(seq) in
          assert (String.sub s pos (String.length pattern) = pattern))
        sbc_hits)
    patterns;

  print_endline "\n--- prefix and range search on compressed sequences ---";
  let with_prefix = Sbc_tree.prefix_search sbc "HHHH" in
  Printf.printf "sequences starting with HHHH: %d\n" (List.length with_prefix);
  let in_range = Sbc_tree.range_search sbc ~lo:"E" ~hi:"H" in
  Printf.printf "sequences lexicographically in [E, H]: %d\n" (List.length in_range);

  print_endline "\n--- subsequence matching (planned SBC-tree extension) ---";
  let motif = "HEHEH" in
  let with_motif = Sbc_tree.subsequence_search sbc motif in
  Printf.printf "sequences containing %S as a subsequence (gaps allowed): %d of %d\n"
    motif (List.length with_motif) (List.length corpus);
  ignore disk_sbc;
  ignore disk_str;

  print_endline "\nsequence search complete."
