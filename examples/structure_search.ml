(* Multidimensional search for protein structures (Section 7.1): the paper
   motivates SP-GiST with "protein 3D structures and surface shape
   matching".  This example stores synthetic protein surface feature
   points, then runs the three access methods side by side on the
   structure-matching primitives: window queries (find features in a
   surface patch) and kNN (find the nearest features to a probe site).

   Run with: dune exec examples/structure_search.exe *)

module Prng = Bdbms_util.Prng
module Workload = Bdbms_bio.Workload
module Kd_tree = Bdbms_spgist.Kd_tree
module Quadtree = Bdbms_spgist.Quadtree
module Rtree = Bdbms_index.Rtree
module Disk = Bdbms_storage.Disk
module Pager = Bdbms_storage.Pager
module Stats = Bdbms_obs.Stats

let extent = 100.0

let mk_pool () =
  let d = Disk.create ~page_size:1024 ~pool_pages:4096 () in
  (d, Disk.pager d)

let accesses disk f =
  Stats.reset (Disk.stats disk);
  let r = f () in
  let s = Stats.snapshot (Disk.stats disk) in
  (r, s.Stats.reads + s.Stats.writes + s.Stats.hits)

let () =
  print_endline "=== bdbms structure search: SP-GiST indexes on protein feature points ===\n";
  let rng = Prng.create 1007 in
  (* surface features cluster around binding pockets *)
  let pts = Workload.points_clustered rng ~n:5000 ~extent ~clusters:6 in
  Printf.printf "5000 surface feature points in a %.0fx%.0f patch (6 pockets)\n\n" extent
    extent;

  let disk_k, bp_k = mk_pool () in
  let disk_q, bp_q = mk_pool () in
  let disk_r, bp_r = mk_pool () in
  let kd = Kd_tree.create ~dims:2 bp_k in
  let quad = Quadtree.create ~world:(0.0, 0.0, extent, extent) bp_q in
  let rt = Rtree.create bp_r in
  Array.iteri (fun i (x, y) -> Kd_tree.insert kd [| x; y |] i) pts;
  Array.iteri (fun i (x, y) -> Quadtree.insert quad { Quadtree.x; y } i) pts;
  Array.iteri (fun i (x, y) -> Rtree.insert rt (Rtree.mbr_of_point ~x ~y) i) pts;
  Printf.printf "index pages: kd-tree %d | PR-quadtree %d | R-tree %d\n\n"
    (Kd_tree.node_pages kd) (Quadtree.node_pages quad) (Rtree.node_pages rt);

  (* a surface patch query: a window centred on a known feature (so it
     lands inside a pocket) *)
  let cx, cy = pts.(0) in
  let wx = Float.max 0.0 (cx -. 12.5) and wy = Float.max 0.0 (cy -. 12.5) in
  let kd_res, kd_io =
    accesses disk_k (fun () -> Kd_tree.window kd [| (wx, wx +. 25.0); (wy, wy +. 25.0) |])
  in
  let quad_res, quad_io =
    accesses disk_q (fun () ->
        Quadtree.window quad ~x_lo:wx ~x_hi:(wx +. 25.0) ~y_lo:wy ~y_hi:(wy +. 25.0))
  in
  let rt_res, rt_io =
    accesses disk_r (fun () ->
        Rtree.search rt { Rtree.x_lo = wx; x_hi = wx +. 25.0; y_lo = wy; y_hi = wy +. 25.0 })
  in
  assert (List.length kd_res = List.length quad_res);
  assert (List.length kd_res = List.length rt_res);
  Printf.printf
    "patch query [%.0f..%.0f]x[%.0f..%.0f]: %d features\n\
    \  accesses: kd %d | quadtree %d | R-tree %d\n\n"
    wx (wx +. 25.0) wy (wy +. 25.0) (List.length kd_res) kd_io quad_io rt_io;

  (* probe sites: nearest features (structure alignment seeding) *)
  List.iter
    (fun (px, py) ->
      let kd_nn, kd_io =
        accesses disk_k (fun () -> Kd_tree.nearest kd [| px; py |] ~k:5)
      in
      let _, quad_io =
        accesses disk_q (fun () -> Quadtree.nearest quad { Quadtree.x = px; y = py } ~k:5)
      in
      let _, rt_io = accesses disk_r (fun () -> Rtree.nearest rt ~x:px ~y:py ~k:5) in
      let dists = List.map (fun (_, _, d) -> Printf.sprintf "%.1f" d) kd_nn in
      Printf.printf
        "5-NN of probe (%.0f, %.0f): dists [%s]\n  accesses: kd %d | quadtree %d | R-tree %d\n"
        px py (String.concat "; " dists) kd_io quad_io rt_io)
    [ (10.0, 10.0); (50.0, 50.0); (90.0, 20.0) ];

  print_endline "\nstructure search complete."
