(* Separation planning shared by the detailed placers: decide, for
   each device pair, the axis along which they are kept apart and the
   direction, from the global-placement positions and the constraint
   set. Directions are derived from a per-axis total order over
   equality-glued clusters, which keeps the constraint graph acyclic
   and consistent with symmetry/alignment equalities and ordering
   chains. A transitive reduction keeps the row count small.

   Deviation noted in DESIGN.md: the originating papers add relative
   order constraints only for pairs overlapping after global placement;
   [plan ~all_pairs:true] is the closure of that rule: every layout it
   admits is overlap-free. It does not promise that one exists: with
   symmetry and ordering equalities the closure can be infeasible (it
   is on Scaled-240's first pass), and the detailed placers then fall
   back to [plan ~all_pairs:false]. *)

module CS = Netlist.Constraint_set

type axis = X_axis | Y_axis

(* --- separation-pair planning (shared by both axes) --- *)

type sep = { lo : int; hi : int; along : axis }

let plan (c : Netlist.Circuit.t) ~(gp : Netlist.Layout.t)
    ~all_pairs =
  let n = Netlist.Circuit.n_devices c in
  let cs = c.Netlist.Circuit.constraints in
  let dev i = Netlist.Circuit.device c i in
  (* Equality "glue": devices whose coordinate along an axis is tied by
     an equality constraint. Glued devices cannot be separated along
     that axis, and separations between two glue clusters must all run
     in the same direction or the system turns infeasible. *)
  let make_uf () = Array.init n Fun.id in
  let rec find uf i = if uf.(i) = i then i else find uf uf.(i) in
  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if ra <> rb then uf.(ra) <- rb
  in
  let glue_x = make_uf () and glue_y = make_uf () in
  let pairwise_union uf = function
    | [] | [ _ ] -> ()
    | x :: rest -> List.iter (fun y -> union uf x y) rest
  in
  List.iter
    (fun (g : CS.sym_group) ->
      match g.CS.sym_axis with
      | CS.Vertical ->
          (* pairs share y; selfs share x (all sit on the axis) *)
          List.iter (fun (a, b) -> union glue_y a b) g.CS.pairs;
          pairwise_union glue_x g.CS.selfs
      | CS.Horizontal ->
          List.iter (fun (a, b) -> union glue_x a b) g.CS.pairs;
          pairwise_union glue_y g.CS.selfs)
    cs.CS.sym_groups;
  List.iter
    (fun (p : CS.align_pair) ->
      match p.CS.align_kind with
      | CS.Bottom | CS.Top | CS.Hcenter -> union glue_y p.CS.a p.CS.b
      | CS.Vcenter -> union glue_x p.CS.a p.CS.b)
    cs.CS.aligns;
  (* forced axes from constraints *)
  let forced = Hashtbl.create 16 in
  let key a b = (min a b, max a b) in
  let force a b ax = Hashtbl.replace forced (key a b) ax in
  List.iter
    (fun (g : CS.sym_group) ->
      let pair_ax, cross_ax =
        match g.CS.sym_axis with
        | CS.Vertical -> (X_axis, Y_axis)
        | CS.Horizontal -> (Y_axis, X_axis)
      in
      List.iter (fun (a, b) -> force a b pair_ax) g.CS.pairs;
      (* members of different pairs in one group: stack them along the
         axis direction — mirrored x separations would contradict the
         shared-midpoint equalities when GP is not perfectly symmetric *)
      let rec cross_pairs = function
        | [] -> ()
        | (a1, b1) :: rest ->
            List.iter
              (fun (a2, b2) ->
                force a1 a2 cross_ax;
                force a1 b2 cross_ax;
                force b1 a2 cross_ax;
                force b1 b2 cross_ax)
              rest;
            cross_pairs rest
      in
      cross_pairs g.CS.pairs)
    cs.CS.sym_groups;
  List.iter
    (fun (p : CS.align_pair) ->
      match p.CS.align_kind with
      | CS.Bottom | CS.Top | CS.Hcenter -> force p.CS.a p.CS.b X_axis
      | CS.Vcenter -> force p.CS.a p.CS.b Y_axis)
    cs.CS.aligns;
  (* ordering chains force axis membership *)
  let chain_edges_x = ref [] and chain_edges_y = ref [] in
  List.iter
    (fun (o : CS.order_chain) ->
      let ax, acc =
        match o.CS.order_dir with
        | CS.Left_to_right -> (X_axis, chain_edges_x)
        | CS.Bottom_to_top -> (Y_axis, chain_edges_y)
      in
      let rec all_ordered = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                force a b ax;
                acc := (a, b) :: !acc)
              rest;
            all_ordered rest
      in
      all_ordered o.CS.chain)
    cs.CS.orders;
  (* Per-axis order over glue clusters: topological sort of chain edges
     (lifted to cluster representatives) with the cluster's mean GP
     coordinate as priority. Every separation direction is derived from
     this order, so directions are consistent within each cluster and
     acyclic overall. *)
  let cluster_rank glue coords chain_edges =
    let rep i = find glue i in
    let sum = Array.make n 0.0 and count = Array.make n 0 in
    for i = 0 to n - 1 do
      let r = rep i in
      sum.(r) <- sum.(r) +. coords.(i);
      count.(r) <- count.(r) + 1
    done;
    let mean = Array.make n 0.0 in
    for r = 0 to n - 1 do
      if count.(r) > 0 then mean.(r) <- sum.(r) /. float_of_int count.(r)
    done;
    let indeg = Array.make n 0 in
    let succs = Array.make n [] in
    List.iter
      (fun (a, b) ->
        let ra = rep a and rb = rep b in
        if ra <> rb then begin
          indeg.(rb) <- indeg.(rb) + 1;
          succs.(ra) <- rb :: succs.(ra)
        end)
      chain_edges;
    let module H = Set.Make (struct
      type t = float * int

      let compare = compare
    end) in
    let ready = ref H.empty in
    for r = 0 to n - 1 do
      if count.(r) > 0 && indeg.(r) = 0 then
        ready := H.add (mean.(r), r) !ready
    done;
    let rank = Array.make n 0 in
    let next = ref 0 in
    while not (H.is_empty !ready) do
      let ((_, r) as e) = H.min_elt !ready in
      ready := H.remove e !ready;
      rank.(r) <- !next;
      incr next;
      List.iter
        (fun r' ->
          indeg.(r') <- indeg.(r') - 1;
          if indeg.(r') = 0 then ready := H.add (mean.(r'), r') !ready)
        succs.(r)
    done;
    fun i -> rank.(rep i)
  in
  let rank_x =
    cluster_rank glue_x gp.Netlist.Layout.xs !chain_edges_x
  in
  let rank_y =
    cluster_rank glue_y gp.Netlist.Layout.ys !chain_edges_y
  in
  let on_x = Array.make_matrix n n false in
  let on_y = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let di = dev i and dj = dev j in
      let dx =
        (0.5 *. (di.Netlist.Device.w +. dj.Netlist.Device.w))
        -. abs_float (gp.Netlist.Layout.xs.(i) -. gp.Netlist.Layout.xs.(j))
      and dy =
        (0.5 *. (di.Netlist.Device.h +. dj.Netlist.Device.h))
        -. abs_float (gp.Netlist.Layout.ys.(i) -. gp.Netlist.Layout.ys.(j))
      in
      let overlapping = dx > 0.0 && dy > 0.0 in
      if all_pairs || overlapping || Hashtbl.mem forced (key i j) then begin
        let x_glued = find glue_x i = find glue_x j in
        let y_glued = find glue_y i = find glue_y j in
        let along =
          if x_glued && y_glued then None (* constraint pathology *)
          else if x_glued then Some Y_axis
          else if y_glued then Some X_axis
          else
            match Hashtbl.find_opt forced (key i j) with
            | Some ax -> Some ax
            | None -> Some (if dx < dy then X_axis else Y_axis)
        in
        match along with
        | None -> ()
        | Some X_axis ->
            let lo, hi = if rank_x i <= rank_x j then (i, j) else (j, i) in
            on_x.(lo).(hi) <- true
        | Some Y_axis ->
            let lo, hi = if rank_y i <= rank_y j then (i, j) else (j, i) in
            on_y.(lo).(hi) <- true
      end
    done
  done;
  (* transitive reduction per axis: a -> c is implied by a -> b -> c
     because separations use half-width sums, which are subadditive *)
  let reduce m =
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if m.(a).(b) then
          for cdev = 0 to n - 1 do
            if m.(b).(cdev) && m.(a).(cdev) then m.(a).(cdev) <- false
          done
      done
    done
  in
  reduce on_x;
  reduce on_y;
  let seps = ref [] in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if on_x.(a).(b) then seps := { lo = a; hi = b; along = X_axis } :: !seps;
      if on_y.(a).(b) then seps := { lo = a; hi = b; along = Y_axis } :: !seps
    done
  done;
  !seps

