(* Branch and bound over LP relaxations (depth-first with best-bound
   pruning). Binaries get an implicit upper bound of 1. The root
   relaxation is solved by dual simplex from the slack basis
   ([Simplex.solve ~reserve]); every other node is its root plus the
   bound rows of its branching path, re-solved by the same dual loop on
   the root's working tableau. A child of the node just solved adds its
   one bound row; any other node (a backtrack) first resets the tableau
   to the root optimum, saved when the root branches, and adds its
   whole path. *)

type vartype = Continuous | Integer | Binary

type problem = { base : Simplex.problem; kinds : vartype array }

type status = Ilp_optimal | Ilp_feasible | Ilp_infeasible

type result = {
  status : status;
  x : float array;
  objective_value : float;
  nodes : int;
}

type bound = { var : int; op : Simplex.op; rhs : float }

(* [path]: the node's bound rows, newest first; [parent]: the number
   (from 1, in solve order) of the node that branched it, 0 for the
   root *)
type node = { path : bound list; parent : int }

let int_tol = 1e-5

let is_integral v = abs_float (v -. Float.round v) <= int_tol

let nodes_counter = Telemetry.Counter.make "ilp.nodes"
let solves_counter = Telemetry.Counter.make "ilp.solves"
let truncated_counter = Telemetry.Counter.make "ilp.truncated"

let solve ?(max_nodes = 500) (p : problem) =
  if Array.length p.kinds <> p.base.Simplex.n_vars then
    invalid_arg "Ilp.solve: kinds size";
  let binary_bounds =
    List.concat
      (List.init (Array.length p.kinds) (fun j ->
           match p.kinds.(j) with
           | Binary ->
               [ { Simplex.coeffs = [ (j, 1.0) ]; op = Simplex.Le; rhs = 1.0 } ]
           | Integer | Continuous -> []))
  in
  let root =
    { p.base with
      Simplex.constraints = binary_bounds @ p.base.Simplex.constraints }
  in
  (* a node is solved only after all its ancestors, so its depth is
     below [max_nodes]; a binary is branched at most once on a path *)
  let reserve =
    if Array.exists (fun k -> k = Integer) p.kinds then max 0 (max_nodes - 1)
    else max 0 (min (max_nodes - 1) (List.length binary_bounds))
  in
  Telemetry.Counter.incr solves_counter;
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let nodes = ref 0 in
  let truncated = ref false in
  let stack = ref [ { path = []; parent = 0 } ] in
  let warm = ref None in
  let add w b = Simplex.add_bound w b.var b.op b.rhs in
  let relax node =
    match (node.path, !warm) with
    | [], _ ->
        let r, w = Simplex.solve ~reserve root in
        warm := Some w;
        r
    | b :: _, Some w when node.parent = !nodes - 1 ->
        add w b;
        Simplex.resolve w
    | path, Some w ->
        Simplex.reset w;
        List.iter (add w) (List.rev path);
        Simplex.resolve w
    | _ :: _, None -> invalid_arg "Ilp.solve: child of an unsolved root"
  in
  let running = ref true in
  while !running do
    match !stack with
    | [] -> running := false
    | node :: rest ->
        stack := rest;
        if !nodes >= max_nodes then begin
          truncated := true;
          stack := []
        end
        else begin
          incr nodes;
          match relax node with
          | Simplex.Infeasible -> ()
          | Simplex.Iter_limit -> truncated := true
          | Simplex.Optimal sol ->
              if sol.Simplex.objective_value >= !incumbent_obj -. 1e-9 then ()
              else begin
                (* most fractional integer variable, binaries first *)
                let frac j = abs_float (sol.Simplex.x.(j)
                                        -. Float.round sol.Simplex.x.(j)) in
                let pick = ref (-1) and best = ref int_tol in
                let consider j =
                  let f = frac j in
                  if f > !best then begin
                    best := f;
                    pick := j
                  end
                in
                Array.iteri
                  (fun j k -> match k with Binary -> consider j | _ -> ())
                  p.kinds;
                if !pick < 0 then
                  Array.iteri
                    (fun j k -> match k with Integer -> consider j | _ -> ())
                    p.kinds;
                if !pick < 0 then begin
                  (* integral: new incumbent *)
                  incumbent := Some sol;
                  incumbent_obj := sol.Simplex.objective_value
                end
                else begin
                  (match node.path with
                  | [] -> Option.iter Simplex.save_root !warm
                  | _ :: _ -> ());
                  let j = !pick in
                  let v = sol.Simplex.x.(j) in
                  let child op rhs =
                    { path = { var = j; op; rhs } :: node.path; parent = !nodes }
                  in
                  let down =
                    child Simplex.Le (Float.of_int (int_of_float (Float.floor v)))
                  and up =
                    child Simplex.Ge (Float.of_int (int_of_float (Float.ceil v)))
                  in
                  (* explore the branch nearer the relaxed value first *)
                  let first, second =
                    if v -. Float.floor v <= 0.5 then (down, up) else (up, down)
                  in
                  stack := first :: second :: !stack
                end
              end
        end
  done;
  Telemetry.Counter.add nodes_counter !nodes;
  Telemetry.Counter.add truncated_counter (if !truncated then 1 else 0);
  match !incumbent with
  | Some sol ->
      let x = Array.copy sol.Simplex.x in
      (* clean near-integral values *)
      Array.iteri
        (fun j k ->
          match k with
          | Binary | Integer -> if is_integral x.(j) then x.(j) <- Float.round x.(j)
          | Continuous -> ())
        p.kinds;
      {
        status = (if !truncated then Ilp_feasible else Ilp_optimal);
        x;
        objective_value = sol.Simplex.objective_value;
        nodes = !nodes;
      }
  | None ->
      {
        status = Ilp_infeasible;
        x = Array.make p.base.Simplex.n_vars 0.0;
        objective_value = infinity;
        nodes = !nodes;
      }
