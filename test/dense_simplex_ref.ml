(* Reference LP solver for the tests: plain dense two-phase primal
   simplex, a different algorithm from the dual simplex of
   [Numerics.Simplex]. Every pivot updates every entry of every row and
   of the reduced-cost row, and each Ge row stores its own artificial
   column. The tests compare statuses and objectives with it, and it
   solves every node of the cold branch-and-bound reference
   ([Ilp_ref]). Test-only; the tests give it costs >= 0 only, so an
   unbounded phase 2 is a test bug and raises. *)

module Sx = Numerics.Simplex

let eps = 1e-9

type tableau = {
  m : int;
  ncols : int;
  t : float array array;  (* m rows of length ncols + 1; last col = rhs *)
  z : float array;
  basis : int array;
  art_start : int;
}

let build (p : Sx.problem) =
  let rows =
    Array.map
      (fun (r : Sx.constr) ->
        if r.Sx.rhs < 0.0 then
          {
            Sx.coeffs = List.map (fun (j, a) -> (j, -.a)) r.Sx.coeffs;
            op = (match r.Sx.op with Sx.Le -> Sx.Ge | Ge -> Le | Eq -> Eq);
            rhs = -.r.Sx.rhs;
          }
        else r)
      (Array.of_list p.Sx.constraints)
  in
  let m = Array.length rows in
  let count f =
    Array.fold_left (fun acc r -> if f r.Sx.op then acc + 1 else acc) 0 rows
  in
  let n_slack = count (function Sx.Le | Ge -> true | Eq -> false) in
  let n_art = count (function Sx.Ge | Eq -> true | Le -> false) in
  let art_start = p.Sx.n_vars + n_slack in
  let ncols = art_start + n_art in
  let t = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
  let basis = Array.make m (-1) in
  let slack = ref p.Sx.n_vars and art = ref art_start in
  Array.iteri
    (fun i (r : Sx.constr) ->
      List.iter (fun (j, a) -> t.(i).(j) <- t.(i).(j) +. a) r.Sx.coeffs;
      t.(i).(ncols) <- r.Sx.rhs;
      match r.Sx.op with
      | Sx.Le ->
          t.(i).(!slack) <- 1.0;
          basis.(i) <- !slack;
          incr slack
      | Ge ->
          t.(i).(!slack) <- -1.0;
          incr slack;
          t.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          incr art
      | Eq ->
          t.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          incr art)
    rows;
  { m; ncols; t; z = Array.make (ncols + 1) 0.0; basis; art_start }

let price tab c =
  Array.fill tab.z 0 (tab.ncols + 1) 0.0;
  Array.blit c 0 tab.z 0 (Array.length c);
  for i = 0 to tab.m - 1 do
    let cb = if tab.basis.(i) < Array.length c then c.(tab.basis.(i)) else 0.0 in
    if not (Float.equal cb 0.0) then
      for j = 0 to tab.ncols do
        tab.z.(j) <- tab.z.(j) -. (cb *. tab.t.(i).(j))
      done
  done

let pivot tab ~row ~col =
  let pr = tab.t.(row) in
  let pv = pr.(col) in
  if abs_float pv <= 0.0 then invalid_arg "Dense_simplex_ref: zero pivot";
  let inv = 1.0 /. pv in
  for j = 0 to tab.ncols do
    pr.(j) <- pr.(j) *. inv
  done;
  for i = 0 to tab.m - 1 do
    if i <> row then begin
      let r = tab.t.(i) in
      let f = r.(col) in
      if abs_float f > 0.0 then
        for j = 0 to tab.ncols do
          r.(j) <- r.(j) -. (f *. pr.(j))
        done
    end
  done;
  let f = tab.z.(col) in
  if abs_float f > 0.0 then
    for j = 0 to tab.ncols do
      tab.z.(j) <- tab.z.(j) -. (f *. pr.(j))
    done;
  tab.basis.(row) <- col

let iterate ~max_iter tab ~allowed =
  let bland_after = 5 * (tab.m + tab.ncols) in
  let rec go k =
    if k >= max_iter then `Iter_limit
    else begin
      let enter = ref (-1) in
      if k < bland_after then begin
        let best = ref (-.eps) in
        for j = 0 to tab.ncols - 1 do
          if allowed j && tab.z.(j) < !best then begin
            best := tab.z.(j);
            enter := j
          end
        done
      end
      else begin
        let j = ref 0 in
        while !enter < 0 && !j < tab.ncols do
          if allowed !j && tab.z.(!j) < -.eps then enter := !j;
          incr j
        done
      end;
      if !enter < 0 then `Optimal
      else begin
        let row = ref (-1) and best = ref infinity in
        for i = 0 to tab.m - 1 do
          let a = tab.t.(i).(!enter) in
          if a > eps then begin
            let ratio = tab.t.(i).(tab.ncols) /. a in
            if
              ratio < !best -. eps
              || (ratio < !best +. eps
                 && (!row < 0 || tab.basis.(i) < tab.basis.(!row)))
            then begin
              best := ratio;
              row := i
            end
          end
        done;
        if !row < 0 then `Unbounded
        else begin
          pivot tab ~row:!row ~col:!enter;
          go (k + 1)
        end
      end
    end
  in
  go 0

let run ~max_iter (p : Sx.problem) tab =
  let has_art = tab.ncols > tab.art_start in
  let phase1 =
    if not has_art then `Optimal
    else begin
      let c1 = Array.make tab.ncols 0.0 in
      Array.fill c1 tab.art_start (tab.ncols - tab.art_start) 1.0;
      price tab c1;
      iterate ~max_iter tab ~allowed:(fun _ -> true)
    end
  in
  match phase1 with
  | `Iter_limit -> Sx.Iter_limit
  | `Unbounded -> Sx.Infeasible
  | `Optimal ->
      let phase1_obj = ref 0.0 in
      for i = 0 to tab.m - 1 do
        if tab.basis.(i) >= tab.art_start then
          phase1_obj := !phase1_obj +. tab.t.(i).(tab.ncols)
      done;
      if !phase1_obj > 1e-6 then Sx.Infeasible
      else begin
        for i = 0 to tab.m - 1 do
          if tab.basis.(i) >= tab.art_start then begin
            let col = ref (-1) in
            for j = 0 to tab.art_start - 1 do
              if !col < 0 && abs_float tab.t.(i).(j) > 1e-7 then col := j
            done;
            if !col >= 0 then pivot tab ~row:i ~col:!col
          end
        done;
        let c2 = Array.make tab.ncols 0.0 in
        Array.blit p.Sx.objective 0 c2 0 p.Sx.n_vars;
        price tab c2;
        match iterate ~max_iter tab ~allowed:(fun j -> j < tab.art_start) with
        | `Iter_limit -> Sx.Iter_limit
        | `Unbounded -> invalid_arg "Dense_simplex_ref: unbounded"
        | `Optimal ->
            let x = Array.make p.Sx.n_vars 0.0 in
            for i = 0 to tab.m - 1 do
              if tab.basis.(i) < p.Sx.n_vars then
                x.(tab.basis.(i)) <- tab.t.(i).(tab.ncols)
            done;
            let obj = ref 0.0 in
            for j = 0 to p.Sx.n_vars - 1 do
              obj := !obj +. (p.Sx.objective.(j) *. x.(j))
            done;
            Sx.Optimal { Sx.x; objective_value = !obj }
      end

let solve ?(max_iter = 20000) (p : Sx.problem) = run ~max_iter p (build p)
