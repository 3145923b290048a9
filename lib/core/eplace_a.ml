(* ePlace-A: the paper's conventional (performance-oblivious) analog
   placer — electrostatic global placement followed by the ILP
   integrated legalization / detailed placement. *)

type params = {
  gp : Gp_params.t;
  dp : Dp_ilp.params;
  dp_passes : int;  (* re-running DP on its own output compacts further *)
  restarts : int;  (* GP seeds tried; best area*HPWL kept *)
}

let default_params =
  { gp = Gp_params.default; dp = Dp_ilp.default_params; dp_passes = 3;
    restarts = 5 }

type result = {
  layout : Netlist.Layout.t;
  gp_result : Global_place.result;
  dp_result : Dp_ilp.result;
  runtime_s : float;
}

(* one GP + DP pipeline for a fixed seed *)
let place_once params ?perf c ~seed =
  let gp_params = { params.gp with Gp_params.seed } in
  let gp_result = Global_place.run ~params:gp_params ?perf c in
  let rec refine gp_layout pass last =
    if pass >= params.dp_passes then last
    else
      match Dp_ilp.run ~params:params.dp c ~gp:gp_layout with
      | Some dp_result ->
          refine dp_result.Dp_ilp.layout (pass + 1) (Some dp_result)
      | None -> last
  in
  match refine gp_result.Global_place.layout 0 None with
  | Some dp_result -> Some (gp_result, dp_result)
  | None -> None

let default_score l = Netlist.Layout.area l *. Netlist.Layout.hpwl l

let place ?(params = default_params) ?perf ?(score = default_score)
    (c : Netlist.Circuit.t) =
  let t0 = Telemetry.now () in
  let seeds =
    Array.init (max 1 params.restarts) (fun k -> params.gp.Gp_params.seed + k)
  in
  let runs =
    Pool.map (Pool.default ())
      (fun seed -> place_once params ?perf c ~seed)
      seeds
  in
  (* scored in task order; a tie keeps the lowest seed *)
  let best =
    Array.fold_left
      (fun best run ->
        match run with
        | Some (gp_result, dp_result) -> (
            let s = score dp_result.Dp_ilp.layout in
            match best with
            | Some (s0, _, _) when s0 <= s -> best
            | _ -> Some (s, gp_result, dp_result))
        | None -> best)
      None runs
  in
  match best with
  | Some (_, gp_result, dp_result) ->
      Some
        {
          layout = dp_result.Dp_ilp.layout;
          gp_result;
          dp_result;
          runtime_s = Telemetry.now () -. t0;
        }
  | None -> None
