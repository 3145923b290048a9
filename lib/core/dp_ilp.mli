(** ePlace-A's integrated ILP legalization + detailed placement
    (paper Eq. 4): single-stage area and wirelength minimisation with
    device flipping, hard symmetry, alignment and ordering constraints,
    solved as two per-axis ILPs (the formulation is separable). Each
    net is a [(hi, span)] pair, so every cost is [>= 0] and the LPs are
    solved by {!Numerics.Simplex.solve} with no phase 1; only
    [Flip_exact] goes through {!Numerics.Ilp}. *)

type flip_strategy =
  | Flip_exact  (** flip binaries solved exactly by branch and bound *)
  | Flip_round
      (** LP relaxation, rounding, one warm dual re-solve with the
          flips bounded (default) *)
  | Flip_off  (** no device flipping, as in the prior work [11] *)

type params = {
  mu : float;  (** area weight (Eq. 4a) *)
  zeta : float;  (** utilization factor for the tilde-W/H estimate *)
  flip : flip_strategy;
  max_nodes : int;
      (** branch-and-bound node budget (Flip_exact); the only stop, so
          the result never depends on host speed *)
  debug : bool;
      (** print per-axis ILP status to stderr when an axis comes back
          infeasible or stopped (was the [DP_DEBUG] env var — an
          explicit flag so cached runs stay a pure function of their
          spec; placer-lint rule C1) *)
}

val default_params : params

type result = {
  layout : Netlist.Layout.t;
  runtime_s : float;
  nodes_x : int;
  nodes_y : int;
  fell_back : bool;
      (** the all-pairs separation closure was infeasible and the
          paper's overlap-only rule was used instead *)
}

val run :
  ?params:params -> Netlist.Circuit.t -> gp:Netlist.Layout.t -> result option
(** [run c ~gp] legalizes the global placement [gp]. [None] when both
    separation plans are infeasible (malformed constraints). Each call
    adds 1 to the [dp.fell_back] telemetry counter if the all-pairs
    closure was infeasible and the overlap-only rule was tried, and 0
    otherwise. *)
