(* The repository benchmark: the paper's placer families on four named
   workloads, every job built through [Methods.spec] -> [Methods.of_spec]
   and run serially on one domain.

   Usage (normally through run.sh, which builds this program first):

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --self-test

   A run sets up its jobs (several times; the median is [setup_s]).
   With [--trace 0] it then places the jobs round-robin until each has
   run once and [--seconds] have passed, and prints the end-to-end
   metrics. With [--trace 1] it places every job once untraced and once
   traced and prints the per-layer metrics: the telemetry the libraries
   already record, this program's own timing of the GP terms, and the
   GC. Each layout is checked and scored outside the timed region, and
   times are scaled by a host-speed calibration into reference seconds.
   The last stdout line is the JSON result; earlier lines list every job
   (spec hash, area, HPWL). README.md says what each metric should
   move. *)

module M = Experiments.Methods

let now = Telemetry.now

let timed f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ---------- workloads ---------- *)

type workload = {
  name : string;
  circuits : string list;
  smoke : string;  (* the self-test's single circuit *)
  specs : seed:int -> Netlist.Circuit.t -> M.spec list;
}

(* SA's converged budget as bench/matheuristic sizes it: 40k moves per
   symmetry island, capped at the paper budget. *)
let sa_moves c =
  min M.sa_default_moves (40_000 * List.length (Annealing.Island.decompose c))

let paper = Circuits.Testcases.all_names

let seeded seed (s : M.spec) = { s with M.seed }

(* Why these four: see README.md. In short, paper-analytical is the
   paper's own question and the only one where GP shows; scaled-legalize
   is all large legalization LPs; anneal-paper makes no LP call at all;
   mh-windows is many small branch-and-bound solves on the same LP
   kernel as scaled-legalize. *)
let workloads =
  [
    { name = "paper-analytical"; circuits = paper; smoke = "Adder";
      specs =
        (fun ~seed _ ->
          List.map (seeded seed) [ M.default_spec M.Eplace; M.default_spec M.Prev ]) };
    (* The spec keeps its default seed: with one restart, the layout's
       area is whichever local optimum that GP seed lands in (Scaled-60
       spans 135-212 um2 over seeds 1-5), and so varies more across
       seeds than any bound allowed here. The LP work does not (seeds
       1-4 on Scaled-60 all take 10-12 s). Scaled-36 and Scaled-40 (36
       and 48 devices) rather than the 60-device Scaled-60: a job of
       more than ten seconds outlasts the host-speed calibration around
       it. *)
    { name = "scaled-legalize"; circuits = [ "Scaled-36"; "Scaled-40" ];
      smoke = "Scaled-12";
      specs =
        (fun ~seed:_ _ -> [ { (M.default_spec M.Eplace) with M.restarts = 1 } ]) };
    { name = "anneal-paper"; circuits = paper; smoke = "Adder";
      specs =
        (fun ~seed c ->
          [ seeded seed { (M.default_spec M.Sa) with M.moves = sa_moves c } ]) };
    { name = "mh-windows"; circuits = paper; smoke = "Adder";
      specs =
        (fun ~seed c ->
          [ seeded seed
              { (M.default_spec M.Matheuristic) with
                M.moves = max 5_000 (sa_moves c / 8) } ]) };
  ]

(* The self-test's version of a workload: one circuit, one restart and
   at most 2k moves, through the same families and code paths. *)
let tiny w =
  { w with
    circuits = [ w.smoke ];
    specs =
      (fun ~seed c ->
        List.map
          (fun s -> { s with M.restarts = 1; moves = min s.M.moves 2_000 })
          (w.specs ~seed c)) }

(* ---------- host-speed calibration ---------- *)

(* The host is shared, and its speed drifts by 15-50 % between runs a
   few minutes apart (README.md has the numbers), far more than a
   regression bound may allow. So every timed stretch is bracketed by
   calibration points, and the end-to-end times are scaled by the
   host's speed next to them into reference seconds: seconds on a host
   where one calibration kernel takes [ref_calib_s]. The kernel shares
   no code with the placers, so a placer change cannot move it. *)

let ref_calib_s = 0.005

(* Gauss-Jordan pivots on a dense 130 x 130 tableau (the shape of the LP
   kernels' inner loop), then sorting freshly allocated lists of boxed
   floats (the allocation and pointer chasing of the SA and GP paths).
   The tableau is reused and the lists are small enough to die in the
   minor heap, so calibrating leaves [peak_heap_mb] alone. *)
let calib_n = 130

let calib_tableau = Array.make (calib_n * calib_n) 0.0

let calib_kernel () =
  let n = calib_n and t = calib_tableau in
  for k = 0 to (n * n) - 1 do
    t.(k) <- float_of_int (((k * 7919) mod 1009) + 1)
  done;
  for p = 0 to n - 1 do
    let piv = t.((p * n) + p) in
    for i = 0 to n - 1 do
      if i <> p then begin
        let f = t.((i * n) + p) /. piv in
        for j = 0 to n - 1 do
          t.((i * n) + j) <- t.((i * n) + j) -. (f *. t.((p * n) + j))
        done
      end
    done
  done;
  for r = 1 to 5 do
    let l = List.init 2_000 (fun k -> float_of_int ((k * 7919 * r) mod 10007)) in
    ignore (Sys.opaque_identity (List.sort Float.compare l))
  done

(* One calibration point: the median of three kernel timings. *)
let calibrate () = median (List.init 3 (fun _ -> snd (timed calib_kernel)))

(* [dt] measured between calibration points [c0] and [c1], in
   reference seconds. *)
let to_ref dt ~c0 ~c1 = dt *. ref_calib_s /. (0.5 *. (c0 +. c1))

(* ---------- set-up ---------- *)

type job = {
  label : string;
  cname : string;
  circuit : Netlist.Circuit.t;
  spec : M.spec;
  meth : M.t;
}

let setup_reps = 3

let warm_up_spec (s : M.spec) =
  { s with M.restarts = 1; moves = min s.M.moves 50_000 }

(* Circuit generation (Scaled-<n> included), specs from the seed,
   [of_spec] for every job, then one tiny placement per family on Adder
   so the timed rounds start with the heap grown and code paged in.
   Returns the jobs and the set-up time. *)
let setup w ~seed =
  let t0 = now () in
  let specs =
    List.concat_map
      (fun name ->
        let c = Circuits.Testcases.get_exn name in
        List.map (fun s -> (name, c, s)) (w.specs ~seed c))
      w.circuits
  in
  let jobs =
    List.map
      (fun (name, circuit, spec) ->
        { label = name ^ "/" ^ M.to_string spec.M.kind; cname = name; circuit;
          spec;
          meth = M.of_spec spec })
      specs
  in
  let adder = Circuits.Testcases.adder () in
  List.iter
    (fun k ->
      match List.find_opt (fun j -> j.spec.M.kind = k) jobs with
      | Some j -> ignore ((M.of_spec (warm_up_spec j.spec)).M.run adder)
      | None -> ())
    M.all;
  (jobs, now () -. t0)

(* ---------- placing and checking ---------- *)

(* Span totals the per-layer metrics read; see README.md for which
   library records each. *)
let span_names =
  [ "gp"; "dp"; "dp.axis_x"; "dp.axis_y"; "dp.area_stage"; "dp.wl_stage";
    "ilp" ]

type placed = {
  job : job;
  dt : float;  (* placement wall time *)
  layout : (Netlist.Layout.t, string) result;
  counters : (string * int) list;
  spans : (string * float) list;
  trace : Telemetry.span list;  (* traced samples only *)
  gc : float * float * float;  (* minor words, major words, major GCs *)
}

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words, float_of_int s.Gc.major_collections)

let place ~traced job =
  Telemetry.reset ();
  let m0, j0, c0 = gc_counts () in
  let t0 = now () in
  let layout =
    match job.meth.M.run job.circuit with
    | Some o -> Ok o.M.layout
    | None -> Error "no layout"
    | exception e -> Error (Printexc.to_string e)
  in
  let dt = now () -. t0 in
  let m1, j1, c1 = gc_counts () in
  { job; dt; layout;
    counters = Telemetry.counters ();
    spans = List.map (fun n -> (n, Telemetry.span_total n)) span_names;
    trace = (if traced then Telemetry.spans () else []);
    gc = (m1 -. m0, j1 -. j0, c1 -. c0) }

let count p name = Option.value ~default:0 (List.assoc_opt name p.counters)
let span p name = Option.value ~default:0.0 (List.assoc_opt name p.spans)

type checked = {
  p : placed;
  area : float;
  hpwl : float;
  fom : float;
  violations : int;
  checks_s : float;  (* verification time, outside [p.dt] *)
  fom_s : float;
  ref_dt : float;  (* [p.dt] in reference seconds *)
}

(* The output gate, outside the timed placement: [Checks.all] and
   [Fom.evaluate] on every layout. *)
let check p ~ref_dt =
  match p.layout with
  | Error _ ->
      { p; area = nan; hpwl = nan; fom = nan; violations = 0; checks_s = 0.0;
        fom_s = 0.0; ref_dt }
  | Ok l ->
      let violations, checks_s =
        timed (fun () -> List.length (Netlist.Checks.all l))
      in
      let fom, fom_s =
        timed (fun () -> (Perfsim.Fom.evaluate l).Perfsim.Fom.fom)
      in
      { p; area = Netlist.Layout.area l; hpwl = Netlist.Layout.hpwl l; fom;
        violations; checks_s; fom_s; ref_dt }

(* Place [job] right after calibration point [c0], take the next point,
   then check the layout. Returns the sample and the new point. *)
let sample ~traced c0 job =
  let p = place ~traced job in
  let c1 = calibrate () in
  (check p ~ref_dt:(to_ref p.dt ~c0 ~c1), c1)

(* Every job twice in a row, once untraced and once traced, the traced
   sample first on every other job so that a job's first run (heap
   growth) does not bias [trace.overhead_s]. Returns the untraced and
   the traced samples, in job order, and the calibration points. *)
let paired jobs =
  let c0 = calibrate () in
  let pairs, cs =
    List.fold_left
      (fun (pairs, cs) j ->
        let traced_first = List.length pairs mod 2 = 1 in
        let a, c1 = sample ~traced:traced_first (List.hd cs) j in
        let b, c2 = sample ~traced:(not traced_first) c1 j in
        ((if traced_first then (b, a) else (a, b)) :: pairs, c2 :: c1 :: cs))
      ([], [ c0 ]) jobs
  in
  (List.rev_map fst pairs, List.rev_map snd pairs, cs)

(* Place the jobs round-robin until each has run once and [seconds]
   have passed; returns each job's samples, in job order, and the peak
   heap once every job has run once. Repeating whole jobs rather than
   whole passes spends the time budget evenly and gives the per-job
   medians more than one sample where it can. The peak is read before
   the repeats, whose number depends on the host's speed. *)
let round_robin jobs ~seconds =
  let a = Array.of_list jobs in
  let n = Array.length a in
  let samples = Array.make n [] in
  let t0 = now () in
  let c0 = ref (calibrate ()) in
  let i = ref 0 and peak = ref nan in
  while !i < n || now () -. t0 < seconds do
    let k = !i mod n in
    let r, c = sample ~traced:false !c0 a.(k) in
    samples.(k) <- r :: samples.(k);
    c0 := c;
    incr i;
    if !i = n then peak := peak_heap_mb ()
  done;
  (Array.to_list (Array.map List.rev samples), !peak)

(* What must repeat bit for bit under the same seed: quality and the
   work counts. *)
let fingerprint r =
  match r.p.layout with
  | Error e -> Printf.sprintf "%s %s failed: %s" r.p.job.label
                 (M.spec_hash r.p.job.spec) e
  | Ok _ ->
      Printf.sprintf "%s %s area=%h hpwl=%h fom=%h viol=%d f_evals=%d \
                      ilp_nodes=%d sa_moves=%d mh_windows=%d"
        r.p.job.label (M.spec_hash r.p.job.spec) r.area r.hpwl r.fom
        r.violations (count r.p "gp.f_evals") (count r.p "ilp.nodes")
        (count r.p "sa.moves") (count r.p "mh.windows")

let fingerprints rs = String.concat "\n" (List.map fingerprint rs)

let out_dir = Filename.concat "perfbench" "out"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Compare against the fingerprints an earlier run of this same
   executable recorded for this workload and seed, or record them. *)
let check_across_runs ~workload ~seed fp =
  ensure_dir out_dir;
  let dir = Filename.concat out_dir "fingerprints" in
  ensure_dir dir;
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Filename.concat dir (Printf.sprintf "%s-%s-%d.txt" exe workload seed)
  in
  if Sys.file_exists path then String.equal (read_file path) fp
  else (write_file path fp; true)

let write_trace ~workload ~seed traced =
  ensure_dir out_dir;
  let path =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.jsonl" workload seed)
  in
  let line label (s : Telemetry.span) =
    Jsonio.to_string
      (Jsonio.Obj
         [ ("job", Jsonio.Str label);
           ("path", Jsonio.Arr (List.map (fun x -> Jsonio.Str x) s.Telemetry.path));
           ("name", Jsonio.Str s.Telemetry.span_name);
           ("start", Jsonio.Num s.Telemetry.t_start);
           ("dur_s", Jsonio.Num s.Telemetry.dur_s) ])
  in
  write_file path
    (String.concat ""
       (List.concat_map
          (fun r -> List.map (fun s -> line r.p.job.label s ^ "\n") r.p.trace)
          traced))

(* ---------- GP term probe ---------- *)

(* Microseconds per call of [f], over at least 20 ms and 3 calls. *)
let us_per_call f =
  let t0 = now () in
  let rec go n =
    f ();
    let el = now () -. t0 in
    if n >= 3 && el >= 0.02 then 1e6 *. el /. float_of_int n else go (n + 1)
  in
  go 1

(* Each GP objective term as one global-placement gradient evaluation
   calls it, built as [Global_place] builds it from [Gp_params.default],
   at seeded uniform positions in the placement region. The density
   call is the whole density part of an evaluation: [compute] plus the
   per-device [grad]. Returns WA, density, area, penalty in us/call. *)
let probe_terms ~seed c =
  let p = Eplace.Gp_params.default in
  let n = Netlist.Circuit.n_devices c in
  let total_area = Netlist.Circuit.total_device_area c in
  let side = sqrt (total_area /. p.Eplace.Gp_params.utilization) in
  let region = Geometry.Rect.make ~x0:0.0 ~y0:0.0 ~x1:side ~y1:side in
  let rng = Numerics.Rng.create seed in
  let pos () = Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:0.0 ~hi:side) in
  let xs = pos () in
  let ys = pos () in
  let gamma =
    side /. float_of_int p.Eplace.Gp_params.bins *. p.Eplace.Gp_params.gamma_factor
  in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let zero () = Array.fill gx 0 n 0.0; Array.fill gy 0 n 0.0 in
  let nv = Wirelength.Netview.of_circuit c in
  let es =
    Density.Electrostatic.create ~region ~nx:p.Eplace.Gp_params.bins
      ~ny:p.Eplace.Gp_params.bins
  in
  let cp = Place_common.Constraint_penalty.create c in
  let at = Place_common.Area_term.create c in
  let dev i = Netlist.Circuit.device c i in
  let density () =
    let rects =
      Array.init n (fun i ->
          Geometry.Rect.of_center ~cx:xs.(i) ~cy:ys.(i)
            ~w:(dev i).Netlist.Device.w ~h:(dev i).Netlist.Device.h)
    in
    Density.Electrostatic.compute es rects;
    ignore
      (Density.Electrostatic.overflow es
         ~target:p.Eplace.Gp_params.target_density ~total_area);
    Array.iteri
      (fun i r ->
        let dx, dy = Density.Electrostatic.grad es r in
        gx.(i) <- dx;
        gy.(i) <- dy)
      rects
  in
  [| us_per_call (fun () ->
         zero ();
         ignore (Wirelength.Wa.value_grad nv ~gamma ~xs ~ys ~gx ~gy));
     us_per_call density;
     us_per_call (fun () ->
         zero ();
         ignore (Place_common.Area_term.value_grad at ~gamma ~xs ~ys ~gx ~gy));
     us_per_call (fun () ->
         zero ();
         ignore
           (Place_common.Constraint_penalty.value_grad cp ~xs ~ys ~gx ~gy)) |]

(* ---------- metrics ---------- *)

type metric = { m_name : string; unit_ : string; value : float }

let metric m_name unit_ value = { m_name; unit_; value }

let sum = List.fold_left ( +. ) 0.0
let mean xs = sum xs /. float_of_int (List.length xs)
let geomean xs = exp (mean (List.map log xs))
let ratio a b = if b > 0.0 then a /. b else 0.0

(* [samples] holds each job's samples in job order. [wall_s] is the time
   to place every job once: the sum of the per-job medians, in
   reference seconds. Quality comes from each job's first sample (the
   others must match it). *)
let end_to_end ~setup_s ~peak samples =
  let firsts = List.map List.hd samples in
  let ok = List.filter (fun r -> Result.is_ok r.p.layout) firsts in
  let job_s = List.map (fun rs -> median (List.map (fun r -> r.ref_dt) rs)) samples in
  [ metric "setup_s" "s" setup_s;
    metric "wall_s" "s" (sum job_s);
    metric "job_p50_s" "s" (median job_s);
    metric "area_geomean_um2" "um2" (geomean (List.map (fun r -> r.area) ok));
    metric "hpwl_geomean_um" "um" (geomean (List.map (fun r -> r.hpwl) ok));
    metric "fom_mean" "fom" (mean (List.map (fun r -> r.fom) ok));
    metric "peak_heap_mb" "MB" peak ]

(* Per-layer metrics from the traced samples (every job once). Span
   names are shared across families ("gp" is Global_place in ePlace-A
   jobs, Ntu_gp in prev jobs, the SA phase in SA and matheuristic jobs),
   so each layer sums them over the jobs of the family that owns it. *)
let per_layer ~of_spec_s ~untraced ~traced ~probe ~calib_s =
  let rs = List.map (fun r -> r.p) traced in
  let total f l = sum (List.map f l) in
  let over kinds f =
    sum (List.filter_map
           (fun p -> if List.mem p.job.spec.M.kind kinds then Some (f p) else None)
           rs)
  in
  let cnt kinds name = over kinds (fun p -> float_of_int (count p name)) in
  let spn kinds name = over kinds (fun p -> span p name) in
  let all = M.all in
  let ep = [ M.Eplace ] and pv = [ M.Prev ] and mh = [ M.Matheuristic ] in
  let sa = [ M.Sa; M.Matheuristic ] in
  let wall = total (fun r -> r.p.dt) traced in
  let gp_s = spn ep "gp" and gp_fe = cnt ep "gp.f_evals" in
  let dp_s = spn ep "dp" in
  let solves = cnt all "ilp.solves" and nodes = cnt all "ilp.nodes" in
  let ilp_s = spn ep "dp.axis_x" +. spn ep "dp.axis_y" +. spn mh "ilp" in
  let sa_s = spn sa "gp" and moves = cnt sa "sa.moves" in
  let accepted = cnt sa "sa.accepted" and rejected = cnt sa "sa.rejected" in
  (* net-HPWL lookups: every SA evaluation consults each active net *)
  let lookups =
    over sa (fun p ->
        float_of_int (count p "sa.evals")
        *. float_of_int
             (Array.length
                (Netlist.Netview.active_nets (Netlist.Netview.of_circuit p.job.circuit))))
  in
  let windows = cnt mh "mh.windows" in
  let gc f = total (fun r -> f r.p.gc) traced in
  [ metric "methods.of_spec_s" "s" of_spec_s;
    metric "global_place.s" "s" gp_s;
    metric "global_place.share" "ratio" (ratio gp_s wall);
    metric "global_place.iterations" "count" (cnt ep "gp.iterations");
    metric "global_place.f_evals" "count" gp_fe;
    metric "global_place.ms_per_f_eval" "ms" (1e3 *. ratio gp_s gp_fe);
    metric "ntu_gp.s" "s" (spn pv "gp");
    metric "ntu_gp.share" "ratio" (ratio (spn pv "gp") wall);
    metric "ntu_gp.f_evals" "count" (cnt pv "gp.f_evals");
    metric "lp_stages.area_stage_s" "s" (spn pv "dp.area_stage");
    metric "lp_stages.wl_stage_s" "s" (spn pv "dp.wl_stage");
    metric "dp_ilp.s" "s" dp_s;
    metric "dp_ilp.share" "ratio" (ratio dp_s wall);
    metric "dp_ilp.axis_x_s" "s" (spn ep "dp.axis_x");
    metric "dp_ilp.axis_y_s" "s" (spn ep "dp.axis_y");
    metric "ilp.solves" "count" solves;
    metric "ilp.nodes" "count" nodes;
    metric "ilp.nodes_per_solve" "count" (ratio nodes solves);
    metric "ilp.ms_per_node" "ms" (1e3 *. ratio ilp_s nodes);
    metric "sa_placer.s" "s" sa_s;
    metric "sa_placer.moves" "count" moves;
    metric "sa_placer.moves_per_s" "1/s" (ratio moves sa_s);
    metric "sa_placer.accept_ratio" "ratio" (ratio accepted (accepted +. rejected));
    metric "eval.cache_hit_ratio" "ratio" (ratio (cnt sa "sa.cache_hits") lookups);
    metric "eval.full_repacks" "count" (cnt sa "sa.full_repacks");
    metric "mh_placer.sa_s" "s" (spn mh "gp");
    metric "mh_placer.window_s" "s" (spn mh "dp");
    metric "mh_placer.windows" "count" windows;
    metric "mh_placer.window_accept_ratio" "ratio"
      (ratio (cnt mh "mh.window_accepts") windows);
    metric "window_ilp.s" "s" (spn mh "ilp");
    metric "window_ilp.share" "ratio" (ratio (spn mh "ilp") wall);
    metric "window_ilp.nodes_per_window" "count" (ratio (cnt mh "ilp.nodes") windows);
    metric "wa.us_per_call" "us" probe.(0);
    metric "electrostatic.us_per_call" "us" probe.(1);
    metric "area_term.us_per_call" "us" probe.(2);
    metric "constraint_penalty.us_per_call" "us" probe.(3);
    metric "checks.s" "s" (total (fun r -> r.checks_s) traced);
    metric "checks.violations" "count"
      (total (fun r -> float_of_int r.violations) traced);
    metric "fom.s" "s" (total (fun r -> r.fom_s) traced);
    metric "gc.minor_words" "words" (gc (fun (m, _, _) -> m));
    metric "gc.major_words" "words" (gc (fun (_, m, _) -> m));
    metric "gc.major_collections" "count" (gc (fun (_, _, c) -> c));
    metric "trace.overhead_s" "s"
      (total (fun r -> r.ref_dt) traced -. total (fun r -> r.ref_dt) untraced);
    metric "host.calib_ms" "ms" (1e3 *. calib_s);
    metric "host.raw_wall_s" "s" (total (fun r -> r.p.dt) untraced) ]

(* ---------- one run ---------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let run ?(record = true) w ~seed ~seconds ~trace =
  let setups =
    List.init setup_reps (fun _ ->
        let c0 = calibrate () in
        let jobs, dt = setup w ~seed in
        (jobs, to_ref dt ~c0 ~c1:(calibrate ())))
  in
  let jobs = fst (List.nth setups (setup_reps - 1)) in
  let setup_s = median (List.map snd setups) in
  let samples, metrics =
    if trace then begin
      let untraced, traced, cs = paired jobs in
      let circuits =
        List.filter_map
          (fun name -> List.find_opt (fun j -> String.equal j.cname name) jobs)
          w.circuits
        |> List.map (fun j -> j.circuit)
      in
      let probes = List.map (probe_terms ~seed) circuits in
      (* [of_spec] for every job takes microseconds, below the clock's
         resolution, so it is timed like the GP terms *)
      let of_spec_s =
        1e-6 *. us_per_call (fun () ->
            List.iter (fun j -> ignore (M.of_spec j.spec)) jobs)
      in
      let probe =
        Array.init 4 (fun k -> mean (List.map (fun a -> a.(k)) probes))
      in
      if record then write_trace ~workload:w.name ~seed traced;
      ( List.map2 (fun u t -> [ u; t ]) untraced traced,
        per_layer ~of_spec_s ~untraced ~traced ~probe ~calib_s:(median cs) )
    end
    else
      let samples, peak = round_robin jobs ~seconds in
      (samples, end_to_end ~setup_s ~peak samples)
  in
  let firsts = List.map List.hd samples in
  List.iter
    (fun r ->
      match r.p.layout with
      | Ok _ ->
          Printf.printf "job %-20s spec=%s area=%.3f um2 hpwl=%.3f um fom=%.4f \
                         violations=%d time=%.3f s\n"
            r.p.job.label (M.spec_hash r.p.job.spec) r.area r.hpwl r.fom
            r.violations r.p.dt
      | Error e ->
          Printf.printf "job %-20s spec=%s FAILED: %s\n" r.p.job.label
            (M.spec_hash r.p.job.spec) e)
    firsts;
  let same_in_run =
    List.for_all
      (fun rs ->
        let f = fingerprint (List.hd rs) in
        List.for_all (fun r -> String.equal (fingerprint r) f) rs)
      samples
  in
  let same_across_runs =
    (not record)
    || check_across_runs ~workload:w.name ~seed (fingerprints firsts)
  in
  if not same_in_run then
    prerr_endline "perfbench: results or work counts differ between samples";
  if not same_across_runs then
    prerr_endline
      "perfbench: results or work counts differ from an earlier run with \
       this seed";
  let all = List.concat samples in
  let failed =
    List.length (List.filter (fun r -> Result.is_error r.p.layout) all)
  in
  let violations = List.fold_left (fun a r -> a + r.violations) 0 all in
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if violations > 0 then
    Printf.eprintf "perfbench: %d constraint violations\n" violations;
  if not finite then prerr_endline "perfbench: a metric is not finite";
  { correct = same_in_run && same_across_runs && violations = 0 && finite;
    attempted = List.length all; failed; metrics }

let to_json o =
  Jsonio.to_string
    (Jsonio.Obj
       [ ("correct", Jsonio.Bool o.correct);
         ("attempted", Jsonio.Num (float_of_int o.attempted));
         ("failed", Jsonio.Num (float_of_int o.failed));
         ( "metrics",
           Jsonio.Obj
             (List.map
                (fun m ->
                  ( m.m_name,
                    Jsonio.Obj
                      [ ("value", Jsonio.Num m.value);
                        ("unit", Jsonio.Str m.unit_) ] ))
                o.metrics) ) ])

(* ---------- self-test ---------- *)

(* The metric names and units BENCHMARK.json declares, per section. *)
let declared section =
  let json =
    match Jsonio.parse (read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Jsonio.member section json with
  | Some (Jsonio.Arr xs) ->
      List.filter_map
        (fun x ->
          match
            ( Option.bind (Jsonio.member "name" x) Jsonio.to_str,
              Option.bind (Jsonio.member "unit" x) Jsonio.to_str )
          with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        xs
  | _ -> failwith ("BENCHMARK.json: no " ^ section)

(* One tiny job per workload, untraced and traced: every declared metric
   must come out, with its declared unit and a finite value, and every
   job must pass the output gate. *)
let self_test () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, section) ->
          let o = run ~record:false (tiny w) ~seed:1 ~seconds:0.0 ~trace in
          if not o.correct then problem "%s: output gate failed" w.name;
          if o.failed > 0 then problem "%s: %d jobs failed" w.name o.failed;
          List.iter
            (fun (n, u) ->
              match List.find_opt (fun m -> String.equal m.m_name n) o.metrics with
              | None -> problem "%s: %s missing" w.name n
              | Some m ->
                  if String.equal m.unit_ "" || not (String.equal m.unit_ u) then
                    problem "%s: %s has unit %S, declared %S" w.name n m.unit_ u;
                  if not (Float.is_finite m.value) then
                    problem "%s: %s is not finite" w.name n)
            (declared section))
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  match List.rev !problems with
  | [] -> print_endline "self-test: ok"
  | ps ->
      List.iter (fun s -> prerr_endline ("self-test: " ^ s)) ps;
      exit 1

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the job specs");
      ("--seconds", Arg.Set_float seconds, "S minimum measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
      ("--self-test", Arg.Set self, " tiny run of every workload") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Pool.set_default_jobs 1;
  if !self then self_test ()
  else
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | None ->
        Printf.eprintf "unknown workload %S; one of: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
    | Some w ->
        let o = run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
        print_endline (to_json o)
