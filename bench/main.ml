(* The engine benchmark harness. The paper's tables and figures are
   regenerated by [sbgp_sim exp]; this executable measures the engine.

   --json PATH: a machine-readable engine-kernel suite written as
   BENCH_engine.json (schema "sbgp-bench-v1"): the per-round kernels
   the engine's wall clock is made of (statics build, fused forest
   sweep, flip probe) at workers 1 and the configured count, one full
   engine run (rounds/s), a statics-budget differential (bounded store
   must match the unbounded run), and peak RSS. --smoke shrinks the
   graph and time quotas to seconds-scale so the suite can gate
   [dune runtest] via the [bench-smoke] alias; --scale appends the
   N-scaling series; --compare PATH diffs against a committed file.

   --json PATH --scale-smoke: the runtest-sized N-scaling contract
   instead (see [run_scale_smoke]).

   --workers N pins the worker-domain count (default:
   Parallel.Pool.default_workers, i.e. SBGP_WORKERS or one per spare
   core). The engine kernels additionally time a fixed workers=1 run
   so the parallel overhead/speedup at the chosen count is visible. *)

let flag name = Array.exists (String.equal name) Sys.argv

let int_flag name default =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then
      Option.value ~default (int_of_string_opt Sys.argv.(i + 1))
    else scan (i + 1)
  in
  scan 1

let str_flag name =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let workers = max 1 (int_flag "--workers" (Parallel.Pool.default_workers ()))

(* ------------------------------------------------------------------ *)
(* Machine-readable engine-kernel suite (--json PATH). *)

let smoke = flag "--smoke"

(* Warm up once, then repeat until both floors are met; returns
   (total seconds, repetitions). Each repetition is a full
   sweep-scale kernel. *)
let time_kernel ~min_time ~min_reps f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  while !reps < min_reps || Unix.gettimeofday () -. t0 < min_time do
    ignore (Sys.opaque_identity (f ()));
    incr reps
  done;
  (Unix.gettimeofday () -. t0, !reps)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = (i + nn <= nh) && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench: " ^ m);
      exit 1)
    fmt

(* Telemetry self-checks, gating [bench-smoke]: when --trace /
   --metrics are active, the artifacts this very process emits must
   hold up — parseable JSON, the engine's span names all present, the
   traced engine runs decomposing into their phase spans, and registry
   counters that only ever moved up. *)
let validate_trace path =
  let content = In_channel.with_open_text path In_channel.input_all in
  let json =
    match Nsobs.Jsonv.parse content with
    | Ok j -> j
    | Error e -> die "trace %s is not valid JSON (%s)" path e
  in
  let events =
    match Option.bind (Nsobs.Jsonv.member "traceEvents" json) Nsobs.Jsonv.to_list with
    | Some evs -> evs
    | None -> die "trace %s has no traceEvents array" path
  in
  let name_of ev = Option.bind (Nsobs.Jsonv.member "name" ev) Nsobs.Jsonv.to_string in
  let dur_of ev =
    Option.value ~default:0.0
      (Option.bind (Nsobs.Jsonv.member "dur" ev) Nsobs.Jsonv.to_float)
  in
  let total name =
    List.fold_left
      (fun acc ev -> if name_of ev = Some name then acc +. dur_of ev else acc)
      0.0 events
  in
  List.iter
    (fun required ->
      if not (List.exists (fun ev -> name_of ev = Some required) events) then
        die "trace %s is missing span %S" path required)
    (List.map
       (fun (p : Nsobs.Phase.t) -> p.span)
       Nsobs.Phase.
         [
           engine_run; engine_round; begin_round; probe; sweep; reduce; decide;
           statics_prefill;
         ]);
  (* The pool and statics kernels trace outside any engine.run; within
     the engine runs, the phase spans must account for (almost) all of
     the wall clock — untraced gaps mean a hot section lost its span. *)
  let total (p : Nsobs.Phase.t) = total p.span in
  let run_us = total Nsobs.Phase.engine_run in
  let phases_us =
    Nsobs.Phase.(total engine_round +. total statics_prefill +. total baseline)
  in
  let coverage = if run_us > 0.0 then phases_us /. run_us else 0.0 in
  if run_us > 0.0 && coverage < 0.90 then
    die "trace %s: phase spans cover %.1f%% of engine.run (< 90%%)" path
      (100.0 *. coverage);
  Printf.printf "trace self-check: %d events, phase coverage %.1f%% of engine.run\n%!"
    (List.length events) (100.0 *. coverage)

let validate_metrics path ~mid =
  let after = Nsobs.Metrics.counters () in
  List.iter
    (fun (name, v0) ->
      match List.assoc_opt name after with
      | Some v1 when v1 >= v0 -> ()
      | Some v1 -> die "metrics: counter %s went backwards (%d then %d)" name v0 v1
      | None -> die "metrics: counter %s disappeared from the registry" name)
    mid;
  let content = In_channel.with_open_text path In_channel.input_all in
  List.iter
    (fun key ->
      if not (contains content key) then die "metrics %s is missing %s" path key)
    ([
       "engine_rounds_total"; "engine_flips_per_round_bucket"; "engine_dirty_set_size";
       "statics_hit_total"; "statics_miss_total"; "statics_eviction_total";
       "process_peak_rss_kb";
     ]
    @ if workers > 1 then [ "pool_domain_spawn_total" ] else []);
  Printf.printf "metrics self-check: %d counters, all monotone\n%!" (List.length after)

(* --compare PATH: regression gate against a committed
   BENCH_engine.json. ns_per_op is scale-normalized, so a seconds-scale
   smoke run can be diffed against the committed full-scale numbers;
   kernels present in only one file (the w4 rows when the smoke run
   uses fewer workers, say) are skipped. A fresh kernel slower than
   tolerance x committed fails the run; SBGP_BENCH_TOLERANCE overrides
   the default 2.0. *)
let kernel_ns ~path json =
  match Option.bind (Nsobs.Jsonv.member "kernels" json) Nsobs.Jsonv.to_list with
  | None -> die "%s has no kernels array" path
  | Some ks ->
      List.filter_map
        (fun k ->
          match
            ( Option.bind (Nsobs.Jsonv.member "name" k) Nsobs.Jsonv.to_string,
              Option.bind (Nsobs.Jsonv.member "ns_per_op" k) Nsobs.Jsonv.to_float )
          with
          | Some name, Some ns -> Some (name, ns)
          | _ -> None)
        ks

let compare_bench ~fresh_path ~committed_path =
  let tolerance =
    match Option.bind (Sys.getenv_opt "SBGP_BENCH_TOLERANCE") float_of_string_opt with
    | Some t when t > 0.0 -> t
    | _ -> 2.0
  in
  let parse path =
    let content = In_channel.with_open_text path In_channel.input_all in
    match Nsobs.Jsonv.parse content with
    | Ok j -> j
    | Error e -> die "cannot parse %s: %s" path e
  in
  let fresh_json = parse fresh_path and committed_json = parse committed_path in
  let fresh = kernel_ns ~path:fresh_path fresh_json in
  let committed = kernel_ns ~path:committed_path committed_json in
  let checked = ref 0 and failed = ref [] in
  List.iter
    (fun (name, ns) ->
      match List.assoc_opt name committed with
      | None -> ()
      | Some ns0 ->
          incr checked;
          let ratio = if ns0 > 0.0 then ns /. ns0 else 0.0 in
          Printf.printf "compare %-16s %12.1f vs committed %12.1f ns/op (%.2fx)\n%!" name
            ns ns0 ratio;
          if ratio > tolerance then failed := (name, ratio) :: !failed)
    fresh;
  if !checked = 0 then
    die "no kernels in common between %s and %s" fresh_path committed_path;
  (* Peak-RSS gate: memory regressions (a dense buffer sneaking back
     into the sweep, a store that stops evicting) do not show up in
     ns/op, so the high-water mark is gated like a kernel, under its
     own tolerance. Only meaningful when both runs are the same shape;
     a smoke run against a committed full-scale file sits far below
     1.0x and passes trivially. *)
  let rss_tolerance =
    match Option.bind (Sys.getenv_opt "SBGP_RSS_TOLERANCE") float_of_string_opt with
    | Some t when t > 0.0 -> t
    | _ -> 2.0
  in
  let rss_of json =
    Option.bind (Nsobs.Jsonv.member "peak_rss_kb" json) Nsobs.Jsonv.to_float
  in
  (match (rss_of fresh_json, rss_of committed_json) with
  | Some fresh_kb, Some committed_kb when fresh_kb > 0.0 && committed_kb > 0.0 ->
      let ratio = fresh_kb /. committed_kb in
      Printf.printf "compare %-16s %12.0f vs committed %12.0f kb (%.2fx)\n%!"
        "peak_rss" fresh_kb committed_kb ratio;
      if ratio > rss_tolerance then begin
        Printf.eprintf "bench: peak RSS regressed %.2fx (> %.1fx) vs %s\n" ratio
          rss_tolerance committed_path;
        exit 1
      end
  | _ -> ());
  match !failed with
  | [] ->
      Printf.printf "bench compare: %d kernels within %.1fx of %s\n%!" !checked tolerance
        committed_path
  | l ->
      List.iter
        (fun (name, r) ->
          Printf.eprintf "bench: %s regressed %.2fx (> %.1fx) vs %s\n" name r tolerance
            committed_path)
        l;
      exit 1

(* ------------------------------------------------------------------ *)
(* N-scaling series: paper-shape graphs (Params.with_n on the default
   Cyclops+IXP shape) at growing N, through the binary graph format
   and — at 36K — the streaming statics store, whose budget keeps the
   warm store a fraction of the ~23 KiB/destination all-cached
   footprint. --scale appends the series to the --json suite, so the
   committed BENCH_engine.json carries the datapoints and --compare
   gates them; --scale-smoke is the runtest-sized slice (N = 10K,
   bit-identity across workers and budgets, wall and RSS ceilings). *)

let scale_rounds =
  match Option.bind (Sys.getenv_opt "SBGP_SCALE_ROUNDS") int_of_string_opt with
  | Some r when r > 0 -> r
  | _ -> 2

let scale_seed = 5

let scale_gen n =
  Topology.Gen.generate
    { (Topology.Params.with_n Topology.Params.default n) with seed = scale_seed }

let scale_early (built : Topology.Gen.built) =
  built.cps @ Asgraph.Metrics.top_by_degree built.graph 5

(* One capped engine run at paper shape: [max_rounds = scale_rounds]
   keeps each datapoint to a fixed number of full sweeps, which is
   what the per-destination-round ns/op normalizes over. *)
let scale_engine ?budget_mb ~w g ~early =
  let cfg = { Core.Config.default with workers = w; max_rounds = scale_rounds } in
  let statics =
    match budget_mb with
    | Some mb ->
        Bgp.Route_static.create ~budget_bytes:(mb * 1024 * 1024) ~tiebreak:cfg.tiebreak g
    | None -> Bgp.Route_static.create ~tiebreak:cfg.tiebreak g
  in
  let weight = Traffic.Weights.assign g ~cp_fraction:cfg.cp_fraction in
  let state = Core.State.create g ~early in
  Core.Engine.run cfg statics ~weight ~state

let scale_identical (a : Core.Engine.result) (b : Core.Engine.result) =
  a.Core.Engine.rounds = b.Core.Engine.rounds
  && a.baseline = b.baseline
  && a.termination = b.termination

let run_scale_smoke ~path =
  let n = 10_000 in
  let w2 = max 2 workers in
  Printf.printf "=== Scale smoke (N = %d paper shape, %d rounds per run) ===\n\n%!" n
    scale_rounds;
  let t_all = Unix.gettimeofday () in
  let built = scale_gen n in
  let g = built.Topology.Gen.graph in
  let early = scale_early built in
  (* Two arms that must not differ in a single float: serial against a
     roomy budget, parallel against a tight one — one comparison
     covers both the worker-count and the budget axis of the
     bit-identity contract. *)
  let t0 = Unix.gettimeofday () in
  let a = scale_engine ~budget_mb:512 ~w:1 g ~early in
  let wall_a = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let b_res = scale_engine ~budget_mb:128 ~w:w2 g ~early in
  let wall_b = Unix.gettimeofday () -. t0 in
  let identical = scale_identical a b_res in
  let wall = Unix.gettimeofday () -. t_all in
  let rss_kb = Option.value ~default:0 (Nsobs.Rss.peak_kb ()) in
  let wall_budget =
    match Option.bind (Sys.getenv_opt "SBGP_SCALE_WALL_S") float_of_string_opt with
    | Some t when t > 0.0 -> t
    | _ -> 600.0
  in
  let rss_budget_mb =
    match Option.bind (Sys.getenv_opt "SBGP_SCALE_RSS_MB") int_of_string_opt with
    | Some m when m > 0 -> m
    | _ -> 4096
  in
  Printf.printf
    "w1/512MiB: %.1fs; w%d/128MiB: %.1fs; identical: %b; total %.1fs (budget %.0fs); \
     peak RSS %.1f MiB (ceiling %d MiB)\n%!"
    wall_a w2 wall_b identical wall wall_budget
    (float_of_int rss_kb /. 1024.0)
    rss_budget_mb;
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"schema\": \"sbgp-scale-smoke-v1\",\n  \"n\": %d,\n  \"rounds_cap\": %d,\n\
    \  \"arms\": [\n\
    \    {\"workers\": 1, \"statics_mb\": 512, \"wall_s\": %.3f},\n\
    \    {\"workers\": %d, \"statics_mb\": 128, \"wall_s\": %.3f}\n\
    \  ],\n\
    \  \"identical\": %b,\n  \"wall_s\": %.3f,\n  \"peak_rss_kb\": %d\n}\n"
    n scale_rounds wall_a w2 wall_b identical wall rss_kb;
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  if not identical then
    die "scale smoke: n=%d run diverged across workers 1/%d and budgets 512/128 MiB" n w2;
  if wall > wall_budget then
    die "scale smoke: %.1fs exceeds the %.0fs wall budget (SBGP_SCALE_WALL_S)" wall
      wall_budget;
  if rss_kb > rss_budget_mb * 1024 then
    die "scale smoke: peak RSS %.1f MiB exceeds the %d MiB ceiling (SBGP_SCALE_RSS_MB)"
      (float_of_int rss_kb /. 1024.0)
      rss_budget_mb

let run_json_bench ~path =
  let n = int_flag "--n" (if smoke then 120 else 1000) in
  let seed = 3 in
  let min_time = if smoke then 0.05 else 1.0 in
  let min_reps = 3 in
  let cfg =
    { Core.Config.default with workers; max_rounds = (if smoke then 4 else 100) }
  in
  let tiebreak = cfg.tiebreak in
  Printf.printf "=== Engine kernel suite (N = %d, seed = %d, workers = %d%s) ===\n\n%!" n
    seed workers
    (if smoke then ", smoke" else "");
  let scenario = Experiments.Scenario.create ~n ~seed () in
  let g = Experiments.Scenario.graph scenario in
  let statics = scenario.Experiments.Scenario.statics in
  (* Serial prefill: the statics_build kernel below must be measured
     in the single-domain regime a real run starts in (the worker bank
     only comes to life at the first parallel kernel). *)
  Bgp.Route_static.ensure_all statics;
  let early = Experiments.Scenario.case_study_adopters scenario in
  let weight = Experiments.Scenario.weights scenario cfg in
  let probe_state = Core.State.create g ~early in
  let secure = Core.State.secure_bytes probe_state in
  let use_secp = Core.State.use_secp_bytes probe_state ~stub_tiebreak:cfg.stub_tiebreak in
  let kernels = ref [] in
  let record name ~ops f =
    let total, reps = time_kernel ~min_time ~min_reps f in
    let per_rep = total /. float_of_int reps in
    let ns = per_rep *. 1e9 /. float_of_int (max 1 ops) in
    Printf.printf "%-20s %10.3f ms/rep %12.1f ns/op  (%d reps)\n%!" name
      (per_rep *. 1e3) ns reps;
    kernels := (name, ops, reps, per_rep, ns) :: !kernels
  in
  (* Statics build: the full three-stage static-route construction for
     every destination, fresh store each repetition. *)
  record "statics_build" ~ops:n (fun () ->
      let s = Bgp.Route_static.create ~tiebreak g in
      Bgp.Route_static.ensure_all s;
      s);
  (* Statics repair: migrate the warm store across a growth delta and
     undo, so every repetition sees the same warm pre-churn store.
     ns/op is per churned edge; against statics_build's
     per-destination cost this is the full-rebuild-vs-repair gap per
     unit of churn. The batch is deliberately large (2n fresh
     stubs): every patched entry pays an O(n) fixed rewrite of its
     offset arrays no matter how small the delta, so per-edge cost
     only reflects the repair kernel once the stub-linear work
     dominates that floor. Small-batch behaviour (the ~15% Section 8.4
     epoch shape) is covered by the churn differential suite and the
     evolution experiment's epoch timings, where one repair still
     replaces a full per-epoch rebuild. *)
  let grown, delta =
    Topology.Evolve.grow_delta g
      ~new_stubs:(max 1 (2 * n))
      ~secure_bias:2.0
      ~is_secure:(fun i -> i mod 2 = 0)
      ~seed:7
  in
  record "statics_repair" ~ops:(Asgraph.Graph.delta_edge_count delta) (fun () ->
      let j = Bgp.Route_static.rebase ~kernel:Bgp.Route_static.Delta ~workers statics ~delta grown in
      Bgp.Route_static.undo_rebase statics j;
      j);
  (* Bitwise cross-check, one kept rebase: every destination of the
     churned graph must serve a record info_equal to a fresh compute,
     then the undo hands the sections below their warm pre-churn
     store back. *)
  let crosscheck = Bgp.Route_static.rebase ~kernel:Bgp.Route_static.Delta ~workers statics ~delta grown in
  for d = 0 to Asgraph.Graph.n grown - 1 do
    if
      not
        (Bgp.Route_static.info_equal
           (Bgp.Route_static.get statics d)
           (Bgp.Route_static.compute ~tiebreak grown d))
    then die "statics_repair diverges from compute at destination %d" d
  done;
  Bgp.Route_static.undo_rebase statics crosscheck;
  Printf.printf "statics repair differential: %d destinations bit-identical\n%!"
    (Asgraph.Graph.n grown);
  (* Checkpoint churn: what one epoch boundary pays for durability —
     snapshot the warm store's image, frame and write it as a churn
     record through the checksummed checkpoint protocol, then load it
     back and restore a store from it (the resume half, which
     recomputes every resident record, so this row tracks
     statics_build). ns/op is per snapshotted destination. *)
  let ckpt_path = Filename.temp_file "sbgp_bench_ckpt" ".snap" in
  let ckpt_digest = Scrypto.Sha256.digest_string "bench-churn-checkpoint" in
  record "checkpoint_churn" ~ops:n (fun () ->
      Core.Checkpoint.write ~kind:Core.Checkpoint.Churn ~path:ckpt_path
        ~digest:ckpt_digest ~round:1
        (Bgp.Route_static.snapshot statics);
      let frame = Core.Checkpoint.load_exn ~path:ckpt_path ~digest:ckpt_digest in
      Bgp.Route_static.of_snapshot g frame.Core.Checkpoint.payload);
  Sys.remove ckpt_path;
  (* Forest sweep: one full per-round sweep (all destinations) through
     the fused kernel, per-worker scratch — the shape of the engine's
     inner loop. Each destination publishes its own subtree weight and
     the sum is taken serially afterwards. [on_task] runs after each
     destination. *)
  let sweep ?(on_task = ignore) w () =
    let sub = Array.make n 0.0 in
    Parallel.Pool.parallel_for Parallel.Pool.no_supervision ~workers:w ~tasks:n ~grain:8
      ~scratch:(fun () -> Bgp.Forest.make_scratch n)
      (fun scratch d ->
        let info = Bgp.Route_static.get statics d in
        Bgp.Forest.compute info ~tiebreak ~secure ~use_secp ~weight scratch;
        sub.(d) <- scratch.Bgp.Forest.sub.(d);
        on_task d);
    Array.fold_left ( +. ) 0.0 sub
  in
  record "forest_sweep_w1" ~ops:n (sweep 1);
  if workers > 1 then
    record (Printf.sprintf "forest_sweep_w%d" workers) ~ops:n (sweep workers);
  (* Fan-out proof: the multi-worker rows above are only honest if
     distinct domains actually run chunks (on a single-core host the
     timings are near-identical either way, which is expected hardware
     behavior, not a scheduling bug). Every task CAS-pushes its
     domain id; claiming workers > 1 with every chunk on one domain is
     turned into a hard failure. Destination 0 holds its worker until a
     second domain has run a task (at most 5 s), so at smoke scale a
     helper that wakes after the caller could finish the whole sweep
     alone still gets chunks to run. *)
  let fanout_domains =
    let ids = Atomic.make [] in
    let note () =
      let id = (Domain.self () :> int) in
      let rec push () =
        let cur = Atomic.get ids in
        if (not (List.mem id cur)) && not (Atomic.compare_and_set ids cur (id :: cur))
        then push ()
      in
      push ()
    in
    let deadline = Unix.gettimeofday () +. 5.0 in
    let on_task d =
      note ();
      if d = 0 && workers > 1 then
        while List.length (Atomic.get ids) < 2 && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done
    in
    ignore (sweep ~on_task workers ());
    List.length (Atomic.get ids)
  in
  Printf.printf "sweep fan-out: %d workers -> %d distinct domains\n%!" workers
    fanout_domains;
  if workers > 1 && fanout_domains < 2 then
    die "sweep claims %d workers but only %d domain participated" workers fanout_domains;
  (* Flip probe: for every destination, would any of <= 64 candidate
     ISPs' flips change the routing — a scan of the candidate's tie
     row for a secure member, as in the engine's incremental
     invalidation. *)
  let candidates =
    let acc = ref [] and c = ref 0 in
    for i = 0 to n - 1 do
      if !c < 64 && Asgraph.Graph.is_isp g i then begin
        incr c;
        acc := i :: !acc
      end
    done;
    Array.of_list (List.rev !acc)
  in
  let ncand = Array.length candidates in
  (* Written as allocation-free loops: a per-candidate closure would
     drag stop-the-world minor GCs into the measurement. *)
  let probe_dest d =
    let hits = ref 0 in
    let info = Bgp.Route_static.get statics d in
    let tie_off = info.Bgp.Route_static.tie_off in
    let tie = info.Bgp.Route_static.tie in
    let j = ref 0 and found = ref false in
    for k = 0 to ncand - 1 do
      let nc = Array.unsafe_get candidates k in
      if Bgp.Route_static.reachable info nc then begin
        let hi = Nsutil.I32.unsafe_get tie_off (nc + 1) in
        j := Nsutil.I32.unsafe_get tie_off nc;
        found := false;
        while (not !found) && !j < hi do
          if Bytes.unsafe_get secure (Nsutil.I32.unsafe_get tie !j) = '\001' then
            found := true
          else incr j
        done;
        if !found then incr hits
      end
    done;
    !hits
  in
  let flip w () =
    let hits = Array.make n 0 in
    Parallel.Pool.parallel_for Parallel.Pool.no_supervision ~workers:w ~tasks:n ~grain:8
      ~scratch:ignore
      (fun () d -> hits.(d) <- probe_dest d);
    Array.fold_left ( + ) 0 hits
  in
  let pairs = n * ncand in
  record "flip_probe_w1" ~ops:pairs (flip 1);
  if workers > 1 then record (Printf.sprintf "flip_probe_w%d" workers) ~ops:pairs (flip workers);
  (* Flip kernels: the engine's per-candidate probe, both ways. Up to
     32 insecure ISP candidates; each probe flips the candidate's
     secure/use_secp bytes, evaluates its utility contribution under
     the flipped forest, and reverts. [flip_full] recomputes the
     forest from scratch per probe (the engine's Flip_full fallback);
     [flip_repair] computes one base forest per destination and
     repairs/undoes it per probe (Flip_delta). Destinations are
     strided so the full-recompute arm stays seconds-scale; both arms
     walk the identical (destination, candidate) set, so the ratio is
     honest, and their contributions must agree bit for bit. *)
  let flip_cands =
    let acc = ref [] and c = ref 0 in
    for i = 0 to n - 1 do
      if !c < 32 && Asgraph.Graph.is_isp g i && Bytes.get secure i = '\000' then begin
        incr c;
        acc := i :: !acc
      end
    done;
    Array.of_list (List.rev !acc)
  in
  let nfc = Array.length flip_cands in
  let stride = max 1 (n / 125) in
  let flip_dests =
    Array.of_list (List.filter (fun d -> d mod stride = 0) (List.init n (fun d -> d)))
  in
  let nfd = Array.length flip_dests in
  let fsec = Bytes.copy secure and fsecp = Bytes.copy use_secp in
  let toggle nc =
    Bytes.set fsec nc (if Bytes.get fsec nc = '\000' then '\001' else '\000');
    Bytes.set fsecp nc (if Bytes.get fsecp nc = '\000' then '\001' else '\000')
  in
  let base = Bgp.Forest.make_scratch n in
  let probe_scratch = Bgp.Forest.make_scratch n in
  let rep = Bgp.Forest.make_repairer n in
  let seeds = Array.make 1 0 in
  let model = cfg.Core.Config.model in
  let flip_full out () =
    for di = 0 to nfd - 1 do
      let d = flip_dests.(di) in
      let info = Bgp.Route_static.get statics d in
      for k = 0 to nfc - 1 do
        let nc = flip_cands.(k) in
        toggle nc;
        Bgp.Forest.compute info ~tiebreak ~secure:fsec ~use_secp:fsecp ~weight
          probe_scratch;
        out.((di * nfc) + k) <-
          Core.Utility.contribution model g info probe_scratch ~weight nc;
        toggle nc
      done
    done
  in
  let flip_repair out () =
    for di = 0 to nfd - 1 do
      let d = flip_dests.(di) in
      let info = Bgp.Route_static.get statics d in
      Bgp.Forest.compute info ~tiebreak ~secure:fsec ~use_secp:fsecp ~weight base;
      for k = 0 to nfc - 1 do
        let nc = flip_cands.(k) in
        toggle nc;
        seeds.(0) <- nc;
        Bgp.Forest.repair info ~tiebreak ~secure:fsec ~use_secp:fsecp ~weight ~seeds base
          rep;
        out.((di * nfc) + k) <- Core.Utility.contribution model g info base ~weight nc;
        Bgp.Forest.undo base rep;
        toggle nc
      done
    done
  in
  let probes = nfd * nfc in
  let out_full = Array.make (max 1 probes) 0.0 in
  let out_repair = Array.make (max 1 probes) 0.0 in
  record "flip_full_w1" ~ops:probes (fun () -> flip_full out_full ());
  record "flip_repair_w1" ~ops:probes (fun () -> flip_repair out_repair ());
  for p = 0 to probes - 1 do
    if Int64.bits_of_float out_full.(p) <> Int64.bits_of_float out_repair.(p) then
      die "flip kernels diverge at probe %d: full=%.17g repair=%.17g" p out_full.(p)
        out_repair.(p)
  done;
  Printf.printf "flip differential: %d probes, full = repair bit-for-bit\n%!" probes;
  (* One full engine run at the configured worker count. *)
  let t0 = Unix.gettimeofday () in
  let result =
    let state = Core.State.create g ~early in
    Core.Engine.run cfg statics ~weight ~state
  in
  let engine_wall = Unix.gettimeofday () -. t0 in
  (* Counter snapshot between the two engine runs: the final snapshot
     taken by the self-check below must dominate it everywhere. *)
  let counters_mid = Nsobs.Metrics.counters () in
  let rounds = Core.Engine.rounds_run result in
  let rounds_per_s = float_of_int rounds /. engine_wall in
  Printf.printf "\nengine run: %.3f s, %d rounds (%.3f rounds/s)\n%!" engine_wall rounds
    rounds_per_s;
  (* Statics-budget differential: the same run against a bounded store
     must produce identical dynamics. *)
  let budget_bytes = if smoke then 65_536 else 4 * 1024 * 1024 in
  let bounded =
    let bstatics = Bgp.Route_static.create ~budget_bytes ~tiebreak g in
    let state = Core.State.create g ~early in
    Core.Engine.run cfg bstatics ~weight ~state
  in
  let identical =
    result.Core.Engine.rounds = bounded.Core.Engine.rounds
    && result.baseline = bounded.baseline
    && result.termination = bounded.termination
  in
  Printf.printf
    "budget differential: %d-byte store, %d evictions, identical dynamics: %b\n%!"
    budget_bytes bounded.statics_evictions identical;
  (* Telemetry overhead: the identical engine scenario with the full
     observability pipeline live — metrics registry, phase histograms,
     journal to a scratch file, loopback scrape endpoint — against
     everything off. The instrumented run's per-round ns lands in the
     kernels array, so --compare tracks it like any other kernel; the
     on-vs-off ratio is additionally hard-gated at full scale (< 3%,
     SBGP_OBS_TOLERANCE overrides). Best-of-k walls on both arms keep
     scheduler noise out of a percent-level comparison, and the two
     arms must agree on rounds, baseline and termination: telemetry
     is observational or it is a bug. *)
  let obs_engine () =
    let state = Core.State.create g ~early in
    Core.Engine.run cfg statics ~weight ~state
  in
  let best_of k f =
    ignore (Sys.opaque_identity (f ()));
    let best = ref infinity in
    for _ = 1 to k do
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (f ()));
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let obs_reps = 3 in
  let metrics_were = Nsobs.Metrics.enabled () in
  Nsobs.Metrics.set_enabled false;
  let result_off = obs_engine () in
  let wall_off = best_of obs_reps obs_engine in
  let journal_tmp, journal_opened =
    if Nsobs.Journal.enabled () then ("", false)
    else begin
      let p = Filename.temp_file "sbgp_bench_journal" ".jsonl" in
      (match Nsobs.Journal.open_path p with
      | Ok () -> ()
      | Error e -> die "obs_overhead: cannot open journal %s: %s" p e);
      (p, true)
    end
  in
  Nsobs.Metrics.set_enabled true;
  let server =
    match Nsobs.Serve.start ~port:0 () with
    | Ok s -> Some s
    | Error e ->
        Printf.eprintf "bench: obs_overhead runs without a scrape endpoint (%s)\n%!" e;
        None
  in
  let result_on = obs_engine () in
  let wall_on = best_of obs_reps obs_engine in
  Option.iter Nsobs.Serve.stop server;
  if journal_opened then begin
    Nsobs.Journal.close ();
    Sys.remove journal_tmp
  end;
  Nsobs.Metrics.set_enabled metrics_were;
  if
    not
      (result_off.Core.Engine.rounds = result_on.Core.Engine.rounds
      && result_off.baseline = result_on.baseline
      && result_off.termination = result_on.termination)
  then die "obs_overhead: telemetry-on engine run diverged from telemetry-off";
  let obs_rounds = max 1 (Core.Engine.rounds_run result_on) in
  let ns_on = wall_on *. 1e9 /. float_of_int obs_rounds in
  Printf.printf "%-20s %10.3f ms/rep %12.1f ns/op  (%d reps)\n%!" "obs_overhead"
    (wall_on *. 1e3) ns_on obs_reps;
  kernels := ("obs_overhead", obs_rounds, obs_reps, wall_on, ns_on) :: !kernels;
  let overhead = (wall_on -. wall_off) /. wall_off in
  let obs_tolerance =
    match Option.bind (Sys.getenv_opt "SBGP_OBS_TOLERANCE") float_of_string_opt with
    | Some t when t > 0.0 -> t
    | _ -> 0.03
  in
  Printf.printf
    "telemetry overhead: %.3f s off vs %.3f s on (%+.2f%%), identical dynamics\n%!"
    wall_off wall_on (100.0 *. overhead);
  if (not smoke) && overhead > obs_tolerance then
    die "telemetry overhead %.2f%% exceeds %.1f%% budget" (100.0 *. overhead)
      (100.0 *. obs_tolerance);
  (* --scale: the N-scaling series. Every datapoint lands in the
     kernels array under a scale_* name (single repetition — these are
     minutes-scale kernels), so --compare gates them exactly like the
     fixed-scale rows; the scale section below adds the per-N context
     (rounds, wall, RSS high-water mark after the run). *)
  let scale_rows = ref [] in
  if flag "--scale" then begin
    Printf.printf "\n=== N-scaling series (paper shape, %d rounds per engine run) ===\n\n%!"
      scale_rounds;
    let record_once name ~ops f =
      let t0 = Unix.gettimeofday () in
      let v = f () in
      let dt = Unix.gettimeofday () -. t0 in
      let ns = dt *. 1e9 /. float_of_int (max 1 ops) in
      Printf.printf "%-24s %10.3f ms/rep %12.1f ns/op  (1 rep)\n%!" name (dt *. 1e3) ns;
      kernels := (name, ops, 1, dt, ns) :: !kernels;
      v
    in
    let roundtrip sn sg =
      let tmp = Filename.temp_file "sbgp_scale" ".sbg" in
      ignore
        (record_once (Printf.sprintf "scale_save_bin_n%d" sn) ~ops:sn (fun () ->
             Asgraph.Graph_io.save_bin sg tmp));
      let loaded =
        record_once (Printf.sprintf "scale_load_bin_n%d" sn) ~ops:sn (fun () ->
            Asgraph.Graph_io.load_bin tmp)
      in
      Sys.remove tmp;
      if Asgraph.Graph.n loaded <> sn then
        die "scale: binary round-trip lost nodes at n=%d" sn
    in
    List.iter
      (fun (sn, budget_mb) ->
        let built =
          record_once (Printf.sprintf "scale_gen_n%d" sn) ~ops:sn (fun () -> scale_gen sn)
        in
        let sg = built.Topology.Gen.graph in
        roundtrip sn sg;
        let early = scale_early built in
        let t0 = Unix.gettimeofday () in
        let r = scale_engine ?budget_mb ~w:workers sg ~early in
        let wall = Unix.gettimeofday () -. t0 in
        let rr = max 1 (Core.Engine.rounds_run r) in
        let name = Printf.sprintf "scale_engine_n%d" sn in
        let ns = wall *. 1e9 /. float_of_int (sn * rr) in
        Printf.printf "%-24s %10.3f ms/rep %12.1f ns/op  (1 rep)\n%!" name (wall *. 1e3)
          ns;
        kernels := (name, sn * rr, 1, wall, ns) :: !kernels;
        (* Identity slice at the cheapest size: the same destinations
           under workers 1 and under workers 4 + a budget tight enough
           to stream must not move a float. The 36K identity run is
           sbgp_sim's acceptance pass, not repeated here — it would
           triple the series' dominant datapoint. *)
        let ident =
          if sn > 1_000 then None
          else begin
            let r1 = scale_engine ~w:1 sg ~early in
            let r4b = scale_engine ~budget_mb:8 ~w:4 sg ~early in
            Some (scale_identical r r1 && scale_identical r r4b)
          end
        in
        (match ident with
        | Some false ->
            die "scale: n=%d engine run not bit-identical across workers/budgets" sn
        | _ -> ());
        scale_rows :=
          (sn, rr, wall, Option.value ~default:0 (Nsobs.Rss.peak_kb ()), ident)
          :: !scale_rows)
      [ (1_000, None); (10_000, None); (36_000, Some 2048) ];
    (* 100K: the survive-scale datapoint — generate, stream through
       the binary format, and compute a statics sample (per-destination
       build cost); a full engine run at 100K is out of a bench's
       budget. *)
    let n100 = 100_000 in
    let built =
      record_once (Printf.sprintf "scale_gen_n%d" n100) ~ops:n100 (fun () ->
          scale_gen n100)
    in
    let sg = built.Topology.Gen.graph in
    roundtrip n100 sg;
    ignore
      (record_once (Printf.sprintf "scale_statics_n%d" n100) ~ops:8 (fun () ->
           let sample = ref 0.0 in
           for d = 0 to 7 do
             let info = Bgp.Route_static.compute ~tiebreak sg d in
             sample :=
               !sample +. float_of_int (Nsutil.I32.get info.Bgp.Route_static.tie_off n100)
           done;
           !sample));
    scale_rows :=
      (n100, 0, 0.0, Option.value ~default:0 (Nsobs.Rss.peak_kb ()), None) :: !scale_rows
  end;
  let buf = Buffer.create 2048 in
  let b fmt = Printf.bprintf buf fmt in
  b "{\n";
  b "  \"schema\": \"sbgp-bench-v1\",\n";
  b "  \"n\": %d,\n" n;
  b "  \"seed\": %d,\n" seed;
  b "  \"workers\": %d,\n" workers;
  b "  \"smoke\": %b,\n" smoke;
  b "  \"kernels\": [\n";
  let ordered = List.rev !kernels in
  let nk = List.length ordered in
  List.iteri
    (fun i (name, ops, reps, per_rep, ns) ->
      b
        "    {\"name\": \"%s\", \"ops_per_rep\": %d, \"reps\": %d, \"s_per_rep\": \
         %.6f, \"ns_per_op\": %.1f}%s\n"
        name ops reps per_rep ns
        (if i = nk - 1 then "" else ","))
    ordered;
  b "  ],\n";
  b "  \"sweep_fanout\": {\"workers\": %d, \"domains\": %d},\n" workers fanout_domains;
  b
    "  \"engine\": {\"workers\": %d, \"rounds\": %d, \"wall_s\": %.3f, \
     \"rounds_per_s\": %.3f, \"statics_hits\": %d, \"statics_misses\": %d, \
     \"statics_evictions\": %d},\n"
    workers rounds engine_wall rounds_per_s result.statics_hits result.statics_misses
    result.statics_evictions;
  b
    "  \"budget_differential\": {\"budget_bytes\": %d, \"evictions\": %d, \
     \"identical\": %b},\n"
    budget_bytes bounded.statics_evictions identical;
  (match List.rev !scale_rows with
  | [] -> ()
  | rows ->
      b "  \"scale\": {\"rounds_cap\": %d, \"series\": [\n" scale_rounds;
      let nr = List.length rows in
      List.iteri
        (fun i (sn, rr, wall, rss_kb, ident) ->
          b
            "    {\"n\": %d, \"rounds\": %d, \"wall_s\": %.3f, \"peak_rss_kb_after\": \
             %d, \"identity_checked\": %s}%s\n"
            sn rr wall rss_kb
            (match ident with
            | None -> "null"
            | Some v -> string_of_bool v)
            (if i = nr - 1 then "" else ","))
        rows;
      b "  ]},\n");
  b "  \"peak_rss_kb\": %d\n" (Option.value ~default:0 (Nsobs.Rss.peak_kb ()));
  b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  (* Schema self-check: re-read the file and require every key a
     consumer depends on, so the JSON can't silently rot. *)
  let content = In_channel.with_open_text path In_channel.input_all in
  List.iter
    (fun key ->
      if not (contains content key) then begin
        Printf.eprintf "bench: %s is missing required key %s\n" path key;
        exit 1
      end)
    ([
      "\"schema\": \"sbgp-bench-v1\"";
      "\"statics_build\"";
      "\"statics_repair\"";
      "\"checkpoint_churn\"";
      "\"forest_sweep_w1\"";
      "\"flip_probe_w1\"";
      "\"flip_full_w1\"";
      "\"flip_repair_w1\"";
      "\"obs_overhead\"";
      "\"sweep_fanout\"";
      "\"ns_per_op\"";
      "\"rounds_per_s\"";
      "\"budget_differential\"";
      "\"peak_rss_kb\"";
    ]
    @
    if flag "--scale" then
      [
        "\"scale\"";
        "\"scale_gen_n36000\"";
        "\"scale_engine_n36000\"";
        "\"scale_load_bin_n100000\"";
        "\"scale_statics_n100000\"";
      ]
    else []);
  if not identical then begin
    prerr_endline "bench: bounded-statics run diverged from the unbounded run";
    exit 1
  end;
  (match (Nsobs.Control.trace_path (), Nsobs.Control.metrics_path ()) with
  | None, None -> ()
  | t, m ->
      Nsobs.Control.flush ();
      Option.iter validate_trace t;
      Option.iter (validate_metrics ~mid:counters_mid) m);
  Option.iter
    (fun committed -> compare_bench ~fresh_path:path ~committed_path:committed)
    (str_flag "--compare")

let () =
  Nsobs.Control.init ();
  Option.iter Nsobs.Control.set_trace (str_flag "--trace");
  Option.iter Nsobs.Control.set_metrics (str_flag "--metrics");
  let t0 = Unix.gettimeofday () in
  (match str_flag "--json" with
  | Some path -> if flag "--scale-smoke" then run_scale_smoke ~path else run_json_bench ~path
  | None ->
      prerr_endline
        "usage: main.exe --json PATH [--smoke] [--scale] [--scale-smoke] [--workers N] \
         [--compare PATH]\n\
         (the paper's tables and figures: sbgp_sim exp)";
      exit 2);
  Printf.printf "\ntotal wall clock: %.1fs\n" (Unix.gettimeofday () -. t0)
