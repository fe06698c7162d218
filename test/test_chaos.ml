(* The deterministic chaos matrix: every fault site the resilience
   layer handles, swept across worker counts and kernels, each cell
   asserting BIT-IDENTITY with its fault-free baseline.

   The contract under test is the one the whole codebase is built on:
   contained faults — worker exceptions, hung slices, failed
   checkpoint writes — change survival, never results. A failure past
   the retry budget is not contained: it escapes the run, degradation
   or not.

   Statics hit/miss/eviction counters are excluded from the
   comparisons where the recovery legitimately re-touches the store
   (retried slices recompute); they are documented diagnostics, not
   results. *)

module Engine = Core.Engine
module State = Core.State
module Config = Core.Config
module Checkpoint = Core.Checkpoint
module Evolution_run = Experiments.Evolution_run
module Pool = Parallel.Pool
module Faults = Nsutil.Faults

let check = Alcotest.check
let exact = Alcotest.float 0.0

(* ------------------------------------------------------------------ *)
(* Engine-result equality, bit for bit, minus the statics counters. *)

let check_round_equal i (a : Engine.round_record) (b : Engine.round_record) =
  let lbl f = Printf.sprintf "round %d %s" i f in
  check Alcotest.(array exact) (lbl "utilities") a.utilities b.utilities;
  check Alcotest.(array exact) (lbl "projected") a.projected b.projected;
  check Alcotest.(list int) (lbl "turned_on") a.turned_on b.turned_on;
  check Alcotest.(list int) (lbl "turned_off") a.turned_off b.turned_off;
  check Alcotest.int (lbl "secure_as") a.secure_as b.secure_as;
  check Alcotest.int (lbl "secure_isp") a.secure_isp b.secure_isp

let check_result_equal (a : Engine.result) (b : Engine.result) =
  check Alcotest.(array exact) "baseline" a.baseline b.baseline;
  check Alcotest.int "round count" (List.length a.rounds) (List.length b.rounds);
  List.iteri
    (fun i (ra, rb) -> check_round_equal i ra rb)
    (List.combine a.rounds b.rounds);
  check Alcotest.bool "termination" true (a.termination = b.termination);
  check Alcotest.bool "final state" true (State.equal_full a.final b.final)

(* ------------------------------------------------------------------ *)
(* Inputs: one small synthetic topology, fresh mutable state per run. *)

let n = 120

let built =
  lazy
    (Topology.Gen.generate
       { (Topology.Params.with_n Topology.Params.default n) with seed = 11 })

let early () =
  let b = Lazy.force built in
  b.cps @ Asgraph.Metrics.top_by_degree b.graph 5

let cfg ~workers ~kernel ?(retries = 2) ?(timeout_ms = 0) ?(degrade = false) () =
  {
    Config.default with
    workers;
    retries;
    theta = 0.05;
    theta_off = 0.05;
    flip_kernel = kernel;
    task_timeout_ms = timeout_ms;
    degrade;
  }

let run_engine ?checkpoint ?faults cfg =
  let b = Lazy.force built in
  let g = b.graph in
  let statics = Bgp.Route_static.create g in
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let state = State.create g ~early:(early ()) in
  Engine.run ?checkpoint ?faults cfg statics ~weight ~state

(* Fault-free baselines, one per (workers, kernel) cell. *)
let baseline_for = Hashtbl.create 4

let baseline ~workers ~kernel =
  match Hashtbl.find_opt baseline_for (workers, kernel) with
  | Some r -> r
  | None ->
      let r = run_engine (cfg ~workers ~kernel ()) in
      Hashtbl.add baseline_for (workers, kernel) r;
      r

let matrix = [ (1, Config.Flip_full); (1, Config.Flip_delta); (4, Config.Flip_full); (4, Config.Flip_delta) ]

(* ------------------------------------------------------------------ *)
(* Cell 1: worker faults within the retry budget. *)

let test_pool_task_within_budget () =
  List.iter
    (fun (workers, kernel) ->
      let faults = Faults.create ~rate:0.02 ~budget:2 ~seed:3 "pool.task" in
      let r = run_engine ~faults (cfg ~workers ~kernel ()) in
      check_result_equal (baseline ~workers ~kernel) r;
      check Alcotest.int
        (Printf.sprintf "faults fired (workers=%d)" workers)
        2 (Faults.fired faults))
    matrix

(* Cell 2: a hung slice, cancelled by the watchdog and retried. *)

let test_pool_hang_watchdog () =
  List.iter
    (fun (workers, kernel) ->
      let faults = Faults.create ~rate:1.0 ~budget:1 ~after:40 ~seed:7 "pool.hang" in
      let r = run_engine ~faults (cfg ~workers ~kernel ~timeout_ms:50 ()) in
      check_result_equal (baseline ~workers ~kernel) r;
      check Alcotest.int "the hang fired" 1 (Faults.fired faults))
    matrix

(* Cell 3: checkpoint writes failing under degradation — snapshots are
   skipped (and counted), results untouched. *)

let test_checkpoint_io_degraded () =
  List.iter
    (fun (workers, kernel) ->
      let path = Filename.temp_file "sbgp_chaos" ".snap" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let faults = Faults.create ~rate:1.0 ~budget:2 ~seed:5 "checkpoint.io" in
          let r =
            run_engine ~checkpoint:{ Engine.path; every = 1 } ~faults
              (cfg ~workers ~kernel ~degrade:true ())
          in
          check_result_equal (baseline ~workers ~kernel) r;
          check Alcotest.bool "writes were skipped" true (r.checkpoint_skips > 0)))
    matrix

(* Cell 4: a sweep supervision failure under degradation. A zero retry
   budget turns the first injected fault into a supervision failure;
   [Config.degrade] covers checkpoint writes only, so the failure
   escapes the run as it does without degradation. *)

let test_sweep_failure_escapes () =
  List.iter
    (fun (workers, kernel) ->
      (* [after] skips past the pre-loop baseline (n tasks), so the
         fault lands in a round's sweep. *)
      let faults = Faults.create ~rate:1.0 ~budget:1 ~seed:9 ~after:(3 * n) "pool.task" in
      match run_engine ~faults (cfg ~workers ~kernel ~retries:0 ~degrade:true ()) with
      | _ -> Alcotest.fail "the sweep failure was swallowed"
      | exception Pool.Supervision_failed fs ->
          check Alcotest.bool "failed slices reported" true (fs <> []))
    matrix

(* ------------------------------------------------------------------ *)
(* Churn cells: faults inside the churn runner. The statics kernel
   replaces the flip kernel as the swept axis; outcomes are compared
   without the miss diagnostic. *)

let check_outcome_equal (a : Evolution_run.outcome) (b : Evolution_run.outcome) =
  check Alcotest.int "summary count" (List.length a.summaries) (List.length b.summaries);
  List.iteri
    (fun i ((sa : Evolution_run.epoch_summary), (sb : Evolution_run.epoch_summary)) ->
      let lbl f = Printf.sprintf "epoch %d %s" i f in
      check exact (lbl "e_secure_as") sa.e_secure_as sb.e_secure_as;
      check exact (lbl "e_secure_isp") sa.e_secure_isp sb.e_secure_isp;
      check
        Alcotest.(option (pair int int))
        (lbl "e_new_on_secure") sa.e_new_on_secure sb.e_new_on_secure;
      check Alcotest.int (lbl "e_rounds") sa.e_rounds sb.e_rounds)
    (List.combine a.summaries b.summaries);
  check Alcotest.bool "final state" true (State.equal_full a.final b.final);
  check Alcotest.int "final graph size" (Asgraph.Graph.n a.final_graph)
    (Asgraph.Graph.n b.final_graph);
  check Alcotest.bool "final graph edges" true
    (List.sort compare (Asgraph.Graph.edges a.final_graph)
    = List.sort compare (Asgraph.Graph.edges b.final_graph))

let churn_params = { Evolution_run.default_params with epochs = 2; growth_fraction = 0.1 }

let churn_cfg ~workers ~statics_kernel =
  { (cfg ~workers ~kernel:Config.Flip_delta ()) with statics_kernel }

let churn_baseline_for = Hashtbl.create 4

let churn_baseline ~workers ~statics_kernel =
  match Hashtbl.find_opt churn_baseline_for (workers, statics_kernel) with
  | Some o -> o
  | None ->
      let b = Lazy.force built in
      let o =
        Evolution_run.run churn_params
          (churn_cfg ~workers ~statics_kernel)
          b.graph ~early:(early ())
      in
      Hashtbl.add churn_baseline_for (workers, statics_kernel) o;
      o

let churn_matrix =
  [
    (1, Bgp.Route_static.Full);
    (1, Bgp.Route_static.Delta);
    (4, Bgp.Route_static.Full);
    (4, Bgp.Route_static.Delta);
  ]

(* Cell 5: every churn frame write failing under degradation — the
   epoch-boundary frames and the every-round mid-epoch frames are all
   skipped with a warning, and the outcome is the fault-free one. *)

let test_churn_checkpoint_io_degraded () =
  List.iter
    (fun (workers, statics_kernel) ->
      let b = Lazy.force built in
      let path = Filename.temp_file "sbgp_chaos_churn" ".snap" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let faults = Faults.create ~rate:1.0 ~budget:max_int ~seed:25 "checkpoint.io" in
          let o =
            Evolution_run.run
              ~checkpoint:{ Evolution_run.path; every_rounds = 1 }
              ~faults churn_params
              { (churn_cfg ~workers ~statics_kernel) with degrade = true }
              b.graph ~early:(early ())
          in
          check_outcome_equal (churn_baseline ~workers ~statics_kernel) o;
          (* One boundary frame per growth event plus the mid-epoch
             frames were attempted, and every one of them failed. *)
          check Alcotest.bool "boundary and mid-epoch writes attempted" true
            (Faults.shots faults > churn_params.epochs);
          check Alcotest.int "every write failed" (Faults.shots faults) (Faults.fired faults);
          check Alcotest.bool "no frame reached the disk" false (Sys.file_exists path)))
    churn_matrix

let () =
  Alcotest.run "chaos"
    [
      ( "engine",
        [
          Alcotest.test_case "pool.task within budget" `Quick test_pool_task_within_budget;
          Alcotest.test_case "pool.hang + watchdog" `Quick test_pool_hang_watchdog;
          Alcotest.test_case "checkpoint.io under degrade" `Quick
            test_checkpoint_io_degraded;
          Alcotest.test_case "sweep supervision failure escapes under degrade" `Quick
            test_sweep_failure_escapes;
        ] );
      ( "churn",
        [
          Alcotest.test_case "checkpoint.io under degrade" `Quick
            test_churn_checkpoint_io_degraded;
        ] );
    ]
