(* Kill/resume differentials for the checkpointable churn runner
   (Experiments.Evolution_run): an evolution run killed at an epoch
   boundary OR in the middle of an epoch's engine run, then resumed
   from its last snapshot, must produce an outcome float-identical to
   the uninterrupted run — summaries (minus the wall-clock diagnostic),
   final deployment state and final graph — at any worker count.

   Statics hit/miss counters are compared at workers = 1 only: they
   are best-effort under concurrent workers (racy increments under
   dynamic scheduling), documented as diagnostics.

   The kill is an injected worker fault (site [pool.task], scoped so
   the shot never leaks into other sites) with a zero retry budget:
   the first shot raises [Pool.Supervision_failed] out of whatever
   sweep or rebase it lands in, leaving the snapshot file at whatever
   frame was written last — a mid-epoch frame (engine progress wrapped
   in churn context) or an epoch-boundary frame, depending on where
   the shot fell. The property randomizes that kill point.

   The case count comes from SBGP_CHURN_RESUME_COUNT (default 6). *)

module Evolution_run = Experiments.Evolution_run
module State = Core.State
module Checkpoint = Core.Checkpoint
module Pool = Parallel.Pool
module Faults = Nsutil.Faults
module Gen = QCheck2.Gen

let check = Alcotest.check
let cases = Nsutil.Env.int_var ~name:"SBGP_CHURN_RESUME_COUNT" ~min:1 ~default:6 ()

(* ------------------------------------------------------------------ *)
(* Shared inputs: a small synthetic topology and a short evolution. *)

let n = 120

let inputs =
  lazy
    (let p = { (Topology.Params.with_n Topology.Params.default n) with seed = 11 } in
     let built = Topology.Gen.generate p in
     let early = built.cps @ Asgraph.Metrics.top_by_degree built.graph 5 in
     (built.graph, early))

let params = { Evolution_run.default_params with epochs = 2; growth_fraction = 0.1 }

let cfg workers =
  {
    Core.Config.default with
    workers;
    retries = 0;
    theta = 0.05;
    theta_off = 0.05;
  }

(* ------------------------------------------------------------------ *)
(* Outcome equality, float for float. [counters] additionally compares
   the per-epoch statics-miss diagnostic (workers = 1 only). *)

let check_summary_equal ~counters i (a : Evolution_run.epoch_summary)
    (b : Evolution_run.epoch_summary) =
  let lbl f = Printf.sprintf "epoch %d %s" i f in
  check Alcotest.int (lbl "e_epoch") a.e_epoch b.e_epoch;
  check Alcotest.int (lbl "e_nodes") a.e_nodes b.e_nodes;
  check (Alcotest.float 0.0) (lbl "e_secure_as") a.e_secure_as b.e_secure_as;
  check (Alcotest.float 0.0) (lbl "e_secure_isp") a.e_secure_isp b.e_secure_isp;
  check
    Alcotest.(option (pair int int))
    (lbl "e_new_on_secure") a.e_new_on_secure b.e_new_on_secure;
  check Alcotest.int (lbl "e_rounds") a.e_rounds b.e_rounds;
  if counters then
    check Alcotest.int (lbl "e_statics_misses") a.e_statics_misses b.e_statics_misses

(* Graphs restored from a snapshot list their edges in a different
   order than the in-memory grown graph (the text format round-trip
   does not preserve it); equality is over the canonical edge set and
   the CP marking, which is what determines behavior. *)
let check_graph_equal a b =
  check Alcotest.int "graph size" (Asgraph.Graph.n a) (Asgraph.Graph.n b);
  check Alcotest.bool "graph edges" true
    (List.sort compare (Asgraph.Graph.edges a)
    = List.sort compare (Asgraph.Graph.edges b));
  check Alcotest.(list int) "graph cps"
    (List.sort compare (Asgraph.Graph.nodes_of_class a Asgraph.As_class.Cp))
    (List.sort compare (Asgraph.Graph.nodes_of_class b Asgraph.As_class.Cp))

let check_outcome_equal ~counters (a : Evolution_run.outcome)
    (b : Evolution_run.outcome) =
  check Alcotest.int "summary count" (List.length a.summaries) (List.length b.summaries);
  List.iteri
    (fun i (sa, sb) -> check_summary_equal ~counters i sa sb)
    (List.combine a.summaries b.summaries);
  check Alcotest.bool "final state" true (State.equal_full a.final b.final);
  check_graph_equal a.final_graph b.final_graph

let baseline_for = Hashtbl.create 4

let baseline workers =
  match Hashtbl.find_opt baseline_for workers with
  | Some o -> o
  | None ->
      let g, early = Lazy.force inputs in
      let o = Evolution_run.run params (cfg workers) g ~early in
      Hashtbl.add baseline_for workers o;
      o

let with_temp f =
  let path = Filename.temp_file "sbgp_churn" ".snap" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Deterministic boundary resume: after a COMPLETED run the snapshot
   file still holds the last epoch-boundary frame; resuming it re-runs
   the final epoch and must reproduce the baseline. *)

let test_boundary_resume workers () =
  let g, early = Lazy.force inputs in
  with_temp (fun path ->
      let checkpoint = { Evolution_run.path; every_rounds = 0 } in
      let full = Evolution_run.run ~checkpoint params (cfg workers) g ~early in
      check_outcome_equal ~counters:(workers = 1) (baseline workers) full;
      let resumed = Evolution_run.resume ~from:path params (cfg workers) g ~early in
      check_outcome_equal ~counters:(workers = 1) (baseline workers) resumed)

(* ------------------------------------------------------------------ *)
(* Randomized kill points: an injected fault kills the run after a
   random number of sweep shots; mid-epoch frames (every round) mean
   the last snapshot lands inside or between epochs depending on where
   the shot fell. Resume must match the uninterrupted baseline. *)

let kill_plan ~after =
  Faults.create ~rate:1.0 ~budget:1 ~after ~seed:13 "pool.task"

let test_kill_and_resume workers =
  let name = Printf.sprintf "kill anywhere, resume identical (workers=%d)" workers in
  let gen = Gen.int_range 0 150 in
  let prop after =
    let g, early = Lazy.force inputs in
    with_temp (fun path ->
        let checkpoint = { Evolution_run.path; every_rounds = 1 } in
        let outcome =
          match
            Evolution_run.run ~checkpoint ~faults:(kill_plan ~after) params
              (cfg workers) g ~early
          with
          | o ->
              (* The budget outlived the run (kill point past its
                 end): nothing was interrupted, the outcome stands. *)
              o
          | exception Pool.Supervision_failed _ ->
              (* [temp_file] pre-creates the file empty; only a
                 non-empty file holds a complete frame (writes are
                 atomic whole-frame replacements). *)
              let have_snapshot =
                Sys.file_exists path && (Unix.stat path).Unix.st_size > 0
              in
              if have_snapshot then
                Evolution_run.resume ~from:path params (cfg workers) g ~early
              else
                (* Killed before the first snapshot: start over, like
                   an operator without a snapshot would. *)
                Evolution_run.run params (cfg workers) g ~early
        in
        check_outcome_equal ~counters:(workers = 1) (baseline workers) outcome;
        true)
  in
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:cases gen prop)

(* ------------------------------------------------------------------ *)
(* Typed rejections: wrong frame kind and wrong inputs never resume. *)

let test_engine_frame_rejected () =
  let g, early = Lazy.force inputs in
  with_temp (fun path ->
      let digest = Evolution_run.input_digest params (cfg 1) g ~early in
      Checkpoint.write ~kind:Checkpoint.Engine ~path ~digest ~round:1 "not churn";
      match Evolution_run.resume ~from:path params (cfg 1) g ~early with
      | _ -> Alcotest.fail "expected Unsupported_kind"
      | exception Checkpoint.Error (Checkpoint.Unsupported_kind 0) -> ())

let test_params_mismatch_rejected () =
  let g, early = Lazy.force inputs in
  with_temp (fun path ->
      let checkpoint = { Evolution_run.path; every_rounds = 0 } in
      ignore (Evolution_run.run ~checkpoint params (cfg 1) g ~early);
      let other = { params with growth_seed = params.growth_seed + 1 } in
      match Evolution_run.resume ~from:path other (cfg 1) g ~early with
      | _ -> Alcotest.fail "expected Config_mismatch"
      | exception Checkpoint.Error (Checkpoint.Config_mismatch _) -> ())

let () =
  Alcotest.run "churn_resume"
    [
      ( "boundary",
        [
          Alcotest.test_case "completed-run tail (workers=1)" `Quick
            (test_boundary_resume 1);
          Alcotest.test_case "completed-run tail (workers=4)" `Quick
            (test_boundary_resume 4);
        ] );
      ("kill", [ test_kill_and_resume 1; test_kill_and_resume 4 ]);
      ( "rejection",
        [
          Alcotest.test_case "engine frame rejected" `Quick test_engine_frame_rejected;
          Alcotest.test_case "params mismatch rejected" `Quick
            test_params_mismatch_rejected;
        ] );
    ]
