(* Command-line driver: generate topologies, run deployment
   simulations, and regenerate the paper's tables and figures. *)

open Cmdliner

(* Uniform error surface: user mistakes (bad parameters, malformed
   files) print one line instead of a backtrace. *)
let guard f =
  try f () with
  | Invalid_argument m | Failure m ->
      Printf.eprintf "error: %s\n" m;
      exit 2
  | Asgraph.Graph.Malformed m ->
      Printf.eprintf "error: malformed graph: %s\n" m;
      exit 2
  | Asgraph.Graph_io.Parse_error { line; message } ->
      Printf.eprintf "error: parse error at line %d: %s\n" line message;
      exit 2
  | Asgraph.Graph_io.Bin_error { path; message } ->
      Printf.eprintf "error: binary graph %s: %s\n" path message;
      exit 2
  | Sys_error m ->
      Printf.eprintf "error: %s\n" m;
      exit 2
  | Core.Checkpoint.Error e ->
      (* Each typed checkpoint error gets one actionable line: what is
         wrong with the snapshot and what to do about it. *)
      let hint =
        match e with
        | Core.Checkpoint.Io _ ->
            "check that the --checkpoint path exists and is readable/writable"
        | Core.Checkpoint.Bad_magic ->
            "this is not a checkpoint file; point --checkpoint at a snapshot \
             this tool wrote"
        | Core.Checkpoint.Unsupported_version _ ->
            "the snapshot uses a frame version this build does not read; rerun \
             without --resume to start over"
        | Core.Checkpoint.Unsupported_kind 1 ->
            "this is a churn-run snapshot; resume it through the evolution \
             runner ('exp evolution'), not 'run --resume'"
        | Core.Checkpoint.Unsupported_kind _ ->
            "the snapshot's record kind is unknown to this build; rerun \
             without --resume to start over"
        | Core.Checkpoint.Truncated ->
            "the file was cut short (full disk or interrupted copy?); rerun \
             without --resume to start over"
        | Core.Checkpoint.Corrupt ->
            "the integrity checksum does not match; the file was damaged \
             after writing — rerun without --resume to start over"
        | Core.Checkpoint.Config_mismatch _ ->
            "the snapshot belongs to a different run; pass exactly the \
             original -n/--seed/--theta/... parameters (and topology)"
      in
      Printf.eprintf "error: checkpoint: %s\nhint: %s\n"
        (Core.Checkpoint.error_to_string e) hint;
      exit 2
  | Parallel.Pool.Supervision_failed failures ->
      Printf.eprintf "error: %d worker slice(s) failed past the retry budget" (List.length failures);
      (match failures with
      | { Parallel.Pool.index; attempts; error } :: _ ->
          Printf.eprintf "; first: task %d after %d attempts: %s" index attempts error
      | [] -> ());
      prerr_newline ();
      exit 3

let n_arg =
  let doc = "Number of ASes in the synthetic topology." in
  Arg.(value & opt int (Experiments.Scenario.default_n ()) & info [ "n" ] ~doc)

let seed_arg =
  let doc = "Random seed (topologies and simulations are deterministic given it)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

(* gen: write a synthetic topology to a file. *)
let gen_cmd =
  let out =
    Arg.(
      value
      & opt string "topology.asrel"
      & info [ "o"; "output" ]
          ~doc:
            "Output path. A $(b,.sbg) extension selects the streaming binary \
             format (fixed-width records, loads at disk speed at 100K+ nodes); \
             anything else writes the CAIDA-style text format.")
  in
  let augmented =
    Arg.(value & flag & info [ "augmented" ] ~doc:"Apply the IXP/CP-peering augmentation.")
  in
  let run n seed out augmented =
    let params = { (Topology.Params.with_n Topology.Params.default n) with seed } in
    let built = Topology.Gen.generate params in
    let built =
      if augmented then Topology.Augment.augment_built built ~fraction:0.8 ~seed:(seed + 1)
      else built
    in
    if Filename.check_suffix out ".sbg" then Asgraph.Graph_io.save_bin built.graph out
    else Asgraph.Graph_io.save built.graph out;
    let report = Asgraph.Validate.run built.graph in
    Format.printf "wrote %s: %a@." out Asgraph.Metrics.pp_summary
      (Asgraph.Metrics.summary built.graph);
    if not (report.gr1_acyclic && report.connected) then begin
      Format.eprintf "warning: graph fails validation (gr1=%b connected=%b)@."
        report.gr1_acyclic report.connected;
      exit 1
    end
  in
  let doc = "Generate a synthetic Internet-like AS topology." in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const (fun a b c d -> guard (fun () -> run a b c d)) $ n_arg $ seed_arg $ out $ augmented)

(* run: a deployment simulation with explicit parameters. *)
let run_cmd =
  let theta =
    Arg.(value & opt float 0.05 & info [ "theta" ] ~doc:"Deployment threshold (Eq. 3).")
  in
  let x =
    Arg.(
      value & opt float 0.10
      & info [ "x"; "cp-fraction" ] ~doc:"Fraction of traffic originated by the CPs.")
  in
  let model =
    Arg.(
      value
      & opt (enum [ ("outgoing", Core.Config.Outgoing); ("incoming", Core.Config.Incoming) ])
          Core.Config.Outgoing
      & info [ "model" ] ~doc:"Utility model: outgoing (Eq. 1) or incoming (Eq. 2).")
  in
  let adopters =
    Arg.(
      value & opt string "cps+top5"
      & info [ "adopters" ]
          ~doc:
            "Early adopters: none, top<k>, 5cps, cps+top<k>, random<k>, or a \
             comma-separated node list.")
  in
  let no_stub_tiebreak =
    Arg.(value & flag & info [ "no-stub-tiebreak" ] ~doc:"Stubs ignore security (Sec. 6.7).")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Write per-round CSV here.")
  in
  let caida =
    Arg.(
      value
      & opt (some string) None
      & info [ "caida"; "graph" ]
          ~doc:
            "Run on an AS graph from a file instead of the synthetic topology. A \
             $(b,.sbg) extension loads the streaming binary format written by \
             $(b,gen -o *.sbg); anything else is parsed as CAIDA as-rel text, with \
             the paper's five content providers (15169, 32934, 8075, 20940, 22822) \
             marked as CPs when present.")
  in
  let workers =
    Arg.(
      value
      & opt int (Parallel.Pool.default_workers ())
      & info [ "workers" ]
          ~doc:
            "Worker domains for the per-round destination sweep. Results are identical \
             for any value (default: one per spare core, or \\$(b,SBGP_WORKERS)).")
  in
  let checkpoint_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ]
          ~doc:
            "Snapshot engine progress to this file (atomically replaced, \
             SHA-256-checksummed) so an interrupted run can be continued with \
             $(b,--resume).")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ] ~doc:"Rounds between snapshots (default every round).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the snapshot at $(b,--checkpoint) instead of starting over. \
             The snapshot is validated (checksum and config/topology digest) before \
             anything is trusted; results are identical to an uninterrupted run.")
  in
  let retries =
    Arg.(
      value
      & opt int Core.Config.default.retries
      & info [ "retries" ]
          ~doc:
            "Retry budget for failed worker slices in the per-round sweep (final attempt \
             runs serially). Never affects results, only survival.")
  in
  let task_timeout_ms =
    Arg.(
      value
      & opt int Core.Config.default.task_timeout_ms
      & info [ "task-timeout-ms" ]
          ~doc:
            "Hang watchdog: a sweep slice silent for this many milliseconds is \
             cancelled and retried under the $(b,--retries) budget. 0 disables \
             the watchdog. Never affects results, only survival. The default \
             honours \\$(b,SBGP_TASK_TIMEOUT_MS).")
  in
  let degrade =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "Skip a checkpoint write that fails with an I/O error, with a \
             warning, instead of stopping the run; the previous snapshot \
             survives. Results stay bit-identical, and the skip count is \
             reported. Sweep supervision failures still stop the run. \
             Equivalent to \\$(b,SBGP_DEGRADE=1).")
  in
  let flip_kernel =
    let kernel_conv =
      Arg.conv
        ( (fun s ->
            match Core.Config.flip_kernel_of_string s with
            | Some k -> Ok k
            | None -> Error (`Msg (Printf.sprintf "expected 'full' or 'delta', got %S" s))),
          fun fmt k -> Format.pp_print_string fmt (Core.Config.flip_kernel_to_string k) )
    in
    Arg.(
      value
      & opt kernel_conv Core.Config.default.flip_kernel
      & info [ "flip-kernel" ]
          ~doc:
            "Flip kernel for the per-candidate probes of the sweep: $(b,delta) repairs \
             the destination's base forest in place and undoes the repair after each \
             probe; $(b,full) recomputes the forest from scratch per probe. Results are \
             bit-identical either way; only speed changes. The default honours \
             \\$(b,SBGP_FLIP_KERNEL).")
  in
  let statics_mb =
    Arg.(
      value & opt int 0
      & info [ "statics-mb" ]
          ~doc:
            "Memory budget for the per-destination route-statics store, in MiB. Evicted \
             entries are recomputed on demand, so results are identical for any budget; \
             only speed and memory change. 0 (the default) defers to \
             $(b,SBGP_STATICS_MB), or unlimited if that is unset.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ]
          ~doc:
            "Record a span trace of the run and write it here as Chrome trace-event \
             JSON (open in about:tracing or Perfetto). Equivalent to setting \
             $(b,SBGP_TRACE). Tracing never changes results.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ]
          ~doc:
            "Collect run metrics (rounds, flips, cache and statics-store traffic, pool \
             and checkpoint activity) and write them here as Prometheus-style text; a \
             summary table is also printed. Equivalent to $(b,SBGP_METRICS).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ]
          ~doc:
            "Append a structured JSONL run journal here (round start/end, \
             checkpoint and resilience events, timestamped): readable with \
             $(b,jq), crash-safe up to the last event, and the input of \
             $(b,--obs-report). Equivalent to $(b,SBGP_JOURNAL).")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ]
          ~doc:
            "Serve $(b,GET /metrics) (Prometheus exposition) and \
             $(b,GET /healthz) (round progress, uptime, degradation state) on \
             this loopback port while the run executes; 0 picks an ephemeral \
             port. Implies metrics collection. Equivalent to \
             $(b,SBGP_METRICS_PORT).")
  in
  let obs_report =
    Arg.(
      value & flag
      & info [ "obs-report" ]
          ~doc:
            "Print a one-screen run health report at the end (rounds/s trend, \
             p50/p99 phase latencies, resilience-event totals), folding the \
             journal — including history from interrupted attempts — with \
             this run's metrics.")
  in
  let parse_adopters g spec =
    let prefix p s =
      if String.length s >= String.length p && String.sub s 0 (String.length p) = p then
        int_of_string_opt (String.sub s (String.length p) (String.length s - String.length p))
      else None
    in
    match spec with
    | "none" -> Adopters.Strategy.select g Adopters.Strategy.None_
    | "5cps" -> Adopters.Strategy.select g Adopters.Strategy.Content_providers
    | s -> begin
        match (prefix "top" s, prefix "cps+top" s, prefix "random" s) with
        | _, Some k, _ -> Adopters.Strategy.select g (Adopters.Strategy.Cps_and_top k)
        | Some k, _, _ -> Adopters.Strategy.select g (Adopters.Strategy.Top_degree k)
        | _, _, Some k -> Adopters.Strategy.select g (Adopters.Strategy.Random_isps (k, 7))
        | None, None, None ->
            Adopters.Strategy.select g
              (Adopters.Strategy.Explicit
                 (List.filter_map int_of_string_opt (String.split_on_char ',' s)))
      end
  in
  let run n seed theta x model adopters_spec no_stub_tiebreak csv caida workers
      checkpoint_path checkpoint_every resume retries task_timeout_ms degrade flip_kernel
      statics_mb trace metrics journal metrics_port obs_report =
    Option.iter Nsobs.Control.set_trace trace;
    Option.iter Nsobs.Control.set_metrics metrics;
    Option.iter Nsobs.Control.set_journal journal;
    (* --obs-report wants quantiles; make sure histograms collect even
       when no --metrics file was named. *)
    if obs_report then Nsobs.Metrics.set_enabled true;
    (match metrics_port with
    | Some p ->
        Nsobs.Control.set_metrics_port p;
        Option.iter
          (fun bound ->
            Printf.printf "metrics: serving http://127.0.0.1:%d/metrics\n%!" bound)
          (Nsobs.Control.server_port ())
    | None -> ());
    let g =
      match caida with
      | None -> Experiments.Scenario.graph (Experiments.Scenario.create ~n ~seed ())
      | Some path ->
          let loaded =
            if Filename.check_suffix path ".sbg" then begin
              let g = Asgraph.Graph_io.load_bin path in
              Printf.printf "loaded %s: %d ASes (binary)\n%!" path (Asgraph.Graph.n g);
              g
            end
            else begin
              let imp =
                Asgraph.Graph_io.load_caida ~cps:[ 15169; 32934; 8075; 20940; 22822 ]
                  path
              in
              Printf.printf "loaded %s: %d ASes (%d records skipped)\n%!" path
                (Asgraph.Graph.n imp.graph) imp.skipped;
              imp.graph
            end
          in
          if not (Asgraph.Validate.gr1_acyclic loaded) then begin
            Printf.eprintf "graph has a customer-provider cycle; refusing\n";
            exit 1
          end;
          loaded
    in
    let early = parse_adopters g adopters_spec in
    let cfg =
      {
        Core.Config.default with
        theta;
        theta_off = theta;
        cp_fraction = x;
        model;
        stub_tiebreak = not no_stub_tiebreak;
        allow_turn_off = model = Core.Config.Incoming;
        workers = max 1 workers;
        retries = max 0 retries;
        task_timeout_ms = max 0 task_timeout_ms;
        degrade = degrade || Core.Config.default.degrade;
        flip_kernel;
      }
    in
    if resume && checkpoint_path = None then begin
      Printf.eprintf "error: --resume requires --checkpoint PATH\n";
      exit 2
    end;
    (* On resume, surface the interrupted run's history (the journal
       appends across attempts) before this attempt adds to it. *)
    if resume then (
      match Nsobs.Control.journal_path () with
      | Some jp when Sys.file_exists jp ->
          Printf.printf "-- history from %s --\n%s--\n%!" jp
            (Nsobs.Report.render ~journal_path:jp ())
      | _ -> ());
    let checkpoint =
      Option.map
        (fun path -> { Core.Engine.path; every = max 1 checkpoint_every })
        checkpoint_path
    in
    let t0 = Unix.gettimeofday () in
    let statics =
      if statics_mb > 0 then
        Bgp.Route_static.create ~budget_bytes:(statics_mb * 1024 * 1024) g
      else Bgp.Route_static.create g
    in
    let weight = Traffic.Weights.assign g ~cp_fraction:cfg.cp_fraction in
    let state = Core.State.create g ~early in
    let result =
      if resume then
        Core.Engine.resume ~from:(Option.get checkpoint_path) ?checkpoint cfg statics
          ~weight ~state
      else Core.Engine.run ?checkpoint cfg statics ~weight ~state
    in
    let dt = Unix.gettimeofday () -. t0 in
    let table =
      Nsutil.Table.create
        ~header:[ "round"; "turned on"; "turned off"; "secure ASes"; "secure ISPs" ]
    in
    List.iter
      (fun (r : Core.Engine.round_record) ->
        Nsutil.Table.add_row table
          [
            string_of_int r.round;
            string_of_int (List.length r.turned_on);
            string_of_int (List.length r.turned_off);
            string_of_int r.secure_as;
            string_of_int r.secure_isp;
          ])
      result.rounds;
    Nsutil.Table.print table;
    Option.iter (Nsutil.Table.save_csv table) csv;
    Printf.printf
      "termination: %s after %d rounds (%.1fs); secure: %.1f%% of ASes, %.1f%% of ISPs\n"
      (match result.termination with
      | Core.Engine.Stable -> "stable"
      | Core.Engine.Oscillation { first_round } ->
          Printf.sprintf "oscillation (back to round %d)" first_round
      | Core.Engine.Max_rounds -> "round cap")
      (Core.Engine.rounds_run result)
      dt
      (100.0 *. Core.Engine.secure_fraction result `As)
      (100.0 *. Core.Engine.secure_fraction result `Isp);
    Printf.printf "sweep: %d workers; %d destination recomputes, %d cache hits (%.1f%%)\n"
      cfg.workers result.dest_recomputed result.dest_reused
      (100.0 *. Core.Engine.cache_hit_rate result);
    if result.checkpoint_skips > 0 then
      Printf.printf "degraded: %d checkpoint write(s) skipped (results unaffected)\n"
        result.checkpoint_skips;
    (* On a snapshot-restored resume the engine swaps in the store
       rebuilt from the checkpoint; report the store the run actually
       used, not the handle created above. *)
    let statics = result.Core.Engine.statics_store in
    let st = Bgp.Route_static.stats statics in
    if Bgp.Route_static.bounded statics then
      (* Counters are best-effort under parallel sweeps (racy
         increments), so they only appear for explicitly bounded
         stores — the unbounded line stays byte-identical across
         worker counts. *)
      Printf.printf
        "statics: %d MiB budget; %d cached at exit; %d hits, %d recomputes, %d \
         evictions (best-effort)\n"
        (st.budget_bytes / (1024 * 1024))
        st.cached result.statics_hits result.statics_misses result.statics_evictions
    else
      Printf.printf "statics: unbounded; %d destinations cached (%.1f MiB)\n" st.cached
        (float_of_int st.cached_bytes /. 1048576.0);
    (* Write telemetry now (rather than only at_exit) so the summary
       table below reflects the flushed registry, RSS included. *)
    Nsobs.Control.flush ();
    if Nsobs.Metrics.enabled () && Nsobs.Control.metrics_path () <> None then begin
      Printf.printf "\nmetrics:\n";
      Nsutil.Table.print (Nsobs.Metrics.summary ())
    end;
    if obs_report then begin
      print_newline ();
      print_string
        (Nsobs.Report.render ?journal_path:(Nsobs.Control.journal_path ()) ())
    end
  in
  let doc = "Run one S*BGP deployment simulation." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun a b c d e f g h i j k l m o p q r s t u v w x ->
          guard (fun () -> run a b c d e f g h i j k l m o p q r s t u v w x))
      $ n_arg $ seed_arg $ theta $ x $ model $ adopters $ no_stub_tiebreak $ csv $ caida
      $ workers $ checkpoint_path $ checkpoint_every $ resume $ retries $ task_timeout_ms
      $ degrade $ flip_kernel $ statics_mb $ trace $ metrics $ journal $ metrics_port
      $ obs_report)

(* exp: regenerate a table/figure. *)
let exp_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let csv_dir =
    Arg.(
      value & opt (some string) None & info [ "csv-dir" ] ~doc:"Also write one CSV per table.")
  in
  let statics_kernel =
    Arg.(
      value
      & opt (some (enum [ ("full", Bgp.Route_static.Full); ("delta", Bgp.Route_static.Delta) ])) None
      & info [ "statics-kernel" ]
          ~doc:
            "How the route-statics store is maintained across the topology-churn epochs \
             of the $(b,evolution) experiment: $(b,delta) migrates the warm store \
             through the growth delta, repairing only destinations the churn reaches; \
             $(b,full) rebuilds every destination each epoch. Results are bit-identical \
             either way; only epoch time changes. Equivalent to exporting \
             $(b,SBGP_STATICS_KERNEL); unset, that variable (default $(b,delta)) \
             applies.")
  in
  let run n seed ids csv_dir statics_kernel =
    Option.iter
      (fun k -> Unix.putenv "SBGP_STATICS_KERNEL" (Bgp.Route_static.kernel_to_string k))
      statics_kernel;
    let scenario = Experiments.Scenario.create ~n ~seed () in
    let only = if ids = [] then None else Some ids in
    let unknown =
      List.filter (fun id -> Experiments.Registry.find id = None) ids
    in
    if unknown <> [] then begin
      Printf.eprintf "unknown experiment(s): %s\navailable: %s\n"
        (String.concat ", " unknown)
        (String.concat ", " (Experiments.Registry.ids ()));
      exit 2
    end;
    Experiments.Registry.run_streaming ?only scenario (fun e table dt ->
        Printf.printf "== %s: %s  [%.1fs]\n%s\n%!" e.id e.title dt
          (Nsutil.Table.to_string table);
        Option.iter
          (fun dir -> Nsutil.Table.save_csv table (Filename.concat dir (e.id ^ ".csv")))
          csv_dir)
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v (Cmd.info "exp" ~doc)
    Term.(
      const (fun a b c d e -> guard (fun () -> run a b c d e))
      $ n_arg $ seed_arg $ ids $ csv_dir $ statics_kernel)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.Registry.experiment) -> Printf.printf "%-12s %s\n" e.id e.title)
      Experiments.Registry.all
  in
  let doc = "List available experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* analyze: structural analyses of a topology. *)
let analyze_cmd =
  let run n seed =
    let scenario = Experiments.Scenario.create ~n ~seed () in
    let g = Experiments.Scenario.graph scenario in
    Format.printf "%a@." Asgraph.Metrics.pp_summary (Asgraph.Metrics.summary g);
    let report = Asgraph.Validate.run g in
    Printf.printf "gr1-acyclic=%b connected=%b tier1=%d orphans=%d\n" report.gr1_acyclic
      report.connected report.tier1_count report.orphan_count;
    Printf.printf "mean tiebreak set (all sources): %.3f; ISPs: %.3f; stubs: %.3f\n"
      (Bgp.Route_static.mean_tiebreak_size scenario.statics ~among:(fun _ -> true))
      (Bgp.Route_static.mean_tiebreak_size scenario.statics ~among:(Asgraph.Graph.is_isp g))
      (Bgp.Route_static.mean_tiebreak_size scenario.statics ~among:(Asgraph.Graph.is_stub g));
    List.iter
      (fun cp ->
        Printf.printf "CP %d mean path length: %.2f\n" cp
          (Bgp.Route_static.mean_path_length scenario.statics ~from:cp))
      (Experiments.Scenario.cps scenario)
  in
  let doc = "Structural analyses of the synthetic topology." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const (fun a b -> guard (fun () -> run a b)) $ n_arg $ seed_arg)

(* attack: simulate a prefix hijack against a deployment state. *)
let attack_cmd =
  let theta =
    Arg.(value & opt float 0.05 & info [ "theta" ] ~doc:"Deployment threshold for the state.")
  in
  let attacker =
    Arg.(value & opt (some int) None & info [ "attacker" ] ~doc:"Attacker AS (default: random sweep).")
  in
  let victim =
    Arg.(value & opt (some int) None & info [ "victim" ] ~doc:"Victim AS (default: random sweep).")
  in
  let position =
    Arg.(
      value
      & opt
          (enum
             [
               ("tiebreak", Bgp.Flexsim.Tiebreak_only);
               ("before-length", Bgp.Flexsim.Before_length);
               ("first", Bgp.Flexsim.Before_lp);
             ])
          Bgp.Flexsim.Tiebreak_only
      & info [ "secp-position" ] ~doc:"Rank of the security criterion.")
  in
  let samples =
    Arg.(value & opt int 100 & info [ "samples" ] ~doc:"Random pairs for the sweep.")
  in
  let run n seed theta attacker victim position samples =
    let scenario = Experiments.Scenario.create ~n ~seed () in
    let cfg = { Core.Config.default with theta; theta_off = theta } in
    let result = Experiments.Scenario.run scenario cfg in
    Printf.printf "deployment state: %.1f%% of ASes secure (theta = %.0f%%)\n"
      (100.0 *. Core.Engine.secure_fraction result `As)
      (100.0 *. theta);
    match (attacker, victim) with
    | Some a, Some v ->
        let o =
          Core.Resilience.simulate_attack_ranked scenario.statics result.final
            ~stub_tiebreak:cfg.stub_tiebreak ~tiebreak:cfg.tiebreak ~position ~attacker:a
            ~victim:v
        in
        Printf.printf "AS %d hijacking AS %d's prefix deceives %d of %d ASes (%.1f%%)\n"
          a v o.deceived o.total
          (100.0 *. float_of_int o.deceived /. float_of_int (max 1 o.total))
    | _ ->
        let f =
          Core.Resilience.mean_deceived_fraction_ranked scenario.statics result.final
            ~stub_tiebreak:cfg.stub_tiebreak ~tiebreak:cfg.tiebreak ~position ~samples
            ~seed:(seed + 1)
        in
        Printf.printf
          "mean deceived fraction over %d random (attacker, victim) pairs: %.1f%% \n\
           (SecP position: %s)\n"
          samples (100.0 *. f)
          (Bgp.Flexsim.position_to_string position)
  in
  let doc = "Simulate prefix hijacks against a deployment state." in
  Cmd.v (Cmd.info "attack" ~doc)
    Term.(const (fun a b c d e f g -> guard (fun () -> run a b c d e f g)) $ n_arg $ seed_arg $ theta $ attacker $ victim $ position $ samples)

(* tree: show the routing tree towards one destination. *)
let tree_cmd =
  let dest = Arg.(required & pos 0 (some int) None & info [] ~docv:"DEST") in
  let limit =
    Arg.(value & opt int 25 & info [ "limit" ] ~doc:"Max sources to print.")
  in
  let run n seed dest limit =
    let scenario = Experiments.Scenario.create ~n ~seed () in
    let g = Experiments.Scenario.graph scenario in
    if dest < 0 || dest >= Asgraph.Graph.n g then begin
      Printf.eprintf "destination %d out of range\n" dest;
      exit 2
    end;
    let cfg = Core.Config.default in
    let result = Experiments.Scenario.run scenario cfg in
    let info = Bgp.Route_static.get scenario.statics dest in
    let scratch = Bgp.Forest.make_scratch (Asgraph.Graph.n g) in
    let weight = Experiments.Scenario.weights scenario cfg in
    Bgp.Forest.compute info ~tiebreak:cfg.tiebreak
      ~secure:(Core.State.secure_bytes result.final)
      ~use_secp:(Core.State.use_secp_bytes result.final ~stub_tiebreak:cfg.stub_tiebreak)
      ~weight scratch;
    Printf.printf "routes to AS %d (%s) after the case-study deployment:\n" dest
      (Asgraph.As_class.to_string (Asgraph.Graph.klass g dest));
    let printed = ref 0 in
    for src = 0 to Asgraph.Graph.n g - 1 do
      if src <> dest && !printed < limit && Bgp.Route_static.reachable info src then begin
        incr printed;
        let path = Bgp.Forest.path_to_dest info scratch src in
        let secure_mark =
          if Bytes.get scratch.Bgp.Forest.sec_path src = '\001' then " [secure]" else ""
        in
        Printf.printf "  %s%s\n"
          (String.concat " -> " (List.map string_of_int path))
          secure_mark
      end
    done
  in
  let doc = "Print the (post-deployment) routing tree towards a destination." in
  Cmd.v (Cmd.info "tree" ~doc) Term.(const (fun a b c d -> guard (fun () -> run a b c d)) $ n_arg $ seed_arg $ dest $ limit)

let () =
  Nsobs.Control.init ();
  let doc = "Market-driven S*BGP deployment simulator (Gill-Schapira-Goldberg, SIGCOMM'11)" in
  let info = Cmd.info "sbgp_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; run_cmd; exp_cmd; list_cmd; analyze_cmd; attack_cmd; tree_cmd ]))
