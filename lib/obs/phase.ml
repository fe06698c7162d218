type hist = { metric : string; label : string; handle : Metrics.histogram Lazy.t }

type t = { cat : string; span : string; hist : hist option }

let phase ?hist cat span = { cat; span; hist }

(* One bucket grid for the per-phase histograms, so dashboards can
   overlay them; checkpoint I/O keeps its own grid, without the 5 s
   bound. *)
let hist ?(buckets = [| 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500.; 1000.; 5000. |]) label
    help metric =
  { metric; label; handle = lazy (Metrics.histogram ~help ~buckets metric) }

let io_buckets = [| 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500.; 1000. |]

let engine_run = phase "engine" "engine.run"

let engine_round =
  phase "engine" "engine.round"
    ~hist:
      (hist "round" "wall time per round (ms)" "engine_round_ms"
         ~buckets:[| 1.; 5.; 10.; 50.; 100.; 500.; 1000.; 5000. |])

let begin_round = phase "engine" "engine.begin_round"

let probe =
  phase "engine" "engine.probe"
    ~hist:(hist "probe" "flip byte-delta capture per round (ms)" "engine_probe_ms")

let sweep =
  phase "engine" "engine.sweep"
    ~hist:
      (hist "sweep" "parallel sweep (dirty recompute + flip repair) per round (ms)"
         "engine_sweep_ms")

let reduce =
  phase "engine" "engine.reduce"
    ~hist:(hist "reduce" "serial deterministic reduction per round (ms)" "engine_reduce_ms")

let decide = phase "engine" "engine.decide"

let statics_prefill =
  phase "engine" "statics.prefill"
    ~hist:(hist "statics build" "statics store prefill (ms)" "statics_build_ms")

let baseline = phase "engine" "engine.baseline"

let statics_rebase =
  phase "statics" "statics.rebase"
    ~hist:(hist "statics rebase" "statics store churn rebase (ms)" "statics_rebase_ms")

let checkpoint_write =
  phase "checkpoint" "checkpoint.write"
    ~hist:
      (hist "ckpt write" "checkpoint write duration (ms)" "checkpoint_write_ms"
         ~buckets:io_buckets)

let checkpoint_load =
  phase "checkpoint" "checkpoint.load"
    ~hist:
      (hist "ckpt load" "checkpoint load duration (ms)" "checkpoint_load_ms"
         ~buckets:io_buckets)

let pool_slice = phase "pool" "pool.slice"
let pool_park = phase "pool" "pool.park"

let all =
  [
    engine_run; engine_round; begin_round; probe; sweep; reduce; decide; statics_prefill;
    baseline; statics_rebase; checkpoint_write; checkpoint_load; pool_slice; pool_park;
  ]

let run ?args p f =
  match p.hist with
  | Some h when Metrics.enabled () ->
      Trace.span ~cat:p.cat ?args p.span (fun () -> Metrics.timed (Lazy.force h.handle) f)
  | _ -> Trace.span ~cat:p.cat ?args p.span f
