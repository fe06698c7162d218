(* The observability layer (Nsobs): metrics registry semantics,
   span recording across domains, exporter well-formedness — and the
   differential guarantee the whole design rests on: instrumentation
   enabled or disabled, an engine run's results are bit-identical. *)

module Metrics = Nsobs.Metrics
module Trace = Nsobs.Trace
module Jsonv = Nsobs.Jsonv

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = (i + nn <= nh) && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* Each test leaves the collectors as it found them: off and empty. *)
let scrubbed f () =
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Metrics.set_enabled false;
      Trace.reset ();
      Metrics.reset ();
      Nsobs.Journal.close ();
      Nsobs.Journal.reset ();
      Nsobs.Log.reset_sink ();
      Nsobs.Log.set_level Nsobs.Log.Warn)
    f

(* ------------------------------------------------------------------ *)
(* Metrics registry. *)

let test_counter_basics () =
  Metrics.set_enabled true;
  let c = Metrics.counter "obs_test_total" in
  Metrics.inc c;
  Metrics.add c 4;
  check Alcotest.int "counter value" 5 (Metrics.counter_value c);
  (* Creation is idempotent by name: the second handle is the same
     underlying counter. *)
  let c' = Metrics.counter "obs_test_total" in
  Metrics.inc c';
  check Alcotest.int "shared by name" 6 (Metrics.counter_value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.add: counters only go up") (fun () -> Metrics.add c (-1));
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: obs_test_total already registered as another kind (wanted gauge)")
    (fun () -> ignore (Metrics.gauge "obs_test_total"));
  Alcotest.check_raises "invalid name rejected"
    (Invalid_argument "Metrics: invalid metric name \"9bad name\"") (fun () ->
      ignore (Metrics.counter "9bad name"))

let test_histogram_buckets () =
  Metrics.set_enabled true;
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 5.0 |] "obs_test_hist" in
  (* le semantics: an observation lands in the FIRST bucket whose
     bound is >= the value; past the last bound it lands in +Inf. *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 10.0 ];
  check Alcotest.(array int) "per-bucket counts" [| 2; 2; 1; 1 |]
    (Metrics.histogram_counts h);
  check Alcotest.int "count" 6 (Metrics.histogram_count h);
  check (Alcotest.float 1e-9) "sum" 18.0 (Metrics.histogram_sum h);
  Alcotest.check_raises "buckets must ascend"
    (Invalid_argument "Metrics.histogram: bucket bounds must be strictly ascending")
    (fun () -> ignore (Metrics.histogram ~buckets:[| 2.0; 1.0 |] "obs_test_bad"))

let test_disabled_is_inert () =
  (* With the registry off, handles exist but updates are dropped —
     the contract instrumented code relies on. *)
  Metrics.set_enabled false;
  let c = Metrics.counter "obs_test_off_total" in
  let h = Metrics.histogram ~buckets:[| 1.0 |] "obs_test_off_hist" in
  Metrics.inc c;
  Metrics.add c 7;
  Metrics.observe h 0.5;
  check Alcotest.int "counter stayed zero" 0 (Metrics.counter_value c);
  check Alcotest.int "histogram stayed empty" 0 (Metrics.histogram_count h)

let test_prometheus_exposition () =
  Metrics.set_enabled true;
  let c = Metrics.counter ~help:"a test counter" "obs_exp_total" in
  Metrics.add c 3;
  let g = Metrics.gauge "obs_exp_gauge" in
  Metrics.set g 2.5;
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] "obs_exp_hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 100.0 ];
  let text = Metrics.to_prometheus () in
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub text i nn = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun line -> check Alcotest.bool line true (has line))
    [
      "# TYPE obs_exp_total counter";
      "obs_exp_total 3";
      "# HELP obs_exp_total a test counter";
      "obs_exp_gauge 2.5";
      "# TYPE obs_exp_hist histogram";
      (* Cumulative buckets: 1 at le=1, 2 at le=10, 3 at +Inf. *)
      "obs_exp_hist_bucket{le=\"1\"} 1";
      "obs_exp_hist_bucket{le=\"10\"} 2";
      "obs_exp_hist_bucket{le=\"+Inf\"} 3";
      "obs_exp_hist_sum 105.5";
      "obs_exp_hist_count 3";
    ];
  (* The summary table carries one row per metric. *)
  check Alcotest.int "summary rows" 3 (Nsutil.Table.row_count (Metrics.summary ()))

(* Byte-for-byte against the committed golden: a fixed registry
   (counter with help, bare gauge, histogram with an overflow
   observation) must serialize with label-free names, cumulative [le]
   counts, the [+Inf] bucket and [_sum]/[_count] rows, sorted by
   name. Any drift in the exposition writer shows up as a diff
   against test/golden_metrics.expected. *)
let test_prometheus_golden () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let c = Metrics.counter ~help:"a golden counter" "obs_golden_requests_total" in
  Metrics.add c 3;
  let g = Metrics.gauge "obs_golden_temperature" in
  Metrics.set g 2.5;
  let h =
    Metrics.histogram ~help:"a golden histogram" ~buckets:[| 1.0; 5.0; 10.0 |]
      "obs_golden_latency_ms"
  in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 100.0 ];
  let golden =
    (* The dune sandbox copies the golden next to the test binary; a
       bare `./test_obs.exe` from the repo root finds it in test/. *)
    if Sys.file_exists "golden_metrics.expected" then "golden_metrics.expected"
    else "test/golden_metrics.expected"
  in
  let expected = In_channel.with_open_text golden In_channel.input_all in
  check Alcotest.string "exposition matches golden" expected (Metrics.to_prometheus ())

let test_quantile () =
  Metrics.set_enabled true;
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 5.0 |] "obs_test_quant" in
  check Alcotest.(option (float 0.0)) "empty histogram" None (Metrics.quantile h 0.5);
  for _ = 1 to 10 do Metrics.observe h 0.5 done;
  for _ = 1 to 10 do Metrics.observe h 1.5 done;
  (* Rank 10 of 20 exhausts the first bucket exactly: p50 = its bound. *)
  check Alcotest.(option (float 1e-9)) "p50 at bucket seam" (Some 1.0)
    (Metrics.quantile h 0.5);
  check Alcotest.(option (float 1e-9)) "p100 = last occupied bound" (Some 2.0)
    (Metrics.quantile h 1.0);
  (* Rank 5, halfway through the 10 observations of bucket (0,1]. *)
  check Alcotest.(option (float 1e-9)) "p25 interpolates inside a bucket" (Some 0.5)
    (Metrics.quantile h 0.25);
  Metrics.observe h 100.0;
  (* A rank in the overflow bucket clamps to the largest finite bound. *)
  check Alcotest.(option (float 1e-9)) "overflow clamps" (Some 5.0)
    (Metrics.quantile h 1.0);
  Alcotest.check_raises "quantile outside 0..1"
    (Invalid_argument "Metrics.quantile") (fun () ->
      ignore (Metrics.quantile h 1.5))

(* ------------------------------------------------------------------ *)
(* Span tracing. *)

let test_span_disabled_passthrough () =
  Trace.set_enabled false;
  let r = Trace.span "untraced" (fun () -> 41 + 1) in
  check Alcotest.int "result" 42 r;
  check Alcotest.int "no events recorded" 0 (Trace.event_count ())

let test_span_nesting_across_domains () =
  Trace.set_enabled true;
  (* Four domains, each recording outer > middle > inner nested spans:
     the merged view must keep every domain's spans properly nested
     and globally ordered by start time. *)
  let work tag () =
    Trace.span ~cat:"test" ("outer." ^ tag) (fun () ->
        Trace.span ~cat:"test" ("middle." ^ tag) (fun () ->
            Trace.span ~cat:"test" ("inner." ^ tag) (fun () -> Sys.opaque_identity 0)))
  in
  let domains = List.init 3 (fun i -> Domain.spawn (work (string_of_int (i + 1)))) in
  ignore (work "0" ());
  List.iter (fun d -> ignore (Domain.join d)) domains;
  let events = Trace.events () in
  check Alcotest.int "3 spans x 4 domains" 12 (List.length events);
  (* Sorted by start time, parents before children on ties. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Trace.ts_us <= b.Trace.ts_us && sorted rest
    | _ -> true
  in
  check Alcotest.bool "events sorted by start" true (sorted events);
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Trace.tid) events)
  in
  check Alcotest.int "4 distinct recording domains" 4 (List.length tids);
  let find name = List.find (fun e -> e.Trace.name = name) events in
  let contains outer inner =
    outer.Trace.ts_us <= inner.Trace.ts_us
    && outer.ts_us +. outer.dur_us >= inner.ts_us +. inner.dur_us
    && outer.tid = inner.tid
  in
  List.iter
    (fun tag ->
      let o = find ("outer." ^ tag)
      and m = find ("middle." ^ tag)
      and i = find ("inner." ^ tag) in
      check Alcotest.bool ("outer contains middle " ^ tag) true (contains o m);
      check Alcotest.bool ("middle contains inner " ^ tag) true (contains m i))
    [ "0"; "1"; "2"; "3" ]

let test_span_records_on_raise () =
  Trace.set_enabled true;
  (match Trace.span "raising" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  check Alcotest.int "span recorded despite raise" 1 (Trace.event_count ())

let test_trace_json_well_formed () =
  Trace.set_enabled true;
  Trace.span ~cat:"test" ~args:[ ("k", "v\"with\\escapes") ] "json.span" (fun () -> ());
  Trace.span ~cat:"test" "json.other" (fun () -> ());
  let json = Jsonv.parse_exn (Trace.to_json ()) in
  let events = Option.get (Option.bind (Jsonv.member "traceEvents" json) Jsonv.to_list) in
  check Alcotest.int "two events" 2 (List.length events);
  List.iter
    (fun ev ->
      check Alcotest.(option string) "complete event" (Some "X")
        (Option.bind (Jsonv.member "ph" ev) Jsonv.to_string);
      List.iter
        (fun field ->
          check Alcotest.bool (field ^ " is numeric") true
            (Option.is_some (Option.bind (Jsonv.member field ev) Jsonv.to_float)))
        [ "ts"; "dur"; "pid"; "tid" ])
    events;
  let named = List.find (fun ev ->
      Option.bind (Jsonv.member "name" ev) Jsonv.to_string = Some "json.span") events in
  let args = Option.get (Jsonv.member "args" named) in
  check Alcotest.(option string) "args round-trip" (Some "v\"with\\escapes")
    (Option.bind (Jsonv.member "k" args) Jsonv.to_string)

(* ------------------------------------------------------------------ *)
(* RSS sampling. *)

let test_rss_parse () =
  let text = "Name:\tsim\nVmHWM:\t  12345 kB\nVmRSS:\t   6789 kB\n" in
  check Alcotest.(option int) "VmHWM" (Some 12345)
    (Nsobs.Rss.parse_status_kb ~key:"VmHWM" text);
  check Alcotest.(option int) "VmRSS" (Some 6789)
    (Nsobs.Rss.parse_status_kb ~key:"VmRSS" text);
  check Alcotest.(option int) "missing key" None
    (Nsobs.Rss.parse_status_kb ~key:"VmPeak" text)

let test_rss_publish () =
  Metrics.set_enabled true;
  Nsobs.Rss.publish ();
  (* On Linux both gauges are live; elsewhere they exist and hold 0. *)
  match Metrics.value "process_peak_rss_kb" with
  | None -> Alcotest.fail "process_peak_rss_kb not registered"
  | Some v ->
      if Sys.file_exists "/proc/self/status" then
        check Alcotest.bool "peak RSS positive" true (v > 0.0)

let test_rss_fallback () =
  (* Hosts without procfs: the probe answers [None], no exception. *)
  check
    Alcotest.(option int)
    "missing status file reads as None" None
    (Nsobs.Rss.status_kb_of_file ~path:"/nonexistent/sbgp-no-such-status"
       ~key:"VmHWM")

(* ------------------------------------------------------------------ *)
(* Leveled logging. *)

let test_log_levels () =
  let buf = Buffer.create 64 in
  Nsobs.Log.set_sink (fun _level msg -> Buffer.add_string buf (msg ^ "\n"));
  Nsobs.Log.set_level Nsobs.Log.Warn;
  Nsobs.Log.debug "dropped %d" 1;
  Nsobs.Log.info "dropped too";
  Nsobs.Log.warn "kept %s" "warn";
  Nsobs.Log.err "kept err";
  check Alcotest.string "warn level output" "kept warn\nkept err\n" (Buffer.contents buf);
  Buffer.clear buf;
  (* SBGP_LOG_LEVEL=quiet maps to errors only. *)
  check Alcotest.bool "quiet parses" true
    (Nsobs.Log.level_of_string "quiet" = Some Nsobs.Log.Error);
  Nsobs.Log.set_level Nsobs.Log.Error;
  Nsobs.Log.warn "silenced";
  Nsobs.Log.err "alarm";
  check Alcotest.string "quiet keeps errors" "alarm\n" (Buffer.contents buf)

let test_warning_hook_routes_to_log () =
  let buf = Buffer.create 64 in
  Nsobs.Log.set_sink (fun _ msg -> Buffer.add_string buf msg);
  Nsobs.Log.set_level Nsobs.Log.Warn;
  Nsobs.Log.install_warning_hook ();
  Nsutil.Warnings.emit "util-layer warning";
  check Alcotest.string "routed" "util-layer warning" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Jsonv. *)

let test_jsonv () =
  let ok s = match Jsonv.parse s with Ok v -> v | Error e -> Alcotest.fail e in
  (match ok {|{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}|} with
  | Jsonv.Obj fields ->
      check Alcotest.int "fields" 4 (List.length fields);
      check Alcotest.(option (float 0.0)) "number" (Some 2.5)
        (Option.bind (List.assoc "a" fields |> Jsonv.to_list) (fun l ->
             Jsonv.to_float (List.nth l 1)))
  | _ -> Alcotest.fail "expected object");
  List.iter
    (fun bad ->
      match Jsonv.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "[1] trailing"; "\"unterminated"; "nul" ]

let test_jsonv_escape () =
  (* The shared emitter-side escape must round-trip every byte string
     through this parser: quotes, backslashes, whitespace escapes and
     raw control bytes (emitted as \u00XX). *)
  List.iter
    (fun s ->
      match Jsonv.parse_exn ("\"" ^ Jsonv.escape s ^ "\"") with
      | Jsonv.Str s' -> check Alcotest.string (Printf.sprintf "round-trip %S" s) s s'
      | _ -> Alcotest.fail "expected a string")
    [
      "";
      "plain text";
      "quote\" and backslash\\";
      "newline\n tab\t cr\r";
      "ctrl\x01\x1f bytes\x00";
      "trailing\\";
    ]

(* ------------------------------------------------------------------ *)
(* The run journal. *)

let test_journal_encode () =
  let line =
    Nsobs.Journal.encode_line ~ts:12.5 "unit_test"
      [
        ("s", Nsobs.Journal.Str "a\"b\\c\nd");
        ("i", Nsobs.Journal.Int 42);
        ("f", Nsobs.Journal.Float 2.5);
        ("b", Nsobs.Journal.Bool true);
        ("bad", Nsobs.Journal.Float Float.nan);
      ]
  in
  let j = Jsonv.parse_exn line in
  let mem k = Jsonv.member k j in
  check Alcotest.(option (float 0.0)) "ts" (Some 12.5)
    (Option.bind (mem "ts") Jsonv.to_float);
  check Alcotest.(option string) "ev" (Some "unit_test")
    (Option.bind (mem "ev") Jsonv.to_string);
  check Alcotest.(option string) "string field escapes" (Some "a\"b\\c\nd")
    (Option.bind (mem "s") Jsonv.to_string);
  check Alcotest.(option (float 0.0)) "int field" (Some 42.0)
    (Option.bind (mem "i") Jsonv.to_float);
  check Alcotest.(option (float 0.0)) "float field" (Some 2.5)
    (Option.bind (mem "f") Jsonv.to_float);
  check Alcotest.bool "bool field" true (mem "b" = Some (Jsonv.Bool true));
  (* Non-finite floats must not produce unparseable JSON. *)
  check Alcotest.bool "nan encodes as null" true (mem "bad" = Some Jsonv.Null)

let test_journal_cycle () =
  let path = Filename.temp_file "sbgp_test_journal" ".jsonl" in
  (match Nsobs.Journal.open_path path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "enabled after open" true (Nsobs.Journal.enabled ());
  (* Same-path reopen is a no-op; a second destination is refused. *)
  (match Nsobs.Journal.open_path path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Nsobs.Journal.open_path "/tmp/sbgp-other-journal.jsonl" with
  | Ok () -> Alcotest.fail "second journal path accepted"
  | Error _ -> ());
  Nsobs.Journal.event "alpha" [ ("k", Nsobs.Journal.Int 1) ];
  (* Another domain records through its own buffer. *)
  Domain.join
    (Domain.spawn (fun () ->
         Nsobs.Journal.event "beta" [ ("k", Nsobs.Journal.Int 2) ]));
  check Alcotest.int "events recorded" 2 (Nsobs.Journal.events_recorded ());
  Nsobs.Journal.flush ();
  Nsobs.Journal.close ();
  check Alcotest.bool "disabled after close" false (Nsobs.Journal.enabled ());
  Nsobs.Journal.close ();
  (* Closed journal drops events silently. *)
  Nsobs.Journal.event "gamma" [];
  let content = In_channel.with_open_text path In_channel.input_all in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' content) in
  check Alcotest.int "two lines on disk" 2 (List.length lines);
  List.iter
    (fun l ->
      match Jsonv.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "unparseable line %S: %s" l e))
    lines;
  check Alcotest.bool "both events flushed" true
    (contains content "\"ev\":\"alpha\"" && contains content "\"ev\":\"beta\"");
  Sys.remove path

let test_journal_truncated_tail () =
  (* A journal as a killed run leaves it: complete lines, one damaged
     interior line, and an append cut mid-event. The scanner must keep
     every parseable event, count the interior damage, and flag the
     tail rather than fail. *)
  let path = Filename.temp_file "sbgp_test_journal" ".jsonl" in
  let oc = open_out path in
  output_string oc
    (Nsobs.Journal.encode_line ~ts:1.0 "run_start" [ ("n", Nsobs.Journal.Int 10) ] ^ "\n");
  output_string oc
    (Nsobs.Journal.encode_line ~ts:2.0 "round_end"
       [ ("round", Nsobs.Journal.Int 0); ("wall_ms", Nsobs.Journal.Float 1.5) ]
    ^ "\n");
  output_string oc "### not json ###\n";
  output_string oc
    (Nsobs.Journal.encode_line ~ts:3.0 "round_end"
       [ ("round", Nsobs.Journal.Int 1); ("wall_ms", Nsobs.Journal.Float 1.0) ]
    ^ "\n");
  output_string oc "{\"ts\":4.0,\"ev\":\"round_e";
  close_out oc;
  (match Nsobs.Report.scan path with
  | Error e -> Alcotest.fail e
  | Ok st ->
      check Alcotest.int "parsed events" 3 st.Nsobs.Report.events;
      check Alcotest.int "interior damage counted" 1 st.bad_lines;
      check Alcotest.bool "tail flagged" true st.truncated_tail;
      check Alcotest.int "runs" 1 st.runs;
      check Alcotest.int "rounds survive damage" 2 st.rounds;
      check Alcotest.(option int) "per-type totals" (Some 2)
        (List.assoc_opt "round_end" st.ev_counts));
  let report = Nsobs.Report.render ~journal_path:path () in
  check Alcotest.bool "report header" true (contains report "== run health report ==");
  check Alcotest.bool "report flags the kill" true
    (contains report "truncated tail (killed run)");
  check Alcotest.bool "report counts bad lines" true (contains report "1 bad line");
  Sys.remove path

let result_equal (a : Core.Engine.result) (b : Core.Engine.result) =
  check Alcotest.bool "baseline bit-identical" true (a.baseline = b.baseline);
  check Alcotest.int "round count" (List.length a.rounds) (List.length b.rounds);
  List.iter2
    (fun (ra : Core.Engine.round_record) (rb : Core.Engine.round_record) ->
      check Alcotest.bool
        (Printf.sprintf "round %d bit-identical" ra.round)
        true
        (ra.round = rb.round && ra.utilities = rb.utilities
        && ra.projected = rb.projected && ra.turned_on = rb.turned_on
        && ra.turned_off = rb.turned_off && ra.secure_as = rb.secure_as
        && ra.secure_isp = rb.secure_isp && ra.secure_stub = rb.secure_stub))
    a.rounds b.rounds;
  check Alcotest.bool "termination" true (a.termination = b.termination);
  check Alcotest.bool "final state" true (Core.State.equal_full a.final b.final);
  check Alcotest.int "dest_recomputed" a.dest_recomputed b.dest_recomputed;
  check Alcotest.int "dest_reused" a.dest_reused b.dest_reused

(* The same synthetic scenario as test_engine_parity, at both worker
   counts the tier-1 suite pins. *)
let engine_run ~workers () =
  let params = { (Topology.Params.with_n Topology.Params.default 120) with seed = 11 } in
  let built = Topology.Gen.generate params in
  let g = built.graph in
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let early = built.cps @ Asgraph.Metrics.top_by_degree g 5 in
  let statics = Bgp.Route_static.create g in
  let state = Core.State.create g ~early in
  Core.Engine.run { Core.Config.default with workers } statics ~weight ~state

(* The phase table names every span the engine, the pool and the
   checkpoint code emit. A traced N = 120 run that checkpoints every
   round, then a resume from its last frame, must record only table
   spans, and each round must hold exactly one [engine.begin_round]. *)
let test_spans_in_phase_table () =
  let module Phase = Nsobs.Phase in
  let params = { (Topology.Params.with_n Topology.Params.default 120) with seed = 11 } in
  let built = Topology.Gen.generate params in
  let g = built.graph in
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let early = built.cps @ Asgraph.Metrics.top_by_degree g 5 in
  let cfg = { Core.Config.default with workers = 2 } in
  let path = Filename.temp_file "sbgp_test_phases" ".snap" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Trace.set_enabled true;
      let fresh () = (Bgp.Route_static.create g, Core.State.create g ~early) in
      let statics, state = fresh () in
      let r =
        Core.Engine.run ~checkpoint:{ Core.Engine.path; every = 1 } cfg statics ~weight
          ~state
      in
      check Alcotest.bool "the run checkpointed" true (List.length r.rounds > 1);
      let statics, state = fresh () in
      ignore (Core.Engine.resume ~from:path cfg statics ~weight ~state);
      Trace.set_enabled false;
      let events = Trace.events () in
      let table = List.map (fun (p : Phase.t) -> p.span) Phase.all in
      List.iter
        (fun (e : Trace.event) ->
          check Alcotest.bool (Printf.sprintf "span %S is in the table" e.name) true
            (List.mem e.name table))
        events;
      List.iter
        (fun (p : Phase.t) ->
          check Alcotest.bool (Printf.sprintf "span %S recorded" p.span) true
            (List.exists (fun (e : Trace.event) -> e.name = p.span) events))
        Phase.
          [
            engine_run; engine_round; begin_round; probe; sweep; reduce; decide;
            statics_prefill; baseline; checkpoint_write; checkpoint_load; pool_slice;
          ];
      let named (p : Phase.t) = List.filter (fun (e : Trace.event) -> e.name = p.span) events in
      let rounds = named Phase.engine_round and begins = named Phase.begin_round in
      check Alcotest.int "one begin_round per round" (List.length rounds)
        (List.length begins);
      List.iter
        (fun (rd : Trace.event) ->
          let inside =
            List.filter
              (fun (b : Trace.event) ->
                b.tid = rd.tid && b.ts_us >= rd.ts_us
                && b.ts_us +. b.dur_us <= rd.ts_us +. rd.dur_us)
              begins
          in
          check Alcotest.int "begin_round nested in its round" 1 (List.length inside))
        rounds)

(* Both worker counts in ONE test case: the engine's metric handles
   are process-lifetime (forced lazily on first use), so the registry
   must not be reset between the two instrumented runs. *)
let test_engine_parity_instrumented () =
  List.iter
    (fun workers ->
      Trace.set_enabled false;
      Metrics.set_enabled false;
      let plain = engine_run ~workers () in
      let rounds0 =
        Option.value ~default:0.0 (Metrics.value "engine_rounds_total")
      in
      Trace.set_enabled true;
      Metrics.set_enabled true;
      let traced = engine_run ~workers () in
      Trace.set_enabled false;
      Metrics.set_enabled false;
      result_equal plain traced;
      (* And the telemetry side actually observed the run. *)
      check Alcotest.bool "spans recorded" true (Trace.event_count () > 0);
      let rounds1 =
        Option.value ~default:0.0 (Metrics.value "engine_rounds_total")
      in
      check (Alcotest.float 0.0)
        (Printf.sprintf "rounds counted (workers %d)" workers)
        (float_of_int (List.length traced.rounds))
        (rounds1 -. rounds0))
    [ 1; 4 ]

(* The acceptance-criterion differential: the FULL pipeline — metrics
   with phase histograms, tracing, journal, live scrape endpoint —
   enabled at once must leave an engine run bit-identical to a bare
   one, and the journal left behind must be schema-clean. *)
let test_engine_parity_full_pipeline () =
  Trace.set_enabled false;
  Metrics.set_enabled false;
  let plain = engine_run ~workers:1 () in
  let jpath = Filename.temp_file "sbgp_test_journal" ".jsonl" in
  (match Nsobs.Journal.open_path jpath with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Metrics.set_enabled true;
  Trace.set_enabled true;
  let server =
    match Nsobs.Serve.start ~port:0 () with
    | Ok s -> Some s
    | Error _ -> None (* no loopback in this sandbox; the rest still runs *)
  in
  let piped = engine_run ~workers:1 () in
  Option.iter Nsobs.Serve.stop server;
  Metrics.set_enabled false;
  Trace.set_enabled false;
  Nsobs.Journal.close ();
  result_equal plain piped;
  (match Nsobs.Report.scan jpath with
  | Error e -> Alcotest.fail e
  | Ok st ->
      check Alcotest.bool "journal observed the run" true (st.Nsobs.Report.events > 0);
      check Alcotest.int "no damaged lines" 0 st.bad_lines;
      check Alcotest.bool "clean tail" false st.truncated_tail;
      check Alcotest.int "one run_start" 1 st.runs;
      check Alcotest.int "every round journaled" (List.length piped.rounds) st.rounds);
  Sys.remove jpath

(* ------------------------------------------------------------------ *)
(* The scrape endpoint. Placed after the differential group: these
   tests run the engine with metrics enabled, which forces the
   engine's process-lifetime metric handles — the parity tests above
   must see those handles un-forced or freshly forced, never orphaned
   by a registry reset in between. *)

let http_request ~port req =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string req in
      ignore (Unix.write fd b 0 (Bytes.length b));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let http_get ~port path =
  http_request ~port
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
       path)

let status_of resp =
  match String.split_on_char ' ' resp with
  | _ :: code :: _ -> ( try int_of_string (String.sub code 0 3) with _ -> 0)
  | _ -> 0

let body_of resp =
  let n = String.length resp in
  let rec find i =
    if i + 3 >= n then n
    else if
      resp.[i] = '\r' && resp.[i + 1] = '\n' && resp.[i + 2] = '\r'
      && resp.[i + 3] = '\n'
    then i + 4
    else find (i + 1)
  in
  let b = find 0 in
  String.sub resp b (n - b)

let test_serve_routes () =
  Metrics.set_enabled true;
  let c = Metrics.counter ~help:"served" "obs_serve_test_total" in
  Metrics.add c 7;
  match Nsobs.Serve.start ~port:0 () with
  | Error e -> Alcotest.fail e
  | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Nsobs.Serve.stop srv)
        (fun () ->
          let port = Nsobs.Serve.port srv in
          check Alcotest.bool "ephemeral port assigned" true (port > 0);
          let m = http_get ~port "/metrics" in
          check Alcotest.int "metrics 200" 200 (status_of m);
          check Alcotest.bool "exposition body served" true
            (contains m "obs_serve_test_total 7");
          let hz = http_get ~port "/healthz" in
          check Alcotest.int "healthz 200" 200 (status_of hz);
          (match Jsonv.parse (body_of hz) with
          | Ok (Jsonv.Obj fields) ->
              check Alcotest.(option string) "status ok" (Some "ok")
                (Option.bind (List.assoc_opt "status" fields) Jsonv.to_string);
              check Alcotest.bool "uptime present" true
                (List.mem_assoc "uptime_s" fields);
              check Alcotest.bool "resilience present" true
                (List.mem_assoc "resilience" fields)
          | Ok _ -> Alcotest.fail "healthz: expected a JSON object"
          | Error e -> Alcotest.fail ("healthz: " ^ e));
          check Alcotest.int "unknown path is 404" 404
            (status_of (http_get ~port "/nope"));
          check Alcotest.int "non-GET is 405" 405
            (status_of
               (http_request ~port "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")));
      (* stop is idempotent. *)
      Nsobs.Serve.stop srv

(* The mid-run acceptance property: the endpoint answers WHILE the
   engine computes in-process. The engine loops in a systhread
   (sharing the domain's runtime lock with the server thread, exactly
   the production arrangement); the worker only stops after the
   scrape has landed, so a 200 here is by construction a mid-run
   answer. *)
let test_serve_mid_run () =
  Metrics.set_enabled true;
  (* Scrapes assert on a counter registered HERE: the engine's own
     handles may be orphaned by earlier registry resets (they are
     process-lifetime lazies), but the mid-run property — the endpoint
     answers while the engine computes — doesn't depend on which
     names the body carries. *)
  let c = Metrics.counter ~help:"mid-run scrape marker" "obs_serve_mid_total" in
  Metrics.inc c;
  match Nsobs.Serve.start ~port:0 () with
  | Error e -> Alcotest.fail e
  | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Nsobs.Serve.stop srv)
        (fun () ->
          let port = Nsobs.Serve.port srv in
          let stop_flag = Atomic.make false in
          let started = Atomic.make false in
          let runs = Atomic.make 0 in
          let worker =
            Thread.create
              (fun () ->
                Atomic.set started true;
                while not (Atomic.get stop_flag) do
                  ignore (engine_run ~workers:1 ());
                  Atomic.incr runs
                done)
              ()
          in
          (* Scrape only once the engine thread is running: a scrape that
             lands before the thread is first scheduled is not mid-run. *)
          while not (Atomic.get started) do
            Thread.yield ()
          done;
          let scraped = ref false and attempts = ref 0 in
          while (not !scraped) && !attempts < 500 do
            incr attempts;
            let resp = http_get ~port "/metrics" in
            if status_of resp = 200 && contains resp "obs_serve_mid_total 1" then
              scraped := true
          done;
          Atomic.set stop_flag true;
          Thread.join worker;
          check Alcotest.bool "scrape answered while the engine computed" true
            !scraped;
          check Alcotest.bool "engine actually ran meanwhile" true
            (Atomic.get runs > 0))

let () =
  let tc name f = Alcotest.test_case name `Quick (scrubbed f) in
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          tc "counter basics" test_counter_basics;
          tc "histogram bucket boundaries" test_histogram_buckets;
          tc "disabled registry is inert" test_disabled_is_inert;
          tc "prometheus exposition" test_prometheus_exposition;
          tc "prometheus exposition golden file" test_prometheus_golden;
          tc "bucket-interpolated quantiles" test_quantile;
        ] );
      ( "trace",
        [
          tc "disabled span is passthrough" test_span_disabled_passthrough;
          tc "nesting and order across 4 domains" test_span_nesting_across_domains;
          tc "span survives raise" test_span_records_on_raise;
          tc "chrome JSON well-formed" test_trace_json_well_formed;
        ] );
      ( "rss",
        [
          tc "proc status parsing" test_rss_parse;
          tc "publish gauges" test_rss_publish;
          tc "portable fallback on missing procfs" test_rss_fallback;
        ] );
      ( "log",
        [
          tc "level filtering" test_log_levels;
          tc "warning hook routes util warnings" test_warning_hook_routes_to_log;
        ] );
      ( "jsonv",
        [
          tc "parse and reject" test_jsonv;
          tc "escape round-trips through the parser" test_jsonv_escape;
        ] );
      ( "journal",
        [
          tc "event line schema" test_journal_encode;
          tc "open, record across domains, flush, close" test_journal_cycle;
          tc "killed-run journal scans cleanly" test_journal_truncated_tail;
        ] );
      ("phase", [ tc "engine spans all in the phase table" test_spans_in_phase_table ]);
      ( "differential",
        [
          tc "engine bit-identical, instrumentation on/off (workers 1 and 4)"
            test_engine_parity_instrumented;
          tc "engine bit-identical under the full telemetry pipeline"
            test_engine_parity_full_pipeline;
        ] );
      (* Last: these force the engine's process-lifetime metric
         handles (see the comment above [http_request]). *)
      ( "serve",
        [
          tc "routes: metrics, healthz, 404, 405" test_serve_routes;
          tc "scrape answered mid-run on an ephemeral port" test_serve_mid_run;
        ] );
    ]
