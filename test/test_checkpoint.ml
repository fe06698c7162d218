(* Tests for checksummed checkpoint/resume (Core.Checkpoint +
   Engine.resume) and the fault-injection harness around them.

   The two differential properties that matter:
   - kill-and-resume: a run killed mid-flight by an injected worker
     fault, then resumed from its last snapshot, yields an
     [Engine.result] STRUCTURALLY IDENTICAL — float for float,
     including the incremental-cache counters — to the uninterrupted
     run;
   - fault-and-retry: a run whose worker faults stay within the retry
     budget is bit-identical to the fault-free run.

   Everything that can go wrong with a snapshot file (corruption,
   truncation, wrong inputs, wrong magic/version, missing file) must
   surface as a typed [Checkpoint.error] — never a crash and never a
   silently wrong resume. *)

module Engine = Core.Engine
module State = Core.State
module Checkpoint = Core.Checkpoint
module Faults = Nsutil.Faults

let check = Alcotest.check
let exact = Alcotest.float 0.0

(* ------------------------------------------------------------------ *)
(* Result equality, bit for bit (mirrors the engine-parity suite). *)

let check_round_equal i (a : Engine.round_record) (b : Engine.round_record) =
  let lbl f = Printf.sprintf "round %d %s" i f in
  check Alcotest.int (lbl "round") a.round b.round;
  check Alcotest.(array exact) (lbl "utilities") a.utilities b.utilities;
  check Alcotest.(array exact) (lbl "projected") a.projected b.projected;
  check Alcotest.(list int) (lbl "turned_on") a.turned_on b.turned_on;
  check Alcotest.(list int) (lbl "turned_off") a.turned_off b.turned_off;
  check Alcotest.int (lbl "secure_as") a.secure_as b.secure_as;
  check Alcotest.int (lbl "secure_isp") a.secure_isp b.secure_isp;
  check Alcotest.int (lbl "secure_stub") a.secure_stub b.secure_stub

let check_result_equal (a : Engine.result) (b : Engine.result) =
  check Alcotest.(array exact) "baseline" a.baseline b.baseline;
  check Alcotest.int "initial_secure_as" a.initial_secure_as b.initial_secure_as;
  check Alcotest.int "initial_secure_isp" a.initial_secure_isp b.initial_secure_isp;
  check Alcotest.int "round count" (List.length a.rounds) (List.length b.rounds);
  List.iteri (fun i (ra, rb) -> check_round_equal i ra rb)
    (List.combine a.rounds b.rounds);
  check Alcotest.bool "termination" true (a.termination = b.termination);
  check Alcotest.bool "final state" true (State.equal_full a.final b.final);
  check Alcotest.int "dest_recomputed" a.dest_recomputed b.dest_recomputed;
  check Alcotest.int "dest_reused" a.dest_reused b.dest_reused

(* Statics-store counters match too — meaningful for the resume
   differentials at workers = 1 (v2 snapshots restore the warm store),
   but NOT for fault-retry runs, where re-executed slices legitimately
   re-touch the store. *)
let check_statics_counters_equal (a : Engine.result) (b : Engine.result) =
  check Alcotest.int "statics_hits" a.statics_hits b.statics_hits;
  check Alcotest.int "statics_misses" a.statics_misses b.statics_misses;
  check Alcotest.int "statics_evictions" a.statics_evictions b.statics_evictions

(* ------------------------------------------------------------------ *)
(* Framing unit tests. *)

let with_temp f =
  let path = Filename.temp_file "sbgp_ckpt" ".snap" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let digest_a = Scrypto.Sha256.digest_string "inputs A"
let digest_b = Scrypto.Sha256.digest_string "inputs B"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_error name expected = function
  | Ok _ -> Alcotest.fail (name ^ ": expected a typed error")
  | Error e ->
      check Alcotest.bool
        (Printf.sprintf "%s: got %s" name (Checkpoint.error_to_string e))
        true (expected e)

let test_frame_roundtrip () =
  with_temp (fun path ->
      let payload = "the quick brown payload \x00\x01\x02" in
      Checkpoint.write ~path ~digest:digest_a ~round:42 payload;
      (match Checkpoint.load ~path ~digest:digest_a with
      | Ok f ->
          check Alcotest.int "round" 42 f.Checkpoint.round;
          check Alcotest.string "payload" payload f.Checkpoint.payload;
          check Alcotest.bool "kind" true (f.Checkpoint.kind = Checkpoint.Engine)
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
      (* Overwrite with a later snapshot: load sees only the newest. *)
      Checkpoint.write ~path ~digest:digest_a ~round:43 "later";
      (match Checkpoint.load_exn ~path ~digest:digest_a with
      | { Checkpoint.round = 43; payload = "later"; _ } -> ()
      | f -> Alcotest.failf "unexpected (%d, %S)" f.Checkpoint.round f.Checkpoint.payload);
      check Alcotest.bool "no tmp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let test_load_missing_file () =
  expect_error "missing file"
    (function Checkpoint.Io _ -> true | _ -> false)
    (Checkpoint.load ~path:"/nonexistent/sbgp.snap" ~digest:digest_a)

let test_load_bad_magic () =
  with_temp (fun path ->
      Checkpoint.write ~path ~digest:digest_a ~round:1 "payload";
      let bytes = Bytes.of_string (read_file path) in
      Bytes.set bytes 0 'X';
      write_file path (Bytes.to_string bytes);
      expect_error "bad magic"
        (function Checkpoint.Bad_magic -> true | _ -> false)
        (Checkpoint.load ~path ~digest:digest_a);
      (* And a file that is not a checkpoint at all. *)
      write_file path "!n 120\n0|1|-1\n";
      expect_error "not a checkpoint"
        (function Checkpoint.Bad_magic -> true | _ -> false)
        (Checkpoint.load ~path ~digest:digest_a))

let test_load_unsupported_version () =
  with_temp (fun path ->
      Checkpoint.write ~path ~digest:digest_a ~round:1 "payload";
      let bytes = Bytes.of_string (read_file path) in
      (* Version is a big-endian u16 right after the 8-byte magic. *)
      Bytes.set bytes 8 '\xff';
      Bytes.set bytes 9 '\xff';
      write_file path (Bytes.to_string bytes);
      expect_error "future version"
        (function Checkpoint.Unsupported_version 65535 -> true | _ -> false)
        (Checkpoint.load ~path ~digest:digest_a))

let test_load_truncated () =
  with_temp (fun path ->
      Checkpoint.write ~path ~digest:digest_a ~round:1 (String.make 256 'p');
      let full = read_file path in
      List.iter
        (fun keep ->
          write_file path (String.sub full 0 keep);
          expect_error
            (Printf.sprintf "truncated to %d bytes" keep)
            (function Checkpoint.Truncated -> true | _ -> false)
            (Checkpoint.load ~path ~digest:digest_a))
        [ String.length full - 1; String.length full - 40; 60 ])

let test_load_corrupt () =
  with_temp (fun path ->
      Checkpoint.write ~path ~digest:digest_a ~round:7 (String.make 128 'q');
      let full = read_file path in
      (* Flip one bit in the payload region, and separately in the
         footer itself: both must fail closed. *)
      List.iter
        (fun pos ->
          let bytes = Bytes.of_string full in
          Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
          write_file path (Bytes.to_string bytes);
          expect_error
            (Printf.sprintf "bit flip at %d" pos)
            (function Checkpoint.Corrupt -> true | _ -> false)
            (Checkpoint.load ~path ~digest:digest_a))
        [ 60; String.length full - 5 ])

let test_load_config_mismatch () =
  with_temp (fun path ->
      Checkpoint.write ~path ~digest:digest_a ~round:3 "payload";
      expect_error "different inputs"
        (function
          | Checkpoint.Config_mismatch { expected; found } ->
              expected <> found && String.length expected = 64
          | _ -> false)
        (Checkpoint.load ~path ~digest:digest_b))

let test_injected_corruption_detected () =
  (* The harness's own corruption site: a plan firing at
     checkpoint.corrupt damages the file after checksumming, and load
     must reject it as Corrupt. *)
  with_temp (fun path ->
      let faults = Faults.create ~rate:1.0 ~budget:1 ~seed:3 "checkpoint.corrupt" in
      Checkpoint.write ~faults ~path ~digest:digest_a ~round:1 (String.make 64 'z');
      check Alcotest.int "corruption fired" 1 (Faults.fired faults);
      expect_error "deliberately corrupted"
        (function Checkpoint.Corrupt -> true | _ -> false)
        (Checkpoint.load ~path ~digest:digest_a);
      (* Budget spent: the next write is clean and loads fine. *)
      Checkpoint.write ~faults ~path ~digest:digest_a ~round:2 "clean";
      match Checkpoint.load_exn ~path ~digest:digest_a with
      | { Checkpoint.round = 2; payload = "clean"; _ } -> ()
      | f -> Alcotest.failf "unexpected (%d, %S)" f.Checkpoint.round f.Checkpoint.payload)

let test_churn_kind_roundtrip () =
  with_temp (fun path ->
      Checkpoint.write ~kind:Checkpoint.Churn ~path ~digest:digest_a ~round:5 "epochs";
      match Checkpoint.load_exn ~path ~digest:digest_a with
      | { Checkpoint.kind = Checkpoint.Churn; round = 5; payload = "epochs" } -> ()
      | f ->
          Alcotest.failf "unexpected %s frame (%d, %S)"
            (Checkpoint.kind_to_string f.Checkpoint.kind)
            f.Checkpoint.round f.Checkpoint.payload)

(* Frames of the retired versions, byte for byte as older code wrote
   them: version 1 has no kind field between version and digest,
   versions 2 and 3 have version 4's header. All are well-formed, so
   only the version check can reject them. *)
let old_frame ~version ~digest ~round payload =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SBGPCKP1";
  Buffer.add_uint16_be buf version;
  if version >= 2 then Buffer.add_uint16_be buf 0;
  Buffer.add_string buf digest;
  Buffer.add_int32_be buf (Int32.of_int round);
  Buffer.add_int64_be buf (Int64.of_int (String.length payload));
  Buffer.add_string buf payload;
  let body = Buffer.contents buf in
  body ^ Scrypto.Sha256.digest_string body

let test_old_frames_rejected () =
  with_temp (fun path ->
      (* The same builder at version 4 writes a frame that loads. *)
      write_file path (old_frame ~version:4 ~digest:digest_a ~round:9 "payload");
      (match Checkpoint.load ~path ~digest:digest_a with
      | Ok { Checkpoint.round = 9; kind = Checkpoint.Engine; payload = "payload" } -> ()
      | Ok _ -> Alcotest.fail "v4 frame decoded wrongly"
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
      List.iter
        (fun version ->
          write_file path (old_frame ~version ~digest:digest_a ~round:9 "old payload");
          expect_error
            (Printf.sprintf "v%d frame" version)
            (function Checkpoint.Unsupported_version v -> v = version | _ -> false)
            (Checkpoint.load ~path ~digest:digest_a))
        [ 1; 2; 3 ])

let test_unknown_kind_rejected () =
  with_temp (fun path ->
      Checkpoint.write ~path ~digest:digest_a ~round:1 "payload";
      let bytes = Bytes.of_string (read_file path) in
      (* Kind is a big-endian u16 right after the version. *)
      Bytes.set bytes 10 '\x00';
      Bytes.set bytes 11 '\x07';
      write_file path (Bytes.to_string bytes);
      expect_error "unknown record kind"
        (function Checkpoint.Unsupported_kind 7 -> true | _ -> false)
        (Checkpoint.load ~path ~digest:digest_a))

let test_injected_io_failure () =
  (* Site checkpoint.io: the write raises a typed Io error before
     touching the filesystem, so the previous snapshot survives. *)
  with_temp (fun path ->
      Checkpoint.write ~path ~digest:digest_a ~round:1 "survivor";
      let faults =
        Faults.create ~rate:1.0 ~budget:1 ~seed:3 "checkpoint.io"
      in
      (match Checkpoint.write ~faults ~path ~digest:digest_a ~round:2 "doomed" with
      | _ -> Alcotest.fail "expected the injected I/O fault to raise"
      | exception Checkpoint.Error (Checkpoint.Io _) -> ());
      check Alcotest.int "io fault fired" 1 (Faults.fired faults);
      match Checkpoint.load_exn ~path ~digest:digest_a with
      | { Checkpoint.round = 1; payload = "survivor"; _ } -> ()
      | f -> Alcotest.failf "unexpected (%d, %S)" f.Checkpoint.round f.Checkpoint.payload)

(* ------------------------------------------------------------------ *)
(* Engine-level differentials. *)

let n = 120

let build_inputs ?(theta = 0.05) ?(retries = 0) () =
  let params = { (Topology.Params.with_n Topology.Params.default n) with seed = 11 } in
  let built = Topology.Gen.generate params in
  let g = built.graph in
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let early = built.cps @ Asgraph.Metrics.top_by_degree g 5 in
  let cfg = { Core.Config.default with workers = 1; retries; theta; theta_off = theta } in
  let statics = Bgp.Route_static.create g in
  let state = State.create g ~early in
  (cfg, statics, weight, state)

let clean_run () =
  let cfg, statics, weight, state = build_inputs () in
  Engine.run cfg statics ~weight ~state

let test_kill_and_resume_identical () =
  let reference = clean_run () in
  let rounds = Engine.rounds_run reference in
  check Alcotest.bool "multi-round scenario" true (rounds >= 2);
  (* Kill mid-round k+1 (for an early and the latest possible k): with
     workers = 1 the shot counter is sequential — n baseline shots,
     then n per round — so [after] lands the injection halfway through
     round k+1, after the round-k snapshot was written. *)
  List.iter
    (fun k ->
      with_temp (fun path ->
          let cfg, statics, weight, state = build_inputs () in
          let faults =
            Faults.create ~rate:1.0 ~budget:1 ~after:((n * (1 + k)) + (n / 2)) ~seed:1 "pool.task"
          in
          (match
             Engine.run
               ~checkpoint:{ Engine.path; every = 1 }
               ~faults cfg statics ~weight ~state
           with
          | _ -> Alcotest.fail "expected the injected fault to kill the run"
          | exception Parallel.Pool.Supervision_failed _ -> ());
          check Alcotest.int "exactly one injection" 1 (Faults.fired faults);
          check Alcotest.bool "a snapshot survives the crash" true (Sys.file_exists path);
          let cfg, statics, weight, state = build_inputs () in
          let resumed = Engine.resume ~from:path cfg statics ~weight ~state in
          check_result_equal reference resumed;
          check_statics_counters_equal reference resumed))
    (List.sort_uniq compare [ 1; rounds - 1 ])

let test_resume_from_completed_run_tail () =
  (* A run that completed while checkpointing leaves its last
     pre-termination snapshot behind; resuming from it replays the
     tail and lands on the identical result. *)
  let reference = clean_run () in
  with_temp (fun path ->
      let cfg, statics, weight, state = build_inputs () in
      let first =
        Engine.run ~checkpoint:{ Engine.path; every = 1 } cfg statics ~weight ~state
      in
      check_result_equal reference first;
      let cfg, statics, weight, state = build_inputs () in
      let resumed = Engine.resume ~from:path cfg statics ~weight ~state in
      check_result_equal reference resumed;
      check_statics_counters_equal reference resumed)

let test_faulted_retried_run_identical () =
  let reference = clean_run () in
  let cfg, statics, weight, state = build_inputs ~retries:2 () in
  let faults = Faults.create ~rate:0.01 ~budget:2 ~seed:13 "pool.task" in
  let faulted = Engine.run ~faults cfg statics ~weight ~state in
  check Alcotest.bool "faults actually fired" true (Faults.fired faults > 0);
  check_result_equal reference faulted

let test_resume_rejects_corrupt_snapshot () =
  with_temp (fun path ->
      let cfg, statics, weight, state = build_inputs () in
      ignore (Engine.run ~checkpoint:{ Engine.path; every = 1 } cfg statics ~weight ~state);
      let full = read_file path in
      let bytes = Bytes.of_string full in
      let pos = String.length full / 2 in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x10));
      write_file path (Bytes.to_string bytes);
      let cfg, statics, weight, state = build_inputs () in
      match Engine.resume ~from:path cfg statics ~weight ~state with
      | _ -> Alcotest.fail "corrupt snapshot must not resume"
      | exception Checkpoint.Error Checkpoint.Corrupt -> ()
      | exception Checkpoint.Error e ->
          Alcotest.failf "expected Corrupt, got %s" (Checkpoint.error_to_string e))

let test_resume_rejects_mismatched_inputs () =
  with_temp (fun path ->
      let cfg, statics, weight, state = build_inputs () in
      ignore (Engine.run ~checkpoint:{ Engine.path; every = 1 } cfg statics ~weight ~state);
      (* Same topology, different threshold: the digest must refuse. *)
      let cfg, statics, weight, state = build_inputs ~theta:0.3 () in
      match Engine.resume ~from:path cfg statics ~weight ~state with
      | _ -> Alcotest.fail "mismatched inputs must not resume"
      | exception Checkpoint.Error (Checkpoint.Config_mismatch _) -> ()
      | exception Checkpoint.Error e ->
          Alcotest.failf "expected Config_mismatch, got %s" (Checkpoint.error_to_string e))

let test_resume_rejects_missing_snapshot () =
  let cfg, statics, weight, state = build_inputs () in
  match Engine.resume ~from:"/nonexistent/sbgp.snap" cfg statics ~weight ~state with
  | _ -> Alcotest.fail "missing snapshot must not resume"
  | exception Checkpoint.Error (Checkpoint.Io _) -> ()

let test_input_digest_scope () =
  (* The digest covers everything that shapes results — and nothing
     that doesn't: worker count and retry budget must not pin a
     snapshot to the machine that wrote it. *)
  let cfg, statics, weight, state = build_inputs () in
  let d0 = Engine.input_digest cfg statics ~weight ~state in
  check Alcotest.int "raw sha256" 32 (String.length d0);
  check Alcotest.string "workers ignored"
    d0
    (Engine.input_digest { cfg with workers = 7 } statics ~weight ~state);
  check Alcotest.string "retries ignored"
    d0
    (Engine.input_digest { cfg with retries = 9 } statics ~weight ~state);
  check Alcotest.bool "theta matters" true
    (d0 <> Engine.input_digest { cfg with theta = 0.2 } statics ~weight ~state);
  let weight' = Array.copy weight in
  weight'.(0) <- weight'.(0) +. 1.0;
  check Alcotest.bool "weights matter" true
    (d0 <> Engine.input_digest cfg statics ~weight:weight' ~state)

let () =
  Alcotest.run "checkpoint"
    [
      ( "framing",
        [
          Alcotest.test_case "roundtrip + atomic replace" `Quick test_frame_roundtrip;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
          Alcotest.test_case "bad magic" `Quick test_load_bad_magic;
          Alcotest.test_case "unsupported version" `Quick test_load_unsupported_version;
          Alcotest.test_case "truncated" `Quick test_load_truncated;
          Alcotest.test_case "corrupt" `Quick test_load_corrupt;
          Alcotest.test_case "config mismatch" `Quick test_load_config_mismatch;
          Alcotest.test_case "injected corruption detected" `Quick
            test_injected_corruption_detected;
          Alcotest.test_case "churn kind roundtrip" `Quick test_churn_kind_roundtrip;
          Alcotest.test_case "v1 and v2 frames rejected" `Quick test_old_frames_rejected;
          Alcotest.test_case "unknown kind rejected" `Quick test_unknown_kind_rejected;
          Alcotest.test_case "injected io failure" `Quick test_injected_io_failure;
        ] );
      ( "engine",
        [
          Alcotest.test_case "kill and resume = uninterrupted" `Quick
            test_kill_and_resume_identical;
          Alcotest.test_case "resume replays the tail" `Quick
            test_resume_from_completed_run_tail;
          Alcotest.test_case "faulted + retried = fault-free" `Quick
            test_faulted_retried_run_identical;
          Alcotest.test_case "rejects corrupt snapshot" `Quick
            test_resume_rejects_corrupt_snapshot;
          Alcotest.test_case "rejects mismatched inputs" `Quick
            test_resume_rejects_mismatched_inputs;
          Alcotest.test_case "rejects missing snapshot" `Quick
            test_resume_rejects_missing_snapshot;
          Alcotest.test_case "input_digest scope" `Quick test_input_digest_scope;
        ] );
    ]
