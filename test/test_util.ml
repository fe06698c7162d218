(* Tests for the nsutil substrate: PRNG, CSR, bitsets, statistics,
   bucket queue, counting sort, tables. *)

module Prng = Nsutil.Prng
module Csr = Nsutil.Csr
module Bitset = Nsutil.Bitset
module Stats = Nsutil.Stats
module Bucketq = Nsutil.Bucketq
module Order = Nsutil.Order
module Table = Nsutil.Table

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.int64 a = Prng.int64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let rng = Prng.create ~seed:6 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    check Alcotest.bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_int_roughly_uniform () =
  let rng = Prng.create ~seed:7 in
  let counts = Array.make 10 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let v = Prng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      check Alcotest.bool "bucket within 20% of expectation" true
        (abs (c - (draws / 10)) < draws / 50))
    counts

let test_prng_split_independent () =
  let rng = Prng.create ~seed:8 in
  let forked = Prng.split rng in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.int64 rng = Prng.int64 forked then incr same
  done;
  check Alcotest.bool "split stream differs" true (!same < 4)

let test_prng_shuffle_permutation () =
  let rng = Prng.create ~seed:9 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_sample_without_replacement () =
  let rng = Prng.create ~seed:10 in
  List.iter
    (fun (k, from) ->
      let s = Prng.sample_without_replacement rng k ~from in
      check Alcotest.int "count" k (Array.length s);
      let tbl = Hashtbl.create 16 in
      Array.iter
        (fun v ->
          check Alcotest.bool "in range" true (v >= 0 && v < from);
          check Alcotest.bool "distinct" false (Hashtbl.mem tbl v);
          Hashtbl.add tbl v ())
        s)
    [ (5, 10); (10, 10); (3, 1000); (0, 4) ]

let test_prng_mix2_stable () =
  check Alcotest.int "mix2 deterministic" (Prng.mix2 3 7) (Prng.mix2 3 7);
  check Alcotest.bool "mix2 nonneg" true (Prng.mix2 1234 4321 >= 0);
  check Alcotest.bool "argument order matters" true (Prng.mix2 3 7 <> Prng.mix2 7 3)

let test_prng_pareto_positive () =
  let rng = Prng.create ~seed:11 in
  for _ = 1 to 100 do
    check Alcotest.bool "pareto >= xmin" true (Prng.pareto rng ~alpha:2.0 ~xmin:1.5 >= 1.5)
  done

(* ------------------------------------------------------------------ *)
(* Csr *)

let test_csr_roundtrip () =
  let lists = [| [ 1; 2; 3 ]; []; [ 7 ]; [ 9; 8 ] |] in
  let csr = Csr.of_lists lists in
  check Alcotest.int "rows" 4 (Csr.rows csr);
  check Alcotest.int "total" 6 (Csr.total csr);
  Array.iteri
    (fun i expected -> check Alcotest.(list int) "row" expected (Csr.row_to_list csr i))
    lists

let test_csr_of_rev_lists () =
  let csr = Csr.of_rev_lists [| [ 3; 2; 1 ]; [ 5 ] |] in
  check Alcotest.(list int) "row reversed back" [ 1; 2; 3 ] (Csr.row_to_list csr 0);
  check Alcotest.(list int) "singleton" [ 5 ] (Csr.row_to_list csr 1)

let test_csr_queries () =
  let csr = Csr.of_lists [| [ 4; 5; 6 ]; [] |] in
  check Alcotest.int "row_length" 3 (Csr.row_length csr 0);
  check Alcotest.int "get" 5 (Csr.get csr 0 1);
  check Alcotest.bool "mem" true (Csr.mem_row csr 0 6);
  check Alcotest.bool "not mem" false (Csr.mem_row csr 0 7);
  check Alcotest.bool "exists" true (Csr.exists_row csr 0 (fun v -> v > 5));
  check Alcotest.bool "exists empty row" false (Csr.exists_row csr 1 (fun _ -> true));
  check Alcotest.int "fold sum" 15 (Csr.fold_row csr 0 ( + ) 0)

let csr_gen =
  QCheck2.Gen.(array_size (int_range 0 20) (list_size (int_range 0 8) (int_bound 100)))

let test_csr_qcheck =
  qtest "csr round-trips arbitrary rows" csr_gen (fun rows ->
      let csr = Csr.of_lists rows in
      Csr.rows csr = Array.length rows
      && Array.for_all
           (fun i -> Csr.row_to_list csr i = rows.(i))
           (Array.init (Array.length rows) (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  check Alcotest.int "empty cardinal" 0 (Bitset.cardinal b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  check Alcotest.int "cardinal" 3 (Bitset.cardinal b);
  check Alcotest.bool "mem" true (Bitset.mem b 63);
  Bitset.clear b 63;
  check Alcotest.bool "cleared" false (Bitset.mem b 63);
  check Alcotest.(list int) "to_list sorted" [ 0; 99 ] (Bitset.to_list b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "negative index" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.set b (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.mem b 10))

let test_bitset_copy_independent () =
  let a = Bitset.create 16 in
  Bitset.set a 3;
  let b = Bitset.copy a in
  Bitset.set b 5;
  check Alcotest.bool "copy has original bit" true (Bitset.mem b 3);
  check Alcotest.bool "original unaffected" false (Bitset.mem a 5)

let test_bitset_equal_hash () =
  let a = Bitset.of_list 32 [ 1; 7; 31 ] in
  let b = Bitset.of_list 32 [ 31; 1; 7 ] in
  check Alcotest.bool "equal" true (Bitset.equal a b);
  check Alcotest.int "hash agrees" (Bitset.hash a) (Bitset.hash b);
  Bitset.set b 2;
  check Alcotest.bool "not equal after change" false (Bitset.equal a b)

let test_bitset_reset () =
  let b = Bitset.of_list 20 [ 0; 5; 19 ] in
  Bitset.reset b;
  check Alcotest.int "reset clears" 0 (Bitset.cardinal b)

let test_bitset_qcheck =
  qtest "bitset cardinal matches distinct inserts"
    QCheck2.Gen.(list_size (int_range 0 50) (int_bound 199))
    (fun elts ->
      let b = Bitset.of_list 200 elts in
      Bitset.cardinal b = List.length (List.sort_uniq compare elts))

(* ------------------------------------------------------------------ *)
(* Stats *)

let feq = Alcotest.float 1e-9

let test_stats_mean_median () =
  check feq "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check feq "median even" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check feq "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  check feq "empty mean" 0.0 (Stats.mean [||]);
  check feq "empty median" 0.0 (Stats.median [||])

let test_stats_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check feq "p0" 10.0 (Stats.percentile a 0.0);
  check feq "p100" 50.0 (Stats.percentile a 100.0);
  check feq "p50" 30.0 (Stats.percentile a 50.0);
  check feq "p25 interpolates" 20.0 (Stats.percentile a 25.0)

let test_stats_stddev () =
  check feq "known stddev" 2.0 (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] *. sqrt (7.0 /. 8.0));
  check feq "constant" 0.0 (Stats.stddev [| 3.0; 3.0; 3.0 |])

let test_stats_histogram () =
  let counts = Stats.histogram ~bounds:[| 1.0; 2.0; 5.0 |] [| 0.5; 1.0; 1.5; 3.0; 9.0 |] in
  check Alcotest.(array int) "buckets" [| 2; 1; 1; 1 |] counts

let test_stats_ccdf () =
  let c = Stats.ccdf [| 1.0; 1.0; 2.0; 3.0 |] in
  check Alcotest.(list (pair (float 1e-9) (float 1e-9))) "ccdf"
    [ (1.0, 1.0); (2.0, 0.5); (3.0, 0.25) ] c

let test_stats_fraction () =
  check feq "fraction" 0.4 (Stats.fraction (fun x -> x > 3) [| 1; 2; 4; 5; 3 |]);
  check feq "empty" 0.0 (Stats.fraction (fun _ -> true) [||])

let test_stats_median_does_not_mutate () =
  let a = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.median a);
  check Alcotest.(array (float 0.0)) "unchanged" [| 3.0; 1.0; 2.0 |] a

let test_stats_qcheck_percentile_bounds =
  qtest "percentile stays within min..max"
    QCheck2.Gen.(
      pair (list_size (int_range 1 50) (float_bound_inclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (l, p) ->
      let a = Array.of_list l in
      let v = Stats.percentile a p in
      v >= Stats.minimum a -. 1e-9 && v <= Stats.maximum a +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Bucketq *)

let test_bucketq_fifo_within_key () =
  let q = Bucketq.create ~max_key:10 in
  Bucketq.push q ~key:2 100;
  Bucketq.push q ~key:2 200;
  Bucketq.push q ~key:1 50;
  check Alcotest.(option (pair int int)) "min key first" (Some (1, 50)) (Bucketq.pop q);
  check Alcotest.(option (pair int int)) "fifo" (Some (2, 100)) (Bucketq.pop q);
  check Alcotest.(option (pair int int)) "fifo 2" (Some (2, 200)) (Bucketq.pop q);
  check Alcotest.(option (pair int int)) "empty" None (Bucketq.pop q)

let test_bucketq_monotone_push () =
  let q = Bucketq.create ~max_key:10 in
  Bucketq.push q ~key:3 1;
  ignore (Bucketq.pop q);
  Alcotest.check_raises "push below cursor"
    (Invalid_argument "Bucketq.push: non-monotone key") (fun () -> Bucketq.push q ~key:2 9)

let test_bucketq_interleaved () =
  let q = Bucketq.create ~max_key:20 in
  Bucketq.push q ~key:0 0;
  let out = ref [] in
  let rec drain () =
    match Bucketq.pop q with
    | None -> ()
    | Some (key, v) ->
        out := v :: !out;
        if key < 5 then Bucketq.push q ~key:(key + 1) (v + 1);
        drain ()
  in
  drain ();
  check Alcotest.(list int) "bfs chain" [ 0; 1; 2; 3; 4; 5 ] (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Order *)

let test_order_sorts_by_key () =
  let keys = [| 3; 1; 2; 1; 0 |] in
  let order = Order.by_small_key ~key:(fun i -> keys.(i)) ~max_key:3 5 in
  check Alcotest.(array int) "stable counting sort" [| 4; 1; 3; 2; 0 |] order

let test_order_out_of_range_last () =
  let keys = [| 1; -5; 0; 99 |] in
  let order = Order.by_small_key ~key:(fun i -> keys.(i)) ~max_key:2 4 in
  check Alcotest.(array int) "out of range last" [| 2; 0; 1; 3 |] order

let test_order_qcheck =
  qtest "order is a stable sort"
    QCheck2.Gen.(list_size (int_range 0 60) (int_bound 10))
    (fun keys ->
      let a = Array.of_list keys in
      let n = Array.length a in
      let order = Order.by_small_key ~key:(fun i -> a.(i)) ~max_key:10 n in
      let sorted_pairs = List.map (fun i -> (a.(i), i)) (Array.to_list order) in
      sorted_pairs = List.sort compare sorted_pairs)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_alignment () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let s = Table.to_string t in
  check Alcotest.bool "has rule line" true (String.length s > 0 && String.contains s '-');
  check Alcotest.int "rows" 2 (Table.row_count t)

let test_table_csv_quoting () =
  let t = Table.create ~header:[ "x" ] in
  Table.add_row t [ "has,comma" ];
  Table.add_row t [ "has\"quote" ];
  let csv = Table.to_csv t in
  check Alcotest.bool "comma quoted" true
    (String.length csv > 0
    &&
    let lines = String.split_on_char '\n' csv in
    List.nth lines 1 = "\"has,comma\"" && List.nth lines 2 = "\"has\"\"quote\"")

let test_table_cells () =
  check Alcotest.string "int-like float" "42" (Table.cell_f 42.0);
  check Alcotest.string "pct" "12.5%" (Table.cell_pct 0.125)

(* ------------------------------------------------------------------ *)
(* Env *)

let test_env_parse_int_accepts () =
  let p s = Nsutil.Env.parse_int ~name:"SBGP_X" ~min:1 ~default:7 s in
  check Alcotest.(result int string) "unset -> default" (Ok 7) (p None);
  check Alcotest.(result int string) "plain int" (Ok 12) (p (Some "12"));
  check Alcotest.(result int string) "at the minimum" (Ok 1) (p (Some "1"));
  check Alcotest.(result int string) "whitespace trimmed" (Ok 3) (p (Some " 3 "))

let test_env_parse_int_rejects () =
  (* One check per malformed form: each must produce a warning that
     names the variable, never a silent fallback or a crash. *)
  List.iter
    (fun raw ->
      match Nsutil.Env.parse_int ~name:"SBGP_X" ~min:1 ~default:7 (Some raw) with
      | Ok v -> Alcotest.failf "%S accepted as %d" raw v
      | Error warning ->
          check Alcotest.bool
            (Printf.sprintf "warning for %S names the variable" raw)
            true
            (String.length warning > 0
            &&
            let rec find i =
              i + 6 <= String.length warning
              && (String.sub warning i 6 = "SBGP_X" || find (i + 1))
            in
            find 0))
    [ "0"; "-3"; "abc"; ""; "1.5"; "2x"; "9999999999999999999999" ]

let test_env_int_var_fallback () =
  (* End to end through the environment: malformed values fall back to
     the default (warning goes to stderr), valid ones are used. *)
  let read () = Nsutil.Env.int_var ~name:"SBGP_TEST_VAR" ~min:50 ~default:500 () in
  Unix.putenv "SBGP_TEST_VAR" "120";
  check Alcotest.int "valid value used" 120 (read ());
  List.iter
    (fun bad ->
      Unix.putenv "SBGP_TEST_VAR" bad;
      check Alcotest.int (Printf.sprintf "%S falls back" bad) 500 (read ()))
    [ "0"; "-3"; "abc"; "49"; "1.5" ];
  Unix.putenv "SBGP_TEST_VAR" ""

(* ------------------------------------------------------------------ *)
(* Faults *)

module Faults = Nsutil.Faults

let test_faults_deterministic () =
  (* Two plans with the same parameters fire on exactly the same shots
     (serial execution). *)
  let schedule () =
    let t = Faults.create ~rate:0.3 ~budget:1000 ~seed:42 "site" in
    List.init 200 (fun _ -> Option.is_some (Faults.fires t "site"))
  in
  check Alcotest.(list bool) "same schedule" (schedule ()) (schedule ());
  check Alcotest.bool "some shots fire" true (List.exists Fun.id (schedule ()));
  check Alcotest.bool "some shots pass" true (List.exists not (schedule ()))

let test_faults_budget_bound () =
  let t = Faults.create ~rate:1.0 ~budget:3 ~seed:1 "s" in
  let fired = ref 0 in
  for _ = 1 to 100 do
    if Option.is_some (Faults.fires t "s") then incr fired
  done;
  check Alcotest.int "stops at the budget" 3 !fired;
  check Alcotest.int "fired counter agrees" 3 (Faults.fired t);
  check Alcotest.int "all shots counted" 100 (Faults.shots t);
  (* A site the plan does not name never fires and counts nothing. *)
  let u = Faults.create ~rate:1.0 ~budget:3 ~seed:1 "s" in
  check Alcotest.bool "unnamed site silent" false (Option.is_some (Faults.fires u "other"));
  check Alcotest.int "unnamed site uncounted" 0 (Faults.shots u)

let test_faults_after_arming () =
  let t = Faults.create ~rate:1.0 ~budget:100 ~after:10 ~seed:1 "s" in
  let fires = List.init 30 (fun _ -> Option.is_some (Faults.fires t "s")) in
  List.iteri
    (fun i f ->
      check Alcotest.bool
        (Printf.sprintf "shot %d %s" i (if i < 10 then "disarmed" else "armed"))
        (i >= 10) f)
    fires

let test_faults_trip_raises () =
  let t = Faults.create ~rate:1.0 ~budget:1 ~seed:9 "worker" in
  (match Faults.trip t "worker" with
  | exception Faults.Injected { site = "worker"; shot = 0 } -> ()
  | exception Faults.Injected { site; shot } ->
      Alcotest.failf "unexpected injection at %s/%d" site shot
  | () -> Alcotest.fail "expected an injection");
  Faults.trip t "worker" (* budget spent: must not raise *)

let test_faults_parse_spec () =
  let ok s expected =
    match Faults.parse_spec s with
    | Ok spec -> check Alcotest.bool (Printf.sprintf "%S parses" s) true (spec = expected)
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  ok "7" { Faults.seed = 7; rate = 1.0; budget = 1; after = 0 };
  ok "7:0.5" { Faults.seed = 7; rate = 0.5; budget = 1; after = 0 };
  ok "7:0.5:3" { Faults.seed = 7; rate = 0.5; budget = 3; after = 0 };
  ok "7:0.5:3:100" { Faults.seed = 7; rate = 0.5; budget = 3; after = 100 };
  List.iter
    (fun s ->
      match Faults.parse_spec s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error e -> check Alcotest.bool "message non-empty" true (String.length e > 0))
    [ ""; "x"; "7:"; "7:2.0"; "7:-0.1"; "7:0.5:-1"; "7:0.5:1:-2"; "7:0.5:1:2:3" ]

let test_faults_parse_plan () =
  (* Plan grammar: site=seed:rate[:budget[:after]], semicolons between
     cells. *)
  (match Faults.parse_plan "pool.task=3:0.5;pool.hang=7:1.0:1:40" with
  | Ok
      [
        ("pool.task", { Faults.seed = 3; rate = 0.5; budget = 1; after = 0 });
        ("pool.hang", { Faults.seed = 7; rate = 1.0; budget = 1; after = 40 });
      ] ->
      ()
  | Ok cells -> Alcotest.failf "unexpected plan shape (%d cells)" (List.length cells)
  | Error e -> Alcotest.failf "plan rejected: %s" e);
  List.iter
    (fun s ->
      match Faults.parse_plan s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error e -> check Alcotest.bool "message non-empty" true (String.length e > 0))
    [ ""; ";;"; "=7"; "pool.hang="; "pool.hang=oops"; "pool.task=3:0.5;bad" ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_faults_unscoped_rejected () =
  (* Every cell names its site: a bare spec is an error that says so. *)
  List.iter
    (fun s ->
      match Faults.parse_plan s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error e ->
          check Alcotest.bool (Printf.sprintf "%S: message names site=" s) true
            (contains e "site="))
    [ "3:0.01:2"; "7"; "pool.hang=7:1.0;3:0.5" ]

(* [SBGP_FAULTS] set to [v]: the plan [of_env] builds and the warnings
   it emits. *)
let of_env_with v =
  let captured = ref [] in
  Nsutil.Warnings.set_handler (fun m -> captured := m :: !captured);
  Fun.protect
    ~finally:(fun () ->
      Nsutil.Warnings.set_handler prerr_endline;
      Unix.putenv "SBGP_FAULTS" "")
    (fun () ->
      Unix.putenv "SBGP_FAULTS" v;
      let plan = Faults.of_env () in
      (plan, !captured))

let test_faults_legacy_env_ignored () =
  (* The retired bare grammar builds no plan (the run is fault-free),
     and the warning says what is missing. *)
  let plan, warnings = of_env_with "3:0.01:2" in
  check Alcotest.bool "no plan" true (Option.is_none plan);
  check Alcotest.bool "warned about the missing site=" true
    (List.exists (fun m -> contains m "SBGP_FAULTS" && contains m "site=") warnings)

let test_faults_known_sites () =
  check
    Alcotest.(list string)
    "the sites the code fires"
    [ "pool.task"; "pool.hang"; "checkpoint.io"; "checkpoint.corrupt" ]
    Faults.known_sites

let test_faults_unknown_site_warns () =
  let plan, warnings = of_env_with "nosuchsite=1:1.0" in
  check Alcotest.bool "a typo'd site still builds the plan" true (Option.is_some plan);
  check Alcotest.bool "warned about the unknown site" true
    (List.exists (fun m -> contains m "unknown fault site" && contains m "nosuchsite") warnings)

let test_faults_of_env () =
  (match of_env_with "pool.task=5:1.0:2" with
  | Some t, _ ->
      check Alcotest.int "fresh plan, no shots" 0 (Faults.shots t);
      ignore (Faults.fires t "pool.task");
      ignore (Faults.fires t "pool.task");
      ignore (Faults.fires t "pool.task");
      check Alcotest.int "budget honoured" 2 (Faults.fired t)
  | None, _ -> Alcotest.fail "expected a plan from SBGP_FAULTS");
  match of_env_with "not-a-spec" with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "malformed spec must yield None"

(* ------------------------------------------------------------------ *)
(* I32: compact int32 vectors. *)

let test_i32_roundtrip () =
  let src = [| 0; 1; 5; 1073741823; -1073741824; -7 |] in
  let v = Nsutil.I32.of_array src in
  check Alcotest.int "length" (Array.length src) (Nsutil.I32.length v);
  check Alcotest.(array int) "to_array round-trips" src (Nsutil.I32.to_array v);
  Array.iteri (fun i x -> check Alcotest.int "get" x (Nsutil.I32.get v i)) src;
  Nsutil.I32.set v 2 42;
  check Alcotest.int "set visible" 42 (Nsutil.I32.get v 2)

let test_i32_fill_blit_sub () =
  let v = Nsutil.I32.create 8 in
  Nsutil.I32.fill v (-1);
  check Alcotest.(array int) "fill" (Array.make 8 (-1)) (Nsutil.I32.to_array v);
  Nsutil.I32.blit_array [| 10; 20; 30 |] v ~pos:2;
  check
    Alcotest.(array int)
    "blit_array at pos"
    [| -1; -1; 10; 20; 30; -1; -1; -1 |]
    (Nsutil.I32.to_array v);
  check
    Alcotest.(array int)
    "sub_to_array" [| 20; 30; -1 |]
    (Nsutil.I32.sub_to_array v ~pos:3 ~len:3)

let test_i32_iter_bytes_equal () =
  let v = Nsutil.I32.of_array [| 3; 1; 4; 1; 5 |] in
  check Alcotest.int "byte_size = 4 * length" 20 (Nsutil.I32.byte_size v);
  let sum = ref 0 in
  Nsutil.I32.iter (fun x -> sum := !sum + x) v;
  check Alcotest.int "iter visits all" 14 !sum;
  let idx_dot = ref 0 in
  Nsutil.I32.iteri (fun i x -> idx_dot := !idx_dot + (i * x)) v;
  check Alcotest.int "iteri indices" 32 !idx_dot;
  let w = Nsutil.I32.of_array (Nsutil.I32.to_array v) in
  check Alcotest.bool "equal copies" true (Nsutil.I32.equal v w);
  Nsutil.I32.set w 4 6;
  check Alcotest.bool "content difference detected" false (Nsutil.I32.equal v w);
  check Alcotest.bool "length difference detected" false
    (Nsutil.I32.equal v (Nsutil.I32.create 4))

let test_i32_qcheck_roundtrip =
  qtest "i32 of_array/to_array round-trips"
    QCheck2.Gen.(array_size (int_range 0 64) (int_range (-1000000) 1000000))
    (fun src -> Nsutil.I32.to_array (Nsutil.I32.of_array src) = src)

let () =
  Alcotest.run "nsutil"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "roughly uniform" `Quick test_prng_int_roughly_uniform;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sampling without replacement" `Quick
            test_prng_sample_without_replacement;
          Alcotest.test_case "mix2 stable" `Quick test_prng_mix2_stable;
          Alcotest.test_case "pareto positive" `Quick test_prng_pareto_positive;
        ] );
      ( "csr",
        [
          Alcotest.test_case "roundtrip" `Quick test_csr_roundtrip;
          Alcotest.test_case "of_rev_lists" `Quick test_csr_of_rev_lists;
          Alcotest.test_case "queries" `Quick test_csr_queries;
          test_csr_qcheck;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
          Alcotest.test_case "equal and hash" `Quick test_bitset_equal_hash;
          Alcotest.test_case "reset" `Quick test_bitset_reset;
          test_bitset_qcheck;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean and median" `Quick test_stats_mean_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "ccdf" `Quick test_stats_ccdf;
          Alcotest.test_case "fraction" `Quick test_stats_fraction;
          Alcotest.test_case "median does not mutate" `Quick test_stats_median_does_not_mutate;
          test_stats_qcheck_percentile_bounds;
        ] );
      ( "bucketq",
        [
          Alcotest.test_case "fifo within key" `Quick test_bucketq_fifo_within_key;
          Alcotest.test_case "monotone push enforced" `Quick test_bucketq_monotone_push;
          Alcotest.test_case "interleaved push/pop" `Quick test_bucketq_interleaved;
        ] );
      ( "order",
        [
          Alcotest.test_case "sorts by key" `Quick test_order_sorts_by_key;
          Alcotest.test_case "out of range last" `Quick test_order_out_of_range_last;
          test_order_qcheck;
        ] );
      ( "table",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "csv quoting" `Quick test_table_csv_quoting;
          Alcotest.test_case "cell renderers" `Quick test_table_cells;
        ] );
      ( "env",
        [
          Alcotest.test_case "parse_int accepts" `Quick test_env_parse_int_accepts;
          Alcotest.test_case "parse_int rejects" `Quick test_env_parse_int_rejects;
          Alcotest.test_case "int_var falls back" `Quick test_env_int_var_fallback;
        ] );
      ( "i32",
        [
          Alcotest.test_case "roundtrip and get/set" `Quick test_i32_roundtrip;
          Alcotest.test_case "fill, blit, sub" `Quick test_i32_fill_blit_sub;
          Alcotest.test_case "iter, byte_size, equal" `Quick test_i32_iter_bytes_equal;
          test_i32_qcheck_roundtrip;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic schedule" `Quick test_faults_deterministic;
          Alcotest.test_case "budget bound" `Quick test_faults_budget_bound;
          Alcotest.test_case "after arming" `Quick test_faults_after_arming;
          Alcotest.test_case "trip raises" `Quick test_faults_trip_raises;
          Alcotest.test_case "parse_spec" `Quick test_faults_parse_spec;
          Alcotest.test_case "parse_plan" `Quick test_faults_parse_plan;
          Alcotest.test_case "unscoped entry rejected" `Quick test_faults_unscoped_rejected;
          Alcotest.test_case "bare SBGP_FAULTS spec ignored" `Quick
            test_faults_legacy_env_ignored;
          Alcotest.test_case "known sites" `Quick test_faults_known_sites;
          Alcotest.test_case "unknown site warns" `Quick test_faults_unknown_site_warns;
          Alcotest.test_case "of_env" `Quick test_faults_of_env;
        ] );
    ]
