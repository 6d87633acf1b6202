(* The benchmark's own tests: order statistics on known arrays, seed
   determinism of the op streams and of the checked results, and the
   metric-name contract.  Runs on tiny inputs in a few seconds. *)

open E2e

let tiny = { Data.universities = 1; departments = 1; barton_subjects = 2000 }

let floats n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentiles () =
  let a = floats 100 in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Measure.percentile a 0.5);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Measure.percentile a 0.9);
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (Measure.percentile a 0.99);
  Alcotest.(check (float 0.)) "p100 of 1..100" 100. (Measure.percentile a 1.0);
  Alcotest.(check (float 0.)) "p50 of one sample" 7. (Measure.percentile [| 7. |] 0.5);
  Alcotest.(check int) "rank 1000 p99" 990 (Measure.rank 1000 0.99);
  Alcotest.(check int) "an inexact product does not round up" 7 (Measure.rank 100 0.07);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Measure.beyond 1000 0.99);
  Alcotest.(check bool) "1000 samples support p99" true (Measure.supports 1000 0.99);
  Alcotest.(check bool) "999 samples do not" false (Measure.supports 999 0.99);
  Alcotest.(check bool) "100 samples support p90" true (Measure.supports 100 0.9);
  Alcotest.(check bool) "99 samples do not" false (Measure.supports 99 0.9)

let test_tail () =
  Alcotest.(check (float 0.)) "rank n-10 of 1..20" 10. (Measure.tail_n10 (floats 20));
  Alcotest.(check (float 0.)) "rank n-10 of 1..11" 1. (Measure.tail_n10 (floats 11));
  Alcotest.check_raises "needs 11 samples" (Invalid_argument "Measure.tail_n10: fewer than 11 samples") (fun () ->
      ignore (Measure.tail_n10 (floats 10)));
  Alcotest.(check (float 0.)) "odd median" 2. (Measure.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even median" 2.5 (Measure.median [ 4.; 1.; 3.; 2. ])

let test_lookup_ops_seeded () =
  let a = Workload.lookup_ops tiny ~seed:7 ~n:500 and b = Workload.lookup_ops tiny ~seed:7 ~n:500 in
  Alcotest.(check bool) "same seed, same ops" true (a = b);
  Alcotest.(check bool) "another seed, other ops" false (a = Workload.lookup_ops tiny ~seed:8 ~n:500)

let update_ops seed =
  let t i = { Dict.Term_dict.s = i; p = i + 1; o = i + 2 } in
  let st =
    Workload.update_state ~seed ~base:(Array.init 1000 t) ~held_out:(Array.init 600 (fun i -> t (5000 + i)))
      ~subjects:[| "<a>"; "<b>"; "<c>" |]
  in
  List.init 1000 (fun i ->
      if i mod 64 = 63 then Workload.flushed st;
      Workload.next_update st)

let test_update_ops_seeded () =
  Alcotest.(check bool) "same seed, same ops" true (update_ops 3 = update_ops 3);
  Alcotest.(check bool) "another seed, other ops" false (update_ops 3 = update_ops 4);
  let writes = List.filter (function Workload.Write _ -> true | Workload.Read _ -> false) (update_ops 3) in
  Alcotest.(check int) "three writes in four ops" 750 (List.length writes)

let cfg kind ~seed ~trace =
  let max_ops = match kind with Workload.Analytic -> 120 | Workload.Lookup -> 1200 | Workload.Update -> 6000 in
  { Bench.kind; seed; seconds = 60.; trace; sizes = tiny; setups = 1; trace_dir = None; max_ops = Some max_ops }

let name_ok n =
  n <> "" && String.for_all (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) n

(* The traced run replays the same seeded op stream from the same
   state, so its checked results must hash like the untraced run's. *)
let test_workload kind () =
  let r1 = Bench.run (cfg kind ~seed:11 ~trace:false) in
  let traced = Bench.run (cfg kind ~seed:11 ~trace:true) in
  Alcotest.(check int) "no failed ops" 0 r1.failed;
  Alcotest.(check bool) "correct" true r1.correct;
  Alcotest.(check int) "traced: no failed ops" 0 traced.failed;
  Alcotest.(check int) "same seed, same result checksum" r1.checksum traced.checksum;
  List.iter
    (fun (r : Bench.result) ->
      let names = List.map (fun (m : Bench.metric) -> m.mname) r.metrics in
      List.iter (fun n -> Alcotest.(check bool) ("metric name " ^ n) true (name_ok n)) names;
      Alcotest.(check int) "metric names are unique" (List.length names) (List.length (List.sort_uniq compare names)))
    [ r1; traced ]

let () =
  Alcotest.run "e2ebench"
    [
      ( "measure",
        [ Alcotest.test_case "percentiles" `Quick test_percentiles; Alcotest.test_case "rank n-10 tail" `Quick test_tail ] );
      ( "ops",
        [
          Alcotest.test_case "lookup seeded" `Quick test_lookup_ops_seeded;
          Alcotest.test_case "update seeded" `Quick test_update_ops_seeded;
        ] );
      ( "runs",
        List.map
          (fun (n, k) -> Alcotest.test_case n `Quick (test_workload k))
          Workload.kinds );
    ]
