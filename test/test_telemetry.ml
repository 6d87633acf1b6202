(* Tests for the PR-2 observability layer (lib/telemetry + the
   instrumentation it gates): the metrics registry, the disabled-mode
   zero-cost guarantee, the injectable clock, the span tracer, the JSON
   codec, EXPLAIN goldens on LUBM plans, and planner estimate accuracy
   (q-error) against exact execution counts. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let ub = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#"
let rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

let sparql_prefix =
  "PREFIX ub: <" ^ ub ^ "> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "

let lubm_store =
  lazy
    (let cfg = Workloads.Lubm.config ~universities:1 ~departments_per_university:1 () in
     Hexa.Hexastore.of_triples (Workloads.Lubm.generate cfg))

let lubm_boxed () = Hexa.Store_sig.box_hexastore (Lazy.force lubm_store)

let parse text =
  (Query.Sparql.parse ~namespaces:(Rdf.Namespace.default ()) (sparql_prefix ^ text)).algebra

let with_events flag f =
  let saved = !Telemetry.Events.enabled in
  Telemetry.Events.enabled := flag;
  Fun.protect ~finally:(fun () -> Telemetry.Events.enabled := saved) f

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let c = Telemetry.Metrics.counter "test.counters.a" in
  check_int "fresh counter is zero" 0 (Telemetry.Metrics.value c);
  Telemetry.with_enabled true (fun () ->
      Telemetry.Metrics.incr c;
      Telemetry.Metrics.incr c;
      Telemetry.Metrics.add c 40);
  check_int "incr and add accumulate" 42 (Telemetry.Metrics.value c);
  (* Registration is idempotent: same name, same cell. *)
  let c' = Telemetry.Metrics.counter "test.counters.a" in
  check_int "re-registration returns the same counter" 42 (Telemetry.Metrics.value c');
  check_bool "kind mismatch rejected" true
    (match Telemetry.Metrics.gauge "test.counters.a" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_gauges () =
  let g = Telemetry.Metrics.gauge "test.gauges.a" in
  Telemetry.with_enabled true (fun () ->
      Telemetry.Metrics.set g 1.5;
      Telemetry.Metrics.set g 2.5);
  check_float "last write wins" 2.5 (Telemetry.Metrics.gauge_value g)

let test_histograms () =
  let h = Telemetry.Metrics.histogram "test.histograms.a" in
  Telemetry.with_enabled true (fun () ->
      List.iter (Telemetry.Metrics.observe h) [ 1; 2; 3; 1000; 0 ]);
  check_int "count" 5 (Telemetry.Histogram.count h);
  check_int "sum" 1006 (Telemetry.Histogram.sum h);
  check_int "min" 0 (Option.get (Telemetry.Histogram.min_value h));
  check_int "max" 1000 (Option.get (Telemetry.Histogram.max_value h));
  check_float "mean" 201.2 (Telemetry.Histogram.mean h);
  let bucketed =
    Telemetry.Histogram.fold_buckets (fun acc ~le:_ ~count -> acc + count) 0 h
  in
  check_int "buckets hold every observation" 5 bucketed;
  Telemetry.Histogram.reset h;
  check_int "reset empties" 0 (Telemetry.Histogram.count h)

let test_snapshot_prefix () =
  let c1 = Telemetry.Metrics.counter "test.snap.one" in
  let c2 = Telemetry.Metrics.counter "test.snap.two" in
  ignore (Telemetry.Metrics.counter "test.other.three");
  Telemetry.with_enabled true (fun () ->
      Telemetry.Metrics.incr c1;
      Telemetry.Metrics.add c2 2);
  check_bool "prefix filters and sorts" true
    (let snap = Telemetry.Metrics.snapshot_counters ~prefix:"test.snap." () in
     snap = [ ("test.snap.one", 1); ("test.snap.two", 2) ]
     || (* other tests may have re-run and bumped further *)
     List.map fst snap = [ "test.snap.one"; "test.snap.two" ]);
  match Telemetry.Metrics.to_json () with
  | Telemetry.Json.Obj fields ->
      check_bool "to_json has the three sections" true
        (List.for_all (fun k -> List.mem_assoc k fields) [ "counters"; "gauges"; "histograms" ])
  | _ -> Alcotest.fail "Metrics.to_json did not return an object"

(* ------------------------------------------------------------------ *)
(* Disabled-mode guarantees                                            *)
(* ------------------------------------------------------------------ *)

let test_disabled_no_activity () =
  check_bool "telemetry starts disabled" false !Telemetry.enabled;
  let before = Telemetry.activity_count () in
  (* Exercise every instrumented layer: store probes, merge kernels,
     planner, executor. *)
  let boxed = lubm_boxed () in
  let q = parse "SELECT ?x ?y WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:advisor ?y . }" in
  check_bool "query ran" true (Query.Exec.count boxed q > 0);
  check_int "no hook mutated anything while disabled" before (Telemetry.activity_count ())

let test_disabled_counters_stay_zero () =
  let c = Telemetry.Metrics.counter "test.disabled.c" in
  let h = Telemetry.Metrics.histogram "test.disabled.h" in
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.add c 5;
  Telemetry.Metrics.observe h 7;
  ignore (Telemetry.Trace.with_span "test.disabled.span" (fun () -> 0));
  check_int "counter untouched" 0 (Telemetry.Metrics.value c);
  check_int "histogram untouched" 0 (Telemetry.Histogram.count h);
  check_bool "no span recorded" true
    (not (List.exists (fun s -> s.Telemetry.Trace.name = "test.disabled.span")
            (Telemetry.Trace.spans ())))

let test_disabled_zero_allocation () =
  let c = Telemetry.Metrics.counter "test.disabled.alloc" in
  let h = Telemetry.Metrics.histogram "test.disabled.alloc.h" in
  let nothing () = () in
  (* Warm up so any one-time allocation is done. *)
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.observe h 3;
  Telemetry.Trace.with_span "warm" nothing;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Telemetry.Metrics.incr c;
    Telemetry.Metrics.add c 2;
    Telemetry.Metrics.observe h 3;
    Telemetry.Trace.with_span "loop" nothing
  done;
  let after = Gc.minor_words () in
  check_float "disabled hooks allocate nothing" 0. (after -. before)

let test_enabled_hooks_fire () =
  let before = Telemetry.activity_count () in
  Telemetry.with_enabled true (fun () ->
      let boxed = lubm_boxed () in
      ignore (Query.Exec.count boxed (parse "SELECT ?x WHERE { ?x rdf:type ub:Course . }")));
  check_bool "hooks ran while enabled" true (Telemetry.activity_count () > before)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_injection () =
  Telemetry.Clock.with_source (Telemetry.Clock.fixed 5.) (fun () ->
      check_float "fixed" 5. (Telemetry.Clock.now ());
      check_float "fixed again" 5. (Telemetry.Clock.now ()));
  Telemetry.Clock.with_source (Telemetry.Clock.ticking ~start:1. ~step:0.5 ()) (fun () ->
      check_float "tick 1" 1. (Telemetry.Clock.now ());
      check_float "tick 2" 1.5 (Telemetry.Clock.now ());
      check_float "tick 3" 2. (Telemetry.Clock.now ()));
  (* Restored to the wall clock: two reads a real instant apart differ. *)
  let a = Telemetry.Clock.now () in
  check_bool "wall clock restored" true (a > 1e6)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_spans () =
  Telemetry.with_enabled true (fun () ->
      Telemetry.Trace.clear ();
      Telemetry.Clock.with_source (Telemetry.Clock.ticking ~start:0. ~step:1. ()) (fun () ->
          Telemetry.Trace.with_span "outer" (fun () ->
              Telemetry.Trace.with_span "inner" (fun () -> ()))));
  let spans = Telemetry.Trace.spans () in
  check_int "two spans" 2 (List.length spans);
  let inner = List.nth spans 0 and outer = List.nth spans 1 in
  check_string "inner completes first" "inner" inner.Telemetry.Trace.name;
  check_string "outer completes last" "outer" outer.Telemetry.Trace.name;
  check_int "inner depth" 1 inner.Telemetry.Trace.depth;
  check_int "outer depth" 0 outer.Telemetry.Trace.depth;
  (* Ticking clock: outer start=0, inner start=1, inner end=2, outer
     end=3 — so inner lasts 1 "second" and outer 3. *)
  check_float "inner duration" 1. inner.Telemetry.Trace.duration;
  check_float "outer duration" 3. outer.Telemetry.Trace.duration;
  Telemetry.Trace.clear ();
  check_int "clear empties" 0 (List.length (Telemetry.Trace.spans ()))

(* The load path's spans: a bulk load nests its sort, the three family
   passes and each pass's merge under one root, and a bulk delete does
   the same with unlink passes — so a trace splits build and flush time
   by phase.  With the gate off the same calls record nothing. *)
let test_load_spans () =
  let tr s p o : Hexa.Hexastore.id_triple = { s; p; o } in
  let batch = Array.init 40 (fun i -> tr (40 - i) (i mod 4) (i mod 9)) in
  Telemetry.Trace.clear ();
  ignore (Hexa.Hexastore.add_bulk_ids (Hexa.Hexastore.create ()) batch);
  check_int "no spans while disabled" 0 (List.length (Telemetry.Trace.spans ()));
  Telemetry.with_enabled true (fun () ->
      let h = Hexa.Hexastore.create () in
      ignore (Hexa.Hexastore.add_bulk_ids h batch);
      ignore (Hexa.Hexastore.remove_bulk_ids h (Array.sub batch 0 10)));
  let spans = Telemetry.Trace.spans () in
  let names = List.map (fun (sp : Telemetry.Trace.span) -> sp.name) spans in
  List.iter
    (fun n -> check_bool (n ^ " recorded") true (List.mem n names))
    [
      "hexastore.add_bulk"; "hexastore.remove_bulk"; "index.bulk.sort"; "index.bulk.merge";
      "index.bulk.link.spo"; "index.bulk.link.sop"; "index.bulk.link.pos";
      "index.bulk.unlink.spo"; "index.bulk.unlink.sop"; "index.bulk.unlink.pos";
    ];
  let id_of n =
    (List.find (fun (sp : Telemetry.Trace.span) -> String.equal sp.name n) spans).id
  in
  let pass = List.find (fun (sp : Telemetry.Trace.span) -> sp.name = "index.bulk.link.pos") spans in
  check_bool "pass nests under the bulk load" true (pass.parent = Some (id_of "hexastore.add_bulk"));
  Telemetry.Trace.clear ()

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Telemetry.Json.Obj
      [
        ("s", Telemetry.Json.String "a\"b\\c\n\t\x01é");
        ("i", Telemetry.Json.Int (-42));
        ("f", Telemetry.Json.Float 2.5);
        ("b", Telemetry.Json.Bool true);
        ("n", Telemetry.Json.Null);
        ("l", Telemetry.Json.List [ Telemetry.Json.Int 1; Telemetry.Json.Obj [] ]);
      ]
  in
  (match Telemetry.Json.of_string (Telemetry.Json.to_string doc) with
  | Ok doc' -> check_bool "round-trips" true (doc = doc')
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg);
  (match Telemetry.Json.of_string (Telemetry.Json.to_string ~indent:0 doc) with
  | Ok doc' -> check_bool "compact round-trips" true (doc = doc')
  | Error msg -> Alcotest.failf "compact round-trip failed: %s" msg);
  check_bool "trailing garbage rejected" true
    (Result.is_error (Telemetry.Json.of_string "{} x"));
  check_bool "unterminated rejected" true (Result.is_error (Telemetry.Json.of_string "[1, 2"));
  let nested = Telemetry.Json.Obj [ ("a", Telemetry.Json.Obj [ ("b", Telemetry.Json.Int 7) ]) ] in
  check_bool "path walks" true
    (match Telemetry.Json.path [ "a"; "b" ] nested with
    | Some v -> Telemetry.Json.to_float_opt v = Some 7.
    | None -> false)

(* ------------------------------------------------------------------ *)
(* JSON parser error paths                                             *)
(* ------------------------------------------------------------------ *)

let test_json_truncated () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "truncated %S rejected" s) true
        (Result.is_error (Telemetry.Json.of_string s)))
    [ ""; "{"; "{\"a\":"; "{\"a\": 1,"; "[1,"; "["; "\"abc"; "tru"; "fals"; "nul"; "-"; "1e" ]

let test_json_bad_escapes () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "bad escape %S rejected" s) true
        (Result.is_error (Telemetry.Json.of_string s)))
    [ {|"\x"|}; {|"\u12"|}; {|"\uZZZZ"|}; {|"\|}; "\"a\nb\"" ]

let test_json_deep_nesting () =
  let nested depth = String.make depth '[' ^ String.make depth ']' in
  (match Telemetry.Json.of_string (nested 513) with
  | Error msg -> check_bool "default depth error names nesting" true
      (String.length msg > 0
      && Option.is_some
           (String.index_opt msg 'n' (* "nesting deeper than ..." *)))
  | Ok _ -> Alcotest.fail "513-deep document accepted at default max_depth");
  check_bool "512 deep passes at the default limit" true
    (Result.is_ok (Telemetry.Json.of_string (nested 512)));
  check_bool "shallow passes a tight limit" true
    (Result.is_ok (Telemetry.Json.of_string ~max_depth:10 (nested 10)));
  check_bool "tight limit rejects one past it" true
    (Result.is_error (Telemetry.Json.of_string ~max_depth:10 (nested 11)));
  (* Objects count toward the same depth budget as arrays. *)
  check_bool "deep objects rejected too" true
    (Result.is_error
       (Telemetry.Json.of_string ~max_depth:10
          (String.concat "" (List.init 11 (fun _ -> "{\"k\":"))
          ^ "null"
          ^ String.make 11 '}')))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_events_ring () =
  with_events true (fun () ->
      Telemetry.Events.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Telemetry.Events.set_capacity 1024)
        (fun () ->
          check_int "resized" 4 (Telemetry.Events.capacity ());
          check_int "empty after resize" 0 (Telemetry.Events.recorded ());
          for i = 1 to 6 do
            Telemetry.Events.emit
              (Telemetry.Events.Query_start { label = Printf.sprintf "q%d" i })
          done;
          check_int "all emissions counted" 6 (Telemetry.Events.recorded ());
          check_int "overwrites counted as drops" 2 (Telemetry.Events.dropped ());
          let dump = Telemetry.Events.dump () in
          check_int "ring retains capacity" 4 (List.length dump);
          check_bool "oldest first, survivors are the newest" true
            (List.map (fun (e : Telemetry.Events.event) -> e.seq) dump = [ 2; 3; 4; 5 ]);
          (match (List.hd dump).Telemetry.Events.kind with
          | Telemetry.Events.Query_start { label } -> check_string "labels intact" "q3" label
          | _ -> Alcotest.fail "unexpected kind in dump");
          Telemetry.Events.clear ();
          check_int "clear empties" 0 (Telemetry.Events.recorded ());
          check_int "clear resets drops" 0 (Telemetry.Events.dropped ());
          check_int "dump empty after clear" 0 (List.length (Telemetry.Events.dump ()))))

let test_events_disabled () =
  with_events false (fun () ->
      let recorded = Telemetry.Events.recorded () in
      let activity = Telemetry.activity_count () in
      Telemetry.Events.emit (Telemetry.Events.Query_start { label = "silenced" });
      check_int "emit is a no-op when disabled" recorded (Telemetry.Events.recorded ());
      check_int "recorder never touches note_activity" activity (Telemetry.activity_count ()))

let test_events_always_on () =
  (* The recorder is the *always-on* layer: it records even while the
     telemetry master gate is off. *)
  check_bool "telemetry master gate is off" false !Telemetry.enabled;
  with_events true (fun () ->
      let before = Telemetry.Events.recorded () in
      Telemetry.Events.emit (Telemetry.Events.Delta_compact { pending = 3 });
      check_int "recorded with telemetry disabled" (before + 1) (Telemetry.Events.recorded ()))

let test_events_instrumentation () =
  with_events true (fun () ->
      Telemetry.Events.clear ();
      let boxed = lubm_boxed () in
      let q = parse "SELECT ?x WHERE { ?x rdf:type ub:Course . }" in
      ignore (Query.Exec.count boxed q);
      let kinds =
        List.map
          (fun (e : Telemetry.Events.event) -> Telemetry.Events.kind_name e.kind)
          (Telemetry.Events.dump ())
      in
      check_bool "query boundaries and plan choice narrated" true
        (kinds = [ "query.start"; "plan.choice"; "query.end" ]);
      (match (List.nth (Telemetry.Events.dump ()) 2).Telemetry.Events.kind with
      | Telemetry.Events.Query_end { label; rows } ->
          check_string "label names root op and pattern count" "project/1tp" label;
          check_bool "row count captured" true (rows > 0)
      | _ -> Alcotest.fail "last event is not query.end");
      (* Delta flushes narrate too. *)
      Telemetry.Events.clear ();
      let dl = Hexa.Delta.create () in
      let dict = Hexa.Delta.dict dl in
      ignore
        (Hexa.Delta.add_ids dl
           (Dict.Term_dict.encode_triple dict
              (Rdf.Triple.make
                 (Rdf.Term.iri "http://example.org/s")
                 (Rdf.Term.iri "http://example.org/p")
                 (Rdf.Term.iri "http://example.org/o"))));
      Hexa.Delta.flush dl;
      let flushes =
        List.filter_map
          (fun (e : Telemetry.Events.event) ->
            match e.kind with
            | Telemetry.Events.Delta_flush { pending; rebuild = _; auto } ->
                Some (pending, auto)
            | _ -> None)
          (Telemetry.Events.dump ())
      in
      check_bool "explicit flush recorded with its backlog" true (flushes = [ (1, false) ]))

let test_events_json_roundtrip () =
  with_events true (fun () ->
      Telemetry.Events.clear ();
      Telemetry.Events.emit
        (Telemetry.Events.Slow_query { label = "q"; wall_s = 0.25; plan = "project\n└─ bgp" });
      Telemetry.Events.emit (Telemetry.Events.Snapshot_save { path = "/tmp/x.hx"; triples = 9 });
      let json = Telemetry.Events.to_json () in
      let s = Telemetry.Json.to_string json in
      match Telemetry.Json.of_string s with
      | Error msg -> Alcotest.failf "events JSON does not parse: %s" msg
      | Ok j ->
          check_string "stable re-encoding" s (Telemetry.Json.to_string j);
          check_bool "accounting fields present" true
            (List.for_all
               (fun k -> Option.is_some (Telemetry.Json.member k j))
               [ "capacity"; "recorded"; "dropped"; "events" ]);
          (match Telemetry.Json.member "events" j with
          | Some (Telemetry.Json.List evs) -> check_int "both events exported" 2 (List.length evs)
          | _ -> Alcotest.fail "events is not a list"))

(* ------------------------------------------------------------------ *)
(* Per-query profiler and the slow-query log                           *)
(* ------------------------------------------------------------------ *)

let test_profile_diff () =
  Telemetry.with_enabled true (fun () ->
      let c = Telemetry.Metrics.counter "test.profile.steps" in
      let x, d =
        Telemetry.Profile.profiled (fun () ->
            Telemetry.Metrics.incr c;
            Telemetry.Metrics.add c 2;
            (* Allocate something visible to the GC accounting. *)
            List.init 1000 (fun i -> i))
      in
      check_int "thunk result passed through" 1000 (List.length x);
      check_int "counter movement attributed" 3
        (Telemetry.Profile.counter_delta d "test.profile.steps");
      check_int "absent counters read as zero" 0
        (Telemetry.Profile.counter_delta d "test.profile.absent");
      check_bool "prefix total covers the movement" true
        (Telemetry.Profile.counter_total ~prefix:"test.profile." d >= 3);
      check_bool "allocation observed" true (d.Telemetry.Profile.alloc_words > 0.);
      check_bool "wall time non-negative" true (d.Telemetry.Profile.wall_s >= 0.);
      (* Idle diffs are empty: nothing moved, nothing reported. *)
      let _, quiet = Telemetry.Profile.profiled (fun () -> ()) in
      check_int "quiet thunk has no counter deltas" 0
        (List.length quiet.Telemetry.Profile.counters))

let test_slow_query_log () =
  Telemetry.Profile.clear_slow_log ();
  let saved = Telemetry.Profile.slow_threshold_s () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Profile.set_threshold_s saved;
      Telemetry.Profile.clear_slow_log ())
    (fun () ->
      (* Above-threshold work is not logged and its plan never rendered. *)
      Telemetry.Profile.set_threshold_s 3600.;
      let forced_fast = ref false in
      let _, d = Telemetry.Profile.profiled (fun () -> Sys.opaque_identity 1) in
      Telemetry.Profile.note ~label:"fast"
        ~plan:(fun () ->
          forced_fast := true;
          "plan")
        d;
      check_int "fast query not logged" 0 (Telemetry.Profile.slow_count ());
      check_bool "fast query's plan never forced" false !forced_fast;
      (* Zero threshold logs everything and emits into the ring. *)
      Telemetry.Profile.set_threshold_s 0.;
      with_events true (fun () ->
          Telemetry.Events.clear ();
          let _, d = Telemetry.Profile.profiled (fun () -> Sys.opaque_identity 1) in
          Telemetry.Profile.note ~label:"slow" ~plan:(fun () -> "project\n└─ bgp") d;
          check_int "slow query logged" 1 (Telemetry.Profile.slow_count ());
          (match Telemetry.Profile.slow_queries () with
          | [ sq ] ->
              check_string "label retained" "slow" sq.Telemetry.Profile.sq_label;
              check_string "analyze tree retained" "project\n└─ bgp"
                sq.Telemetry.Profile.sq_plan
          | l -> Alcotest.failf "expected 1 slow entry, got %d" (List.length l));
          check_bool "threshold crossing lands in the flight recorder" true
            (List.exists
               (fun (e : Telemetry.Events.event) ->
                 match e.kind with
                 | Telemetry.Events.Slow_query { label; plan; _ } ->
                     String.equal label "slow" && String.equal plan "project\n└─ bgp"
                 | _ -> false)
               (Telemetry.Events.dump ()));
          (* The JSON view parses and carries the threshold. *)
          let s = Telemetry.Json.to_string (Telemetry.Profile.slow_log_to_json ()) in
          match Telemetry.Json.of_string s with
          | Error msg -> Alcotest.failf "slow log JSON does not parse: %s" msg
          | Ok j ->
              check_bool "total exported" true
                (match Telemetry.Json.member "total" j with
                | Some (Telemetry.Json.Int 1) -> true
                | _ -> false)))

let test_slow_log_rotation () =
  Telemetry.Profile.clear_slow_log ();
  let saved = Telemetry.Profile.slow_threshold_s () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Profile.set_threshold_s saved;
      Telemetry.Profile.clear_slow_log ())
    (fun () ->
      Telemetry.Profile.set_threshold_s 0.;
      with_events false (fun () ->
          for i = 1 to Telemetry.Profile.max_slow_entries + 10 do
            let _, d = Telemetry.Profile.profiled (fun () -> Sys.opaque_identity i) in
            Telemetry.Profile.note ~label:(Printf.sprintf "q%d" i) ~plan:(fun () -> "") d
          done);
      check_int "total counts rotated-out entries too"
        (Telemetry.Profile.max_slow_entries + 10)
        (Telemetry.Profile.slow_count ());
      let entries = Telemetry.Profile.slow_queries () in
      check_int "retention is bounded" Telemetry.Profile.max_slow_entries (List.length entries);
      check_string "oldest retained entry is the first survivor" "q11"
        (List.hd entries).Telemetry.Profile.sq_label)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_quantiles () =
  let h = Telemetry.Histogram.make "test.quantiles" in
  check_float "empty histogram reads zero" 0. (Telemetry.Histogram.quantile h 0.5);
  Telemetry.with_enabled true (fun () ->
      for i = 1 to 100 do
        Telemetry.Histogram.observe h i
      done);
  let q50 = Telemetry.Histogram.quantile h 0.5 in
  let q95 = Telemetry.Histogram.quantile h 0.95 in
  let q99 = Telemetry.Histogram.quantile h 0.99 in
  check_bool "p50 in the middle of 1..100" true (q50 >= 25. && q50 <= 75.);
  check_bool "monotone in q" true (q50 <= q95 && q95 <= q99);
  check_float "clamped below to the observed min" 1. (Telemetry.Histogram.quantile h 0.);
  check_float "clamped above to the observed max" 100. (Telemetry.Histogram.quantile h 1.);
  check_float "q below 0 clamps" 1. (Telemetry.Histogram.quantile h (-1.));
  check_float "q above 1 clamps" 100. (Telemetry.Histogram.quantile h 2.)

let test_chrome_trace () =
  Telemetry.with_enabled true (fun () ->
      Telemetry.Trace.clear ();
      Telemetry.Clock.with_source (Telemetry.Clock.ticking ~start:0. ~step:1. ()) (fun () ->
          Telemetry.Trace.with_span "outer" (fun () ->
              Telemetry.Trace.with_span "inner" (fun () -> ())));
      let json = Telemetry.Export.chrome_trace () in
      let s = Telemetry.Json.to_string json in
      (match Telemetry.Json.of_string s with
      | Error msg -> Alcotest.failf "chrome trace does not parse: %s" msg
      | Ok j -> check_string "stable re-encoding" s (Telemetry.Json.to_string j));
      match Telemetry.Json.member "traceEvents" json with
      | Some (Telemetry.Json.List [ meta; ev_inner; ev_outer ]) ->
          (* Single-domain dump: one lane-name metadata event, then the
             two spans on the historical tid=1 lane. *)
          (match Telemetry.Json.member "ph" meta with
          | Some (Telemetry.Json.String "M") -> ()
          | _ -> Alcotest.fail "first trace event is not thread metadata");
          let str k ev =
            match Telemetry.Json.member k ev with
            | Some (Telemetry.Json.String s) -> s
            | _ -> Alcotest.failf "missing string field %s" k
          in
          let num k ev =
            match Option.bind (Telemetry.Json.member k ev) Telemetry.Json.to_float_opt with
            | Some f -> f
            | None -> Alcotest.failf "missing numeric field %s" k
          in
          check_string "complete events" "X" (str "ph" ev_inner);
          check_string "category" "hexastore" (str "cat" ev_outer);
          check_string "span name" "inner" (str "name" ev_inner);
          (* Ticking clock: outer [0,3], inner [1,2] — microsecond units. *)
          check_float "inner ts" 1e6 (num "ts" ev_inner);
          check_float "inner dur" 1e6 (num "dur" ev_inner);
          check_float "outer dur" 3e6 (num "dur" ev_outer);
          check_float "depth in args" 1.
            (match Telemetry.Json.path [ "args"; "depth" ] ev_inner with
            | Some v -> Option.value ~default:(-1.) (Telemetry.Json.to_float_opt v)
            | None -> -1.)
      | _ -> Alcotest.fail "traceEvents is not a metadata + 2-span list")

let test_prometheus_exposition () =
  Telemetry.with_enabled true (fun () ->
      let c = Telemetry.Metrics.counter "test.prom.hits" in
      let h = Telemetry.Metrics.histogram "test.prom.sizes" in
      Telemetry.Metrics.add c 7;
      for i = 1 to 100 do
        Telemetry.Metrics.observe h i
      done);
  let text = Telemetry.Export.prometheus () in
  let lines = String.split_on_char '\n' text in
  let has_line pred = List.exists pred lines in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  check_string "dots sanitised" "test_prom_hits" (Telemetry.Export.metric_name "test.prom.hits");
  check_bool "counter TYPE line" true (has_line (( = ) "# TYPE test_prom_hits counter"));
  check_bool "counter sample" true (has_line (starts "test_prom_hits 7"));
  check_bool "histogram TYPE line" true (has_line (( = ) "# TYPE test_prom_sizes histogram"));
  check_bool "+Inf bucket closes the series" true
    (has_line (starts "test_prom_sizes_bucket{le=\"+Inf\"} 100"));
  check_bool "sum and count" true
    (has_line (starts "test_prom_sizes_sum 5050") && has_line (starts "test_prom_sizes_count 100"));
  check_bool "quantile companion family" true
    (List.for_all
       (fun q -> has_line (starts (Printf.sprintf "test_prom_sizes_quantile{quantile=\"%s\"}" q)))
       [ "0.5"; "0.95"; "0.99" ]);
  check_bool "ring accounting synthesised" true
    (has_line (starts "telemetry_events_recorded ")
    && has_line (starts "telemetry_events_dropped ")
    && has_line (starts "telemetry_events_capacity "));
  (* Cumulative buckets: counts along each _bucket series never decrease. *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        if starts "test_prom_sizes_bucket{" l then
          String.rindex_opt l ' '
          |> Option.map (fun i -> float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      lines
  in
  check_bool "buckets are cumulative" true
    (bucket_counts <> [] && List.sort compare bucket_counts = bucket_counts);
  (* Every sample line is "name[{labels}] value" with a finite value. *)
  List.iter
    (fun l ->
      if l <> "" && not (starts "# " l) then
        match String.rindex_opt l ' ' with
        | None -> Alcotest.failf "malformed sample line: %s" l
        | Some i -> (
            match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
            | Some _ -> ()
            | None -> Alcotest.failf "non-numeric sample value: %s" l))
    lines

let test_prometheus_empty_histogram () =
  ignore (Telemetry.Metrics.histogram "test.prom.empty");
  let lines = String.split_on_char '\n' (Telemetry.Export.prometheus ()) in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  check_bool "TYPE line still declared" true
    (List.exists (( = ) "# TYPE test_prom_empty histogram") lines);
  check_bool "+Inf bucket closes an empty series at zero" true
    (List.exists (starts "test_prom_empty_bucket{le=\"+Inf\"} 0") lines);
  check_bool "no quantile estimates without observations" false
    (List.exists (starts "test_prom_empty_quantile") lines)

let test_chrome_trace_escaping () =
  Telemetry.with_enabled true (fun () ->
      Telemetry.Trace.clear ();
      Telemetry.Trace.with_span "bad \"name\" \\lane\n\ttab \x01ctl" (fun () -> ());
      let s = Telemetry.Json.to_string (Telemetry.Export.chrome_trace ()) in
      match Telemetry.Json.of_string s with
      | Error msg -> Alcotest.failf "hostile span name broke the trace: %s" msg
      | Ok j -> check_string "stable re-encoding" s (Telemetry.Json.to_string j))

let test_cross_domain_parenting () =
  Telemetry.with_enabled true (fun () ->
      Telemetry.Trace.clear ();
      Telemetry.Trace.with_span_h "query" (fun h ->
          Domain.join
            (Domain.spawn (fun () ->
                 Telemetry.Trace.with_span ~parent:h "worker" (fun () -> ()))));
      let spans = Telemetry.Trace.spans () in
      let find name = List.find (fun (s : Telemetry.Trace.span) -> s.name = name) spans in
      let q = find "query" and w = find "worker" in
      check_int "worker depth is one under the query" (q.depth + 1) w.depth;
      check_bool "worker parent is the query span" true (w.parent = Some q.id);
      check_bool "spans ran on distinct domains" true (q.dom <> w.dom);
      (* Chrome rendering: each domain gets its own lane, announced by a
         metadata event, with stable 1-based tids in domain-id order. *)
      match Telemetry.Json.member "traceEvents" (Telemetry.Export.chrome_trace ()) with
      | Some (Telemetry.Json.List evs) ->
          let is_meta ev =
            match Telemetry.Json.member "ph" ev with
            | Some (Telemetry.Json.String "M") -> true
            | _ -> false
          in
          let metas, span_evs = List.partition is_meta evs in
          check_int "one lane-name event per domain" 2 (List.length metas);
          let tid ev =
            match Option.bind (Telemetry.Json.member "tid" ev) Telemetry.Json.to_float_opt with
            | Some f -> int_of_float f
            | None -> -1
          in
          check_bool "per-domain lanes are tids 1 and 2" true
            (List.sort_uniq compare (List.map tid span_evs) = [ 1; 2 ])
      | _ -> Alcotest.fail "no traceEvents")

let test_events_dom_tag () =
  with_events true (fun () ->
      Telemetry.Events.clear ();
      Telemetry.Events.emit (Telemetry.Events.Query_start { label = "here" });
      Domain.join
        (Domain.spawn (fun () ->
             Telemetry.Events.emit (Telemetry.Events.Query_start { label = "there" })));
      match Telemetry.Events.dump () with
      | [ a; b ] ->
          check_int "local event tagged with the emitting domain"
            (Domain.self () :> int)
            a.Telemetry.Events.dom;
          check_bool "spawned domain's event tagged differently" true
            (b.Telemetry.Events.dom <> a.Telemetry.Events.dom);
          check_bool "dom is serialised" true
            (Telemetry.Json.member "dom" (Telemetry.Events.event_to_json b) <> None)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_trace_dropped_counter () =
  Telemetry.with_enabled true (fun () ->
      Telemetry.Trace.clear ();
      let c = Telemetry.Metrics.counter "telemetry.trace.dropped" in
      let before = Telemetry.Metrics.value c in
      for _ = 1 to 8192 + 5 do
        Telemetry.Trace.with_span "overflow" (fun () -> ())
      done;
      check_int "buffer-full spans counted locally" 5 (Telemetry.Trace.dropped ());
      check_int "and mirrored into the registry" (before + 5) (Telemetry.Metrics.value c);
      Telemetry.Trace.clear ())

(* ------------------------------------------------------------------ *)
(* Encoder round-trips (qcheck)                                        *)
(* ------------------------------------------------------------------ *)

(* Stable re-encoding is the right property for printed JSON: parsing a
   printed float may legitimately reconstruct an Int (e.g. "2"), but the
   re-printed text must be identical. *)
let reencodes_stably json =
  let s = Telemetry.Json.to_string json in
  match Telemetry.Json.of_string s with
  | Ok j -> String.equal s (Telemetry.Json.to_string j)
  | Error msg -> QCheck.Test.fail_reportf "printed JSON does not parse: %s\n%s" msg s

let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 3) (fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun i -> Telemetry.Json.Int i) small_signed_int;
              map (fun f -> Telemetry.Json.Float f) (float_bound_exclusive 1000.);
              map (fun s -> Telemetry.Json.String s) string_printable;
              map (fun b -> Telemetry.Json.Bool b) bool;
              return Telemetry.Json.Null;
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Telemetry.Json.List l) (list_size (int_bound 4) (self (n - 1)));
              map
                (fun kvs -> Telemetry.Json.Obj kvs)
                (list_size (int_bound 4) (pair string_printable (self (n - 1))));
            ])))

let qcheck_json_reencode =
  QCheck.Test.make ~name:"arbitrary Json.t re-encodes stably" ~count:500
    (QCheck.make ~print:(fun j -> Telemetry.Json.to_string ~indent:2 j) gen_json)
    reencodes_stably

let gen_event_kind =
  QCheck.Gen.(
    let s = string_printable in
    oneof
      [
        map (fun label -> Telemetry.Events.Query_start { label }) s;
        map2 (fun label rows -> Telemetry.Events.Query_end { label; rows }) s small_nat;
        map2 (fun label detail -> Telemetry.Events.Plan_choice { label; detail }) s s;
        map3
          (fun pending rebuild auto -> Telemetry.Events.Delta_flush { pending; rebuild; auto })
          small_nat bool bool;
        map (fun pending -> Telemetry.Events.Delta_compact { pending }) small_nat;
        map2 (fun path triples -> Telemetry.Events.Snapshot_save { path; triples }) s small_nat;
        map2 (fun path triples -> Telemetry.Events.Snapshot_load { path; triples }) s small_nat;
        map3
          (fun label wall_s plan -> Telemetry.Events.Slow_query { label; wall_s; plan })
          s (float_bound_exclusive 10.) s;
        map3
          (fun label planned (achieved, width) ->
            Telemetry.Events.Par_fanout { label; planned; achieved; width })
          s small_nat
          (pair small_nat (int_bound 64));
      ])

let gen_event =
  QCheck.Gen.(
    map3
      (fun seq (at, dom) kind -> { Telemetry.Events.seq; at; dom; kind })
      small_nat
      (pair (float_bound_exclusive 1e6) (int_bound 8))
      gen_event_kind)

let qcheck_event_reencode =
  QCheck.Test.make ~name:"flight-recorder events re-encode stably" ~count:500
    (QCheck.make
       ~print:(fun e -> Telemetry.Json.to_string ~indent:2 (Telemetry.Events.event_to_json e))
       gen_event)
    (fun e -> reencodes_stably (Telemetry.Events.event_to_json e))

let qcheck_span_reencode =
  QCheck.Test.make ~name:"trace spans re-encode stably as Chrome events" ~count:500
    (QCheck.make
       QCheck.Gen.(
         map3
           (fun name (start, duration) (depth, id, parent, dom) ->
             { Telemetry.Trace.name; start; duration; depth; id; parent; dom })
           string_printable
           (pair (float_bound_exclusive 1e9) (float_bound_exclusive 10.))
           (map3
              (fun depth (id, dom) parent -> (depth, 1 + id, parent, dom))
              (int_bound 12)
              (pair small_nat (int_bound 8))
              (oneof [ return None; map (fun p -> Some (1 + p)) small_nat ]))))
    (fun sp -> reencodes_stably (Telemetry.Export.span_to_trace_event sp))

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* EXPLAIN goldens (LUBM, deterministic seed 42)                       *)
(* ------------------------------------------------------------------ *)

let render plan = Format.asprintf "%a" Query.Exec.pp_explain plan

let test_explain_golden_single () =
  let plan = Query.Exec.explain (lubm_boxed ())
      (parse "SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . }")
  in
  let expected =
    "project [?x]\n"
    ^ "└─ bgp 1 patterns\n"
    ^ "   └─ scan ?x <" ^ rdf_type ^ "> <" ^ ub
    ^ "GraduateStudent> . index=pos strategy=scan  (est=96 sel=2.53e-02)"
  in
  check_string "single-pattern plan" expected (render plan)

let test_explain_golden_repr () =
  (* The same plan over a compressed store carries a repr= annotation on
     its scan node (raw stores stay unannotated, so the goldens above
     double as the negative case). *)
  let compressed =
    let cfg = Workloads.Lubm.config ~universities:1 ~departments_per_university:1 () in
    let h = Hexa.Hexastore.create ~repr:Vectors.Sorted_ivec.Packed () in
    List.iter
      (fun tr -> ignore (Hexa.Hexastore.add h tr))
      (Workloads.Lubm.generate cfg);
    Hexa.Hexastore.compress h;
    Hexa.Store_sig.box_hexastore h
  in
  let plan =
    Query.Exec.explain compressed
      (parse "SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . }")
  in
  let expected =
    "project [?x]\n"
    ^ "└─ bgp 1 patterns\n"
    ^ "   └─ scan ?x <" ^ rdf_type ^ "> <" ^ ub
    ^ "GraduateStudent> . index=pos strategy=scan repr=packed  (est=96 sel=2.53e-02)"
  in
  check_string "compressed-store plan" expected (render plan)

let test_explain_golden_hash () =
  (* The third step shares only ?x while the pipeline streams sorted on
     ?y (established by the FullProfessor scan), so the planner must
     fall back from merge to a hash join there. *)
  let plan =
    Query.Exec.explain (lubm_boxed ())
      (parse
         "SELECT ?x ?y WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:advisor ?y . ?y rdf:type \
          ub:FullProfessor . }")
  in
  let expected =
    "project [?x ?y]\n"
    ^ "└─ bgp 3 patterns, joins: 1 merge + 1 hash\n"
    ^ "   ├─ scan ?y <" ^ rdf_type ^ "> <" ^ ub
    ^ "FullProfessor> . index=pos strategy=scan  (est=7 sel=1.84e-03)\n"
    ^ "   ├─ scan ?x <" ^ ub ^ "advisor> ?y . index=pos strategy=merge(?y)  (est=96 sel=2.53e-02)\n"
    ^ "   └─ scan ?x <" ^ rdf_type ^ "> <" ^ ub
    ^ "GraduateStudent> . index=spo strategy=hash(?x)  (est=96 sel=2.53e-02)"
  in
  check_string "hash-join plan" expected (render plan)

let test_explain_golden_analyze () =
  (* A ticking clock makes every ANALYZE timing exactly one step
     (0.5 ms); row counts are exact, so the whole tree is a golden.  The
     flight recorder is silenced: its emissions also read the injectable
     clock and would consume ticks inside the measured regions. *)
  let q =
    parse
      "SELECT ?x ?y WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:advisor ?y . ?y rdf:type \
       ub:FullProfessor . }"
  in
  let plan =
    with_events false (fun () ->
        Telemetry.Clock.with_source (Telemetry.Clock.ticking ~start:0. ~step:0.0005 ()) (fun () ->
            Query.Exec.explain ~analyze:true (lubm_boxed ()) q))
  in
  let expected =
    "project [?x ?y]  rows=23 time=0.500ms\n"
    ^ "└─ bgp 3 patterns, joins: 1 merge + 1 hash  rows=23 time=0.500ms\n"
    ^ "   ├─ scan ?y <" ^ rdf_type ^ "> <" ^ ub
    ^ "FullProfessor> . index=pos strategy=scan  (est=7 sel=1.84e-03)  rows=7 time=0.500ms\n"
    ^ "   ├─ scan ?x <" ^ ub ^ "advisor> ?y . index=pos strategy=merge(?y)  (est=96 \
       sel=2.53e-02)  rows=23 time=0.500ms\n"
    ^ "   └─ scan ?x <" ^ rdf_type ^ "> <" ^ ub
    ^ "GraduateStudent> . index=spo strategy=hash(?x)  (est=96 sel=2.53e-02)  rows=23 \
       time=0.500ms"
  in
  check_string "3-pattern ANALYZE plan" expected (render plan)

let test_explain_analyze_matches_count () =
  (* Acceptance: ANALYZE row counts agree with Exec.count. *)
  let boxed = lubm_boxed () in
  List.iter
    (fun text ->
      let q = parse text in
      let plan = Query.Exec.explain ~analyze:true boxed q in
      check_int ("root rows = count for " ^ text) (Query.Exec.count boxed q)
        (Option.get plan.Query.Exec.actual_rows))
    [
      "SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . }";
      "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c . ?x rdf:type ub:GraduateStudent . }";
      "SELECT ?x ?y WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:advisor ?y . ?y rdf:type \
       ub:FullProfessor . }";
    ]

let test_explain_json_shape () =
  let plan =
    Query.Exec.explain (lubm_boxed ()) (parse "SELECT ?x WHERE { ?x rdf:type ub:Course . }")
  in
  let json = Query.Exec.explain_to_json plan in
  check_bool "op at root" true
    (match Telemetry.Json.member "op" json with
    | Some (Telemetry.Json.String "project") -> true
    | _ -> false);
  (* Encode and re-parse: the EXPLAIN export must stay within what the
     codec round-trips.  Floats carry 12 significant digits through the
     encoder, so compare the stable re-encoding, not the values. *)
  match Telemetry.Json.of_string (Telemetry.Json.to_string json) with
  | Ok json' ->
      check_string "explain JSON re-encodes identically" (Telemetry.Json.to_string json)
        (Telemetry.Json.to_string json')
  | Error msg -> Alcotest.failf "explain JSON failed to parse: %s" msg

(* ------------------------------------------------------------------ *)
(* Planner accuracy (q-error)                                          *)
(* ------------------------------------------------------------------ *)

let test_selectivity_exact_for_patterns () =
  (* The planner's per-pattern inputs are exact counts, not sampled
     estimates: Stats.selectivity × size must equal Exec.count on every
     single-pattern BGP (q-error exactly 1). *)
  let h = Lazy.force lubm_store in
  let boxed = lubm_boxed () in
  let dict = Hexa.Hexastore.dict h in
  let n = Hexa.Hexastore.size h in
  List.iter
    (fun text ->
      match parse text with
      | Query.Algebra.Project (_, Query.Algebra.Bgp [ tp ]) as q ->
          let pat_of = function
            | Query.Algebra.Var _ -> Some None
            | Query.Algebra.Term t -> (
                match Dict.Term_dict.find_term dict t with
                | None -> None
                | Some id -> Some (Some id))
          in
          (match (pat_of tp.Query.Algebra.s, pat_of tp.Query.Algebra.p, pat_of tp.Query.Algebra.o)
          with
          | Some s, Some p, Some o ->
              let sel = Hexa.Stats.selectivity h { Hexa.Pattern.s; p; o } in
              let estimated = int_of_float (Float.round (sel *. float_of_int n)) in
              check_int ("selectivity exact for " ^ text) (Query.Exec.count boxed q) estimated
          | _ -> Alcotest.failf "vocabulary missing for %s" text)
      | _ -> Alcotest.failf "not a single-pattern query: %s" text)
    [
      "SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . }";
      "SELECT ?x WHERE { ?x rdf:type ub:FullProfessor . }";
      "SELECT ?x WHERE { ?x ub:advisor ?y . }";
      "SELECT ?x WHERE { ?x ub:takesCourse ?c . }";
    ]

let test_join_q_error_within_order_of_magnitude () =
  (* For multi-pattern queries the planner still uses the standalone
     per-pattern estimate at each step; EXPLAIN ANALYZE gives the rows
     each step actually produced.  Record the q-error of every scan and
     assert it stays within one order of magnitude on the LUBM queries
     (the store's exact per-pattern counts keep it tight). *)
  let boxed = lubm_boxed () in
  let q_errors = ref [] in
  let rec walk (node : Query.Exec.explain_node) =
    (match (node.op, node.estimate, node.actual_rows) with
    | "scan", Some est, Some rows when est > 0 && rows > 0 ->
        let q_err = Float.max (float_of_int est /. float_of_int rows)
            (float_of_int rows /. float_of_int est)
        in
        q_errors := (node.detail, q_err) :: !q_errors
    | _ -> ());
    List.iter walk node.children
  in
  List.iter
    (fun text -> walk (Query.Exec.explain ~analyze:true boxed (parse text)))
    [
      "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c . ?x rdf:type ub:GraduateStudent . }";
      "SELECT ?x ?y WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:advisor ?y . ?y rdf:type \
       ub:FullProfessor . }";
      "SELECT ?x ?d WHERE { ?x ub:worksFor ?d . ?x rdf:type ub:FullProfessor . }";
    ]
  ;
  check_bool "collected several scans" true (List.length !q_errors >= 6);
  List.iter
    (fun (detail, q_err) ->
      Format.printf "q-error %.2f  %s@." q_err detail;
      if q_err > 10. then
        Alcotest.failf "q-error %.2f exceeds one order of magnitude for %s" q_err detail)
    (List.rev !q_errors)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "snapshot and json" `Quick test_snapshot_prefix;
        ] );
      ( "disabled-mode",
        [
          Alcotest.test_case "no activity" `Quick test_disabled_no_activity;
          Alcotest.test_case "counters stay zero" `Quick test_disabled_counters_stay_zero;
          Alcotest.test_case "zero allocation" `Quick test_disabled_zero_allocation;
          Alcotest.test_case "hooks fire when enabled" `Quick test_enabled_hooks_fire;
        ] );
      ("clock", [ Alcotest.test_case "injection" `Quick test_clock_injection ]);
      ( "trace",
        [
          Alcotest.test_case "spans" `Quick test_trace_spans;
          Alcotest.test_case "dropped counter" `Quick test_trace_dropped_counter;
          Alcotest.test_case "load-path spans" `Quick test_load_spans;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "truncated input" `Quick test_json_truncated;
          Alcotest.test_case "bad escapes" `Quick test_json_bad_escapes;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          qt qcheck_json_reencode;
        ] );
      ( "events",
        [
          Alcotest.test_case "ring wrap and drops" `Quick test_events_ring;
          Alcotest.test_case "disabled gate" `Quick test_events_disabled;
          Alcotest.test_case "always-on" `Quick test_events_always_on;
          Alcotest.test_case "query and delta narration" `Quick test_events_instrumentation;
          Alcotest.test_case "json round-trip" `Quick test_events_json_roundtrip;
          Alcotest.test_case "domain tagging" `Quick test_events_dom_tag;
          qt qcheck_event_reencode;
        ] );
      ( "profile",
        [
          Alcotest.test_case "diff attribution" `Quick test_profile_diff;
          Alcotest.test_case "slow-query log" `Quick test_slow_query_log;
          Alcotest.test_case "slow-log rotation" `Quick test_slow_log_rotation;
        ] );
      ( "export",
        [
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
          Alcotest.test_case "chrome trace escaping" `Quick test_chrome_trace_escaping;
          Alcotest.test_case "cross-domain parenting and lanes" `Quick
            test_cross_domain_parenting;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "prometheus empty histogram" `Quick
            test_prometheus_empty_histogram;
          qt qcheck_span_reencode;
        ] );
      ( "explain",
        [
          Alcotest.test_case "golden single pattern" `Quick test_explain_golden_single;
          Alcotest.test_case "golden compressed repr" `Quick test_explain_golden_repr;
          Alcotest.test_case "golden hash join" `Quick test_explain_golden_hash;
          Alcotest.test_case "golden analyze join" `Quick test_explain_golden_analyze;
          Alcotest.test_case "analyze matches count" `Quick test_explain_analyze_matches_count;
          Alcotest.test_case "json shape" `Quick test_explain_json_shape;
        ] );
      ( "planner-accuracy",
        [
          Alcotest.test_case "per-pattern selectivity exact" `Quick
            test_selectivity_exact_for_patterns;
          Alcotest.test_case "join q-error within 10x" `Quick
            test_join_q_error_within_order_of_magnitude;
        ] );
    ]
