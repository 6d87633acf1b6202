(* hexastore — command-line front end to the store.

   Subcommands:
     query     load RDF data and run a SPARQL-subset query
     explain   show the query plan (optionally executed: --analyze)
     profile   run a query under the profiler: operator-attributed
               wall/probes/rows/GC, counter deltas, flight recorder
     metrics   run optional queries and export the registry (Prometheus
               text exposition or JSON) and Chrome trace spans
     stats     load RDF data and print store statistics
     convert   translate between N-Triples and Turtle
     snapshot  compile RDF data into a binary store snapshot

   Data files may be N-Triples (.nt), Turtle (.ttl) or binary snapshots
   (.snap); the format is chosen by extension, overridable with
   --format. *)

open Cmdliner

let detect_format ~format path =
  match format with
  | Some f -> f
  | None ->
      if Filename.check_suffix path ".ttl" then "turtle"
      else if Filename.check_suffix path ".snap" then "snapshot"
      else "ntriples"

let load_data ~format path =
  match detect_format ~format path with
  | "turtle" -> Rdf.Turtle.load_file ~namespaces:(Rdf.Namespace.default ()) path
  | "ntriples" -> Rdf.Ntriples.load_file path
  | "snapshot" -> Hexa.Hexastore.to_triples (Hexa.Snapshot.load path)
  | f -> failwith (Printf.sprintf "unknown format %S (expected ntriples, turtle or snapshot)" f)

let load_store ~format path =
  match detect_format ~format path with
  | "snapshot" -> Hexa.Snapshot.load path
  | _ -> Hexa.Hexastore.of_triples (load_data ~format path)

let handle_errors f =
  try f () with
  | Rdf.Ntriples.Parse_error (line, msg) ->
      Format.eprintf "N-Triples parse error, line %d: %s@." line msg;
      exit 1
  | Rdf.Turtle.Parse_error (line, msg) ->
      Format.eprintf "Turtle parse error, line %d: %s@." line msg;
      exit 1
  | Query.Sparql.Parse_error (line, msg) ->
      Format.eprintf "query parse error, line %d: %s@." line msg;
      exit 1
  | Hexa.Snapshot.Corrupt msg ->
      Format.eprintf "corrupt snapshot: %s@." msg;
      exit 1
  | Sys_error msg | Failure msg ->
      Format.eprintf "error: %s@." msg;
      exit 1

(* Query arguments accept inline text or [@FILE]. *)
let read_query_arg query_text =
  if String.length query_text > 0 && query_text.[0] = '@' then (
    let path = String.sub query_text 1 (String.length query_text - 1) in
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic)))
  else query_text

let format_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "format" ] ~docv:"FMT" ~doc:"Input format: ntriples or turtle (default: by extension).")

let data_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA" ~doc:"RDF data file.")

(* --- query ------------------------------------------------------------ *)

let query_cmd =
  let query_arg =
    Arg.(
      required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"SPARQL query text, or @FILE.")
  in
  let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.") in
  let run data format query_text csv =
    handle_errors (fun () ->
        let store = load_store ~format data in
        let text = read_query_arg query_text in
        let q = Query.Sparql.parse ~namespaces:(Rdf.Namespace.default ()) text in
        let boxed = Hexa.Store_sig.box_hexastore store in
        (* Every execution goes through the profiler so a run crossing
           the HEXASTORE_SLOW_MS threshold lands in the slow-query log
           (and the flight recorder) with its --analyze tree. *)
        let profiled f =
          let x, delta = Telemetry.Profile.profiled f in
          Telemetry.Profile.note
            ~label:(Query.Exec.query_label q.algebra)
            ~plan:(fun () ->
              Format.asprintf "%a" Query.Exec.pp_explain
                (Query.Exec.explain ~analyze:true boxed q.algebra))
            delta;
          x
        in
        if q.is_ask then
          print_endline (if profiled (fun () -> Query.Exec.ask boxed q.algebra) then "yes" else "no")
        else
          match q.template with
          | Some template ->
              let triples = profiled (fun () -> Query.Exec.construct boxed ~template q.algebra) in
              List.iter (fun t -> print_endline (Rdf.Triple.to_string t)) triples
          | None -> begin
          let solutions = profiled (fun () -> Query.Exec.run boxed q.algebra) in
          let dict = Hexa.Hexastore.dict store in
          if csv then print_string (Query.Results.to_csv dict ~columns:q.projection solutions)
          else
            Format.printf "@[<v>%a@]@."
              (Query.Results.pp dict ~columns:q.projection)
              solutions
        end;
        (* HEXASTORE_TELEMETRY=1: dump what the run recorded, on stderr
           so it composes with --csv pipelines. *)
        if !Telemetry.enabled then Format.eprintf "%a@." Telemetry.report ())
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Load RDF data and run a SPARQL-subset query against a Hexastore.")
    Term.(const run $ data_arg $ format_arg $ query_arg $ csv_arg)

(* --- explain ---------------------------------------------------------- *)

let explain_cmd =
  let query_arg =
    Arg.(
      required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"SPARQL query text, or @FILE.")
  in
  let analyze_arg =
    Arg.(
      value & flag
      & info [ "analyze" ] ~doc:"Also execute the plan and report actual cardinalities and timings.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the plan tree as JSON.") in
  let run data format query_text analyze json =
    handle_errors (fun () ->
        let store = load_store ~format data in
        let text = read_query_arg query_text in
        let q = Query.Sparql.parse ~namespaces:(Rdf.Namespace.default ()) text in
        let boxed = Hexa.Store_sig.box_hexastore store in
        let plan = Query.Exec.explain ~analyze boxed q.algebra in
        if json then print_endline (Telemetry.Json.to_string ~indent:2 (Query.Exec.explain_to_json plan))
        else Format.printf "%a@." Query.Exec.pp_explain plan)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the query plan: join order, per-scan index, cardinality estimates; with --analyze, \
          actual row counts and timings.")
    Term.(const run $ data_arg $ format_arg $ query_arg $ analyze_arg $ json_arg)

(* --- profile ---------------------------------------------------------- *)

(* Load-path spans (bulk load, bulk delete, delta flush) totalled per
   phase name, in first-completion order: (name, spans, seconds). *)
let load_phases () =
  let is_load (sp : Telemetry.Trace.span) =
    List.exists
      (fun prefix -> String.starts_with ~prefix sp.name)
      [ "hexastore."; "index.bulk."; "delta." ]
  in
  List.fold_left
    (fun acc (sp : Telemetry.Trace.span) ->
      if not (is_load sp) then acc
      else
        if List.mem_assoc sp.name acc then
          List.map
            (fun ((name, (n, s)) as e) ->
              if String.equal name sp.name then (name, (n + 1, s +. sp.duration)) else e)
            acc
        else acc @ [ (sp.name, (1, sp.duration)) ])
    [] (Telemetry.Trace.spans ())

let profile_cmd =
  let query_arg =
    Arg.(
      required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"SPARQL query text, or @FILE.")
  in
  let slow_arg =
    Arg.(
      value & opt float 0.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Slow-query threshold in milliseconds (default 0: the profiled query always lands \
                in the slow-query log and the flight recorder).")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the whole profile as JSON.") in
  let run data format query_text slow_ms json =
    handle_errors (fun () ->
        (* Full instrumentation regardless of the environment: counters,
           spans and per-node probe/GC attribution all need the gate. *)
        Telemetry.enabled := true;
        Telemetry.Profile.set_threshold_s (slow_ms /. 1e3);
        let store = load_store ~format data in
        let text = read_query_arg query_text in
        let q = Query.Sparql.parse ~namespaces:(Rdf.Namespace.default ()) text in
        let boxed = Hexa.Store_sig.box_hexastore store in
        let label = Query.Exec.query_label q.algebra in
        let rows, delta =
          Telemetry.Profile.profiled (fun () ->
              if q.is_ask then if Query.Exec.ask boxed q.algebra then 1 else 0
              else
                match q.template with
                | Some template -> List.length (Query.Exec.construct boxed ~template q.algebra)
                | None -> List.length (Query.Exec.run boxed q.algebra))
        in
        let plan = Query.Exec.explain ~analyze:true boxed q.algebra in
        Telemetry.Profile.note ~label
          ~plan:(fun () -> Format.asprintf "%a" Query.Exec.pp_explain plan)
          delta;
        if json then
          print_endline
            (Telemetry.Json.to_string
               (Telemetry.Json.Obj
                  [
                    ("label", Telemetry.Json.String label);
                    ("rows", Telemetry.Json.Int rows);
                    ("profile", Telemetry.Profile.delta_to_json delta);
                    ("plan", Query.Exec.explain_to_json plan);
                    ( "load_phases",
                      Telemetry.Json.Obj
                        (List.map
                           (fun (name, (n, secs)) ->
                             ( name,
                               Telemetry.Json.Obj
                                 [
                                   ("spans", Telemetry.Json.Int n);
                                   ("seconds", Telemetry.Json.Float secs);
                                 ] ))
                           (load_phases ())) );
                    ("slow_queries", Telemetry.Profile.slow_log_to_json ());
                    ("events", Telemetry.Events.to_json ());
                  ]))
        else begin
          let probes =
            Telemetry.Profile.counter_total ~prefix:"hexastore.probe." delta
          in
          Format.printf "query: %s@." label;
          Format.printf "rows=%d wall=%.3fms probes=%d alloc=%.0f words@." rows
            (delta.Telemetry.Profile.wall_s *. 1e3)
            probes delta.Telemetry.Profile.alloc_words;
          Format.printf "@.plan (--analyze, per-node rows/time/probes/gc):@.%a@."
            Query.Exec.pp_explain plan;
          Format.printf "@.load phases (spans, seconds incl. nested):@.";
          List.iter
            (fun (name, (n, secs)) -> Format.printf "  %-36s %4d %10.4f@." name n secs)
            (load_phases ());
          Format.printf "@.counter deltas:@.";
          List.iter
            (fun (n, v) -> Format.printf "  %-48s %+d@." n v)
            delta.Telemetry.Profile.counters;
          Format.printf "@.flight recorder:@.%a@." Telemetry.Events.pp ()
        end)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a query under the profiler: wall time, index probes, produced rows and GC words \
          attributed to each plan operator, plus registry counter deltas and the flight-recorder \
          dump.")
    Term.(const run $ data_arg $ format_arg $ query_arg $ slow_arg $ json_arg)

(* --- metrics ----------------------------------------------------------- *)

let metrics_cmd =
  let query_arg =
    Arg.(
      value & opt_all string []
      & info [ "query" ] ~docv:"QUERY"
          ~doc:"Query (or @FILE) to execute before exporting, so its activity shows up in the \
                metrics; repeatable.")
  in
  let output_arg =
    Arg.(
      value & opt string "prometheus"
      & info [ "output" ] ~docv:"FMT" ~doc:"Export format: prometheus (text exposition) or json.")
  in
  let chrome_arg =
    Arg.(
      value & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:"Also write the recorded spans as Chrome trace-event JSON to FILE (load in \
                chrome://tracing or Perfetto).")
  in
  let run data format queries output chrome =
    handle_errors (fun () ->
        Telemetry.enabled := true;
        let store = load_store ~format data in
        let boxed = Hexa.Store_sig.box_hexastore store in
        List.iter
          (fun query_text ->
            let q =
              Query.Sparql.parse ~namespaces:(Rdf.Namespace.default ()) (read_query_arg query_text)
            in
            if q.is_ask then ignore (Query.Exec.ask boxed q.algebra)
            else ignore (Query.Exec.run boxed q.algebra))
          queries;
        (match output with
        | "prometheus" -> print_string (Telemetry.Export.prometheus ())
        | "json" -> print_endline (Telemetry.Json.to_string (Telemetry.to_json ()))
        | f -> failwith (Printf.sprintf "unknown --output %S (expected prometheus or json)" f));
        match chrome with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                output_string oc (Telemetry.Json.to_string (Telemetry.Export.chrome_trace ())));
            Format.eprintf "wrote %d spans to %s@."
              (List.length (Telemetry.Trace.spans ()))
              file)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Load data, optionally run queries, and export the telemetry registry as Prometheus \
          text exposition (with histogram quantiles) or JSON.")
    Term.(const run $ data_arg $ format_arg $ query_arg $ output_arg $ chrome_arg)

(* --- top --------------------------------------------------------------- *)

let top_cmd =
  let query_arg =
    Arg.(
      value & opt_all string []
      & info [ "query" ] ~docv:"QUERY"
          ~doc:"Query (or @FILE) the driver domain loops while the monitor watches; repeatable. \
                With no queries the monitor watches an idle registry.")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Sampling interval (default 1s).")
  in
  let ticks_arg =
    Arg.(
      value & opt int 5
      & info [ "ticks" ] ~docv:"N" ~doc:"Number of samples to take before exiting (default 5).")
  in
  let domains_arg =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Force the pool fan-out width (default: HEXASTORE_DOMAINS or the host's \
                recommended domain count).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON view per tick instead of tables.")
  in
  let run data format queries interval ticks domains json =
    handle_errors (fun () ->
        Telemetry.enabled := true;
        Option.iter Query.Par.set_domains domains;
        (* Parallel plans on watchable stores: without this, loads small
           enough to demo with never cross the fan-out floor and top
           shows an idle pool. *)
        Query.Planner.parallel_min_rows := 0;
        let store = load_store ~format data in
        let boxed = Hexa.Store_sig.box_hexastore store in
        let qs =
          List.map
            (fun query_text ->
              Query.Sparql.parse ~namespaces:(Rdf.Namespace.default ()) (read_query_arg query_text))
            queries
        in
        (* The driver loops the query list on its own domain so the main
           domain can sample on a steady cadence; queries that fan out
           pull the pool's workers in on top of that. *)
        let stop = Atomic.make false in
        let driver =
          match qs with
          | [] -> None
          | qs ->
              Some
                (Domain.spawn (fun () ->
                     while not (Atomic.get stop) do
                       List.iter
                         (fun (q : Query.Sparql.query) ->
                           if q.is_ask then ignore (Query.Exec.ask boxed q.algebra)
                           else ignore (Query.Exec.run boxed q.algebra))
                         qs
                     done))
        in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Option.iter Domain.join driver)
          (fun () ->
            let step = Telemetry.Monitor.watch () in
            for tick = 1 to max 1 ticks do
              Unix.sleepf (max 0.01 interval);
              let view = step () in
              if json then
                print_endline (Telemetry.Json.to_string (Telemetry.Monitor.view_to_json view))
              else
                Format.printf "== hexastore top — tick %d/%d ==@.%a@.@." tick (max 1 ticks)
                  Telemetry.Monitor.pp_view view
            done))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Watch the live telemetry registry: load data, loop queries on a driver domain, and \
          print rate-computed views (counters/sec, pool queue depth and utilization, task \
          latency quantiles) every interval.")
    Term.(const run $ data_arg $ format_arg $ query_arg $ interval_arg $ ticks_arg $ domains_arg $ json_arg)

(* --- stats ------------------------------------------------------------ *)

let stats_cmd =
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Show the N most frequent properties.")
  in
  let run data format top =
    handle_errors (fun () ->
        let store = load_store ~format data in
        Format.printf "%a@." Hexa.Stats.pp_summary (Hexa.Stats.summary store);
        Format.printf "entries per resource occurrence: %.2f (worst case 5.0)@."
          (Hexa.Stats.entries_per_triple store);
        let dict = Hexa.Hexastore.dict store in
        Format.printf "@.top properties:@.";
        List.iteri
          (fun i (p, n) ->
            if i < top then
              Format.printf "  %6d  %s@." n
                (Rdf.Term.to_string (Dict.Term_dict.decode_term dict p)))
          (Hexa.Stats.property_histogram store))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Load RDF data and print Hexastore statistics.")
    Term.(const run $ data_arg $ format_arg $ top_arg)

(* --- convert ------------------------------------------------------------ *)

let convert_cmd =
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Output file (.nt or .ttl).")
  in
  let run data format out =
    handle_errors (fun () ->
        let triples = load_data ~format data in
        if Filename.check_suffix out ".ttl" then (
          let oc = open_out out in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc (Rdf.Turtle.to_string ~namespaces:(Rdf.Namespace.default ()) triples)))
        else Rdf.Ntriples.save_file out triples;
        Format.printf "wrote %d triples to %s@." (List.length triples) out)
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Translate RDF data between N-Triples and Turtle.")
    Term.(const run $ data_arg $ format_arg $ out_arg)

(* --- snapshot ----------------------------------------------------------- *)

let snapshot_cmd =
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Snapshot file (.snap).")
  in
  let run data format out =
    handle_errors (fun () ->
        let store = load_store ~format data in
        Hexa.Snapshot.save store out;
        Format.printf "wrote snapshot of %d triples to %s@." (Hexa.Hexastore.size store) out)
  in
  Cmd.v
    (Cmd.info "snapshot" ~doc:"Compile RDF data into a binary Hexastore snapshot.")
    Term.(const run $ data_arg $ format_arg $ out_arg)

(* --- advise ------------------------------------------------------------- *)

let shape_of_string = function
  | "spo" | "all" -> Some Hexa.Pattern.All
  | "sp" -> Some Hexa.Pattern.Sp
  | "so" -> Some Hexa.Pattern.So
  | "po" -> Some Hexa.Pattern.Po
  | "s" -> Some Hexa.Pattern.S
  | "p" -> Some Hexa.Pattern.P
  | "o" -> Some Hexa.Pattern.O
  | "none" | "scan" -> Some Hexa.Pattern.None_bound
  | _ -> None

let advise_cmd =
  let shapes_arg =
    Arg.(
      non_empty & opt_all string []
      & info [ "shape" ] ~docv:"SHAPE=N"
          ~doc:
            "A workload entry: pattern shape (s, p, o, sp, so, po, spo, none — the bound \
             positions) and its frequency, e.g. --shape o=400 --shape sp=25.")
  in
  let run data format shapes =
    handle_errors (fun () ->
        let workload =
          List.map
            (fun entry ->
              match String.split_on_char '=' (String.lowercase_ascii entry) with
              | [ shape; n ] -> (
                  match (shape_of_string shape, int_of_string_opt n) with
                  | Some shape, Some n when n > 0 -> (shape, n)
                  | _ -> failwith (Printf.sprintf "bad --shape %S" entry))
              | _ -> failwith (Printf.sprintf "bad --shape %S (expected SHAPE=N)" entry))
            shapes
        in
        let store = load_store ~format data in
        let r = Hexa.Advisor.recommend workload in
        Format.printf "%a@." Hexa.Advisor.pp_recommendation r;
        let full = Hexa.Hexastore.memory_words store in
        let est = Hexa.Advisor.estimate_memory_words store r.keep in
        Format.printf
          "memory: full sextuple %.2f MB, recommended subset ~ %.2f MB (%.0f%% saved)@."
          (float_of_int (full * 8) /. 1048576.)
          (float_of_int (est * 8) /. 1048576.)
          (100. *. Hexa.Advisor.savings_fraction store r.keep))
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Recommend which of the six indices a pattern workload needs (the section-6 advisor).")
    Term.(const run $ data_arg $ format_arg $ shapes_arg)

let () =
  let info =
    Cmd.info "hexastore" ~version:"1.0.0"
      ~doc:"Sextuple-indexed RDF storage and querying (Weiss, Karras, Bernstein; VLDB 2008)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            query_cmd;
            explain_cmd;
            profile_cmd;
            metrics_cmd;
            top_cmd;
            stats_cmd;
            convert_cmd;
            snapshot_cmd;
            advise_cmd;
          ]))
