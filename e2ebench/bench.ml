(* The benchmark runner: timed set-ups each followed by a warm-up and a
   closed-loop segment with a single client, correctness checks, and
   (traced run) one more segment recording spans and reading the
   program's telemetry counters. *)

module T = Dict.Term_dict
module H = Hexa.Hexastore
module W = Workload

type config = {
  kind : W.kind;
  seed : int;
  seconds : float;
  trace : bool;
  sizes : Data.sizes;
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  trace_dir : string option;  (** where the traced run writes its spans *)
  max_ops : int option;  (** stop each loop after this many ops instead of on time (tests) *)
}

(* --- minimal JSON output ---------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list

let rec json_to_string = function
  | Num f -> if Float.is_finite f then Printf.sprintf "%.12g" f else "null"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s ->
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"';
      Buffer.contents b
  | Obj kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> json_to_string (Str k) ^ ": " ^ json_to_string v) kvs)
      ^ "}"

(* --- results ---------------------------------------------------------- *)

type metric = {
  mname : string;
  unit_ : string;
  value : float;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  info : (string * json) list;  (** run metadata, sample counts, traced summaries *)
  checksum : int;  (** over the checked queries' canonical results *)
}

let result_line r =
  json_to_string
    (Obj
       [
         ("correct", Bool r.correct);
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ( "metrics",
           Obj (List.map (fun m -> (m.mname, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ])) r.metrics) );
       ])

(* --- set-up: N-Triples bytes -> queryable store ------------------------ *)

type load = {
  store : H.t;
  parse_s : float;
  encode_s : float;
  build_s : float;
  total_s : float;
}

let secs ns = float_of_int ns /. 1e9

(* Runs [f] inside a span when tracing; the span covers exactly the
   timed interval. *)
let stage spans ~req ~parent name f =
  match spans with
  | None -> f ()
  | Some sp -> Spans.with_span sp ~name:(Spans.name sp name) ~req ~parent f

let load spans ~req nt =
  let root = match spans with None -> -1 | Some sp -> Spans.enter sp ~name:(Spans.name sp "setup") ~req ~parent:(-1) in
  let t0 = Measure.now_ns () in
  let triples = stage spans ~req ~parent:root "rdf.parse" (fun () -> Rdf.Ntriples.parse_string nt) in
  let t1 = Measure.now_ns () in
  let dict = T.create () in
  let ids = stage spans ~req ~parent:root "dictionary.encode" (fun () -> Array.of_list (List.map (T.encode_triple dict) triples)) in
  let t2 = Measure.now_ns () in
  let store = H.create ~dict () in
  stage spans ~req ~parent:root "core.build" (fun () -> ignore (H.add_bulk_ids store ids));
  let t3 = Measure.now_ns () in
  Option.iter (fun sp -> Spans.exit sp root) spans;
  { store; parse_s = secs (t1 - t0); encode_s = secs (t2 - t1); build_s = secs (t3 - t2); total_s = secs (t3 - t0) }

(* --- one operation ---------------------------------------------------- *)

let exec_query boxed dict text =
  let q = Query.Sparql.parse text in
  let rows = Query.Exec.run boxed q.algebra in
  ignore (Sys.opaque_identity (Query.Results.to_csv dict ~columns:q.projection rows))

let rec bgps acc = function
  | Query.Algebra.Bgp tps -> tps :: acc
  | Join (a, b) | Left_join (a, b) | Union (a, b) -> bgps (bgps acc a) b
  | Filter (_, x) | Distinct x | Project (_, x) | Extend_group (_, _, x) | Order_by (_, x) | Slice (_, _, x) -> bgps acc x
  | Values _ -> acc

(* Tracing state for the traced loop. *)
type tracer = {
  sp : Spans.t;
  n_request : int;
  n_parse : int;
  n_plan : int;
  n_exec : int;
  n_serialize : int;
  n_write : int;
  mutable alloc_words : float;
  mutable rows_returned : int;
}

let tracer sp =
  let n = Spans.name sp in
  {
    sp;
    n_request = n "request";
    n_parse = n "query.parse";
    n_plan = n "query.plan";
    n_exec = n "query.exec";
    n_serialize = n "query.serialize";
    n_write = n "core.delta.write";
    alloc_words = 0.;
    rows_returned = 0;
  }

(* The traced query: the same calls as [exec_query] plus a separate
   [Planner.plan] of every BGP, so planning shows as its own span. *)
let traced_query tr ~req boxed dict text =
  let sp = tr.sp in
  let root = Spans.enter sp ~name:tr.n_request ~req ~parent:(-1) in
  let span name f = Spans.with_span sp ~name ~req ~parent:root f in
  let w0 = Gc.minor_words () in
  let q = span tr.n_parse (fun () -> Query.Sparql.parse text) in
  let w1 = Gc.minor_words () in
  span tr.n_plan (fun () -> List.iter (fun tps -> ignore (Query.Planner.plan boxed tps)) (bgps [] q.algebra));
  let w2 = Gc.minor_words () in
  let rows = span tr.n_exec (fun () -> Query.Exec.run boxed q.algebra) in
  let csv = span tr.n_serialize (fun () -> Query.Results.to_csv dict ~columns:q.projection rows) in
  let w3 = Gc.minor_words () in
  ignore (Sys.opaque_identity csv);
  Spans.exit sp root;
  tr.alloc_words <- tr.alloc_words +. (w1 -. w0) +. (w3 -. w2);
  tr.rows_returned <- tr.rows_returned + List.length rows;
  Spans.duration sp root

(* --- the timed loop ---------------------------------------------------- *)

type loop = {
  ops : int;
  wall_ns : int;
  reads : Measure.samples;  (** read (query) latencies *)
  writes : Measure.samples;
  per_tpl : Measure.samples array;  (** read latencies per template *)
  flush_writes : Measure.samples;  (** latencies of the writes that flushed *)
  mutable flushes : int;
  mutable failed : int;
  mutable first_error : string option;
  major_gcs : int;
}

let fail lp e =
  lp.failed <- lp.failed + 1;
  if lp.first_error = None then lp.first_error <- Some (Printexc.to_string e)

(* A closed loop with one client: op [i+1] starts when op [i] ends.  It
   runs for [seconds], and on past that until [min_reads] reads have
   completed (at most three times as long) — or for exactly [max_ops]
   ops when given. *)
let drive ~seconds ~min_reads ~max_ops ~templates step =
  let lp =
    {
      ops = 0;
      wall_ns = 0;
      reads = Measure.samples ();
      writes = Measure.samples ();
      per_tpl = Array.init templates (fun _ -> Measure.samples ());
      flush_writes = Measure.samples ();
      flushes = 0;
      failed = 0;
      first_error = None;
      major_gcs = 0;
    }
  in
  let gc0 = (Gc.quick_stat ()).major_collections in
  let budget = int_of_float (seconds *. 1e9) in
  let start = Measure.now_ns () in
  let i = ref 0 in
  let continue () =
    match max_ops with
    | Some m -> !i < m
    | None ->
        let el = Measure.now_ns () - start in
        el < budget || (Measure.count lp.reads < min_reads && el < 3 * budget)
  in
  while continue () do
    step lp !i;
    incr i
  done;
  let wall_ns = Measure.now_ns () - start in
  { lp with ops = !i; wall_ns; major_gcs = (Gc.quick_stat ()).major_collections - gc0 }

let record_read lp ~tpl ns =
  Measure.push lp.reads ns;
  Measure.push lp.per_tpl.(tpl) ns

(* --- workloads --------------------------------------------------------- *)

(* A workload bound to one loaded store. *)
type instance = {
  warm_up : unit -> unit;
  step : tracer option -> loop -> int -> unit;
  store_bytes : unit -> float;  (** bytes of the store, dictionary included *)
  user_bytes : unit -> float;  (** N-Triples bytes of the triples the store holds *)
  check : unit -> int * int * int;  (** attempted, failed, checksum *)
  extra_info : unit -> (string * json) list;
}

(* What a workload hands the generic parts of the runner. *)
type prepared = {
  nt : string;  (** bytes loaded at set-up *)
  mutates : bool;  (** the loop changes the store, so the traced loop needs a fresh one *)
  templates : string array;
  attach : H.t -> instance;
}

let do_read boxed dict tracer lp ~req ~tpl text =
  match tracer with
  | None -> (
      let t0 = Measure.now_ns () in
      match exec_query boxed dict text with
      | () -> record_read lp ~tpl (Measure.now_ns () - t0)
      | exception e -> fail lp e)
  | Some tr -> (
      match traced_query tr ~req boxed dict text with
      | ns -> record_read lp ~tpl ns
      | exception e -> fail lp e)

let checksum_rows acc rows = Hashtbl.hash (acc, Hashtbl.hash rows)

(* Runs the checked queries; each exception or wrong answer is one
   failure. *)
let check_all boxed checks =
  let failed = ref 0 and sum = ref 0 in
  List.iter
    (fun (text, hand) ->
      match W.check_query boxed text ~hand with
      | rows, ok ->
          sum := checksum_rows !sum rows;
          if not ok then incr failed
      | exception _ -> incr failed)
    checks;
  (List.length checks, !failed, !sum)

(* A read-only workload over a plain store: [query i] is op [i]. *)
let read_only ~nt ~templates ~warm_ops ~query ~tpl_of ~checks =
  let attach h =
    let boxed = Hexa.Store_sig.box_hexastore h and dict = H.dict h in
    {
      warm_up = (fun () -> for i = 0 to warm_ops - 1 do exec_query boxed dict (query i) done);
      step = (fun tracer lp i -> do_read boxed dict tracer lp ~req:i ~tpl:(tpl_of i) (query i));
      store_bytes = (fun () -> float_of_int (H.memory_words_with_dict h * (Sys.word_size / 8)));
      user_bytes = (fun () -> float_of_int (String.length nt));
      check = (fun () -> check_all boxed (checks h));
      extra_info = (fun () -> []);
    }
  in
  { nt; mutates = false; templates; attach }

let prepare_lookup cfg =
  let pool = W.lookup_ops cfg.sizes ~seed:cfg.seed ~n:4096 in
  let op i = pool.(i mod Array.length pool) in
  read_only ~nt:(Data.lubm cfg.sizes ~seed:cfg.seed)
    ~templates:(Array.map (fun t -> t.W.tname) W.lookup_templates)
    ~warm_ops:500
    ~query:(fun i -> (op i).query)
    ~tpl_of:(fun i -> (op i).tpl)
    ~checks:(fun h ->
      let rng = Workloads.Prng.create (cfg.seed lxor 0x5eed_c4ec) in
      List.init 48 (fun _ ->
          let o = pool.(Workloads.Prng.int rng (Array.length pool)) in
          (o.query, W.hand_lookup h o)))

let prepare_analytic cfg =
  let sched = W.barton_schedule in
  let qi i = sched.(i mod Array.length sched) in
  (* The warm-up runs every query once: this is also where the domain
     pool spawns its workers, outside the timed loop. *)
  read_only ~nt:(Data.barton cfg.sizes ~seed:cfg.seed)
    ~templates:(Array.map fst W.barton_queries)
    ~warm_ops:(Array.length sched)
    ~query:(fun i -> snd W.barton_queries.(qi i))
    ~tpl_of:qi
    ~checks:(fun h -> Array.to_list (Array.map (fun (name, text) -> (text, W.hand_barton h name)) W.barton_queries))

(* Reads subject-bound queries and writes through a delta layer over the
   loaded store.  The held-out quarter is encoded through the store's
   dictionary when attaching (outside any timing) and de-duplicated
   against the base. *)
let prepare_update cfg =
  let base_nt, held_nt = Data.split (Data.lubm cfg.sizes ~seed:cfg.seed) ~num:3 ~den:4 in
  let held = Rdf.Ntriples.parse_string held_nt in
  let attach h =
    let dict = H.dict h in
    let seen = Hashtbl.create 65536 in
    let held_ids =
      List.filter_map
        (fun t ->
          let id = T.encode_triple dict t in
          if Hashtbl.mem seen id || H.mem_ids h id then None
          else begin
            Hashtbl.add seen id ();
            Some id
          end)
        held
    in
    let base = Array.of_list (H.fold (fun t acc -> t :: acc) h []) in
    let subjects =
      Array.map (fun id -> Rdf.Term.to_string (T.decode_term dict id)) (Vectors.Sorted_ivec.to_array (H.subjects h))
    in
    let st = W.update_state ~seed:cfg.seed ~base ~held_out:(Array.of_list held_ids) ~subjects in
    let d = Hexa.Delta.of_base h in
    let boxed = Hexa.Store_sig.box_delta d in
    let write tracer lp i w =
      let pi = Hexa.Delta.pending_inserts d and pd = Hexa.Delta.pending_deletes d in
      let apply () = match w with W.Insert t -> Hexa.Delta.add_ids d t | W.Delete t -> Hexa.Delta.remove_ids d t in
      let timed () =
        match tracer with
        | None ->
            let t0 = Measure.now_ns () in
            let ok = apply () in
            (ok, Measure.now_ns () - t0)
        | Some tr ->
            let sp = tr.sp in
            let root = Spans.enter sp ~name:tr.n_request ~req:i ~parent:(-1) in
            let ok = Spans.with_span sp ~name:tr.n_write ~req:i ~parent:root apply in
            Spans.exit sp root;
            (ok, Spans.duration sp root)
      in
      match timed () with
      | ok, ns ->
          Measure.push lp.writes ns;
          if not ok then fail lp (Failure "write refused: the delta disagrees with the model");
          (* A flush drains both buffers, so the write that triggered it
             leaves fewer pending entries behind. *)
          if Hexa.Delta.pending_inserts d < pi || Hexa.Delta.pending_deletes d < pd then begin
            lp.flushes <- lp.flushes + 1;
            Measure.push lp.flush_writes ns;
            W.flushed st
          end
      | exception e -> fail lp e
    in
    {
      (* Reads only: a warm-up write would change the state the timed
         loop starts from. *)
      warm_up =
        (fun () ->
          for i = 0 to 499 do
            exec_query boxed dict (W.update_read_query subjects.(i mod Array.length subjects))
          done);
      step =
        (fun tracer lp i ->
          match W.next_update st with
          | W.Read s -> do_read boxed dict tracer lp ~req:i ~tpl:0 (W.update_read_query s)
          | W.Write w -> write tracer lp i w);
      store_bytes = (fun () -> float_of_int ((Hexa.Delta.memory_words d + T.memory_words dict) * (Sys.word_size / 8)));
      user_bytes = (fun () -> float_of_int (List.fold_left (fun acc t -> acc + Data.line_bytes dict t) 0 (W.live st)));
      check =
        (fun () ->
          let live = W.live st in
          (* Final contents: the delta's merged view is exactly the live set. *)
          let contents_ok = Hexa.Delta.size d = List.length live && List.for_all (Hexa.Delta.mem_ids d) live in
          (* Reads: sampled subjects against the model. *)
          let rng = Workloads.Prng.create (cfg.seed lxor 0x5eed_c4ec) in
          let n = 32 in
          let failed = ref (if contents_ok then 0 else 1) and sum = ref 0 in
          for _ = 1 to n do
            let s = subjects.(Workloads.Prng.int rng (Array.length subjects)) in
            let id = T.find_term dict (Rdf.Ntriples.parse_term s) in
            let expected =
              List.sort compare
                (List.filter_map
                   (fun (t : T.id_triple) -> if Some t.s = id then Some [ W.cell dict t.p; W.cell dict t.o ] else None)
                   live)
            in
            match W.run_canonical boxed (Query.Sparql.parse (W.update_read_query s)) with
            | rows ->
                sum := checksum_rows !sum rows;
                if rows <> expected then incr failed
            | exception _ -> incr failed
          done;
          (n + 1, !failed, !sum));
      extra_info =
        (fun () ->
          [
            ("delta_size_after", Int (Hexa.Delta.size d));
            ("inserts_left", Int st.absent.n);
            ("base_deletes_left", Int st.base_live.n);
          ]);
    }
  in
  { nt = base_nt; mutates = true; templates = [| "subject-read" |]; attach }

let prepare cfg =
  match cfg.kind with
  | W.Lookup -> prepare_lookup cfg
  | W.Analytic -> prepare_analytic cfg
  | W.Update -> prepare_update cfg

(* --- metrics ------------------------------------------------------------ *)

let ms_of_ns ns = float_of_int ns /. 1e6

let m mname unit_ value = { mname; unit_; value }

let mean_op_ns (lp : loop) = float_of_int lp.wall_ns /. float_of_int (max 1 lp.ops)

let median_of f l = Measure.median (List.map f l)

(* Read latencies pooled over every segment. *)
let pooled_reads segs = Measure.sorted_ms (Measure.pool (List.map (fun (l : loop) -> l.reads) segs))

(* The reported tail.  Barton's ~100 reads per run support p90 with ten
   beyond it; the other workloads' reads would support p99, but on a
   shared 2-vCPU host p99's run-to-run spread was 1.4-2 times p90's. *)
let tail_q = 0.9

let end_to_end ~timings ~segs ~peak_words ~store_bytes ~user_bytes =
  let reads = pooled_reads segs in
  let n = Array.length reads in
  if not (Measure.supports n tail_q) then
    failwith (Printf.sprintf "%d reads cannot support p%g with ten beyond it" n (100. *. tail_q));
  [
    m "setup_s" "s" (median_of (fun l -> l.total_s) timings);
    m "ops_per_s" "1/s" (median_of (fun (l : loop) -> float_of_int l.ops /. secs l.wall_ns) segs);
    m "query_p50_ms" "ms" (Measure.percentile reads 0.5);
    m "query_p90_ms" "ms" (Measure.percentile reads tail_q);
    m "peak_heap_mb" "MB" (float_of_int (peak_words * (Sys.word_size / 8)) /. 1e6);
    m "store_bytes_per_nt_byte" "B/B" (store_bytes /. user_bytes);
  ]

let band (s : Measure.samples) =
  if Measure.count s = 0 then Obj [ ("n", Int 0) ]
  else
    let a = Measure.sorted_ms s in
    let pct q = Num (Measure.percentile a q) in
    Obj [ ("n", Int (Array.length a)); ("min", Num a.(0)); ("p10", pct 0.1); ("p50", pct 0.5); ("p90", pct 0.9); ("max", Num a.(Array.length a - 1)) ]

let counter name = Telemetry.Metrics.value (Telemetry.Metrics.counter name)

let per_layer h ~timings ~segs ~(traced : loop) ~(tr : tracer) ~par0 ~par1 =
  let queries = Measure.count traced.reads in
  let per_q x = if queries = 0 then 0. else float_of_int x /. float_of_int queries in
  let summary = Spans.summary tr.sp in
  let self name = match List.find_opt (fun (n, _, _) -> n = name) summary with Some (_, _, ns) -> ns | None -> 0 in
  let us_per_q name = per_q (self name) /. 1e3 in
  let p50_us s = if Measure.count s = 0 then 0. else 1e3 *. Measure.percentile (Measure.sorted_ms s) 0.5 in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  let index_probes =
    List.fold_left (fun acc (_, v) -> acc + v) 0 (Telemetry.Metrics.snapshot_counters ~prefix:"hexastore.probe." ())
  in
  let gallops = Telemetry.Histogram.count (Telemetry.Metrics.histogram "vectors.gallop.skip") in
  let submitted = par1.Query.Par.submitted - par0.Query.Par.submitted in
  let helped = par1.Query.Par.caller_helped - par0.Query.Par.caller_helped in
  (* The write-path metrics come from the untraced segments, where each
     write is timed on its own: together they hold dozens of flushes,
     enough for the rank n-10 write to be a flush stall. *)
  let pool f = Measure.pool (List.map f segs) in
  let writes = pool (fun l -> l.writes) in
  let sorted_writes = Measure.sorted_ms writes in
  [
    m "rdf.parse_s" "s" (median_of (fun l -> l.parse_s) timings);
    m "dictionary.encode_s" "s" (median_of (fun l -> l.encode_s) timings);
    m "dictionary.mb" "MB" (mb (T.memory_words (H.dict h)));
    m "core.build_s" "s" (median_of (fun l -> l.build_s) timings);
    m "core.index_mb" "MB" (mb (H.memory_words h));
    m "query.parse_us" "us" (us_per_q "query.parse");
    m "query.plan_us" "us" (us_per_q "query.plan");
    m "query.exec_us" "us" (us_per_q "query.exec");
    m "query.serialize_us" "us" (us_per_q "query.serialize");
    m "query.rows_returned" "count" (per_q tr.rows_returned);
    m "query.rows_scanned_per_row" "ratio"
      (if tr.rows_returned = 0 then 0. else float_of_int (counter "query.rows.scan") /. float_of_int tr.rows_returned);
    m "query.joins.merge" "count" (per_q (counter "query.join.merge"));
    m "query.joins.hash" "count" (per_q (counter "query.join.hash"));
    m "query.joins.nested" "count" (per_q (counter "query.join.nested"));
    m "query.alloc_words" "words" (if queries = 0 then 0. else tr.alloc_words /. float_of_int queries);
    m "core.index_probes_per_query" "count" (per_q index_probes);
    m "vectors.probes_per_query" "count" (per_q (counter "vectors.bsearch.probes"));
    m "vectors.gallop_seeks_per_query" "count" (per_q gallops);
    m "par.tasks_submitted" "count" (per_q submitted);
    m "par.caller_helped_share" "ratio" (if submitted = 0 then 0. else float_of_int helped /. float_of_int submitted);
    m "par.task_wait_us_p95" "us" (Telemetry.Histogram.quantile (Telemetry.Metrics.histogram "par.task.wait_us") 0.95);
    m "core.delta.write_us_p50" "us" (p50_us writes);
    m "core.delta.write_tail_ms" "ms" (if Array.length sorted_writes < 11 then 0. else Measure.tail_n10 sorted_writes);
    m "core.delta.flushes" "count" (float_of_int (List.fold_left (fun acc (l : loop) -> acc + l.flushes) 0 segs));
    m "core.delta.flush_ms_p50" "ms" (p50_us (pool (fun l -> l.flush_writes)) /. 1e3);
    m "core.delta.merged_reads" "count" (per_q (counter "hexastore.delta.lookup.merged"));
    m "gc.major_collections" "count" (median_of (fun (l : loop) -> float_of_int l.major_gcs) segs);
    (* The traced loop also plans every query a second time (the
       query.plan span); that work is not tracing overhead. *)
    m "telemetry.overhead_ratio" "ratio"
      ((mean_op_ns traced -. (float_of_int (self "query.plan") /. float_of_int (max 1 traced.ops)))
      /. median_of mean_op_ns segs);
  ]

(* --- the run ------------------------------------------------------------- *)

let loop_info templates (l : loop) =
  Obj
    [
      ("ops", Int l.ops);
      ("reads", Int (Measure.count l.reads));
      ("writes", Int (Measure.count l.writes));
      ("flushes", Int l.flushes);
      ("wall_s", Num (secs l.wall_ns));
      ("major_gcs", Int l.major_gcs);
      ("templates", Obj (Array.to_list (Array.mapi (fun i n -> (n, band l.per_tpl.(i))) templates)));
      ("flush_writes", band l.flush_writes);
      ("first_error", match l.first_error with Some e -> Str e | None -> Str "");
    ]

(* What the traced segment leaves behind. *)
type traced = {
  t : loop;
  tr : tracer;
  auto : int;  (** the program's own auto-flush count *)
  layers : metric list;
  h : H.t;
  inst : instance;
}

let trace_info cfg ~templates ~(segs : loop list) { t; tr; auto; _ } =
  let file =
    Option.map
      (fun dir ->
        let f = Filename.concat dir (Printf.sprintf "trace-%s.tsv" (W.name cfg.kind)) in
        Spans.write tr.sp f;
        f)
      cfg.trace_dir
  in
  let summary = Spans.summary tr.sp in
  let layer_of n = match String.index_opt n '.' with Some i when n <> "request" -> String.sub n 0 i | _ -> "harness" in
  let add tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let layers = Hashtbl.create 8 in
  List.iter (fun (n, _, ns) -> add layers (layer_of n) ns) summary;
  (* The extra query.plan span is work the untraced reads do not do. *)
  let query_self =
    List.fold_left (fun acc (n, _, ns) -> if layer_of n = "query" && n <> "query.plan" then acc + ns else acc) 0 summary
  in
  let per_read (l : loop) ns = float_of_int ns /. 1e3 /. float_of_int (max 1 (Measure.count l.reads)) in
  let traced_us = per_read t query_self in
  let untraced_us = median_of (fun (l : loop) -> per_read l (Measure.sum l.reads)) segs in
  [
    ("traced", loop_info templates t);
    ("spans", Obj (List.map (fun (n, c, ns) -> (n, Obj [ ("count", Int c); ("self_ms", Num (ms_of_ns ns)) ])) summary));
    ("layer_self_ms", Obj (List.sort compare (Hashtbl.fold (fun l ns acc -> (l, Num (ms_of_ns ns)) :: acc) layers [])));
    ( "query_spans_vs_untraced",
      Obj
        [
          ("query_span_self_us_per_read", Num traced_us);
          ("untraced_read_us", Num untraced_us);
          ("ratio", Num (traced_us /. untraced_us));
        ] );
    ("flush_auto_counter", Int auto);
    ( "counters",
      Obj (List.filter_map (fun (n, v) -> if v = 0 then None else Some (n, Int v)) (Telemetry.Metrics.snapshot_counters ()))
    );
    ("span_file", Str (Option.value ~default:"" file));
    ("span_count", Int (Spans.length tr.sp));
  ]

let min_reads_for q = int_of_float (Float.ceil (10. /. (1. -. q))) + 1

(* The measured time is split into one segment per set-up: each set-up
   is timed, warmed up, compacted and then driven for its share of
   [seconds].  Throughput is the median over segments and latencies are
   pooled, so one unlucky store layout or noisy second moves a metric
   by a fraction of its effect.  The update workload replays the same
   op stream from the same start in every segment. *)
let run cfg =
  let p = prepare cfg in
  let spans = if cfg.trace then Some (Spans.create ()) else None in
  let templates = Array.length p.templates in
  let seg_seconds = cfg.seconds /. float_of_int cfg.setups in
  let min_reads = (min_reads_for tail_q + cfg.setups - 1) / cfg.setups in
  let segment inst tracer =
    drive ~seconds:seg_seconds ~min_reads ~max_ops:cfg.max_ops ~templates (inst.step tracer)
  in
  (* The load path's high-water mark, read right after the first set-up
     and before anything else allocates: one domain, a compacted start
     and the same bytes make it repeat. *)
  let peak_words = ref 0 in
  let fresh ~req =
    Gc.compact ();
    let l = load spans ~req p.nt in
    if !peak_words = 0 then peak_words := (Gc.quick_stat ()).top_heap_words;
    let inst = p.attach l.store in
    inst.warm_up ();
    Gc.compact ();
    (l, inst)
  in
  let last = ref None and timings = ref [] and segs = ref [] in
  for k = 1 to cfg.setups do
    last := None;
    let l, inst = fresh ~req:(-k) in
    segs := segment inst None :: !segs;
    timings := l :: !timings;
    last := Some (l.store, inst)
  done;
  let timings = List.rev !timings and segs = List.rev !segs and peak_words = !peak_words in
  let h, inst = Option.get !last in
  let traced =
    Option.map
      (fun sp ->
        (* The traced segment starts from the state the untraced ones
           started from: a workload that changes the store gets a
           fresh one. *)
        let h, inst =
          if p.mutates then
            let l, inst = fresh ~req:0 in
            (l.store, inst)
          else (h, inst)
        in
        let tr = tracer sp in
        Telemetry.enabled := true;
        Telemetry.reset ();
        let par0 = Query.Par.stats () in
        let t = segment inst (Some tr) in
        let par1 = Query.Par.stats () in
        let auto = counter "hexastore.delta.flush.auto" in
        let layers = per_layer h ~timings ~segs ~traced:t ~tr ~par0 ~par1 in
        Telemetry.enabled := false;
        { t; tr; auto; layers; h; inst })
      spans
  in
  let h, inst = match traced with Some x -> (x.h, x.inst) | None -> (h, inst) in
  let c_attempted, c_failed, checksum = inst.check () in
  let all_loops = segs @ (match traced with Some x -> [ x.t ] | None -> []) in
  (* The flushes seen from outside must match the program's own count. *)
  let flush_check = match traced with Some x when p.mutates -> [ x.t.flushes = x.auto ] | _ -> [] in
  let failed =
    List.fold_left (fun acc (l : loop) -> acc + l.failed) 0 all_loops
    + c_failed
    + List.length (List.filter not flush_check)
  in
  let attempted = List.fold_left (fun acc (l : loop) -> acc + l.ops) 0 all_loops + c_attempted + List.length flush_check in
  let metrics =
    match traced with
    | Some x -> x.layers
    | None -> end_to_end ~timings ~segs ~peak_words ~store_bytes:(inst.store_bytes ()) ~user_bytes:(inst.user_bytes ())
  in
  let info =
    [
      ("workload", Str (W.name cfg.kind));
      ("seed", Int cfg.seed);
      ("seconds", Num cfg.seconds);
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("par_width", Int (Query.Par.domains ()));
      ("par_pool", Int (Query.Par.pool_size ()));
      ("repr", Str (H.repr_name h));
      ("delta_insert_threshold", Int Hexa.Delta.default_insert_threshold);
      ("delta_delete_threshold", Int Hexa.Delta.default_delete_threshold);
      ("ocaml", Str Sys.ocaml_version);
      ("nt_bytes", Int (String.length p.nt));
      ("triples", Int (H.size h));
      ("setup_s", Obj (List.mapi (fun i l -> (string_of_int i, Num l.total_s)) timings));
      ( "read_p99_ms",
        let r = pooled_reads segs in
        if Measure.supports (Array.length r) 0.99 then Num (Measure.percentile r 0.99) else Str "unsupported" );
      ("segments", Obj (List.mapi (fun i l -> (string_of_int i, loop_info p.templates l)) segs));
      ("checked", Int c_attempted);
      ("check_failed", Int c_failed);
      ("checksum", Int checksum);
    ]
    @ inst.extra_info ()
    @ match traced with Some x -> trace_info cfg ~templates:p.templates ~segs x | None -> []
  in
  { correct = failed = 0; attempted; failed; metrics; info; checksum }
