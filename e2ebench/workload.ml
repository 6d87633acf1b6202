(* The three workloads' operation streams and their correctness oracles.
   Everything here is a pure function of the seed (and, for the update
   stream, of where the delta layer flushed), so a seed pins the op
   sequence. *)

module T = Dict.Term_dict
module Prng = Workloads.Prng

type kind =
  | Lookup
  | Analytic
  | Update

let kinds = [ ("lubm-lookup", Lookup); ("barton-analytic", Analytic); ("lubm-update", Update) ]

let name k = fst (List.find (fun (_, k') -> k' = k) kinds)

let ub = "PREFIX ub: <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#>\n"

let bt = "PREFIX bt: <http://simile.mit.edu/2006/01/ontologies/mods3#>\n"

(* --- lubm-lookup: four selective templates ---------------------------- *)

type template = {
  tname : string;
  anchor : [ `Course | `Assoc_prof ];
  text : string -> string;
}

let lookup_templates =
  [|
    (* LQ1: everything related to a course. *)
    { tname = "lq1"; anchor = `Course; text = Printf.sprintf "SELECT ?s ?p WHERE { ?s ?p <%s> }" };
    (* LQ3 (outgoing half): everything a professor states. *)
    { tname = "lq3"; anchor = `Assoc_prof; text = Printf.sprintf "SELECT ?p ?o WHERE { <%s> ?p ?o }" };
    (* LUBM Q1: graduate students taking a course. *)
    {
      tname = "q1";
      anchor = `Course;
      text =
        Printf.sprintf "%sSELECT ?x WHERE { ?x a ub:GraduateStudent ; ub:takesCourse <%s> }" ub;
    };
    (* LQ4: people related to the courses a professor teaches. *)
    {
      tname = "lq4";
      anchor = `Assoc_prof;
      text = Printf.sprintf "%sSELECT DISTINCT ?c ?s WHERE { <%s> ub:teacherOf ?c . ?s ?p ?c }" ub;
    };
  |]

(* The round-robin order of templates.  Four equal weights would put
   the median on the boundary between the second- and third-cheapest
   templates, where it jumps between cost classes from run to run.  A
   double slot for the cheapest (q1, 0.0-0.4 of the reads) puts p50 in
   the middle of lq3's band (0.4-0.6) and p90 in the middle of the
   dearest template's band (lq4, 0.8-1.0). *)
let lookup_schedule = [| 0; 1; 2; 3; 2 |]

type lookup_op = {
  tpl : int;
  anchor_iri : string;
  query : string;
}

let courses_per_department = 64 (* 32 faculty x 2 courses *)

let assoc_profs_per_department = 12

(* Anchors are drawn uniformly across every department. *)
let lookup_ops (sizes : Data.sizes) ~seed ~n =
  let rng = Prng.create (seed lxor 0x5eed_1001) in
  Array.init n (fun i ->
      let tpl = lookup_schedule.(i mod Array.length lookup_schedule) in
      let t = lookup_templates.(tpl) in
      let u = Prng.int rng sizes.universities and d = Prng.int rng sizes.departments in
      let dept = Workloads.Lubm.department ~u ~d in
      let anchor_iri =
        match t.anchor with
        | `Course -> Printf.sprintf "%s/Course%d" dept (Prng.int rng courses_per_department)
        | `Assoc_prof ->
            Printf.sprintf "%s/AssociateProfessor%d" dept (Prng.int rng assoc_profs_per_department)
      in
      { tpl; anchor_iri; query = t.text anchor_iri })

(* --- barton-analytic: BQ1-BQ5 and BQ7 in the SPARQL subset ------------ *)

let barton_queries =
  [|
    ("bq1", "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s a ?t } GROUP BY ?t");
    ("bq2", bt ^ "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a bt:Text . ?s ?p ?o } GROUP BY ?p");
    ("bq3", bt ^ "SELECT ?p ?o (COUNT(?s) AS ?n) WHERE { ?s a bt:Text . ?s ?p ?o } GROUP BY ?p ?o");
    ( "bq4",
      bt
      ^ "SELECT ?p ?o (COUNT(?s) AS ?n) WHERE { ?s a bt:Text . ?s bt:language \"French\" . ?s ?p ?o } \
         GROUP BY ?p ?o" );
    ( "bq5",
      bt
      ^ "SELECT DISTINCT ?s ?t WHERE { ?s bt:origin bt:DLC . ?s bt:records ?r . ?r a ?t . FILTER (?t != \
         bt:Text) }" );
    ("bq7", bt ^ "SELECT ?s ?e ?t WHERE { ?s bt:point \"end\" . ?s bt:encoding ?e . ?s a ?t }");
  |]

(* Round-robin over the six queries.  Six equal weights would put p50
   on the boundary between the third- and fourth-cheapest queries; a
   double slot for BQ5 (the fourth, 0.43-0.71 of the reads) puts p50
   inside its band, and p90 falls inside BQ3's (the dearest,
   0.86-1.0). *)
let barton_schedule = [| 0; 1; 2; 3; 4; 5; 4 |]

(* --- lubm-update: writes through the delta layer beside reads --------- *)

type write =
  | Insert of T.id_triple
  | Delete of T.id_triple

type update_op =
  | Read of string  (** subject, in N-Triples spelling *)
  | Write of write

(* A bag of triples with O(1) uniform removal. *)
type bag = {
  mutable items : T.id_triple array;
  mutable n : int;
}

let bag_of_array a = { items = Array.copy a; n = Array.length a }

let bag_put b x =
  if b.n = Array.length b.items then begin
    let a = Array.make (max 16 (2 * b.n)) x in
    Array.blit b.items 0 a 0 b.n;
    b.items <- a
  end;
  b.items.(b.n) <- x;
  b.n <- b.n + 1

let bag_take b rng =
  let i = Prng.int rng b.n in
  let x = b.items.(i) in
  b.items.(i) <- b.items.(b.n - 1);
  b.n <- b.n - 1;
  x

let bag_to_list b = List.init b.n (fun i -> b.items.(i))

type update_state = {
  rng : Prng.t;
  absent : bag;  (** insert candidates: the held-out quarter, plus deletes once flushed *)
  base_live : bag;  (** delete candidates: base triples not yet deleted *)
  inserted : bag;  (** inserted and still present *)
  mutable unflushed : T.id_triple list;
      (** deleted since the last flush: still tombstones, so not yet
          insertable (re-inserting would cancel a tombstone instead of
          buffering an insert) *)
  subjects : string array;
  mutable next : int;
}

let update_state ~seed ~base ~held_out ~subjects =
  {
    rng = Prng.create (seed lxor 0x5eed_3003);
    absent = bag_of_array held_out;
    base_live = bag_of_array base;
    inserted = { items = [||]; n = 0 };
    unflushed = [];
    subjects;
    next = 0;
  }

(* Each block of four ops is insert, delete, insert, read: three writes
   in four, two inserts per delete.  An exhausted pool yields the other
   write kind (and, with both exhausted, a read), which the measured
   sizes never reach. *)
let next_update st =
  let slot = st.next mod 4 in
  st.next <- st.next + 1;
  let insert () =
    let t = bag_take st.absent st.rng in
    bag_put st.inserted t;
    Write (Insert t)
  and delete () =
    let t = bag_take st.base_live st.rng in
    st.unflushed <- t :: st.unflushed;
    Write (Delete t)
  and read () = Read st.subjects.(Prng.int st.rng (Array.length st.subjects)) in
  let can_insert = st.absent.n > 0 and can_delete = st.base_live.n > 0 in
  match slot with
  | 3 -> read ()
  | 1 when can_delete -> delete ()
  | _ when can_insert -> insert ()
  | _ when can_delete -> delete ()
  | _ -> read ()

(* The delta layer drained its buffers: tombstoned triples are gone from
   the base and become insert candidates again. *)
let flushed st =
  List.iter (bag_put st.absent) st.unflushed;
  st.unflushed <- []

let live st = bag_to_list st.base_live @ bag_to_list st.inserted

let update_read_query subject = Printf.sprintf "SELECT ?p ?o WHERE { %s ?p ?o }" subject

(* --- oracles ---------------------------------------------------------- *)

let cell dict id = Query.Binding.value_to_string dict (Query.Binding.Id id)

(* The result in an order-free canonical form: sorted rows of decoded
   cells. *)
let run_canonical boxed (q : Query.Sparql.query) =
  List.sort compare (Query.Results.to_table (Hexa.Store_sig.dict boxed) ~columns:q.projection (Query.Exec.run boxed q.algebra))

let nested_only f =
  let saved = !Query.Planner.nested_loop_only in
  Query.Planner.nested_loop_only := true;
  Fun.protect ~finally:(fun () -> Query.Planner.nested_loop_only := saved) f

(* The hand-coded BQ/LQ strategy's answer for the same query, in the
   same canonical form, where one exists.  [rows] maps the planned
   result onto what the hand strategy returns (BQ3/BQ4 keep only
   objects seen more than once). *)
type hand = {
  expected : string list list;
  rows : string list list -> string list list;
}

let sorted l = List.sort compare l

let popular rows = List.filter (function [ _; _; n ] -> int_of_string n > 1 | _ -> false) rows

let hand_lookup h op =
  let dict = Hexa.Hexastore.dict h in
  let store = Workloads.Stores.Hexa h in
  match
    ( Workloads.Queries_lubm.resolve_ids dict,
      T.find_term dict (Rdf.Term.iri op.anchor_iri) )
  with
  | Some ids, Some anchor -> (
      let c = cell dict in
      let pairs l = sorted (List.map (fun (a, b) -> [ c a; c b ]) l) in
      match lookup_templates.(op.tpl).tname with
      | "lq1" ->
          Some { expected = pairs (Workloads.Queries_lubm.lq1 store { ids with course10 = anchor }); rows = Fun.id }
      | "lq3" ->
          Some
            {
              expected = pairs (fst (Workloads.Queries_lubm.lq3 store { ids with assoc_prof10 = anchor }));
              rows = Fun.id;
            }
      | "lq4" ->
          let groups = Workloads.Queries_lubm.lq4 store { ids with assoc_prof10 = anchor } in
          Some
            {
              expected =
                sorted (List.concat_map (fun (course, people) -> List.map (fun s -> [ c course; c s ]) people) groups);
              rows = Fun.id;
            }
      | _ -> None)
  | _ -> None

let hand_barton h qname =
  let dict = Hexa.Hexastore.dict h in
  let store = Workloads.Stores.Hexa h in
  match Workloads.Queries_barton.resolve_ids dict with
  | None -> None
  | Some ids -> (
      let c = cell dict in
      let counts l = sorted (List.map (fun (a, n) -> [ c a; string_of_int n ]) l) in
      let per_object l =
        sorted (List.concat_map (fun (p, objs) -> List.map (fun (o, n) -> [ c p; c o; string_of_int n ]) objs) l)
      in
      let module Q = Workloads.Queries_barton in
      match qname with
      | "bq1" -> Some { expected = counts (Q.bq1 store ids); rows = Fun.id }
      | "bq2" -> Some { expected = counts (Q.bq2 store ids); rows = Fun.id }
      | "bq3" -> Some { expected = per_object (Q.bq3 store ids); rows = popular }
      | "bq4" -> Some { expected = per_object (Q.bq4 store ids); rows = popular }
      | "bq5" -> Some { expected = sorted (List.map (fun (s, t) -> [ c s; c t ]) (Q.bq5 store ids)); rows = Fun.id }
      | "bq7" ->
          Some
            {
              expected =
                sorted
                  (List.concat_map
                     (fun (s, encs, tys) -> List.concat_map (fun e -> List.map (fun t -> [ c s; c e; c t ]) tys) encs)
                     (Q.bq7 store ids));
              rows = Fun.id;
            }
      | _ -> None)

(* Planned result = forced nested-loop result (= hand strategy, when
   there is one).  Returns the planned canonical rows and the verdict. *)
let check_query boxed text ~hand =
  let q = Query.Sparql.parse text in
  let planned = run_canonical boxed q in
  let nested = nested_only (fun () -> run_canonical boxed q) in
  let hand_ok = match hand with None -> true | Some hd -> hd.rows planned = hd.expected in
  (planned, planned = nested && hand_ok)
