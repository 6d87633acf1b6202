(* Seeded N-Triples inputs.  Generation happens before any timing: the
   benchmark hands the program bytes, as a user loading a file would. *)

type sizes = {
  universities : int;
  departments : int;
  barton_subjects : int;
}

(* The measured sizes: LUBM 10 universities x 4 departments (about 154k
   triples, 26 MB) and Barton with 50,000 records (about 241k triples,
   34 MB). *)
let full = { universities = 10; departments = 4; barton_subjects = 50_000 }

let nt_of_seq seq =
  let b = Buffer.create (1 lsl 20) in
  Seq.iter
    (fun t ->
      Buffer.add_string b (Rdf.Ntriples.to_string t);
      Buffer.add_char b '\n')
    seq;
  Buffer.contents b

let lubm sizes ~seed =
  nt_of_seq
    (Workloads.Lubm.generate_seq
       (Workloads.Lubm.config ~universities:sizes.universities
          ~departments_per_university:sizes.departments ~seed ()))

let barton sizes ~seed =
  nt_of_seq (Workloads.Barton.generate_seq (Workloads.Barton.config ~subjects:sizes.barton_subjects ~seed ()))

let lines nt =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) nt;
  !n

(* [split nt ~num ~den] cuts after the first [num/den] of the lines:
   (head, rest). *)
let split nt ~num ~den =
  let keep = lines nt * num / den in
  let rec at pos k = if k = 0 then pos else at (String.index_from nt pos '\n' + 1) (k - 1) in
  let cut = at 0 keep in
  (String.sub nt 0 cut, String.sub nt cut (String.length nt - cut))

(* Bytes of one triple's N-Triples line, newline included. *)
let line_bytes dict t =
  String.length (Rdf.Ntriples.to_string (Dict.Term_dict.decode_triple dict t)) + 1
