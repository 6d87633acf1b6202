exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

(* Format 2 (PR 10) adds one representation byte right after the magic
   — inside the checksum — recording the store's configured codec so a
   compressed store round-trips byte-identically (same tag out, same
   tag back in, recompression on load).  Format-1 blobs still load, as
   raw stores.  Tag 2 named a second codec (delta + varint) that has
   since been removed; the payload holds ids, not codec bytes, so such
   blobs load as packed stores. *)
let magic = "HEXSNAP2"
let magic_v1 = "HEXSNAP1"

let repr_tag = function
  | Vectors.Sorted_ivec.Raw -> 0
  | Vectors.Sorted_ivec.Packed -> 1

let repr_of_tag = function
  | 0 -> Vectors.Sorted_ivec.Raw
  | 1 | 2 -> Vectors.Sorted_ivec.Packed
  | b -> corrupt "unknown representation tag %d" b

(* --- FNV-1a 64-bit, over the payload bytes ---------------------------- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_update h byte =
  Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xff))) fnv_prime

(* --- checksummed byte sinks/sources ----------------------------------- *)

type sink = {
  oc : out_channel;
  mutable out_hash : int64;
}

let write_byte sink b =
  output_char sink.oc (Char.chr (b land 0xff));
  sink.out_hash <- fnv_update sink.out_hash b

let write_string sink s =
  String.iter (fun c -> write_byte sink (Char.code c)) s

let write_varint sink n =
  if n < 0 then invalid_arg "Snapshot.write_varint: negative";
  let rec go n =
    if n < 0x80 then write_byte sink n
    else begin
      write_byte sink (0x80 lor (n land 0x7f));
      go (n lsr 7)
    end
  in
  go n

type source = {
  ic : in_channel;
  mutable in_hash : int64;
}

let read_byte src =
  match input_char src.ic with
  | c ->
      src.in_hash <- fnv_update src.in_hash (Char.code c);
      Char.code c
  | exception End_of_file -> corrupt "truncated snapshot"

(* A corrupt length field must fail as [Corrupt], not as an attempted
   multi-gigabyte allocation: no declared size can exceed the bytes that
   are actually left in the channel. *)
let remaining src = in_channel_length src.ic - pos_in src.ic

let check_size src n what =
  if n < 0 || n > remaining src then corrupt "declared %s exceeds snapshot size" what

let read_string src n =
  check_size src n "string length";
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.chr (read_byte src))
  done;
  Bytes.unsafe_to_string b

let read_varint src =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflow";
    let b = read_byte src in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* --- save -------------------------------------------------------------- *)

let save_channel h oc =
  let sink = { oc; out_hash = fnv_offset } in
  output_string oc magic;
  write_byte sink (repr_tag (Hexastore.repr h));
  let dict = Hexastore.dict h in
  let n_terms = Dict.Term_dict.size dict in
  write_varint sink n_terms;
  for id = 0 to n_terms - 1 do
    let spelling = Rdf.Term.to_string (Dict.Term_dict.decode_term dict id) in
    write_varint sink (String.length spelling);
    write_string sink spelling
  done;
  write_varint sink (Hexastore.size h);
  (* The full scan streams in (s, p, o) order — exactly the delta-friendly
     order. *)
  let prev = ref { Dict.Term_dict.s = 0; p = 0; o = 0 } in
  let first = ref true in
  Hexastore.lookup h Pattern.wildcard
  |> Seq.iter (fun (tr : Dict.Term_dict.id_triple) ->
         let ds = if !first then tr.s else tr.s - !prev.s in
         let p_base = if ds > 0 || !first then 0 else !prev.p in
         let dp = tr.p - p_base in
         let o_base = if ds > 0 || dp > 0 || !first then 0 else !prev.o in
         let dob = tr.o - o_base in
         write_varint sink ds;
         write_varint sink dp;
         write_varint sink dob;
         prev := tr;
         first := false);
  (* Trailer: the hash of everything after the magic, big-endian. *)
  let hash = sink.out_hash in
  for i = 7 downto 0 do
    output_char oc (Char.chr (Int64.to_int (Int64.shift_right_logical hash (8 * i)) land 0xff))
  done

let save h path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     save_channel h oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     Sys.remove tmp;
     raise e);
  Sys.rename tmp path;
  Telemetry.Events.emit (Telemetry.Events.Snapshot_save { path; triples = Hexastore.size h })

(* --- load -------------------------------------------------------------- *)

let load_channel ic =
  let got = try really_input_string ic (String.length magic) with End_of_file -> "" in
  if got <> magic && got <> magic_v1 then corrupt "bad magic (not a Hexastore snapshot)";
  let src = { ic; in_hash = fnv_offset } in
  (* Format 1 predates representation tags: such blobs are raw. *)
  let repr = if got = magic then repr_of_tag (read_byte src) else Vectors.Sorted_ivec.Raw in
  let dict = Dict.Term_dict.create () in
  let n_terms = read_varint src in
  (* Each term costs at least 2 bytes (length varint + 1 char). *)
  check_size src (n_terms * 2) "term count";
  for expected_id = 0 to n_terms - 1 do
    let len = read_varint src in
    let spelling = read_string src len in
    let term =
      try Rdf.Ntriples.parse_term spelling
      with Rdf.Ntriples.Parse_error (_, msg) -> corrupt "bad term %d: %s" expected_id msg
    in
    let id = Dict.Term_dict.encode_term dict term in
    if id <> expected_id then corrupt "duplicate term spelling at id %d" expected_id
  done;
  let n_triples = read_varint src in
  (* Each triple costs at least 3 varint bytes. *)
  check_size src (n_triples * 3) "triple count";
  let triples =
    if n_triples = 0 then [||]
    else Array.make n_triples { Dict.Term_dict.s = 0; p = 0; o = 0 }
  in
  let prev = ref { Dict.Term_dict.s = 0; p = 0; o = 0 } in
  for i = 0 to n_triples - 1 do
    let ds = read_varint src in
    let dp = read_varint src in
    let dob = read_varint src in
    let s = if i = 0 then ds else !prev.s + ds in
    let p_base = if ds > 0 || i = 0 then 0 else !prev.p in
    let p = p_base + dp in
    let o_base = if ds > 0 || dp > 0 || i = 0 then 0 else !prev.o in
    let o = o_base + dob in
    if s >= n_terms || p >= n_terms || o >= n_terms then
      corrupt "triple %d references unknown id" i;
    let tr = { Dict.Term_dict.s; p; o } in
    triples.(i) <- tr;
    prev := tr
  done;
  let payload_hash = src.in_hash in
  let stored =
    try really_input_string ic 8 with End_of_file -> corrupt "missing checksum"
  in
  let stored_hash =
    String.fold_left (fun acc c -> Int64.logor (Int64.shift_left acc 8) (Int64.of_int (Char.code c))) 0L stored
  in
  if stored_hash <> payload_hash then corrupt "checksum mismatch";
  (match input_char ic with
  | _ -> corrupt "trailing bytes after checksum"
  | exception End_of_file -> ());
  let h = Hexastore.create ~dict ~repr () in
  let added = Hexastore.add_bulk_ids h triples in
  if added <> n_triples then corrupt "duplicate triples in snapshot";
  h

let load path =
  let ic = open_in_bin path in
  let h = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> load_channel ic) in
  Telemetry.Events.emit (Telemetry.Events.Snapshot_load { path; triples = Hexastore.size h });
  h

(* Delta-fronted stores persist flush-on-save: the snapshot format only
   knows the six-ordering base image, so pending buffers are drained
   into it first.  Saving is therefore canonicalising — re-saving the
   loaded store produces byte-identical output. *)

let save_delta d path =
  Delta.flush d;
  save (Delta.base d) path

let load_delta ?insert_threshold ?delete_threshold path =
  Delta.of_base ?insert_threshold ?delete_threshold (load path)
