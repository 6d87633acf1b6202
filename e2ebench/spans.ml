(* In-memory span log for the traced run.  Each span is five ints —
   name, request id, parent span (-1 for a root), start and stop in ns —
   packed into a byte buffer so a million spans cost the GC nothing to
   scan.  Spans are written out once, after measuring. *)

type t = {
  mutable buf : Bytes.t;
  mutable n : int;
  names : (string, int) Hashtbl.t;
  mutable by_id : string array;
}

let fields = 5

let create () = { buf = Bytes.create (8 * fields * 4096); n = 0; names = Hashtbl.create 16; by_id = [||] }

let name t s =
  match Hashtbl.find_opt t.names s with
  | Some id -> id
  | None ->
      let id = Array.length t.by_id in
      Hashtbl.add t.names s id;
      t.by_id <- Array.append t.by_id [| s |];
      id

let length t = t.n

let get t i f = Int64.to_int (Bytes.get_int64_le t.buf (8 * ((fields * i) + f)))

let set t i f v = Bytes.set_int64_le t.buf (8 * ((fields * i) + f)) (Int64.of_int v)

let enter t ~name ~req ~parent =
  if 8 * fields * (t.n + 1) > Bytes.length t.buf then begin
    let b = Bytes.create (2 * Bytes.length t.buf) in
    Bytes.blit t.buf 0 b 0 (8 * fields * t.n);
    t.buf <- b
  end;
  let i = t.n in
  t.n <- i + 1;
  set t i 0 name;
  set t i 1 req;
  set t i 2 parent;
  set t i 3 (Measure.now_ns ());
  set t i 4 0;
  i

let exit t i = set t i 4 (Measure.now_ns ())

let with_span t ~name ~req ~parent f =
  let i = enter t ~name ~req ~parent in
  let r = f () in
  exit t i;
  r

let duration t i = get t i 4 - get t i 3

(* Self time: a span's duration minus the part its direct children
   cover (children of one parent run one after another). *)
let self_times t =
  let self = Array.init t.n (duration t) in
  for i = 0 to t.n - 1 do
    let p = get t i 2 in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

(* Per span name: (name, spans, total self ns), in registration order. *)
let summary t =
  let self = self_times t in
  let k = Array.length t.by_id in
  let cnt = Array.make k 0 and tot = Array.make k 0 in
  for i = 0 to t.n - 1 do
    let nm = get t i 0 in
    cnt.(nm) <- cnt.(nm) + 1;
    tot.(nm) <- tot.(nm) + self.(i)
  done;
  List.init k (fun i -> (t.by_id.(i), cnt.(i), tot.(i)))

(* One tab-separated line per span: index, name, request, parent,
   start ns, stop ns. *)
let write t path =
  let oc = open_out path in
  output_string oc "span\tname\treq\tparent\tstart_ns\tstop_ns\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.by_id.(get t i 0) (get t i 1) (get t i 2)
      (get t i 3) (get t i 4)
  done;
  close_out oc
