(* Command line: --workload NAME --seed N --seconds S --trace 0|1.
   Prints run metadata as JSON lines, then the result object as the
   last line of standard output. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (lubm-lookup|barton-analytic|lubm-update) --seed N --seconds S --trace 0|1 [--trace-dir DIR]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let trace_dir = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := List.assoc_opt v E2e.Workload.kinds;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0. then Some s else None);
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--trace-dir" :: v :: rest ->
        trace_dir := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some kind, Some seed, Some seconds, Some trace ->
      let cfg =
        {
          E2e.Bench.kind;
          seed;
          seconds;
          trace;
          sizes = E2e.Data.full;
          setups = 5;
          trace_dir = !trace_dir;
          max_ops = None;
        }
      in
      let r = E2e.Bench.run cfg in
      print_endline (E2e.Bench.json_to_string (E2e.Bench.Obj [ ("info", E2e.Bench.Obj r.info) ]));
      print_endline (E2e.Bench.result_line r)
  | _ -> usage ()
