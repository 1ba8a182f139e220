(* perfbench: the end-to-end and per-layer benchmark of [serve] and
   [subscribe].

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints human-readable lines, then as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With [--trace 0] the
   metrics are the five end-to-end ones; with [--trace 1] the per-layer
   ones, from a separate traced run.  See README.md. *)

let workloads = List.map fst Serve_bench.specs @ [ "subscribe-churn" ]

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" workloads);
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: t :: rest -> trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some n, Some s, Some t when s > 0.0 && List.mem !workload workloads -> (n, s, t)
    | _ -> usage ()
  in
  Obs.set_clock Measure.now;
  let attempted, failed, metrics =
    match (List.assoc_opt !workload Serve_bench.specs, trace) with
    | Some spec, false -> Serve_bench.run_e2e !workload spec ~seed ~seconds
    | Some spec, true -> Serve_bench.run_traced !workload spec ~seed ~seconds
    | None, false -> Subscribe_bench.run_e2e ~seed ~seconds
    | None, true -> Subscribe_bench.run_traced ~seed ~seconds
  in
  Printf.printf "operations:  %d attempted, %d failed\n" attempted failed;
  Measure.print_result ~correct:(failed = 0) ~attempted ~failed metrics
