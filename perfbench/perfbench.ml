(* The layered benchmark's load generator.

     perfbench.exe --workload olap|served|remote --seed N --seconds S
                   --trace 0|1 [--cli PATH]

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   drives every query through the layers one call at a time and prints
   the per-layer metrics (and writes the spans under .perfbench_run/).
   Either way the last line of standard output is the JSON result.
   perfbench/run.py builds the tree and calls this; see README.md. *)

open Common

let run_dir = ".perfbench_run"

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload olap|served|remote --seed N --seconds S \
     --trace 0|1 [--cli PATH]";
  exit 2

let parse_args args =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  go [] args

(* Base rows read per second of query time (service time, not
   queueing), over the median round. *)
let rows_in_per_s () =
  median
    (List.map
       (fun r -> float_of_int r.round_rows /. r.service_s)
       !rounds)

let end_to_end (o : outcome) =
  [
    ("setup_s", "s", o.setup_s);
    ("queries_per_s", "1/s", o.queries_per_s);
    ("latency_p50_ms", "ms", percentile o.latencies 0.5 *. 1e3);
    ("latency_p90_ms", "ms", percentile o.latencies 0.90 *. 1e3);
    ("rows_in_per_s", "1/s", rows_in_per_s ());
    ("peak_rss_mb", "MiB", o.rss_mb);
  ]

let () =
  Volcano_sql.Sql.install ();
  match Array.to_list Sys.argv with
  | [ _; "remote-worker"; socket ] -> exit (Remote_load.worker_main ~socket)
  | _ :: args ->
      let opts = parse_args args in
      let opt key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
      let int_opt key =
        match int_of_string_opt (opt key) with Some v -> v | None -> usage ()
      in
      let workload = opt "workload" in
      let seed = int_opt "seed" in
      let seconds = float_of_int (int_opt "seconds") in
      let trace = int_opt "trace" = 1 in
      (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let tmp = Filename.concat run_dir "tmp" in
      (try Unix.mkdir tmp 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      (* Worker sockets are made relative to the run directory, inside the
         checkout and short enough for sun_path wherever it lives. *)
      Filename.set_temp_dir_name tmp;
      tracing := trace;
      let outcome =
        match workload with
        | "olap" -> Olap.run ~seed ~seconds ~trace
        | "served" -> Served.run ~cli:(opt "cli") ~run_dir ~seed ~seconds ~trace
        | "remote" -> Remote_load.run ~seed ~seconds ~trace
        | _ -> usage ()
      in
      report_ops ~workload;
      let correct =
        List.for_all (fun o -> o.ok || List.mem_assoc o.kind !known_faults) !ops
      in
      let metrics =
        if trace then begin
          Layers.report_kinds ~workload;
          write_spans
            (Filename.concat run_dir
               (Printf.sprintf "spans-%s-%d.json" workload seed));
          Layers.metrics ~session:(Option.get outcome.session)
        end
        else end_to_end outcome
      in
      List.iter
        (fun (name, unit, v) -> Printf.printf "%-34s %14.4f %s\n" name v unit)
        metrics;
      print_result ~correct metrics;
      exit 0
  | [] -> usage ()
