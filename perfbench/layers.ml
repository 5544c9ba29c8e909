(* The traced path: one query driven through each layer's public entry
   point in turn, each call timed as a span, followed by an EXPLAIN
   ANALYZE re-run for the counters only the engine can see.  Queries run
   one at a time, so process-global deltas (buffer pool, device,
   scheduler, GC) belong to the query that produced them. *)

open Common
module Plan = Volcano_plan.Plan
module Compile = Volcano_plan.Compile
module Profile = Volcano_plan.Profile
module Session = Volcano_plan.Session
module Sql = Volcano_sql.Sql
module Optimizer = Volcano_sql.Optimizer
module Iterator = Volcano.Iterator
module Exchange = Volcano.Exchange
module Obs = Volcano_obs.Obs
module Sched = Volcano_sched.Sched
module Bufpool = Volcano_storage.Bufpool

type input = Sql of string | Hand of Plan.t

let session_input = function Sql s -> `Sql s | Hand p -> `Plan p

(* Operator self time: a node's busy time minus its inputs' busy time.
   Busy time is summed over the ranks running a node, so below an
   exchange the inputs' sum is divided by the group degree — the ranks
   ran side by side, and the consumer waited for them once. *)
let charge_self_times (report : Profile.report) =
  let busy p =
    match report.obs.node_of p with
    | Some n -> Obs.Node.busy_s n
    | None -> 0.0
  in
  let rec walk p =
    let kids = Plan.children p in
    let kids_busy = sum (List.map busy kids) in
    let category, kids_busy =
      match p with
      | Plan.Exchange { cfg; _ }
      | Plan.Exchange_merge { cfg; _ }
      | Plan.Interchange { cfg; _ }
      | Plan.Remote { cfg; _ } ->
          (Some "core.exchange_self", kids_busy /. float_of_int cfg.Exchange.degree)
      | Plan.Scan_table _ | Plan.Scan_table_slice _ | Plan.Scan_index _
      | Plan.Scan_list _ | Plan.Generate _ | Plan.Generate_slice _
      | Plan.Generate_range _ | Plan.Filter _ ->
          (Some "ops.scan_self", kids_busy)
      | Plan.Aggregate _ | Plan.Distinct _ -> (Some "ops.aggregate_self", kids_busy)
      | Plan.Match _ | Plan.Cross _ | Plan.Theta_join _ ->
          (Some "ops.match_self", kids_busy)
      | Plan.Sort _ -> (Some "ops.sort_self", kids_busy)
      | _ -> (None, kids_busy)
    in
    Option.iter (fun key -> add key (Float.max 0.0 (busy p -. kids_busy))) category;
    List.iter walk kids
  in
  walk report.plan;
  let buf = report.buffer in
  add "storage.hits" (float_of_int buf.Bufpool.hits);
  add "storage.misses" (float_of_int buf.Bufpool.misses);
  add "storage.evictions" (float_of_int buf.Bufpool.evictions);
  add "storage.restarts" (float_of_int buf.Bufpool.restarts);
  add "storage.device_reads" (float_of_int report.device_reads);
  add "storage.device_writes" (float_of_int report.device_writes);
  let sched = report.sched in
  add "sched.tasks" (float_of_int sched.Sched.submitted);
  add "sched.suspensions" (float_of_int sched.Sched.suspensions);
  add "sched.steals" (float_of_int sched.Sched.stolen);
  List.iter
    (fun node ->
      match Obs.exchange_sample report.sink ~node with
      | None -> ()
      | Some x ->
          add "core.packets" (float_of_int x.Obs.packets_sent);
          add "core.records" (float_of_int x.Obs.records);
          add "core.flow_waits" (float_of_int x.Obs.flow_waits);
          add "core.flow_wait_s" x.Obs.flow_wait_s;
          add "core.pool_reused" (float_of_int x.Obs.pool_reused);
          add "core.pool_allocated" (float_of_int x.Obs.pool_allocated))
    (Obs.nodes report.sink)

(* Run one query the traced way and return the rows of its decomposed
   run (the ones the oracle checks) with that run's latency.  [untraced] is the plain
   [Session.exec] latency of the same query, measured first, against
   which the tracing overhead is reported. *)
let kinds : string list ref = ref []

let add_kind kind key v =
  if not (List.mem kind !kinds) then kinds := !kinds @ [ kind ];
  add (kind ^ "/" ^ key) v

let traced_query session ~kind input ~rows_in =
  let env = Session.env session in
  let frontend = ref 0.0 in
  let (), untraced =
    span "untraced" (fun () -> ignore (Session.exec session (session_input input)))
  in
  incr current_qid;
  let gc0 = Gc.quick_stat () in
  let (rows, plan, wrapped), total =
    span "query" (fun () ->
        let plan =
          match input with
          | Hand plan -> plan
          | Sql text ->
              let ast, t_parse = span "sql.parse" (fun () -> Sql.parse text) in
              add "sql.parse" t_parse;
              let bound, t_bind = span "sql.bind" (fun () -> Sql.bind env ast) in
              add "sql.bind" t_bind;
              let choice, t_optimize =
                span "sql.optimize" (fun () -> Optimizer.optimize env bound)
              in
              add "sql.optimize" t_optimize;
              frontend := t_parse +. t_bind +. t_optimize;
              add "sql.candidates" (float_of_int (List.length choice.Optimizer.notes));
              choice.Optimizer.plan
        in
        let _, t_analyze = span "plan.analyze" (fun () -> Compile.analyze env plan) in
        add "plan.analyze" t_analyze;
        let it, t_compile =
          span "plan.compile" (fun () -> Compile.compile ~check:false env plan)
        in
        add "plan.compile" t_compile;
        let rows, t_drain = span "plan.drain" (fun () -> Iterator.to_list it) in
        add "plan.drain" t_drain;
        (rows, plan, t_analyze +. t_compile +. t_drain))
  in
  let gc1 = Gc.quick_stat () in
  add "gc.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  add "gc.major_collections"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  add "rows_in" (float_of_int rows_in);
  add "queries" 1.0;
  add "traced_s" total;
  add "untraced_s" untraced;
  (* Session overhead: the runtime path around the same plan, less the
     analyze + compile + drain it wraps. *)
  let (), exec_s =
    span "session.exec" (fun () -> ignore (Session.exec session (`Plan plan)))
  in
  add "plan.session_overhead" (exec_s -. wrapped);
  let report, _ = span "session.profile" (fun () -> Session.profile session (`Plan plan)) in
  charge_self_times report;
  add_kind kind "queries" 1.0;
  add_kind kind "traced_s" total;
  add_kind kind "frontend_s" !frontend;
  add_kind kind "fixes" (float_of_int (report.buffer.Bufpool.hits + report.buffer.Bufpool.misses));
  add_kind kind "device_reads" (float_of_int report.device_reads);
  add_kind kind "device_writes" (float_of_int report.device_writes);
  (rows, total)

(* The traced run's per-type breakdown: where a type's time and page
   traffic go, for the reference figures in README.md. *)
let report_kinds ~workload =
  List.iter
    (fun kind ->
      let per key = get (kind ^ "/" ^ key) /. get (kind ^ "/queries") in
      Printf.printf
        "%-8s %-13s traced %9.3f ms  front end %8.1f us (%5.2f%%)  fixes %8.0f  \
         device reads %7.0f  writes %6.0f\n"
        workload kind (per "traced_s" *. 1e3) (per "frontend_s" *. 1e6)
        (100.0 *. ratio (per "frontend_s") (per "traced_s"))
        (per "fixes") (per "device_reads") (per "device_writes"))
    !kinds

(* Per-layer metric values from the sums, in [layer_metrics] order. *)
let metrics ~session =
  let n = Float.max 1.0 (get "queries") in
  let per_query key = get key /. n in
  let value = function
    | "sql.parse_us" -> per_query "sql.parse" *. 1e6
    | "sql.bind_us" -> per_query "sql.bind" *. 1e6
    | "sql.optimize_us" -> per_query "sql.optimize" *. 1e6
    | "sql.candidates_per_query" -> per_query "sql.candidates"
    | "sql.frontend_share" ->
        ratio (get "sql.parse" +. get "sql.bind" +. get "sql.optimize") (get "traced_s")
    | "plan.analyze_us" -> per_query "plan.analyze" *. 1e6
    | "plan.compile_us" -> per_query "plan.compile" *. 1e6
    | "plan.session_overhead_us" -> per_query "plan.session_overhead" *. 1e6
    | "plan.drain_ms" -> per_query "plan.drain" *. 1e3
    | "sched.tasks_per_query" -> per_query "sched.tasks"
    | "sched.suspensions_per_query" -> per_query "sched.suspensions"
    | "sched.steals_per_query" -> per_query "sched.steals"
    | "sched.task_start_p50_us" ->
        Sched.task_latency_percentile (Session.sched session) 0.5 *. 1e6
    | "core.packets_per_query" -> per_query "core.packets"
    | "core.records_per_packet" -> ratio (get "core.records") (get "core.packets")
    | "core.flow_waits_per_query" -> per_query "core.flow_waits"
    | "core.flow_wait_ms_per_query" -> per_query "core.flow_wait_s" *. 1e3
    | "core.packet_reuse_ratio" ->
        ratio (get "core.pool_reused")
          (get "core.pool_reused" +. get "core.pool_allocated")
    | "core.exchange_self_ms" -> per_query "core.exchange_self" *. 1e3
    | "ops.scan_self_ms" -> per_query "ops.scan_self" *. 1e3
    | "ops.aggregate_self_ms" -> per_query "ops.aggregate_self" *. 1e3
    | "ops.match_self_ms" -> per_query "ops.match_self" *. 1e3
    | "ops.sort_self_ms" -> per_query "ops.sort_self" *. 1e3
    | "storage.fixes_per_query" ->
        per_query "storage.hits" +. per_query "storage.misses"
    | "storage.hit_ratio" ->
        ratio (get "storage.hits") (get "storage.hits" +. get "storage.misses")
    | "storage.misses_per_query" -> per_query "storage.misses"
    | "storage.evictions_per_query" -> per_query "storage.evictions"
    | "storage.restarts_per_query" -> per_query "storage.restarts"
    | "storage.device_reads_per_query" -> per_query "storage.device_reads"
    | "storage.device_writes_per_query" -> per_query "storage.device_writes"
    | "net.roundtrip_overhead_us" ->
        if get "net.roundtrip" = 0.0 then 0.0
        else (get "net.roundtrip" -. get "untraced_s") /. n *. 1e6
    | "net.response_bytes_per_query" -> per_query "net.response_bytes"
    | "net.codec_us" -> per_query "net.codec" *. 1e6
    | "net.launch_ms" -> ratio (get "net.launch") (get "net.launches") *. 1e3
    | "net.wire_bytes_per_query" -> ratio (get "net.wire_bytes") (get "net.launches")
    | "net.wire_rows_per_query" -> ratio (get "net.wire_rows") (get "net.launches")
    | "gc.minor_words_per_row" -> ratio (get "gc.minor_words") (get "rows_in")
    | "gc.major_collections_per_query" -> per_query "gc.major_collections"
    | "trace.overhead_ratio" -> ratio (get "traced_s") (get "untraced_s")
    | name -> failwith ("no per-layer metric " ^ name)
  in
  List.map (fun (name, unit) -> (name, unit, value name)) layer_metrics
