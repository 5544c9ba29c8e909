(* Shared pieces of the layered benchmark: clocks, input generation,
   summary statistics, the span recorder of traced runs, the per-layer
   metric table, and the result line the harness reads. *)

let now = Unix.gettimeofday

(* Inputs come from the workload seed through this generator, never from
   the engine's own Rng, so the program sees only the values it yields. *)
module Prng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.(add (of_int seed) 0x9E3779B97F4A7C15L) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, bound) *)
  let int t bound =
    Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))
end

(* --- statistics ------------------------------------------------------- *)

(* Linear interpolation between closest ranks, as numpy's default. *)
let percentile values p =
  match values with
  | [] -> nan
  | _ ->
      let a = Array.of_list values in
      Array.sort compare a;
      let n = Array.length a in
      let pos = p *. float_of_int (n - 1) in
      let lo = truncate pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median values = percentile values 0.5
let sum = List.fold_left ( +. ) 0.0

(* --- host facts ------------------------------------------------------- *)

let nproc = Domain.recommended_domain_count ()

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

(* --- operation ledger --------------------------------------------------- *)

(* One record per attempted operation: its query type, latency, the base
   rows it reads, and whether its answer matched the oracle.  A failed
   operation is one whose answer did not match (or that raised); it stays
   in the ledger so failures are counted against attempts, never hidden. *)
type op = { kind : string; latency_s : float; rows_in : int; ok : bool }

let ops : op list ref = ref []
let record op = ops := op :: !ops

(* The named fault an operation is known to trip, if any.  Printed next
   to its failure count so the report says why it failed. *)
let known_faults : (string * string) list ref = ref []

let report_ops ~workload =
  let kinds = List.sort_uniq compare (List.map (fun o -> o.kind) !ops) in
  List.iter
    (fun kind ->
      let mine = List.filter (fun o -> o.kind = kind) !ops in
      let failed = List.length (List.filter (fun o -> not o.ok) mine) in
      let lat = List.map (fun o -> o.latency_s) mine in
      Printf.printf
        "%-8s %-12s attempted %6d  failed %6d  p25 %9.3f  p50 %9.3f  p75 %9.3f ms%s\n"
        workload kind (List.length mine) failed
        (percentile lat 0.25 *. 1e3) (median lat *. 1e3) (percentile lat 0.75 *. 1e3)
        (match List.assoc_opt kind !known_faults with
        | Some fault when failed > 0 -> "  (" ^ fault ^ ")"
        | _ -> ""))
    kinds

(* A round is one pass over a workload's fixed list of operations on one
   connection.  Closed-loop throughput comes from the median round, so a
   burst of host noise that stalls a few rounds does not move it. *)
type round = { wall_s : float; round_ops : int; round_rows : int; service_s : float }

let rounds : round list ref = ref []

let timed_round f =
  let t0 = now () in
  let round_ops = f () in
  (now () -. t0, round_ops)

let record_round (wall_s, round_ops) =
  List.iter record round_ops;
  rounds :=
    {
      wall_s;
      round_ops = List.length round_ops;
      round_rows = List.fold_left (fun a o -> a + o.rows_in) 0 round_ops;
      service_s = List.fold_left (fun a o -> a +. o.latency_s) 0.0 round_ops;
    }
    :: !rounds

let attempted () = List.length !ops
let failed () = List.length (List.filter (fun o -> not o.ok) !ops)

(* --- span recorder (traced runs only) ----------------------------------- *)

type span = {
  name : string;
  start : float;
  stop : float;
  parent : int;  (** index of the enclosing span, -1 at a query root *)
  qid : int;
}

let tracing = ref false
let spans : span list ref = ref []
let span_count = ref 0
let open_stack : int list ref = ref []
let current_qid = ref 0

(* Time [f] as span [name] under the innermost open span.  Spans are kept
   in memory and written out once, at exit; with tracing off [f] is only
   timed. *)
let span name f =
  if not !tracing then
    let start = now () in
    let v = f () in
    (v, now () -. start)
  else
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  let id = !span_count in
  incr span_count;
  open_stack := id :: !open_stack;
  let start = now () in
  let finish () =
    let stop = now () in
    open_stack := List.tl !open_stack;
    spans := { name; start; stop; parent; qid = !current_qid } :: !spans;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish ());
      raise e

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"query\":%d}\n"
            (if i = 0 then " " else ",")
            i s.name s.start s.stop s.parent s.qid)
        (List.rev !spans);
      output_string oc "]\n")

(* --- per-layer metrics -------------------------------------------------- *)

(* Every per-layer metric, in report order, with its unit.  A layer a
   workload does not cross reports 0. *)
let layer_metrics =
  [
    ("sql.parse_us", "us");
    ("sql.bind_us", "us");
    ("sql.optimize_us", "us");
    ("sql.candidates_per_query", "count");
    ("sql.frontend_share", "ratio");
    ("plan.analyze_us", "us");
    ("plan.compile_us", "us");
    ("plan.session_overhead_us", "us");
    ("plan.drain_ms", "ms");
    ("sched.tasks_per_query", "count");
    ("sched.suspensions_per_query", "count");
    ("sched.steals_per_query", "count");
    ("sched.task_start_p50_us", "us");
    ("core.packets_per_query", "count");
    ("core.records_per_packet", "count");
    ("core.flow_waits_per_query", "count");
    ("core.flow_wait_ms_per_query", "ms");
    ("core.packet_reuse_ratio", "ratio");
    ("core.exchange_self_ms", "ms");
    ("ops.scan_self_ms", "ms");
    ("ops.aggregate_self_ms", "ms");
    ("ops.match_self_ms", "ms");
    ("ops.sort_self_ms", "ms");
    ("storage.fixes_per_query", "count");
    ("storage.hit_ratio", "ratio");
    ("storage.misses_per_query", "count");
    ("storage.evictions_per_query", "count");
    ("storage.restarts_per_query", "count");
    ("storage.device_reads_per_query", "count");
    ("storage.device_writes_per_query", "count");
    ("net.roundtrip_overhead_us", "us");
    ("net.response_bytes_per_query", "bytes");
    ("net.codec_us", "us");
    ("net.launch_ms", "ms");
    ("net.wire_bytes_per_query", "bytes");
    ("net.wire_rows_per_query", "count");
    ("gc.minor_words_per_row", "words");
    ("gc.major_collections_per_query", "count");
    ("trace.overhead_ratio", "ratio");
  ]

(* Accumulated sums over the traced queries; metrics are formed from
   them at the end (per-query means, or ratios of sums). *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let add key v =
  Hashtbl.replace sums key (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums key))
let get key = Option.value ~default:0.0 (Hashtbl.find_opt sums key)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* What a workload run hands back: its end-to-end figures, plus the
   in-process session the traced run drove (for scheduler counters). *)
type outcome = {
  session : Volcano_plan.Session.t option;
  setup_s : float;
  rss_mb : float;
  queries_per_s : float;
  latencies : float list;  (** seconds; the p50 / p90 population *)
}

(* [connections] rounds run side by side, each of the same length. *)
let round_throughput ~connections =
  match !rounds with
  | [] -> 0.0
  | r :: _ ->
      float_of_int (connections * r.round_ops)
      /. median (List.map (fun r -> r.wall_s) !rounds)

let closed_loop_outcome ~session ~setup_s ~rss_mb =
  {
    session;
    setup_s;
    rss_mb;
    queries_per_s = round_throughput ~connections:1;
    latencies = List.map (fun o -> o.latency_s) !ops;
  }

(* Set up [times] times and keep the last; the set-up time reported is
   the median.  Each earlier session is closed (its worker pool stops)
   and collected before the next set-up starts. *)
let repeat_setup ~times setup =
  let rec go i prev times_s =
    Option.iter Volcano_plan.Session.close prev;
    Gc.full_major ();
    let t0 = now () in
    let session = setup () in
    let times_s = (now () -. t0) :: times_s in
    if i = times then (session, median times_s) else go (i + 1) (Some session) times_s
  in
  go 1 None []

(* --- result line -------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output: the harness parses exactly this. *)
let print_result ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (attempted ()) (failed ()) body
