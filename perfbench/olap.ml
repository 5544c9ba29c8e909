(* olap: one client in a closed loop running Session.query over stored
   Wisconsin tables.  The big table and its hash-sharded copy are several
   times the 256-frame buffer pool; the small table fits in it.  Executor,
   exchange and storage do nearly all the work. *)

open Common
module Session = Volcano_plan.Session
module Env = Volcano_plan.Env
module Partition = Volcano_plan.Partition
module W = Volcano_wisconsin.Wisconsin

let frames = 256
let n_big = 40_000
let n_small = 2_000
let shards = 2

(* Tuples per in-memory sort run: the sort query spills 8 runs. *)
let sort_run_capacity = n_big / 8

let setup ~seed =
  let session = Session.create ~frames ~workers:nproc () in
  let env = Session.env session in
  let seed = Int64.of_int seed in
  W.load ~seed ~env ~name:"big" ~n:n_big ();
  W.load ~seed ~env ~name:"hbig" ~n:n_big ();
  ignore
    (Partition.split env ~table:"hbig"
       ~spec:(Partition.hash_spec [ W.column "unique1" ])
       ~parts:shards ());
  W.load ~seed ~env ~name:"small" ~n:n_small ();
  Env.set_sort_run_capacity env sort_run_capacity;
  session

type query = { kind : string; sql : string; rows_in : int; check : Volcano_tuple.Tuple.t list -> bool }

let empty_count_fault = "scalar aggregate over empty input returns no row"

(* One round: every query type once.  The empty count runs just before
   the lookup, so the lookup finds the small table resident. *)
let round prng =
  let key = Prng.int prng n_small in
  [
    {
      kind = "scan_agg";
      sql = "SELECT ten, COUNT(*), SUM(unique1) FROM big GROUP BY ten";
      rows_in = n_big;
      check = Oracle.check_ten_groups ~n:n_big;
    };
    {
      kind = "join";
      sql =
        "SELECT h.ten, COUNT(*), SUM(b.unique1) FROM hbig AS h JOIN big AS b \
         ON (h.unique1 = b.unique1) GROUP BY h.ten";
      rows_in = 2 * n_big;
      check = Oracle.check_ten_groups ~n:n_big;
    };
    {
      kind = "sort";
      sql = "SELECT unique2 FROM big ORDER BY unique2 DESC LIMIT 10";
      rows_in = n_big;
      check = Oracle.check_top_unique2 ~n:n_big ~k:10;
    };
    {
      kind = "empty_count";
      sql = "SELECT COUNT(*) FROM small WHERE unique1 = -1";
      rows_in = n_small;
      check = Oracle.check_count ~expect:0;
    };
    {
      kind = "lookup";
      sql = Printf.sprintf "SELECT unique1, unique2 FROM small WHERE unique1 = %d" key;
      rows_in = n_small;
      check = Oracle.check_point ~n:n_small ~key;
    };
  ]

let run_query ~trace session q : op =
  let rows, latency_s =
    match
      if trace then Layers.traced_query session ~kind:q.kind (Layers.Sql q.sql) ~rows_in:q.rows_in
      else span q.kind (fun () -> Session.query session q.sql)
    with
    | rows, latency_s -> (Some rows, latency_s)
    | exception e ->
        Printf.eprintf "%s failed: %s\n%!" q.kind (Printexc.to_string e);
        (None, 0.0)
  in
  {
    kind = q.kind;
    latency_s;
    rows_in = q.rows_in;
    ok = (match rows with Some r -> q.check r | None -> false);
  }

let run ~seed ~seconds ~trace =
  known_faults := [ ("empty_count", empty_count_fault) ];
  let session, setup_s = repeat_setup ~times:5 (fun () -> setup ~seed) in
  let pages name =
    Volcano_storage.Heap_file.page_count (fst (Env.table (Session.env session) name))
  in
  Printf.printf
    "olap     tables       big %d rows / %d pages, hbig %d shards / %d pages, \
     small %d rows / %d pages, %d frames, sort runs of %d tuples\n"
    n_big (pages "big") shards
    (pages "hbig#0" + pages "hbig#1")
    n_small (pages "small") frames sort_run_capacity;
  let prng = Prng.create seed in
  (* warm-up round: lazy pool start, first-touch page faults *)
  List.iter (fun q -> ignore (try Session.query session q.sql with _ -> [])) (round prng);
  let deadline = now () +. seconds in
  while now () < deadline do
    let queries = round prng in
    record_round (timed_round (fun () -> List.map (run_query ~trace session) queries))
  done;
  closed_loop_outcome ~session:(Some session) ~setup_s ~rss_mb:(peak_rss_mb "self")
