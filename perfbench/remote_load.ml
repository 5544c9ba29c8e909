(* remote: hand-built Plan.Remote queries over a hash-sharded Wisconsin
   relation held by nproc worker processes — the one path through
   Launcher, Worker, Codec and Exchange.remote_iterator.  Both query types
   compute olap's scan_agg answer, so the workloads differ by the net
   layer only:

   - remote_agg: each site pre-aggregates its partition, about 1 KB
     crosses the wire;
   - remote_ship: sites ship raw rows, routed by an exchange-boundary
     hash repartition to the parent's consumer ranks, megabytes cross;
   - remote_gather: sites ship the same raw rows unrouted and the parent
     aggregates them alone.

   All three run once per round, so the round's median operation is the
   middle type's, not a gap between two types. *)

open Common
module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Session = Volcano_plan.Session
module Partition = Volcano_plan.Partition
module Remote = Volcano_plan.Remote
module Exchange = Volcano.Exchange
module Expr = Volcano_tuple.Expr
module Agg = Volcano_ops.Aggregate
module W = Volcano_wisconsin.Wisconsin
module Launcher = Volcano_net.Launcher
module Repart = Volcano_net.Repart
module Obs = Volcano_obs.Obs

let frames = 256
let n_rows = 40_000
let table = "rwisc"
let sites = nproc
let spec = Partition.hash_spec [ W.column "unique1" ]
let ten = W.column "ten"

(* Group by ten with the row count and the sum of unique1. *)
let group_by_ten input =
  Plan.Aggregate
    {
      algo = Plan.Hash_based;
      group_by = [ ten ];
      aggs = [ Agg.Count; Agg.Sum (Expr.Col (W.column "unique1")) ];
      input;
    }

(* --- worker side: the bench binary re-executed in remote-worker mode -- *)

let worker_main ~socket =
  Volcano_net.Worker.run ~socket ~resolve:(fun ~task ~shard ~shards ->
      match String.split_on_char ':' task with
      | [ shape; rows; seed ] ->
          let env = Env.create ~frames () in
          let count = int_of_string rows in
          ignore
            (Partition.load_site env ~table ~schema:W.schema ~spec ~parts:shards
               ~site:shard ~count
               ~gen:(W.generator ~seed:(Int64.of_string seed) ~n:count ())
               ());
          let input = Plan.Scan_table_slice table in
          Remote.shard_pull env ~shard ~shards
            (if shape = "agg" then group_by_ten input else input)
      | _ -> failwith ("unknown remote task " ^ task));
  0

(* --- parent side ------------------------------------------------------ *)

(* The parent holds the relation and its partition files too, so its
   catalog places partition k at site k exactly as the workers do. *)
let setup ~seed ~obs =
  let session = Session.create ~frames ~workers:nproc () in
  let env = Session.env session in
  W.load ~seed:(Int64.of_int seed) ~env ~name:table ~n:n_rows ();
  ignore (Partition.split env ~table ~spec ~parts:sites ());
  Env.set_remote_launcher env (fun ~faults ~repartition ~workers ~task ~packet_size ->
      let launched, t =
        span "net.launch" (fun () ->
            Launcher.launch ~faults ?obs
              ?repartition:
                (Option.map
                   (fun (spec, dests) -> Repart.of_partition_spec spec ~dests)
                   repartition)
              ~command:(fun ~socket ->
                [| Sys.executable_name; "remote-worker"; socket |])
              ~workers ~task ~packet_size ())
      in
      add "net.launch" t;
      add "net.launches" 1.0;
      launched.Launcher.sources);
  session

let remote ?partition ~task input =
  Plan.Remote
    {
      cfg = Exchange.config ~degree:sites ?partition ();
      workers = sites;
      task;
      input;
    }

let remote_agg ~seed =
  Plan.Aggregate
    {
      algo = Plan.Hash_based;
      group_by = [ 0 ];
      aggs = [ Agg.Sum (Expr.Col 1); Agg.Sum (Expr.Col 2) ];
      input =
        remote
          ~task:(Printf.sprintf "agg:%d:%d" n_rows seed)
          (group_by_ten (Plan.Scan_table_slice table));
    }

let remote_ship ~seed =
  Plan.Exchange
    {
      cfg = Exchange.config ~degree:sites ();
      input =
        group_by_ten
          (remote ~partition:(Exchange.Hash_on [ ten ])
             ~task:(Printf.sprintf "ship:%d:%d" n_rows seed)
             (Plan.Scan_table_slice table));
    }

let remote_gather ~seed =
  group_by_ten
    (remote ~task:(Printf.sprintf "ship:%d:%d" n_rows seed) (Plan.Scan_table_slice table))

let run ~seed ~seconds ~trace =
  assert (sites <= nproc);
  let obs = if trace then Some (Obs.create ()) else None in
  let session, setup_s = repeat_setup ~times:9 (fun () -> setup ~seed ~obs) in
  let agg_plan = remote_agg ~seed
  and ship_plan = remote_ship ~seed
  and gather_plan = remote_gather ~seed in
  let exec kind plan =
    match
      if trace then Layers.traced_query session ~kind (Layers.Hand plan) ~rows_in:n_rows
      else span kind (fun () -> Session.exec session (`Plan plan))
    with
    | rows, latency_s -> (kind, latency_s, Some rows)
    | exception e ->
        Printf.eprintf "%s failed: %s\n%!" kind (Printexc.to_string e);
        (kind, 0.0, None)
  in
  (* One round: the shipped answers must equal the pre-aggregated one
     and all three the closed form. *)
  let round () =
    let results =
      [
        exec "remote_agg" agg_plan;
        exec "remote_ship" ship_plan;
        exec "remote_gather" gather_plan;
      ]
    in
    let sorted = Option.map Oracle.sorted_groups in
    let agg_answer = match results with (_, _, r) :: _ -> sorted r | [] -> None in
    List.map
      (fun (kind, latency_s, rows) ->
        let ok =
          match rows with
          | Some r -> Oracle.check_ten_groups ~n:n_rows r && sorted rows = agg_answer
          | None -> false
        in
        { kind; latency_s; rows_in = n_rows; ok })
      results
  in
  ignore (Session.exec session (`Plan agg_plan));
  ops := [];
  Hashtbl.reset sums;
  let wire kind =
    match obs with
    | None -> 0.0
    | Some obs ->
        float_of_int
          (List.fold_left ( + ) 0
             (List.init sites (fun site ->
                  Obs.Counter.value
                    (Obs.counter obs (Printf.sprintf "net.site%d.%s" site kind)))))
  in
  let bytes0 = wire "bytes" and rows0 = wire "rows" in
  let deadline = now () +. seconds in
  while now () < deadline do
    record_round (timed_round round)
  done;
  add "net.wire_bytes" (wire "bytes" -. bytes0);
  add "net.wire_rows" (wire "rows" -. rows0);
  closed_loop_outcome ~session:(Some session) ~setup_s ~rss_mb:(peak_rss_mb "self")
