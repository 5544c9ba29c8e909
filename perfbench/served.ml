(* served: SQL text sent to the real `volcano serve` daemon, a child
   process, over its Unix socket.  The statements are small, so the front
   end, admission, wire framing and connection threads dominate and no
   storage is touched.

   Two phases over the same statement round, each half the run:
   - open loop at a fixed offered rate, each request timed from the
     moment it was due (so a stall is charged to the requests queued
     behind it): latency;
   - closed loop, every connection sending back to back: capacity. *)

open Common
module Session = Volcano_plan.Session
module Client = Volcano_net.Serve.Client
module Codec = Volcano_net.Codec

let connections = nproc
let offered_rate = 200.0 (* requests per second, open-loop phase *)
let round_size = 30
let daemon_boots = 15

type statement = {
  kind : string;
  sql : string;
  rows_in : int;
  check : Volcano_tuple.Tuple.t list -> bool;
}

(* Three statement kinds, ten of each per round, parameters drawn from
   the workload seed. *)
let make_round seed =
  let prng = Prng.create seed in
  List.init round_size (fun i ->
      let n = 1000 + Prng.int prng 1001 in
      let s = Prng.int prng 1_000_000 in
      match i mod 3 with
      | 0 ->
          let n = 32 + Prng.int prng 97 in
          {
            kind = "count";
            sql = Printf.sprintf "SELECT COUNT(*) FROM generate(%d)" n;
            rows_in = n;
            check = Oracle.check_count ~expect:n;
          }
      | 1 ->
          {
            kind = "filter";
            sql =
              Printf.sprintf
                "SELECT unique1 FROM wisconsin(%d, %d) WHERE unique1 < 20 ORDER \
                 BY unique1"
                n s;
            rows_in = n;
            check = Oracle.check_prefix ~k:20;
          }
      | _ ->
          {
            kind = "group";
            sql =
              Printf.sprintf
                "SELECT ten, COUNT(*), SUM(unique1) FROM wisconsin(%d, %d) GROUP \
                 BY ten"
                n s;
            rows_in = n;
            check = Oracle.check_ten_groups ~n;
          })

(* --- the daemon --------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let start_daemon ~cli ~run_dir =
  let socket = Filename.concat run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (Filename.concat run_dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let argv = [| cli; "serve"; "--socket"; socket; "--workers"; string_of_int nproc |] in
  let pid = Unix.create_process cli argv Unix.stdin log log in
  Unix.close log;
  (* Ready is the first accepted connection: the socket file appears at
     bind, a moment before the daemon listens. *)
  let rec await tries =
    match Client.connect ~socket with
    | probe -> Client.close probe
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.sleepf 0.002;
        await (tries - 1)
  in
  await 5000;
  { pid; socket }

let stop_daemon d =
  let c = Client.connect ~socket:d.socket in
  Client.shutdown_server c;
  Client.close c;
  (match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "serve daemon did not exit cleanly");
  try Unix.unlink d.socket with Unix.Unix_error _ -> ()

(* One request/response; the oracle result and service time. *)
let send conn st =
  let t0 = now () in
  let rows =
    match Client.query conn st.sql with
    | Ok rows -> Some rows
    | Error (site, msg) ->
        Printf.eprintf "%s failed at %s: %s\n%!" st.kind site msg;
        None
  in
  let t1 = now () in
  (t0, t1, rows)

let ok st rows = match rows with Some r -> st.check r | None -> false

let mutex = Mutex.create ()
let locked f = Mutex.protect mutex f

(* Open loop: request i is due at t0 + i / rate, sent by whichever
   connection is free; its latency runs from the due time. *)
let open_loop ~conns ~round ~seconds =
  let stmts = Array.of_list round in
  let total = int_of_float (offered_rate *. seconds) / round_size * round_size in
  let next = Atomic.make 0 in
  let latencies = ref [] and lateness = ref [] in
  let t0 = now () +. 0.01 in
  let worker conn =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let st = stmts.(i mod round_size) in
        let due = t0 +. (float_of_int i /. offered_rate) in
        let wait = due -. now () in
        if wait > 0.0 then Unix.sleepf wait;
        let sent, done_, rows = send conn st in
        locked (fun () ->
            latencies := (done_ -. due) :: !latencies;
            lateness := (sent -. due) :: !lateness;
            record { kind = st.kind; latency_s = done_ -. sent; rows_in = st.rows_in; ok = ok st rows });
        loop ()
      end
    in
    loop ()
  in
  let threads = List.map (fun c -> Thread.create worker c) conns in
  List.iter Thread.join threads;
  let due = !latencies in
  Printf.printf
    "served   open loop    %d requests at %.0f/s on %d connections: from due p50 %.3f  \
     p90 %.3f  p99 %.3f ms; generator late p50 %.3f  max %.3f ms\n"
    total offered_rate (List.length conns) (median due *. 1e3)
    (percentile due 0.9 *. 1e3) (percentile due 0.99 *. 1e3)
    (median !lateness *. 1e3)
    (List.fold_left Float.max 0.0 !lateness *. 1e3);
  !latencies

(* Closed loop: every connection sends its next statement as soon as the
   previous answer arrives, whole rounds at a time, until the deadline. *)
let closed_loop ~conns ~round ~seconds =
  let deadline = now () +. seconds in
  let worker conn =
    while now () < deadline do
      let r =
        timed_round (fun () ->
            List.map
              (fun st ->
                let sent, done_, rows = send conn st in
                { kind = st.kind; latency_s = done_ -. sent; rows_in = st.rows_in; ok = ok st rows })
              round)
      in
      locked (fun () -> record_round r)
    done
  in
  let threads = List.map (fun c -> Thread.create worker c) conns in
  List.iter Thread.join threads;
  round_throughput ~connections:(List.length conns)

(* Traced: one connection, one statement at a time; each statement is
   also driven in-process through the layers, and its answer through the
   codec, so the daemon's round trip splits into front end, executor,
   and what the wire adds. *)
let traced ~conn ~round ~seconds =
  let session = Session.create ~workers:nproc () in
  let deadline = now () +. seconds in
  while now () < deadline do
    List.iter
      (fun st ->
        let sent, done_, rows = send conn st in
        add "net.roundtrip" (done_ -. sent);
        let local, _ = Layers.traced_query session ~kind:st.kind (Layers.Sql st.sql) ~rows_in:st.rows_in in
        let bytes, t_encode = span "net.encode" (fun () -> Codec.encode_rows local) in
        let decoded, t_decode = span "net.decode" (fun () -> Codec.decode_rows bytes) in
        add "net.codec" (t_encode +. t_decode);
        add "net.response_bytes" (float_of_int (Bytes.length bytes));
        record
          {
            kind = st.kind;
            latency_s = done_ -. sent;
            rows_in = st.rows_in;
            ok = ok st rows && st.check decoded;
          })
      round
  done;
  session

let with_daemon ~cli ~run_dir f =
  let daemon = start_daemon ~cli ~run_dir in
  match f daemon with
  | v ->
      stop_daemon daemon;
      v
  | exception e ->
      (try Unix.kill daemon.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] daemon.pid) with Unix.Unix_error _ -> ());
      raise e

let connect_all daemon n = List.init n (fun _ -> Client.connect ~socket:daemon.socket)

let run ~cli ~run_dir ~seed ~seconds ~trace =
  assert (connections <= nproc);
  let round = make_round seed in
  (* Set-up is the daemon's start until it accepts a connection, the
     median of several boots. *)
  let boots =
    List.init daemon_boots (fun _ ->
        let t0 = now () in
        with_daemon ~cli ~run_dir (fun _ -> now () -. t0))
  in
  let setup_s = median boots in
  with_daemon ~cli ~run_dir (fun daemon ->
      let conns = connect_all daemon (if trace then 1 else connections) in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close conns)
        (fun () ->
          if trace then
            let session = traced ~conn:(List.hd conns) ~round ~seconds in
            { session = Some session; setup_s; rss_mb = 0.0; queries_per_s = 0.0; latencies = [] }
          else begin
            (* warm-up round on every connection *)
            List.iter (fun c -> List.iter (fun st -> ignore (send c st)) round) conns;
            let due = open_loop ~conns ~round ~seconds:(seconds /. 2.0) in
            let queries_per_s = closed_loop ~conns ~round ~seconds:(seconds /. 2.0) in
            {
              session = None;
              setup_s;
              rss_mb = peak_rss_mb (string_of_int daemon.pid);
              queries_per_s;
              latencies = due;
            }
          end))
