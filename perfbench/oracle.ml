(* Expected answers as closed forms over the Wisconsin relation: unique1
   is a permutation of 0..n-1 and ten = unique1 mod 10, so group counts
   and sums depend on n alone, whatever the permutation seed.  Nothing
   here calls into the engine's operators. *)

module Value = Volcano_tuple.Value

let ints row =
  Array.to_list
    (Array.map (function Value.Int i -> Some i | _ -> None) row)
  |> List.map (function Some i -> i | None -> failwith "non-integer column")

let rows_as_ints rows = List.map ints rows

(* Group by ten: [ten; row count; sum of unique1] for every group, by group. *)
let ten_groups n =
  List.filter_map
    (fun g ->
      if g >= n then None
      else
        let count = ((n - 1 - g) / 10) + 1 in
        Some [ g; count; (count * g) + (10 * count * (count - 1) / 2) ])
    (List.init 10 Fun.id)

let sorted_groups rows = List.sort compare (rows_as_ints rows)

let check_ten_groups ~n rows =
  match sorted_groups rows with
  | got -> got = ten_groups n
  | exception Failure _ -> false

(* ORDER BY unique2 DESC LIMIT k: the sequence numbers n-1 down to n-k. *)
let check_top_unique2 ~n ~k rows =
  match rows_as_ints rows with
  | got -> got = List.init k (fun i -> [ n - 1 - i ])
  | exception Failure _ -> false

(* Point filter on unique1 = key projecting (unique1, unique2): exactly
   one row, carrying the key and a sequence number in range. *)
let check_point ~n ~key rows =
  match rows_as_ints rows with
  | [ [ u1; u2 ] ] -> u1 = key && u2 >= 0 && u2 < n
  | _ | (exception Failure _) -> false

(* unique1 < k in unique1 order: exactly 0..k-1. *)
let check_prefix ~k rows =
  match rows_as_ints rows with
  | got -> got = List.init k (fun i -> [ i ])
  | exception Failure _ -> false

let check_count ~expect rows =
  match rows_as_ints rows with
  | [ [ c ] ] -> c = expect
  | _ | (exception Failure _) -> false
