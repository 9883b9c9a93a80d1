(* Seeded request streams for the four workloads.

   Everything the server receives is generated here from the workload
   seed: set-up lines, then one request cycle per client connection.
   Connection [c] sends request [k] of its cycle as [c<c>n<seq>] with
   [k = seq mod length], so a run of any length is reproducible and
   every repeat of a cycle position carries the same request.

   Class shares are exact counts per cycle (never Bernoulli draws), so
   per-class request counts repeat exactly for a seed, and the reported
   percentiles can be placed away from the boundaries between cost modes
   (see perfbench/README.md, "Placing the percentiles"). *)

type cls = {
  cname : string;
  write : bool;  (** an [assert]/[retract]: the write latency population *)
  stateful : bool;
      (** the answer depends on session state at the request's position,
          so repeats are compared per (connection, position), not per
          request text *)
}

type t = {
  wname : string;
  loads : string list;
      (** state-defining set-up requests (loads, rpq-loads): also replayed
          into the naive oracle *)
  warm : string list;
      (** set-up reads answered once before timing (cache warm-up,
          materializations); every set-up line must answer [ok] *)
  classes : cls array;
  conns : (int * string) array array;
      (** per connection: the request cycle, as (class, request text
          without its id) *)
  journal : string array array;
      (** per connection: writes sent in closed loop to every set-up
          server, on workloads whose own traffic has none *)
}

let conns = 2

(* in a request of the cycle: stands for the cycle number (see [body]) *)
let cycle_tag = '@'

(* ------------------------------------------------------------------ *)
(* Text helpers. *)

let node i = Printf.sprintf "n%d" i

let chain_facts ?(rel = "E") ?(prefix = "n") edges =
  String.concat " "
    (List.init edges (fun i ->
         Printf.sprintf "%s(%s%d,%s%d)." rel prefix i prefix (i + 1)))

let tc ?(rel = "E") goal =
  Printf.sprintf "%s(x,y) <- %s(x,y). %s(x,y) <- %s(x,z), %s(z,y)." goal rel
    goal rel goal

let facts_text inst =
  Instance.facts inst
  |> List.map (fun (f : Fact.t) ->
         Printf.sprintf "%s(%s)." f.Fact.rel
           (String.concat "," (Array.to_list (Array.map Const.to_string f.args))))
  |> String.concat " "

(* ------------------------------------------------------------------ *)
(* Cycle assembly. *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [count] draws from [pool], cycling through a seeded permutation so
   each distinct request appears as evenly as the count allows. *)
let draw rng pool count =
  let p = shuffle rng (Array.copy pool) in
  Array.init count (fun i -> p.(i mod Array.length p))

(* Reads (already in their final order) with the ordered write list
   spliced in at seeded positions: writes keep their relative order,
   which their state changes depend on. *)
let splice rng reads writes =
  let n = Array.length reads + Array.length writes in
  let is_write = Array.make n false in
  Array.iteri (fun i _ -> is_write.(i) <- i < Array.length writes) is_write;
  ignore (shuffle rng is_write);
  let r = ref 0 and w = ref 0 in
  Array.init n (fun i ->
      if is_write.(i) then (
        let x = writes.(!w) in
        incr w;
        x)
      else
        let x = reads.(!r) in
        incr r;
        x)

(* [(class, count, pool)] lists to one shuffled read cycle *)
let read_cycle rng parts =
  Array.concat
    (List.map
       (fun (c, count, pool) -> Array.map (fun b -> (c, b)) (draw rng pool count))
       parts)
  |> shuffle rng

(* Journal writes.  A result must carry every end-to-end metric on every
   workload, so [hit], [cold] and [graph] report write latencies too,
   although only [mutate] writes as part of its traffic.  Each
   connection asserts and retracts facts in a session of its own that
   no read touches and that has no materialization.  A journal write
   costs framing, fact parsing, interning, the session lock and an
   instance update.  [main.ml] sends the journal to every set-up server
   right after its set-up, before any timed read. *)
let journal_loads =
  List.init conns (fun c ->
      Printf.sprintf "load j%d instance j : %s" c (chain_facts ~prefix:"j" 9))

(* Episodes of ten single-fact writes: an edge to a node the server has
   never seen, eight edges from it to the set-up's nodes, then one
   retract of all nine.  The first write of an episode pays for
   interning the new node, as any insert of a new node does.  By share
   the writes are 80% plain asserts, 10% interning asserts and 10%
   retracts, so the p50 lies inside the plain asserts and the p99 inside
   the dearest fifth, each away from a class boundary. *)
let journal_writes count =
  Array.init conns (fun c ->
      Array.init count (fun k ->
          let node = Printf.sprintf "f%d_%d" c (k / 10) in
          let edge x =
            if x = 0 then Printf.sprintf "E(j1,%s)." node
            else Printf.sprintf "E(%s,j%d)." node (x + 1)
          in
          match k mod 10 with
          | 9 -> Printf.sprintf "retract j%d j : %s" c (String.concat " " (List.init 9 edge))
          | x -> Printf.sprintf "assert j%d j : %s" c (edge x)))

let read name = { cname = name; write = false; stateful = false }

(* ------------------------------------------------------------------ *)
(* hit: a working set of at most 256 distinct reads, all answered once
   during set-up, so the timed phase is pure cache hits. *)

let hit seed =
  let rng = Random.State.make [| seed; 1 |] in
  let loads =
    [
      "load h program tc goal T : " ^ tc "T";
      "load h instance chain : " ^ chain_facts 31;
      "load h instance c64 : " ^ chain_facts 63;
      "load h program reach goal Goal : Goal() <- T(x,y). " ^ tc "T";
      "load h views v : V(x,y) <- E(x,y).";
      "load h instance i : E(a,b). E(b,c).";
    ]
    @ List.init 8 (fun k ->
          Printf.sprintf "load h instance vi%d : %s" k
            (chain_facts ~rel:"V" (k + 1)))
    @ journal_loads
  in
  let pairs inst n =
    let all =
      Array.init (n * n) (fun x -> (x / n, x mod n)) |> shuffle rng
    in
    Array.init 96 (fun k ->
        let a, b = all.(k) in
        Printf.sprintf "holds h tc %s (%s,%s)" inst (node a) (node b))
  in
  let holds = Array.append (pairs "chain" 32) (pairs "c64" 64) in
  let evals = [| "eval h tc chain"; "eval h tc i"; "eval h reach i" |] in
  let mondet =
    Array.init 4 (fun d -> Printf.sprintf "mondet-test h reach v depth=%d" (d + 1))
  in
  let certain =
    Array.init 8 (fun k -> Printf.sprintf "certain-answers h reach v vi%d" k)
  in
  let rewrite =
    Array.init 24 (fun s -> Printf.sprintf "rewrite-check h reach v samples=%d" (s + 1))
  in
  let classes =
    [| read "holds"; read "eval"; read "mondet-test"; read "certain-answers";
       read "rewrite-check" |]
  in
  let cycle _ =
    read_cycle rng
      [ (0, 1400, holds); (1, 200, evals); (2, 100, mondet); (3, 100, certain);
        (4, 100, rewrite) ]
  in
  {
    wname = "hit";
    loads;
    warm =
      List.concat_map Array.to_list [ holds; evals; mondet; certain; rewrite ];
    classes;
    conns = Array.init conns cycle;
    journal = journal_writes 500;
  }

(* ------------------------------------------------------------------ *)
(* cold: more distinct read keys than the cache holds, cycled in a fixed
   per-connection order, so every read misses and runs its fixpoint or
   decision procedure.  Connections use disjoint key sets: a key recurs
   only after its connection's whole cycle (>= 1024 other keys), far
   beyond the 512-entry LRU. *)

(* The decision verbs need many distinct keys of equal cost: family
   member [f] renames every relation with suffix [f], which changes every
   fingerprint and nothing else. *)
let reach_family f =
  let e = Printf.sprintf "E%d" f and tt = Printf.sprintf "T%d" f in
  [
    Printf.sprintf "load k program reach%d goal Goal : Goal() <- %s(x,y). %s" f
      tt (tc ~rel:e tt);
    Printf.sprintf "load k views v%d : V%d(x,y) <- %s(x,y)." f f e;
    Printf.sprintf "load k instance vi%d : %s" f
      (chain_facts ~rel:(Printf.sprintf "V%d" f) (2 + (f mod 3)));
  ]

let cold seed =
  let rng = Random.State.make [| seed; 2 |] in
  let families = 66 in
  let loads =
    [
      "load k program tc goal T : " ^ tc "T";
      "load k program sg goal S : S(x,y) <- E(z,x), E(z,y). S(x,y) <- E(a,x), \
       S(a,b), E(b,y).";
      "load k program join goal J : J(x,y) <- E(x,a), E(a,b), E(b,y).";
      "load k instance c48 : " ^ chain_facts 47;
      "load k instance c64 : " ^ chain_facts 63;
    ]
    @ List.concat (List.init families reach_family)
    @ journal_loads
  in
  (* disjoint halves of a seeded sample of [2 * per_conn] goal tuples;
     [~backward] keeps only pairs (a,b) with b <= a, which tc over a chain
     never derives, so every probe runs the full fixpoint *)
  let holds ?(backward = false) prog inst nodes per_conn =
    let all =
      Array.init (nodes * nodes) (fun x -> (x / nodes, x mod nodes))
      |> Array.to_list
      |> List.filter (fun (a, b) -> (not backward) || b <= a)
      |> Array.of_list |> shuffle rng
    in
    Array.init conns (fun c ->
        Array.init per_conn (fun k ->
            let a, b = all.((2 * k) + c) in
            Printf.sprintf "holds k %s %s (%s,%s)" prog inst (node a) (node b)))
  in
  let tc48 = holds ~backward:true "tc" "c48" 48 533
  and sg48 = holds "sg" "c48" 48 100
  and join64 = holds "join" "c64" 64 100
  and tc64 = holds "tc" "c64" 64 223 in
  (* decision verbs: family members split between the connections *)
  let fam c f = (2 * f) + c in
  let decision c make = Array.init (families / 2) (fun f -> make (fam c f)) in
  let classes =
    [| read "holds-tc48-full"; read "holds-sg48"; read "holds-join64";
       read "holds-tc64"; read "mondet-test"; read "certain-answers";
       read "rewrite-check" |]
  in
  let cycle conn =
    let mondet =
      decision conn (fun f -> Printf.sprintf "mondet-test k reach%d v%d depth=2" f f)
    and certain =
      decision conn (fun f -> Printf.sprintf "certain-answers k reach%d v%d vi%d" f f f)
    and rewrite =
      decision conn (fun f ->
          Printf.sprintf "rewrite-check k reach%d v%d samples=%d" f f (4 + (f mod 5)))
    in
    read_cycle rng
      [ (0, 533, tc48.(conn)); (1, 100, sg48.(conn)); (2, 100, join64.(conn));
        (3, 223, tc64.(conn)); (4, 33, mondet); (5, 33, certain); (6, 32, rewrite) ]
  in
  { wname = "cold"; loads; warm = []; classes; conns = Array.init conns cycle;
    journal = journal_writes 500 }

(* ------------------------------------------------------------------ *)
(* mutate: each connection owns a session holding tc over a 128-node
   chain and one non-recursive program, both materialized during set-up;
   writes repair them incrementally (DRed for tc, derivation counting for
   the join), reads answer from the repaired materializations. *)

(* mutate's class numbers, as the oracle needs them *)
let internal_retract = 2
let internal_reassert = 3
let holds_read = 4
let eval_read = 5

let mutate seed =
  let rng = Random.State.make [| seed; 3 |] in
  let n = 128 in
  (* per-connection node names: structurally equal sessions would share
     cache entries, and a cache hit creates no materialization *)
  let node c i = Printf.sprintf "c%dn%d" c i in
  let loads =
    List.concat
      (List.init conns (fun c ->
           [
             Printf.sprintf "load m%d program tc goal T : %s" c (tc "T");
             Printf.sprintf "load m%d program two goal P : P(x,y) <- E(x,z), \
                             E(z,y)." c;
             Printf.sprintf "load m%d instance g : %s" c (chain_facts ~prefix:(Printf.sprintf "c%dn" c) (n - 1));
           ]))
  in
  let warm =
    List.concat
      (List.init conns (fun c ->
           [ Printf.sprintf "eval m%d tc g" c; Printf.sprintf "eval m%d two g" c ]))
  in
  let classes =
    [|
      { cname = "pendant-assert"; write = true; stateful = true };
      { cname = "pendant-retract"; write = true; stateful = true };
      { cname = "internal-retract"; write = true; stateful = true };
      { cname = "internal-reassert"; write = true; stateful = true };
      { cname = "holds"; write = false; stateful = true };
      { cname = "eval"; write = false; stateful = true };
    |]
  in
  (* Writes: pendant episodes (assert an edge to a fresh leaf, retract
     it later; at most 8 open at once) and load-bearing internal episodes
     (retract a chain edge, re-assert it as the very next write).  Every
     episode closes within the cycle, so the instance returns to the
     chain and the cycle can repeat.  A leaf's name ends in [cycle_tag],
     which [request] replaces by the cycle number: every cycle's leaves
     are new constants to the server. *)
  let writes conn ~pendant ~internal =
    let w verb e = Printf.sprintf "%s m%d g : %s" verb conn e in
    let out = ref [] and open_ = ref [] and left = ref pendant in
    while !left > 0 || !open_ <> [] do
      if !left > 0 && List.length !open_ < 8
         && (!open_ = [] || Random.State.bool rng)
      then begin
        let e =
          Printf.sprintf "E(%s,c%dp%d%c)." (node conn (Random.State.int rng n))
            conn (pendant - !left) cycle_tag
        in
        decr left;
        open_ := e :: !open_;
        out := [ (0, w "assert" e) ] :: !out
      end
      else begin
        let e = List.nth !open_ (Random.State.int rng (List.length !open_)) in
        open_ := List.filter (( != ) e) !open_;
        out := [ (1, w "retract" e) ] :: !out
      end
    done;
    let pairs =
      Array.init internal (fun _ ->
          (* an edge an eighth to a third of the way in from either end:
             cutting it disconnects 1.9k-3.6k derived pairs *)
          let d = (n / 8) + Random.State.int rng ((n / 3) - (n / 8)) in
          let i = if Random.State.bool rng then d else n - 2 - d in
          let e = Printf.sprintf "E(%s,%s)." (node conn i) (node conn (i + 1)) in
          [ (internal_retract, w "retract" e); (internal_reassert, w "assert" e) ])
    in
    splice rng (Array.of_list (List.rev !out)) pairs
    |> Array.to_list |> List.concat |> Array.of_list
  in
  let cycle conn =
    let holds =
      Array.init 1024 (fun _ ->
          let a = Random.State.int rng n and b = Random.State.int rng n in
          Printf.sprintf "holds m%d tc g (%s,%s)" conn (node conn (min a b))
            (node conn (max a b)))
    in
    let reads =
      read_cycle rng
        [ (holds_read, 3700, holds);
          (eval_read, 153, [| Printf.sprintf "eval m%d tc g" conn |]) ]
    in
    splice rng reads (writes conn ~pendant:260 ~internal:80)
  in
  { wname = "mutate"; loads; warm; classes; conns = Array.init conns cycle;
    journal = Array.make conns [||] }

(* ------------------------------------------------------------------ *)
(* graph: the RPQ verbs over a seeded scale-free knows/follows graph, with
   the E21 query and the views {vk, vf}; Boolean membership on a second,
   smaller graph.  More distinct keys than twice the cache. *)

let graph seed =
  let rng = Random.State.make [| seed; 4 |] in
  let big = 256 and small = 40 in
  (* the graphs are fixed, the requests over them seeded: RPQ costs vary
     a lot between random graphs of one size, and that variance would
     drown any change to the RPQ layers *)
  let g =
    Rpq_graph.scale_free ~seed:20260807 ~labels:[ "knows"; "follows" ] ~nodes:big
      ~edges:(4 * big) ()
  and b =
    Rpq_graph.scale_free ~seed:11 ~labels:[ "knows"; "follows" ] ~nodes:small
      ~edges:(3 * small) ()
  in
  let loads =
    [
      "load r instance g : " ^ facts_text g;
      "load r instance b : " ^ facts_text b;
      "rpq-load r qs : q = (knows|knows^)*.follows ; q2 = follows.(knows|knows^)* ;";
      "rpq-load r views : vk = knows|knows^ ; vf = follows ;";
    ]
    @ journal_loads
  in
  let srcs = shuffle rng (Array.init big Fun.id) in
  let anchored verb conn =
    Array.init big (fun k ->
        let s = node srcs.(k) in
        (* connection 0 asks q, connection 1 asks q2: disjoint keys *)
        let q = if conn = 0 then "q" else "q2" in
        match verb with
        | `Eval -> Printf.sprintf "rpq-eval r %s g (%s)" q s
        | `Rewrite -> Printf.sprintf "rpq-rewrite r %s views g (%s)" q s)
  in
  let boolean conn =
    Array.init 64 (fun _ ->
        Printf.sprintf "rpq-eval r %s b (%s,%s)"
          (if conn = 0 then "q" else "q2")
          (node (Random.State.int rng small))
          (node (Random.State.int rng small)))
  in
  let classes =
    [| read "rpq-eval-anchored"; read "rpq-rewrite-anchored";
       read "rpq-eval-boolean" |]
  in
  let cycle conn =
    read_cycle rng
      [ (0, 240, anchored `Eval conn); (1, 240, anchored `Rewrite conn);
        (2, 32, boolean conn) ]
  in
  { wname = "graph"; loads; warm = []; classes; conns = Array.init conns cycle;
    journal = journal_writes 500 }

(* How much the naive oracle re-answers: distinct reads per class of the
   read-only sessions, and repaired reads per connection (see
   [Check.oracle]).  The naive engine needs seconds for tc over the
   128-node chain. *)
let oracle_sample w =
  match w.wname with "mutate" -> (0, 1) | "hit" -> (8, 0) | _ -> (4, 0)

(* Requests per connection in the in-process replays of the traced run:
   one pass over the cold and graph key cycles, enough writes for the
   repair percentiles on mutate. *)
let replay_len w =
  match w.wname with "hit" -> 10000 | "cold" -> 1240 | "mutate" -> 1200 | _ -> 512

let names = [ "hit"; "cold"; "mutate"; "graph" ]

let make name seed =
  match name with
  | "hit" -> hit seed
  | "cold" -> cold seed
  | "mutate" -> mutate seed
  | "graph" -> graph seed
  | _ -> invalid_arg name

(* The request of connection [conn] at sequence number [seq], without
   its id: cycle position [seq mod length], with [cycle_tag] replaced by
   [_K] for cycle [K]. *)
let body w ~conn ~seq =
  let cyc = w.conns.(conn) in
  let c, b = cyc.(seq mod Array.length cyc) in
  if String.contains b cycle_tag then
    let tag = Printf.sprintf "_%d" (seq / Array.length cyc) in
    (c, String.concat tag (String.split_on_char cycle_tag b))
  else (c, b)

(* The request line of connection [conn]'s request [seq]. *)
let request w ~conn ~seq =
  let c, b = body w ~conn ~seq in
  (c, Printf.sprintf "c%dn%d %s" conn seq b)

(* [s] with every [_K] that ends a name (K the cycle number) put back to
   [cycle_tag]: the answers of two cycles at one position are then equal
   byte for byte. *)
let untag ~cycle s =
  let tag = Printf.sprintf "_%d" cycle in
  let n = String.length s and m = String.length tag in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else if
      i + m <= n
      && String.sub s i m = tag
      && (i + m = n || not (s.[i + m] >= '0' && s.[i + m] <= '9'))
    then (
      Buffer.add_char b cycle_tag;
      go (i + m))
    else (
      Buffer.add_char b s.[i];
      go (i + 1))
  in
  if String.contains s '_' then (go 0; Buffer.contents b) else s
