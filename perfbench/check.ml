(* Answer checks.

   Three layers, each counted as failures:
   - every response must be [ok] and carry its request's id;
   - every repeat of a request must get a byte-identical body (per
     request text for reads of read-only sessions, per connection and
     cycle position for anything whose answer depends on session state);
   - distinct requests are re-answered by an independent oracle: a fresh
     sequential in-process service forced to the naive engine, with no
     materializations (its batch path never creates them), so it
     re-derives every answer from scratch.  The naive engine is slow, so
     reads are checked on a seeded sample; writes of each connection are
     replayed in order, as they change the state later reads see, and
     the reads of a repaired state are checked on purpose (see
     [oracle]). *)

type t = {
  mutable failed : int;
  mutable oracle_checked : int;
  mutable cold_checked : int;  (** of those, against the indexed engine *)
  mutable messages : string list;
  reads : (string, int * string) Hashtbl.t;
      (** stateless request text -> (class, first body) *)
  positions : (string, string) Hashtbl.t;
      (** "conn/position" -> first body, for stateful requests *)
  max_seq : int array;  (** highest seq answered, per connection *)
  journal : (int * int, string) Hashtbl.t;  (** (connection, seq) -> body *)
}

let create () =
  { failed = 0; oracle_checked = 0; cold_checked = 0; messages = []; reads = Hashtbl.create 4096;
    positions = Hashtbl.create 4096; max_seq = Array.make Gen.conns (-1);
    journal = Hashtbl.create 4096 }

let note t fmt =
  Printf.ksprintf
    (fun m -> if List.length t.messages < 5 then t.messages <- m :: t.messages)
    fmt

(* the [maintained=K] count of a write's answer *)
let maintained body =
  List.find_map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ "maintained"; v ] -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char ' ' body)

(* A write answer up to its [maintained=] field, which the oracle (no
   materializations) cannot reproduce. *)
let write_effect body =
  let tag = " maintained=" in
  let n = String.length body and m = String.length tag in
  let rec find i =
    if i + m > n then body
    else if String.sub body i m = tag then String.sub body 0 i
    else find (i + 1)
  in
  find 0

(* Check one exchange; returns whether it counts as ok. *)
let sample t (w : Gen.t) (s : Wire.sample) =
  t.max_seq.(s.conn) <- max t.max_seq.(s.conn) s.seq;
  let expected_id = Printf.sprintf "c%dn%d" s.conn s.seq in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        t.failed <- t.failed + 1;
        note t "%s: %s" expected_id m;
        false)
      fmt
  in
  match Svc_proto.parse_response s.response with
  | Ok { Svc_proto.rid; result = Svc_proto.Ok_ body } when rid = expected_id
    -> (
      let cls = w.classes.(s.cls) in
      let cyc = w.conns.(s.conn) in
      let pos = s.seq mod Array.length cyc in
      let body =
        if cls.Gen.stateful then Gen.untag ~cycle:(s.seq / Array.length cyc) body else body
      in
      let first =
        if cls.Gen.stateful then
          Hashtbl.find_opt t.positions (Printf.sprintf "%d/%d" s.conn pos)
        else Option.map snd (Hashtbl.find_opt t.reads (snd cyc.(pos)))
      in
      match first with
      | Some b when not (String.equal b body) ->
          fail "repeat of %S answered differently" (snd cyc.(pos))
      | _
        when cls.Gen.write && w.wname = "mutate"
             && Option.value (maintained body) ~default:0 < 1 ->
          fail "write maintained no materialization: %s" body
      | Some _ -> true
      | None ->
          if cls.Gen.stateful then
            Hashtbl.add t.positions (Printf.sprintf "%d/%d" s.conn pos) body
          else Hashtbl.add t.reads (snd cyc.(pos)) (s.cls, body);
          true)
  | Ok { Svc_proto.rid; _ } when rid <> expected_id -> fail "answer under id %s" rid
  | _ -> fail "not ok: %s" s.response

(* Check the answer to a journal write, sent as [j<conn>n<seq>]: every
   set-up server gets the same journal, and must answer it the same. *)
let journal t (s : Wire.sample) =
  match Svc_proto.parse_response s.response with
  | Ok { Svc_proto.rid; result = Svc_proto.Ok_ body }
    when rid = Printf.sprintf "j%dn%d" s.conn s.seq -> (
      match Hashtbl.find_opt t.journal (s.conn, s.seq) with
      | Some b when not (String.equal b body) ->
          t.failed <- t.failed + 1;
          note t "journal write j%dn%d answered differently by another server" s.conn s.seq
      | Some _ -> ()
      | None -> Hashtbl.add t.journal (s.conn, s.seq) body)
  | _ ->
      t.failed <- t.failed + 1;
      note t "journal write j%dn%d: %s" s.conn s.seq s.response

(* ------------------------------------------------------------------ *)
(* The naive oracle. *)

let oracle_service (w : Gen.t) =
  Dl_engine.set_default Dl_engine.Naive;
  let o = Svc_service.create ~parallel:false () in
  List.iter
    (fun l ->
      match Svc_service.handle_lines o [ "0 " ^ l ] with
      | [ { Svc_proto.result = Svc_proto.Ok_ _; _ } ] -> ()
      | _ -> failwith ("oracle set-up failed: " ^ l))
    w.loads;
  o

let oracle_body o line =
  match Svc_service.handle_lines o [ "0 " ^ line ] with
  | [ { Svc_proto.result = Svc_proto.Ok_ b; _ } ] -> Some b
  | _ -> None

let compare_oracle t ~what ~server ~oracle =
  t.oracle_checked <- t.oracle_checked + 1;
  let cut s = if String.length s > 80 then String.sub s 0 80 ^ "..." else s in
  match oracle with
  | Some o when String.equal server o -> ()
  | _ ->
      t.failed <- t.failed + 1;
      note t "naive oracle disagrees on %s: server %S, oracle %S" what
        (cut server) (cut (Option.value oracle ~default:"<failed>"))

(* seeded choice of at most [k] elements of [l], in a stable order *)
let pick rng k l =
  let a = Array.of_list (List.sort compare l) in
  let a = Gen.shuffle rng a in
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

(* The load-bearing chain edge a [mutate] internal write cuts or
   restores, and the pair a [holds] asks about, as node numbers. *)
let cut_edge line = Scanf.sscanf line "%_s m%_d g : E(c%_dn%d," Fun.id
let holds_pair line = Scanf.sscanf line "holds m%_d tc g (c%_dn%d,c%_dn%d)" (fun a b -> (a, b))

(* Re-answer [per_class] distinct reads of each class, then replay every
   connection's stateful positions up to the furthest one answered, then
   the journal writes.  A stateful replay applies every write in order
   and checks it.  Reads between an internal retract and its re-assert
   are the ones answered from a DRed repair: there every [eval] is
   checked against a cold fixpoint of the indexed engine over the
   replayed instance (the oracle's cache computes it once per state), and
   [per_conn] seeded [holds] on a pair the cut disconnects go to the
   naive engine. *)
let oracle t (w : Gen.t) ~seed ~per_class ~per_conn =
  let rng = Random.State.make [| seed; 99 |] in
  let o = oracle_service w in
  let nclasses = Array.length w.classes in
  let by_class = Array.make nclasses [] in
  Hashtbl.iter (fun line (c, _) -> by_class.(c) <- line :: by_class.(c)) t.reads;
  Array.iter
    (fun lines ->
      List.iter
        (fun line ->
          compare_oracle t ~what:line
            ~server:(snd (Hashtbl.find t.reads line))
            ~oracle:(oracle_body o line))
        (pick rng per_class lines))
    by_class;
  Array.iteri
    (fun conn cyc ->
      let last = min (Array.length cyc - 1) t.max_seq.(conn) in
      let mutate = w.wname = "mutate" in
      let line pos = snd (Gen.body w ~conn ~seq:pos) in
      (* per position: the chain edge cut at that point, if any *)
      let cut = Array.make (last + 1) None in
      for pos = 0 to last do
        let c, _ = cyc.(pos) in
        let before = if pos = 0 then None else cut.(pos - 1) in
        cut.(pos) <-
          (if not mutate then None
           else if c = Gen.internal_retract then Some (cut_edge (line pos))
           else if c = Gen.internal_reassert then None
           else before)
      done;
      let read pos = not w.classes.(fst cyc.(pos)).Gen.write in
      let in_cut pos = read pos && cut.(pos) <> None in
      let disconnected = ref [] in
      for pos = 0 to last do
        if in_cut pos && fst cyc.(pos) = Gen.holds_read then
          let a, b = holds_pair (line pos) and i = Option.get cut.(pos) in
          if a <= i && b > i then disconnected := pos :: !disconnected
      done;
      let naive = Hashtbl.create 16 in
      List.iter (fun p -> Hashtbl.replace naive p ()) (pick rng per_conn !disconnected);
      for pos = 0 to last do
        let c, _ = cyc.(pos) in
        let cls = w.classes.(c) in
        let against_cold = in_cut pos && c = Gen.eval_read in
        if cls.Gen.stateful && (cls.Gen.write || against_cold || Hashtbl.mem naive pos) then
          (* a position whose answer already failed has nothing to compare,
             but a write must still be applied *)
          let server = Hashtbl.find_opt t.positions (Printf.sprintf "%d/%d" conn pos) in
          let oracle =
            if against_cold then (
              t.cold_checked <- t.cold_checked + 1;
              Dl_engine.set_default Dl_engine.Indexed;
              let b = oracle_body o (line pos) in
              Dl_engine.set_default Dl_engine.Naive;
              b)
            else oracle_body o (line pos)
          in
          let oracle = Option.map (Gen.untag ~cycle:0) oracle in
          match server with
          | None -> ()
          | Some server when cls.Gen.write ->
              compare_oracle t ~what:(line pos) ~server:(write_effect server)
                ~oracle:(Option.map write_effect oracle)
          | Some server -> compare_oracle t ~what:(line pos) ~server ~oracle
      done)
    w.conns;
  Array.iteri
    (fun conn lines ->
      Array.iteri
        (fun k line ->
          let oracle = oracle_body o line in
          match Hashtbl.find_opt t.journal (conn, k) with
          | Some server -> compare_oracle t ~what:line ~server ~oracle
          | None -> ())
        lines)
    w.journal;
  Dl_engine.set_default Dl_engine.Indexed
