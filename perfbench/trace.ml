(* The traced run: replay a workload's seeded stream in-process and time
   the calls into each layer.

   Each request runs the server's own path — [Svc_reader.feed],
   [Svc_proto.parse_request], [Svc_service.handle_concurrent],
   [Svc_proto.print_response] — each call a span under one root span.
   The layers below [handle] cannot be timed from outside the program,
   so after [handle] returns, the benchmark calls the same layers'
   public functions on the same inputs (its own parsed copies of the
   session objects) and records those calls as child spans of the
   [handle] span.  A probe child therefore runs right after its parent
   rather than inside it; self time is the parent's duration minus its
   children's durations, and [svc_service.unexplained_us] is exactly
   that for [handle]: the time spent in code with no public entry point
   (dispatch, locking, result formatting), plus whatever a probe's rerun
   costs less or more than the same call inside [handle].  Process-wide
   memo tables (compiled programs, decision-procedure caches) are warm
   when a probe reruns a call that [handle] made cold, so it can cost
   less; the compile probes bypass those caches (see [probes]) and can
   cost more.  The value is therefore an estimate and can be negative.

   Spans stay in memory and are written out as JSON lines when the
   replay ends.  A second, untraced service answers the same stream in
   lockstep; it gives the in-process request latency, the GC figures,
   and — against the traced root spans — the tracing overhead. *)

let now = Wire.now_ns

type span = {
  id : int;
  name : string;
  rid : int;  (** request number in the replay; -1 for set-up *)
  parent : int;  (** -1 for a root *)
  t0 : int64;
  t1 : int64;
}

type tracer = { mutable next : int; mutable spans : span list }

let tracer () = { next = 0; spans = [] }

let span tr name ~rid ~parent f =
  let id = tr.next in
  tr.next <- id + 1;
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  tr.spans <- { id; name; rid; parent; t0; t1 } :: tr.spans;
  r

let dur_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* ------------------------------------------------------------------ *)
(* The benchmark's own copies of the session objects, parsed from the
   same request payloads, so probes run on exactly the server's inputs. *)

type mirror = {
  programs : (string, Datalog.query) Hashtbl.t;
  views : (string, View.collection) Hashtbl.t;
  insts : (string, Instance.t) Hashtbl.t;
  rpqs : (string, Rpq.t) Hashtbl.t;
  rpq_sets : (string, (string * Rpq.t) list) Hashtbl.t;
  mats : (string, (Datalog.query * Dl_incr.t) list) Hashtbl.t;
      (** per session instance: the materializations the server keeps *)
  shadow : Svc_cache.t;  (** mirrors the server cache's hit/miss trace *)
  fixpoints : (string, unit) Hashtbl.t;  (** (program, instance) pairs seen *)
}

let mirror () =
  { programs = Hashtbl.create 16; views = Hashtbl.create 16;
    insts = Hashtbl.create 16; rpqs = Hashtbl.create 16;
    rpq_sets = Hashtbl.create 4; mats = Hashtbl.create 4;
    shadow = Svc_cache.create 512; fixpoints = Hashtbl.create 16 }

let k s n = s ^ "/" ^ n

(* ------------------------------------------------------------------ *)
(* Layer samples, by metric name. *)

type acc = (string, float list ref) Hashtbl.t

let add (acc : acc) name v =
  match Hashtbl.find_opt acc name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add acc name (ref [ v ])

let values (acc : acc) name =
  match Hashtbl.find_opt acc name with Some l -> !l | None -> []

(* A probe: a child span of [handle] whose duration is also a sample of
   the metric [name]. *)
let probe tr acc ~rid ~parent name f =
  let r = span tr name ~rid ~parent (fun _ -> f ()) in
  (match tr.spans with s :: _ -> add acc (name ^ "_us") (dur_ns s /. 1e3) | [] -> ());
  r

let strategy () = Dl_engine.pool_strategy ()

let index_build acc inst =
  List.iter
    (fun rel ->
      let tuples = Instance.tuples inst rel in
      let t0 = now () in
      ignore (Sys.opaque_identity (Index.build tuples));
      add acc "index.build_us" (Int64.to_float (Int64.sub (now ()) t0) /. 1e3))
    (Instance.relations inst)

(* Load payloads: parse timing, bytes per microsecond, index build. *)
let on_load m acc sess (verb : Svc_proto.verb) =
  let timed_parse text f =
    let t0 = now () in
    let r = f text in
    let us = Int64.to_float (Int64.sub (now ()) t0) /. 1e3 in
    add acc "parse.payload_us" us;
    add acc "parse.bytes" (float_of_int (String.length text));
    add acc "parse.us" us;
    r
  in
  match verb with
  | Svc_proto.Load { kind = Svc_proto.Kprogram goal; name; text } ->
      Hashtbl.replace m.programs (k sess name) (timed_parse text (Parse.query ~goal))
  | Svc_proto.Load { kind = Svc_proto.Kviews; name; text } ->
      Hashtbl.replace m.views (k sess name) (timed_parse text Parse.views)
  | Svc_proto.Load { kind = Svc_proto.Kinstance; name; text } ->
      let inst = timed_parse text Parse.instance in
      add acc "instance.facts" (float_of_int (Instance.size inst));
      index_build acc inst;
      Hashtbl.replace m.insts (k sess name) inst;
      Hashtbl.remove m.mats (k sess name)
  | Svc_proto.Rpq_load { name; text } ->
      let defs = Rpq.parse_defs text in
      List.iter (fun (n, e) -> Hashtbl.replace m.rpqs (k sess n) e) defs;
      Hashtbl.replace m.rpq_sets (k sess name) defs
  | _ -> ()

(* Once per distinct (program, instance): the full fixpoint, for
   facts derived and time per derived fact. *)
let fixpoint_once m acc (q : Datalog.query) inst =
  let key = Datalog.fingerprint_hex q ^ Instance.fingerprint_hex inst in
  if not (Hashtbl.mem m.fixpoints key) then begin
    Hashtbl.add m.fixpoints key ();
    let t0 = now () in
    let full = Dl_engine.fixpoint ~strategy:(strategy ()) q.Datalog.program inst in
    let ns = Int64.to_float (Int64.sub (now ()) t0) in
    add acc "dl_engine.fixpoint_us" (ns /. 1e3);
    add acc "fixpoint.ns" ns;
    add acc "dl_engine.facts_derived"
      (float_of_int (Instance.size full - Instance.size inst))
  end

(* The probes for one request, as children of its [handle] span. *)
let probes tr acc m ~rid ~parent (req : Svc_proto.request) =
  let p name f = probe tr acc ~rid ~parent name f in
  let sess = Option.value req.Svc_proto.session ~default:"" in
  let prog n = Hashtbl.find m.programs (k sess n)
  and inst n = Hashtbl.find m.insts (k sess n)
  and views n = Hashtbl.find m.views (k sess n) in
  (* the cache key over the objects' fingerprints, then a lookup in the
     shadow cache; [true] when the server computed (a miss) *)
  let keyed verb parts =
    let key =
      p "svc_cache.key" (fun () -> String.concat ":" (verb :: List.map (fun f -> f ()) parts))
    in
    let hit = p "svc_cache.lookup" (fun () -> Svc_cache.find m.shadow key) <> None in
    if not hit then Svc_cache.add m.shadow key "";
    not hit
  in
  (* Compilation past the caches [handle] has just warmed: the slot
     compiler's cache keys on physical equality, so time its per-rule
     entry point; the bytecode cache keys on the program's fingerprint,
     so compile a copy with its variables renamed apart, which has a new
     fingerprint and the same rules.  The copy takes a slot in the
     bytecode cache, which clears itself every 32 programs: the traced
     [handle] may recompile more often than the server does. *)
  let compile (q : Datalog.query) =
    ignore (p "dl_plan.compile" (fun () -> List.map Dl_plan.compile_rule q.Datalog.program));
    let copy = List.map Datalog.rename_rule_apart q.Datalog.program in
    ignore (p "dl_vm.compile" (fun () -> Dl_vm.compile copy))
  in
  let mat sname iname (q : Datalog.query) =
    List.assq_opt q (Option.value (Hashtbl.find_opt m.mats (k sname iname)) ~default:[])
  in
  match req.Svc_proto.verb with
  | Svc_proto.Holds { program; instance; tuple } ->
      let q = prog program and i = inst instance in
      if
        keyed "holds"
          [ (fun () -> Datalog.fingerprint_hex q);
            (fun () -> Instance.fingerprint_hex i);
            (fun () -> String.concat "," tuple) ]
      then (
        match mat sess instance q with
        | Some mt ->
            ignore
              (p "instance.mem" (fun () ->
                   Instance.mem
                     (Fact.make q.Datalog.goal (List.map Const.named tuple))
                     (Dl_incr.full mt)))
        | None ->
            compile q;
            fixpoint_once m acc q i;
            ignore
              (p "dl_engine.holds" (fun () ->
                   Dl_engine.holds ~strategy:(strategy ()) q i
                     (Array.of_list (List.map Const.named tuple)))))
  | Svc_proto.Eval { program; instance } ->
      let q = prog program and i = inst instance in
      if
        keyed "eval"
          [ (fun () -> Datalog.fingerprint_hex q); (fun () -> Instance.fingerprint_hex i) ]
      then (
        compile q;
        if Datalog.goal_arity q = 0 then
          ignore (p "dl_engine.holds" (fun () -> Dl_engine.holds_boolean ~strategy:(strategy ()) q i))
        else
          match mat sess instance q with
          | Some mt ->
              ignore (p "instance.tuples" (fun () -> Instance.tuples (Dl_incr.full mt) q.Datalog.goal))
          | None ->
              (* the server materializes a cache-missed eval *)
              let mt =
                p "dl_incr.create" (fun () ->
                    Dl_incr.create ~strategy:(strategy ()) q.Datalog.program i)
              in
              fixpoint_once m acc q i;
              let key = k sess instance in
              Hashtbl.replace m.mats key
                ((q, mt) :: Option.value (Hashtbl.find_opt m.mats key) ~default:[]))
  | Svc_proto.Mondet_test { program; views = vn; depth } ->
      let q = prog program and vs = views vn in
      if
        keyed "mondet-test"
          [ (fun () -> Datalog.fingerprint_hex q); (fun () -> View.fingerprint_hex vs);
            (fun () -> Option.fold ~none:"-" ~some:string_of_int depth) ]
      then
        ignore
          (p "md_decide.decide" (fun () ->
               Md_decide.decide ?max_depth:depth ~engine:(strategy ()) q vs))
  | Svc_proto.Certain_answers { program; views = vn; instance } ->
      let q = prog program and vs = views vn and i = inst instance in
      if
        keyed "certain-answers"
          [ (fun () -> Datalog.fingerprint_hex q); (fun () -> View.fingerprint_hex vs);
            (fun () -> Instance.fingerprint_hex i) ]
      then
        ignore
          (p "md_separator.certain" (fun () ->
               Md_separator.certain_answers_cq_views ~engine:(strategy ()) q vs i))
  | Svc_proto.Rewrite_check { program; views = vn; samples } ->
      let q = prog program and vs = views vn in
      if
        keyed "rewrite-check"
          [ (fun () -> Datalog.fingerprint_hex q); (fun () -> View.fingerprint_hex vs);
            (fun () -> Option.fold ~none:"-" ~some:string_of_int samples) ]
      then ignore (p "md_rewrite.inverse_rules" (fun () -> Md_rewrite.inverse_rules q vs))
  | Svc_proto.Rpq_eval { rpq; instance; tuple } ->
      let e = Hashtbl.find m.rpqs (k sess rpq) and i = inst instance in
      let tr = Option.fold ~none:"-" ~some:(String.concat ",") tuple in
      if
        keyed "rpq-eval"
          [ (fun () -> Rpq.fingerprint_hex e); (fun () -> Instance.fingerprint_hex i);
            (fun () -> tr) ]
      then begin
        ignore (p "rpq_nfa.compile" (fun () -> Rpq_nfa.of_regex e));
        match tuple with
        | Some [ s ] ->
            let ans =
              p "rpq_translate.eval_from" (fun () ->
                  Rpq_translate.eval_from ~strategy:(strategy ()) e i (Const.named s))
            in
            add acc "rpq.answers" (float_of_int (List.length ans))
        | Some [ a; b ] ->
            let yes =
              p "rpq_translate.holds" (fun () ->
                  Rpq_translate.holds ~strategy:(strategy ()) e i (Const.named a)
                    (Const.named b))
            in
            add acc "rpq.answers" (if yes then 1.0 else 0.0)
        | _ -> ()
      end
  | Svc_proto.Rpq_rewrite { rpq; views = vn; instance; tuple } ->
      let e = Hashtbl.find m.rpqs (k sess rpq)
      and vs = Hashtbl.find m.rpq_sets (k sess vn)
      and i = inst instance in
      let tr = Option.fold ~none:"-" ~some:(String.concat ",") tuple in
      if
        keyed "rpq-rewrite"
          [ (fun () -> Rpq.fingerprint_hex e);
            (fun () ->
              String.concat ";" (List.map (fun (n, e) -> n ^ "=" ^ Rpq.fingerprint_hex e) vs));
            (fun () -> Instance.fingerprint_hex i); (fun () -> tr) ]
      then begin
        let rw = p "rpq_views.rewrite" (fun () -> Rpq_views.rewrite ~views:vs e) in
        match tuple with
        | Some [ s ] ->
            let ans =
              p "rpq_views.certain_from" (fun () ->
                  Rpq_views.certain_from ~strategy:(strategy ()) rw i (Const.named s))
            in
            add acc "rpq.answers" (float_of_int (List.length ans))
        | _ -> ()
      end
  | Svc_proto.Assert { instance; text } | Svc_proto.Retract { instance; text } ->
      let asserted = match req.Svc_proto.verb with Svc_proto.Assert _ -> true | _ -> false in
      let facts =
        Instance.facts
          (p "parse.payload" (fun () -> Parse.instance text))
      in
      add acc "parse.bytes" (float_of_int (String.length text));
      add acc "parse.us" (List.hd (values acc "parse.payload_us"));
      let key = k sess instance in
      let mats = Option.value (Hashtbl.find_opt m.mats key) ~default:[] in
      List.iter
        (fun (_, mt) ->
          let before = Instance.size (Dl_incr.full mt) in
          if asserted then
            p "dl_incr.assert" (fun () -> Dl_incr.assert_facts mt facts)
          else p "dl_incr.retract" (fun () -> Dl_incr.retract_facts mt facts);
          add acc "dl_incr.facts_changed"
            (float_of_int (abs (Instance.size (Dl_incr.full mt) - before))))
        mats;
      let i = Hashtbl.find m.insts key in
      Hashtbl.replace m.insts key
        (List.fold_left
           (fun acc f -> if asserted then Instance.add f acc else Instance.remove f acc)
           i facts)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Replays. *)

let verb_name (req : Svc_proto.request) =
  match req.Svc_proto.verb with
  | Svc_proto.Load _ -> "load"
  | Svc_proto.Assert _ -> "assert"
  | Svc_proto.Retract _ -> "retract"
  | Svc_proto.Eval _ -> "eval"
  | Svc_proto.Holds _ -> "holds"
  | Svc_proto.Mondet_test _ -> "mondet-test"
  | Svc_proto.Certain_answers _ -> "certain-answers"
  | Svc_proto.Rewrite_check _ -> "rewrite-check"
  | Svc_proto.Rpq_load _ -> "rpq-load"
  | Svc_proto.Rpq_eval _ -> "rpq-eval"
  | Svc_proto.Rpq_rewrite _ -> "rpq-rewrite"
  | Svc_proto.Stats -> "stats"

let verbs =
  [ "eval"; "holds"; "mondet-test"; "certain-answers"; "rewrite-check";
    "assert"; "retract"; "rpq-eval"; "rpq-rewrite" ]

(* the replayed stream: both connections' requests in strict alternation,
   the order a one-worker server sees from two closed-loop connections *)
let stream (w : Gen.t) ~per_conn =
  Array.init (per_conn * Gen.conns) (fun x ->
      Gen.request w ~conn:(x mod Gen.conns) ~seq:(x / Gen.conns))

let setup_lines (w : Gen.t) =
  List.mapi (fun x l -> Printf.sprintf "s%d %s" x l) (w.loads @ w.warm)

let one_line l =
  let r = Svc_reader.create ~max_line:(64 lsl 20) in
  let b = Bytes.of_string (l ^ "\n") in
  (r, b)

(* The server's path for one request line, untraced. *)
let serve_plain svc line =
  let r, b = one_line line in
  match Svc_reader.feed r b ~off:0 ~len:(Bytes.length b) with
  | [ Svc_reader.Line l ] -> (
      match Svc_proto.parse_request l with
      | Ok req -> Svc_proto.print_response (Svc_service.handle_concurrent svc req)
      | Error _ -> "")
  | _ -> ""

(* The same path with a span per layer call under one root span, then
   the probes under the [handle] span. *)
let serve_traced tr acc m svc ~rid line =
  let r, b = one_line line in
  let handled = ref None in
  let out =
    span tr "request" ~rid ~parent:(-1) (fun root ->
        match
          span tr "svc_reader.feed" ~rid ~parent:root (fun _ ->
              Svc_reader.feed r b ~off:0 ~len:(Bytes.length b))
        with
        | [ Svc_reader.Line l ] -> (
            match
              span tr "svc_proto.parse" ~rid ~parent:root (fun _ -> Svc_proto.parse_request l)
            with
            | Ok req ->
                let resp =
                  span tr "svc_service.handle" ~rid ~parent:root (fun id ->
                      handled := Some (req, id);
                      Svc_service.handle_concurrent svc req)
                in
                span tr "svc_proto.print" ~rid ~parent:root (fun _ ->
                    Svc_proto.print_response resp)
            | Error _ -> "")
        | _ -> "")
  in
  let root_ns = dur_ns (List.hd tr.spans) in
  (match !handled with
  | Some (req, id) -> probes tr acc m ~rid ~parent:id req
  | None -> ());
  (out, root_ns, Option.map (fun (req, id) -> (verb_name req, id)) !handled)

type result = {
  acc : acc;
  spans : span list;
  handle_by_verb : (string, int list ref) Hashtbl.t;  (** handle span ids *)
  traced_ns : float array;  (** root span per request *)
  untraced_ns : float array;  (** the same request on the untraced service *)
  minor_words : float;  (** allocated by the untraced requests *)
  major_collections : int;  (** during the untraced requests *)
  heap_words : int;  (** the untraced service's peak major heap *)
  hits : int;
  misses : int;
  evictions : int;
  requests : int;
  class_counts : int array;
  repeat : bool;  (** both services gave byte-identical answers throughout *)
  digest : string;  (** of every answer, for comparing runs of one seed *)
}

(* The untraced service lives in a forked child process, so that it
   shares none of the process-global memo tables (compiled programs,
   decision-procedure caches) with the traced one, just as the real
   server shares none with the benchmark.  The two replay the stream in
   lockstep, one request at a time, taking turns going first, so both
   see the same machine at the same moment.  The child reports per
   request its time and a digest of its answer, plus its GC counts. *)
type untraced = {
  u_ns : float array;
  u_digests : string array;
  u_minor_words : float;
  u_major : int;
  u_heap_words : int;
      (** peak major heap over set-up and replay, above the heap the
          child started with *)
}

let untraced_child (w : Gen.t) reqs ic oc =
  (* the child inherits the benchmark's heap: measure above it *)
  Gc.compact ();
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let peak = ref heap0 in
  let sample_heap () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  let plain = Svc_service.create () in
  List.iter (fun l -> ignore (serve_plain plain l); sample_heap ()) (setup_lines w);
  let n = Array.length reqs in
  let u =
    { u_ns = Array.make n 0.0; u_digests = Array.make n ""; u_minor_words = 0.0; u_major = 0;
      u_heap_words = 0 }
  in
  let minor = ref 0.0 and major = ref 0 in
  Gc.full_major ();
  let rec loop () =
    match input_line ic with
    | "end" -> ()
    | idx ->
        let rid = int_of_string idx in
        let major0 = (Gc.quick_stat ()).Gc.major_collections in
        let w0 = Gc.minor_words () in
        let t0 = now () in
        let out = serve_plain plain (snd reqs.(rid)) in
        u.u_ns.(rid) <- Int64.to_float (Int64.sub (now ()) t0);
        minor := !minor +. (Gc.minor_words () -. w0);
        major := !major + (Gc.quick_stat ()).Gc.major_collections - major0;
        u.u_digests.(rid) <- Digest.string out;
        sample_heap ();
        output_string oc "done\n";
        flush oc;
        loop ()
  in
  loop ();
  Marshal.to_channel oc
    { u with u_minor_words = !minor; u_major = !major; u_heap_words = !peak - heap0 }
    [];
  flush oc

let replay (w : Gen.t) ~per_conn =
  let reqs = stream w ~per_conn in
  let n = Array.length reqs in
  let to_child_r, to_child_w = Unix.pipe () and of_child_r, of_child_w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close to_child_w;
      Unix.close of_child_r;
      untraced_child w reqs (Unix.in_channel_of_descr to_child_r)
        (Unix.out_channel_of_descr of_child_w);
      (* skip the parent's exit handlers (they would stop its servers) *)
      Unix._exit 0
  | child ->
      Unix.close to_child_r;
      Unix.close of_child_w;
      let oc = Unix.out_channel_of_descr to_child_w
      and ic = Unix.in_channel_of_descr of_child_r in
      let untraced rid =
        output_string oc (string_of_int rid ^ "\n");
        flush oc;
        if input_line ic <> "done" then failwith "untraced replay failed"
      in
      let tr = tracer () and acc : acc = Hashtbl.create 64 and m = mirror () in
      let svc = Svc_service.create () in
      List.iter
        (fun l ->
          match Svc_proto.parse_request l with
          | Ok req ->
              on_load m acc (Option.value req.Svc_proto.session ~default:"") req.Svc_proto.verb;
              ignore (serve_traced tr acc m svc ~rid:(-1) l)
          | Error _ -> ())
        (setup_lines w);
      let cache = Svc_service.cache svc in
      let h0 = Svc_cache.hits cache and m0 = Svc_cache.misses cache
      and e0 = Svc_cache.evictions cache in
      let by_verb = Hashtbl.create 16 in
      let counts = Array.make (Array.length w.classes) 0 in
      let traced_ns = Array.make n 0.0 and outs = Array.make n "" in
      Gc.full_major ();
      Array.iteri
        (fun rid (c, line) ->
          counts.(c) <- counts.(c) + 1;
          let traced () =
            let out, ns, handled = serve_traced tr acc m svc ~rid line in
            traced_ns.(rid) <- ns;
            outs.(rid) <- out;
            match handled with
            | Some (v, id) -> (
                match Hashtbl.find_opt by_verb v with
                | Some l -> l := id :: !l
                | None -> Hashtbl.add by_verb v (ref [ id ]))
            | None -> ()
          in
          if rid mod 2 = 0 then (untraced rid; traced ())
          else (traced (); untraced rid);
          add acc "svc_proto.resp_bytes" (float_of_int (String.length outs.(rid) + 1)))
        reqs;
      output_string oc "end\n";
      flush oc;
      let (u : untraced) = Marshal.from_channel ic in
      ignore (Unix.waitpid [] child);
      close_out_noerr oc;
      close_in_noerr ic;
      let digests = Array.map Digest.string outs in
      {
        acc; spans = List.rev tr.spans; handle_by_verb = by_verb; traced_ns;
        untraced_ns = u.u_ns; minor_words = u.u_minor_words;
        major_collections = u.u_major; heap_words = u.u_heap_words; hits = Svc_cache.hits cache - h0;
        misses = Svc_cache.misses cache - m0; evictions = Svc_cache.evictions cache - e0;
        requests = n; class_counts = counts; repeat = digests = u.u_digests;
        digest = Digest.to_hex (Digest.string (String.concat "" (Array.to_list digests)));
      }
