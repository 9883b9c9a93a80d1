(* The serving benchmark.

     main.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1

   Spawns [PATH serve --tcp 127.0.0.1:0 --workers 1] as its own process,
   sets it up several times (the median set-up time is [setup_s]), drives
   the last one from two closed-loop connections for S seconds, checks
   every answer, and prints the end-to-end metrics.  With [--trace 1] it
   then replays the same seeded stream in-process, traced and untraced,
   and prints the per-layer metrics instead.  The last line of
   standard output is one JSON object; the exit code is non-zero on any
   wrong answer, failed request or broken workload-shape guard. *)

let workers = 1
let setups = 11
let segments = 5

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of l) 0.5
let sum l = List.fold_left ( +. ) 0.0 l

(* ------------------------------------------------------------------ *)
(* Host tag and guard. *)

(* the CPUs this process may run on (what [nproc] counts) *)
let allowed_cpus () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 18 && String.sub l 0 18 = "Cpus_allowed_list:" ->
        String.trim (String.sub l 18 (String.length l - 18))
        |> String.split_on_char ','
        |> List.concat_map (fun r ->
               match String.split_on_char '-' r with
               | [ a; b ] ->
                   List.init (int_of_string b - int_of_string a + 1) (fun x -> int_of_string a + x)
               | _ -> [ int_of_string r ])
    | _ -> go ()
    | exception End_of_file -> List.init (Domain.recommended_domain_count ()) Fun.id
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Output. *)

(* A value with no samples (nan) prints as 0: JSON has no nan. *)
let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

let finish ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* The end-to-end run. *)

(* One stretch of the timed phase. *)
type seg = {
  mutable reads : float list;  (** read latencies in ns *)
  mutable writes : float list;  (** write latencies in ns *)
  mutable timed : int;  (** requests of the stretch *)
  mutable dt : float;  (** length of the stretch in seconds *)
  mutable cpu : float;  (** server CPU seconds over the stretch *)
}

type e2e = {
  check : Check.t;
  lat : (float array * int) array;  (** latencies in ns, and their count, per class *)
  journal_lat : float array list;  (** journal write latencies in ns, per server *)
  segs : seg array;
  setup_s : float;
  rss_mb : float;
  hits : int;
  misses : int;
  evictions : int;
}

(* Pin every thread of process [pid] to [cpus]; false without taskset. *)
let pin cpus pid =
  Sys.command
    (Printf.sprintf "taskset -a -p -c %s %d >/dev/null 2>&1"
       (String.concat "," (List.map string_of_int cpus))
       pid)
  = 0

let set_up ~exe ~cpus (w : Gen.t) =
  let t0 = Wire.now_ns () in
  let s = Wire.spawn ~exe ~workers in
  ignore (pin cpus s.Wire.pid);
  let c = Wire.connect s.Wire.addr in
  List.iteri (fun x l -> ignore (Wire.call c (Printf.sprintf "s%d %s" x l))) (w.loads @ w.warm);
  (s, c, Wire.secs_since t0)

let end_to_end ~exe ~cpus ~seconds (w : Gen.t) =
  let check = Check.create () in
  let lat = Array.map (fun _ -> (ref (Array.make 1024 0.0), ref 0)) w.Gen.classes in
  let push c ns =
    let a, n = lat.(c) in
    if !n = Array.length !a then a := Array.append !a (Array.make !n 0.0);
    !a.(!n) <- ns;
    incr n
  in
  (* Journal writes go to every set-up server, right after its set-up,
     all of them in one closed-loop burst.  On one server the p99 of the
     journal sat on the steep edge of the few writes that meet a major
     collection and moved by up to a third between runs.  So
     [write_p50_us] is the median over the servers of each server's
     p50, and [write_p99_us] pools the writes of all of them. *)
  let journal s =
    let cs = Array.init Gen.conns (fun _ -> Wire.connect s.Wire.addr) in
    let l = ref [] in
    ignore
      (Wire.closed_loop cs ~start:(Array.make Gen.conns 0)
         ~count:(Array.length w.Gen.journal.(0)) ~seconds:60.0
         ~request:(fun ~conn ~seq ->
           (0, Printf.sprintf "j%dn%d %s" conn seq w.Gen.journal.(conn).(seq)))
         ~on_sample:(fun smp ->
           Check.journal check smp;
           l := float_of_int smp.Wire.lat_ns :: !l));
    Array.iter Wire.close cs;
    Array.of_list !l
  in
  let times = ref [] and journal_lat = ref [] in
  let rec go k =
    let s, c, t = set_up ~exe ~cpus w in
    times := t :: !times;
    if w.Gen.journal.(0) <> [||] then journal_lat := journal s :: !journal_lat;
    if k > 1 then begin
      Wire.close c;
      Wire.stop s;
      go (k - 1)
    end
    else (s, c)
  in
  let s, setup_conn = go setups in
  let cs = Array.init Gen.conns (fun _ -> Wire.connect s.Wire.addr) in
  (* The timed phase is [segments] stretches.  Throughput, the p50s and
     CPU time are reported as medians over the stretches, so a
     disturbance shorter than a stretch moves none of them. *)
  let segs =
    Array.init segments (fun _ -> { reads = []; writes = []; timed = 0; dt = 0.0; cpu = 0.0 })
  in
  let h0, m0, e0 = Wire.stats setup_conn in
  let next = ref (Array.make Gen.conns 0) in
  Array.iter
    (fun g ->
      let cpu0 = Wire.cpu_s s in
      let dt, reads =
        Wire.closed_loop cs ~start:!next ~seconds:(seconds /. float_of_int segments)
          ~request:(fun ~conn ~seq -> Gen.request w ~conn ~seq)
          ~on_sample:(fun s ->
            ignore (Check.sample check w s);
            let ns = float_of_int s.Wire.lat_ns in
            push s.Wire.cls ns;
            g.timed <- g.timed + 1;
            if w.Gen.classes.(s.Wire.cls).Gen.write then g.writes <- ns :: g.writes
            else g.reads <- ns :: g.reads)
      in
      g.dt <- dt;
      g.cpu <- Wire.cpu_s s -. cpu0;
      next := reads)
    segs;
  let h1, m1, e1 = Wire.stats setup_conn in
  let rss_mb = Wire.peak_rss_mb s in
  Array.iter Wire.close cs;
  Wire.close setup_conn;
  Wire.stop s;
  Printf.printf "set-up times: %s (s)\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times));
  { check; lat = Array.map (fun (a, n) -> (!a, !n)) lat; journal_lat = !journal_lat; segs;
    setup_s = median !times; rss_mb; hits = h1 - h0; misses = m1 - m0; evictions = e1 - e0 }

(* Distribution around a percentile: the latencies at p-3 and p+3 points,
   so a percentile sitting on a cliff between cost modes is visible. *)
let shape name sorted =
  let n = Array.length sorted in
  let us p = percentile sorted p /. 1e3 in
  Printf.printf
    "population %-6s n=%-7d p47=%.1f p50=%.1f p53=%.1f | p96=%.1f p99=%.1f p99.5=%.1f (us)\n"
    name n (us 0.47) (us 0.50) (us 0.53) (us 0.96) (us 0.99) (us 0.995)

(* [before_oracle] runs with the read p50 before the naive oracle, which
   switches the process to the naive engine and fills its memo tables. *)
let report_e2e (w : Gen.t) r ~seed ~before_oracle =
  let check = r.check in
  (* the latencies of the classes [f] selects, sorted *)
  let lat f =
    let a =
      Array.concat
        (List.filter_map
           (fun c -> if f c then Some (Array.sub (fst r.lat.(c)) 0 (snd r.lat.(c))) else None)
           (List.init (Array.length w.Gen.classes) Fun.id))
    in
    Array.sort compare a;
    a
  in
  let is_write c = w.Gen.classes.(c).Gen.write in
  let timed = Array.fold_left (fun acc (_, n) -> acc + n) 0 r.lat in
  let journal = Array.concat r.journal_lat in
  let attempted = timed + Array.length journal in
  let reads = lat (fun c -> not (is_write c)) in
  let writes = Array.append (lat is_write) journal in
  Array.sort compare writes;
  (* per server, in set-up order: the journal's p50 *)
  let journal_p50s =
    List.rev_map (fun l -> percentile (sorted_of (Array.to_list l)) 0.5 /. 1e3) r.journal_lat
  in
  if journal_p50s <> [] then
    Printf.printf "journal p50 per server: %s (us)\n"
      (String.concat " " (List.map (Printf.sprintf "%.1f") journal_p50s));
  Array.iteri
    (fun x (c : Gen.cls) ->
      let l = lat (( = ) x) in
      if Array.length l > 0 then
        Printf.printf "class %-20s n=%-7d p50=%.1f p99=%.1f (us)\n" c.Gen.cname
          (Array.length l) (percentile l 0.5 /. 1e3) (percentile l 0.99 /. 1e3))
    w.Gen.classes;
  shape "reads" reads;
  shape "writes" writes;
  (* per stretch: throughput, the two p50s and CPU per request *)
  let per_seg =
    Array.map
      (fun g ->
        let p50 l = percentile (sorted_of l) 0.5 /. 1e3 in
        let p99 l = percentile (sorted_of l) 0.99 /. 1e3 in
        ( float_of_int g.timed /. g.dt,
          p50 g.reads,
          p50 g.writes,
          g.cpu *. 1e6 /. float_of_int g.timed, p99 g.reads, p99 g.writes ))
      r.segs
  in
  Array.iteri
    (fun k (rps, rp50, wp50, cpu, rp99, wp99) ->
      Printf.printf "stretch %d: %.1f req/s  read p50=%.1f  write p50=%.1f (us)  cpu=%.1f us/req read p99=%.1f write p99=%.1f\n"
        k rps rp50 wp50 cpu rp99 wp99)
    per_seg;
  let med f = median (Array.to_list (Array.map f per_seg)) in
  before_oracle (percentile reads 0.5);
  let t0 = Wire.now_ns () in
  let per_class, per_conn = Gen.oracle_sample w in
  Check.oracle check w ~seed ~per_class ~per_conn;
  Printf.printf
    "oracle: %d answers re-derived in %.1fs, %d of them by a cold indexed fixpoint, the \
     rest by the naive engine\n"
    check.Check.oracle_checked (Wire.secs_since t0) check.Check.cold_checked;
  (* workload-shape guards *)
  let lookups = r.hits + r.misses in
  let hit_ratio = if lookups = 0 then 0.0 else float_of_int r.hits /. float_of_int lookups in
  Printf.printf "cache: hits=%d misses=%d evictions=%d hit_ratio=%.4f\n" r.hits r.misses
    r.evictions hit_ratio;
  let guards =
    (match w.Gen.wname with
    | "hit" -> [ ("hit: no misses while timed", r.misses = 0) ]
    | "cold" | "graph" ->
        [ ("hit ratio below 0.05", hit_ratio < 0.05); ("evictions above zero", r.evictions > 0) ]
    | _ -> [])
    @ [ ("at least 1000 reads", Array.length reads >= 1000);
        ("at least 1000 writes", Array.length writes >= 1000) ]
  in
  let broken = List.filter (fun (_, ok) -> not ok) guards in
  List.iter (fun (g, _) -> Printf.printf "shape guard broken: %s\n" g) broken;
  List.iter (Printf.printf "failure: %s\n") (List.rev check.Check.messages);
  let failed = check.Check.failed in
  let n = float_of_int attempted in
  let metrics =
    [
      ("throughput_rps", "1/s", med (fun (x, _, _, _, _, _) -> x));
      ("p50_us", "us", med (fun (_, x, _, _, _, _) -> x));
      ("p99_us", "us", percentile reads 0.99 /. 1e3);
      ("write_p50_us", "us",
       if journal_p50s <> [] then median journal_p50s else med (fun (_, _, x, _, _, _) -> x));
      ("write_p99_us", "us", percentile writes 0.99 /. 1e3);
      ("ok_frac", "frac", float_of_int (max 0 (attempted - failed)) /. n);
      ("setup_s", "s", r.setup_s);
      ("cpu_us_per_req", "us", med (fun (_, _, _, x, _, _) -> x));
      ("peak_rss_mb", "MiB", r.rss_mb);
    ]
  in
  (failed = 0 && broken = [], attempted, failed, metrics)

(* ------------------------------------------------------------------ *)
(* The traced run. *)

let report_trace (w : Gen.t) ~e2e_read_p50 =
  let t = Trace.replay w ~per_conn:(Gen.replay_len w) in
  let acc = t.Trace.acc in
  let by_id = Hashtbl.create 4096 and children = Hashtbl.create 4096 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace by_id s.Trace.id s;
      if s.Trace.parent >= 0 then
        Hashtbl.replace children s.Trace.parent
          (s :: Option.value (Hashtbl.find_opt children s.Trace.parent) ~default:[]))
    t.Trace.spans;
  let self_ns (s : Trace.span) =
    Trace.dur_ns s
    -. sum (List.map Trace.dur_ns (Option.value (Hashtbl.find_opt children s.Trace.id) ~default:[]))
  in
  let of_name name =
    List.filter_map
      (fun (s : Trace.span) -> if s.Trace.name = name && s.Trace.rid >= 0 then Some s else None)
      t.Trace.spans
  in
  let us_p50 name = median (List.map (fun s -> Trace.dur_ns s /. 1e3) (of_name name)) in
  let handles = of_name "svc_service.handle" in
  let handle_us = sorted_of (List.map (fun s -> Trace.dur_ns s /. 1e3) handles) in
  let n = float_of_int t.Trace.requests in
  let sum_a = Array.fold_left ( +. ) 0.0 in
  (* in-process latency of the reads only, for the TCP overhead *)
  let reads_inproc =
    sorted_of
      (List.filteri
         (fun x _ ->
           let c, _ = Gen.request w ~conn:(x mod Gen.conns) ~seq:(x / Gen.conns) in
           not w.Gen.classes.(c).Gen.write)
         (Array.to_list t.Trace.untraced_ns))
  in
  (* in-process cost per class: the sizing table of the README *)
  Array.iteri
    (fun c (cls : Gen.cls) ->
      let l =
        sorted_of
          (List.filteri
             (fun x _ -> fst (Gen.request w ~conn:(x mod Gen.conns) ~seq:(x / Gen.conns)) = c)
             (Array.to_list t.Trace.untraced_ns))
      in
      if Array.length l > 0 then
        Printf.printf "in-process class %-20s n=%-6d p50=%.1f p99=%.1f (us)\n" cls.Gen.cname
          (Array.length l) (percentile l 0.5 /. 1e3) (percentile l 0.99 /. 1e3))
    w.Gen.classes;
  let verb_metrics =
    List.concat_map
      (fun v ->
        let ds =
          match Hashtbl.find_opt t.Trace.handle_by_verb v with
          | Some ids -> sorted_of (List.map (fun id -> Trace.dur_ns (Hashtbl.find by_id id) /. 1e3) !ids)
          | None -> [||]
        in
        [ (Printf.sprintf "svc_service.handle_us.%s.p50" v, "us", percentile ds 0.5);
          (Printf.sprintf "svc_service.handle_us.%s.p99" v, "us", percentile ds 0.99) ])
      Trace.verbs
  in
  let v name = Trace.values acc name in
  let p50 name = median (v name) in
  (* the costliest materialization is the cold rebuild a repair competes with *)
  let create = List.fold_left max nan (v "dl_incr.create_us") in
  let repairs = v "dl_incr.assert_us" @ v "dl_incr.retract_us" in
  let lookups = t.Trace.hits + t.Trace.misses in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let metrics =
    [
      ("svc_tcp.overhead_us", "us", e2e_read_p50 /. 1e3 -. percentile reads_inproc 0.5 /. 1e3);
      ("svc_reader.feed_us", "us", us_p50 "svc_reader.feed");
      ("svc_proto.parse_us", "us", us_p50 "svc_proto.parse");
      ("svc_proto.print_us", "us", us_p50 "svc_proto.print");
      ("svc_proto.resp_bytes", "bytes", median (v "svc_proto.resp_bytes"));
      ("svc_cache.key_us", "us", p50 "svc_cache.key_us");
      ("svc_cache.lookup_us", "us", p50 "svc_cache.lookup_us");
      ("svc_cache.hit_ratio", "frac",
       if lookups = 0 then 0.0 else float_of_int t.Trace.hits /. float_of_int lookups);
      ("svc_cache.evictions_per_req", "1/req", float_of_int t.Trace.evictions /. n);
      ("svc_service.handle_us", "us", percentile handle_us 0.5);
      ("svc_service.handle_p99_us", "us", percentile handle_us 0.99);
      ("svc_service.unexplained_us", "us",
       median (List.map (fun s -> self_ns s /. 1e3) handles));
      ("parse.payload_us", "us", p50 "parse.payload_us");
      ("parse.bytes_per_us", "bytes/us", sum (v "parse.bytes") /. sum (v "parse.us"));
      ("index.build_us", "us", p50 "index.build_us");
      ("instance.facts", "count", sum (v "instance.facts"));
      ("dl_plan.compile_us", "us", p50 "dl_plan.compile_us");
      ("dl_vm.compile_us", "us", p50 "dl_vm.compile_us");
      ("dl_engine.holds_us", "us", p50 "dl_engine.holds_us");
      ("dl_engine.fixpoint_us", "us", p50 "dl_engine.fixpoint_us");
      ("dl_engine.facts_derived", "count", sum (v "dl_engine.facts_derived"));
      ("dl_engine.ns_per_fact", "ns", sum (v "fixpoint.ns") /. sum (v "dl_engine.facts_derived"));
      ("md_decide.decide_us", "us", p50 "md_decide.decide_us");
      ("md_separator.certain_us", "us", p50 "md_separator.certain_us");
      ("md_rewrite.inverse_rules_us", "us", p50 "md_rewrite.inverse_rules_us");
      ("dl_incr.create_us", "us", create);
      ("dl_incr.assert_us", "us", p50 "dl_incr.assert_us");
      ("dl_incr.retract_us", "us", p50 "dl_incr.retract_us");
      ("dl_incr.repair_over_cold", "ratio", percentile (sorted_of repairs) 0.99 /. create);
      ("dl_incr.facts_changed", "count", sum (v "dl_incr.facts_changed"));
      ("rpq_nfa.compile_us", "us", p50 "rpq_nfa.compile_us");
      ("rpq_translate.eval_from_us", "us", p50 "rpq_translate.eval_from_us");
      ("rpq_translate.holds_us", "us", p50 "rpq_translate.holds_us");
      ("rpq.answers_per_req", "count",
       sum (v "rpq.answers") /. float_of_int (List.length (v "rpq.answers")));
      ("rpq_views.rewrite_us", "us", p50 "rpq_views.rewrite_us");
      ("rpq_views.certain_from_us", "us", p50 "rpq_views.certain_from_us");
      ("gc.minor_words_per_req", "words", t.Trace.minor_words /. n);
      ("gc.major_per_kreq", "1/kreq", float_of_int t.Trace.major_collections *. 1000.0 /. n);
      ("gc.heap_mb", "MiB",
       float_of_int t.Trace.heap_words *. word_bytes /. 1048576.0);
      ("trace.overhead_frac", "ratio",
       (sum_a t.Trace.traced_ns -. sum_a t.Trace.untraced_ns) /. sum_a t.Trace.untraced_ns);
    ]
    @ verb_metrics
  in
  (* a metric whose layer this workload never reaches has no samples *)
  let dropped = List.filter (fun (_, _, x) -> Float.is_nan x) metrics in
  if dropped <> [] then
    Printf.printf "not reached on %s (reported as 0): %s\n" w.Gen.wname
      (String.concat " " (List.map (fun (m, _, _) -> m) dropped));
  Printf.printf "class counts: %s\n"
    (String.concat " "
       (Array.to_list
          (Array.mapi (fun x c -> Printf.sprintf "%s=%d" w.Gen.classes.(x).Gen.cname c)
             t.Trace.class_counts)));
  Printf.printf "answers digest: %s\n" t.Trace.digest;
  let repeat = t.Trace.repeat in
  if not repeat then print_endline "shape guard broken: traced and untraced answers differ";
  (repeat, metrics, t)

let write_spans ~dir (w : Gen.t) ~seed (t : Trace.result) =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" w.Gen.wname seed) in
  let oc = open_out path in
  List.iter
    (fun (s : Trace.span) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.Trace.id s.Trace.name s.Trace.rid s.Trace.parent s.Trace.t0 s.Trace.t1)
    t.Trace.spans;
  close_out oc;
  Printf.printf "spans: %s\n" path

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0
  and server = ref "" and spans_dir = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " hit | cold | mutate | graph");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: print the per-layer metrics instead");
      ("--server", Arg.Set_string server, " path of the mondet executable");
      ("--spans", Arg.Set_string spans_dir, " directory for the traced run's spans");
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Gen.names) then (
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2);
  let cpus = allowed_cpus () in
  let cores = List.length cpus in
  (* the server's worker domain and the client each keep one core busy *)
  if workers + 1 > cores then (
    Printf.eprintf "refusing to run: %d server worker(s) + 1 client exceed nproc=%d\n" workers
      cores;
    exit 2);
  (* The client keeps to the last CPU and the server to the others.
     Left to the scheduler, the pair is placed differently from run to
     run, and every figure of a run moves with the placement; on one
     shared CPU, every request pays for switching between the two, a
     cost that moved by half between runs (see README.md).  Needs
     taskset; without it the run goes unpinned. *)
  let client_cpu = List.nth cpus (cores - 1) in
  let server_cpus = List.filter (( <> ) client_cpu) cpus in
  let pinned = pin [ client_cpu ] (Unix.getpid ()) in
  Printf.printf
    "host: nproc=%d ocaml=%s workers=%d connections=%d workload=%s seed=%d pinned=%b \
     client_cpu=%d server_cpus=%s\n%!"
    cores Sys.ocaml_version workers Gen.conns !workload !seed pinned client_cpu
    (String.concat "," (List.map string_of_int server_cpus));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let w = Gen.make !workload !seed in
  let r = end_to_end ~exe:!server ~cpus:server_cpus ~seconds:!seconds w in
  let traced = ref None in
  let correct, attempted, failed, metrics =
    report_e2e w r ~seed:!seed ~before_oracle:(fun read_p50 ->
        if !trace = 1 then traced := Some (report_trace w ~e2e_read_p50:read_p50))
  in
  match !traced with
  | None -> finish ~correct ~attempted ~failed metrics
  | Some (repeat, layer, t) ->
      write_spans ~dir:!spans_dir w ~seed:!seed t;
      finish ~correct:(correct && repeat) ~attempted ~failed layer
