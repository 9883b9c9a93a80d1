(* The server as its own process, and the closed-loop client that drives
   it.  The client is single-threaded: one select loop over the
   connections, one outstanding request per connection. *)

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* Server process. *)

type server = { pid : int; addr : Unix.sockaddr; err : in_channel }

(* servers not yet stopped: killed if the benchmark exits early *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn [mondet serve --tcp 127.0.0.1:0 --workers N] and learn its port
   from the "serving on HOST:PORT" line it prints on stderr. *)
let spawn ~exe ~workers =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [| exe; "serve"; "--tcp"; "127.0.0.1:0"; "--workers"; string_of_int workers |]
  in
  let pid = Unix.create_process argv.(0) argv devnull devnull w in
  live := pid :: !live;
  Unix.close w;
  Unix.close devnull;
  let err = Unix.in_channel_of_descr r in
  let rec port () =
    match input_line err with
    | line -> (
        match Scanf.sscanf line "mondet: serving on %s@:%d" (fun _ p -> p) with
        | p -> p
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> port ())
    | exception End_of_file -> failwith "server exited before listening"
  in
  let port = port () in
  { pid; addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port); err }

(* utime + stime of the server, in seconds *)
let cpu_s s =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" s.pid) in
  let line = input_line ic in
  close_in ic;
  (* fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line *)
  let rest = String.sub line (String.rindex line ')' + 2)
      (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  let ticks = float_of_string f.(11) +. float_of_string f.(12) in
  ticks /. 100.0

(* the server's peak resident set (VmHWM), in MiB *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM"
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live;
  close_in_noerr s.err

(* ------------------------------------------------------------------ *)
(* Connections. *)

type conn = {
  fd : Unix.file_descr;
  reader : Svc_reader.t;
  buf : Bytes.t;
  mutable lines : string list;  (** complete lines not yet consumed *)
}

let connect addr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd addr;
  { fd; reader = Svc_reader.create ~max_line:(64 lsl 20);
    buf = Bytes.create 65536; lines = [] }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let send c line =
  let s = line ^ "\n" in
  write_all c.fd s 0 (String.length s)

(* read whatever is available (one read call) into [c.lines] *)
let pump c =
  let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
  if n = 0 then failwith "server closed the connection";
  List.iter
    (function
      | Svc_reader.Line l -> c.lines <- c.lines @ [ l ]
      | Svc_reader.Overlong -> failwith "response over 64 MiB")
    (Svc_reader.feed c.reader c.buf ~off:0 ~len:n)

let rec recv c =
  match c.lines with
  | l :: rest ->
      c.lines <- rest;
      l
  | [] ->
      pump c;
      recv c

(* One request in lockstep; the body of an [ok] answer, or failure. *)
let call c line =
  send c line;
  let resp = recv c in
  match Svc_proto.parse_response resp with
  | Ok { Svc_proto.result = Svc_proto.Ok_ body; _ } -> body
  | _ -> failwith (Printf.sprintf "set-up request failed: %s -> %s" line resp)

(* the cache counters of a [stats] body *)
let stats c =
  let body = call c "stats stats" in
  let field k =
    List.find_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k'; v ] when k' = k -> Some (int_of_string v)
        | _ -> None)
      (String.split_on_char ' ' body)
    |> Option.get
  in
  (field "hits", field "misses", field "evictions")

(* ------------------------------------------------------------------ *)
(* The closed loop. *)

type sample = {
  conn : int;
  seq : int;
  cls : int;
  lat_ns : int;
  response : string;
}

(* Drive every connection in [cs] in closed loop for [seconds], or until
   each has sent [count] requests: connection [i] sends
   [request ~conn:i ~seq] for seq = start.(i), start.(i) + 1, ..., the
   next only after the previous response line arrived.  Requests in
   flight when time is up are still answered.  Every exchange goes to
   [on_sample] as it completes.  Returns the elapsed time in seconds and
   each connection's next seq. *)
let closed_loop ?(count = max_int) ?start cs ~seconds ~request ~on_sample =
  let n = Array.length cs in
  let seq = match start with Some s -> Array.copy s | None -> Array.make n 0 in
  let limit = Array.map (fun s -> if count = max_int then max_int else s + count) seq in
  let sent_at = Array.make n 0L and cls = Array.make n 0 in
  let issue i =
    let c, line = request ~conn:i ~seq:seq.(i) in
    cls.(i) <- c;
    sent_at.(i) <- now_ns ();
    send cs.(i) line
  in
  let t0 = now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let live = ref n and open_ = Array.make n true in
  Array.iteri (fun i _ -> issue i) cs;
  while !live > 0 do
    let fds =
      List.filter_map
        (fun i -> if open_.(i) then Some cs.(i).fd else None)
        (List.init n Fun.id)
    in
    let ready, _, _ =
      try Unix.select fds [] [] 5.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if ready = [] then failwith "no response within 5 s";
    Array.iteri
      (fun i c ->
        if open_.(i) && List.memq c.fd ready then begin
          pump c;
          List.iter
            (fun response ->
              let t = now_ns () in
              on_sample
                { conn = i; seq = seq.(i); cls = cls.(i);
                  lat_ns = Int64.to_int (Int64.sub t sent_at.(i)); response };
              seq.(i) <- seq.(i) + 1;
              if Int64.compare t deadline < 0 && seq.(i) < limit.(i) then issue i
              else begin
                open_.(i) <- false;
                decr live
              end)
            c.lines;
          c.lines <- []
        end)
      cs
  done;
  (secs_since t0, seq)
