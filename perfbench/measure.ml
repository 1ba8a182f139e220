(* Clock, per-operation samples, exact order statistics and the result
   line every run ends with. *)

(* Monotonic wall time in seconds.  Installed as the [Obs] clock at
   start-up, so the program's own latency accounting (telemetry EWMAs,
   profile durations) reads the same clock as the benchmark. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Per-operation latencies (seconds), kept outside the OCaml heap so the
   benchmark's own bookkeeping does not count in [heap_peak_mb]. *)
type samples = {
  mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable n : int;
}

let samples () = { a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1_048_576; n = 0 }

let add s x =
  if s.n = Bigarray.Array1.dim s.a then begin
    let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (2 * s.n) in
    Bigarray.Array1.blit s.a (Bigarray.Array1.sub b 0 s.n);
    s.a <- b
  end;
  Bigarray.Array1.unsafe_set s.a s.n x;
  s.n <- s.n + 1

let count s = s.n

let mean s =
  let t = ref 0.0 in
  for i = 0 to s.n - 1 do
    t := !t +. s.a.{i}
  done;
  !t /. float_of_int s.n

let sorted s =
  let a = Array.init s.n (fun i -> s.a.{i}) in
  Array.sort Float.compare a;
  a

(* Nearest-rank order statistic: the smallest sample with at least a
   share [p] of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile a 0.5

(* Samples strictly beyond the [p] order statistic. *)
let beyond sorted p =
  let n = Array.length sorted in
  n - int_of_float (Float.ceil (p *. float_of_int n))

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The last line of standard output: one JSON object with the run's
   correctness, operation counts and metrics.  Values keep every digit
   ([%.17g]). *)
let print_result ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "non-finite metric value"
  in
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value)
          m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

(* The five end-to-end metrics, from the measured rounds of one run.
   Throughput is the median of the rounds' rates: the host's speed
   swings by a third between sub-second rounds, and the median is the
   rate of a typical round rather than of the run's luckiest or
   unluckiest stretch. *)
let end_to_end ~setups ~rates ~lat ~tail ~heap_mb =
  let s = sorted lat in
  let n = Array.length s in
  Printf.printf "samples:     %d operations, tail p%g has %d beyond it\n" n
    (100.0 *. tail) (beyond s tail);
  Printf.printf "latency:     p50 %.4f  p90 %.4f  p99 %.4f  p99.9 %.4f  p99.99 %.4f  max %.4f ms\n"
    (1e3 *. percentile s 0.5) (1e3 *. percentile s 0.9) (1e3 *. percentile s 0.99)
    (1e3 *. percentile s 0.999) (1e3 *. percentile s 0.9999) (1e3 *. percentile s 1.0);
  let spread what unit_ scale xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    Printf.printf "%-12s %d, min %.5g  q1 %.5g  median %.5g  q3 %.5g  max %.5g %s\n" what
      (Array.length a) (scale *. a.(0)) (scale *. percentile a 0.25)
      (scale *. percentile a 0.5) (scale *. percentile a 0.75)
      (scale *. a.(Array.length a - 1)) unit_
  in
  spread "set-ups:" "ms" 1e3 setups;
  spread "rounds:" "/s" 1.0 rates;
  [
    metric "setup_s" "s" (median_of setups);
    metric "throughput_per_s" "1/s" (median_of rates);
    metric "latency_p50_ms" "ms" (1e3 *. percentile s 0.5);
    metric "latency_tail_ms" "ms" (1e3 *. percentile s tail);
    metric "heap_peak_mb" "MB" heap_mb;
  ]

(* Set-up happens at the start of every round, [reps] times, each from
   a heap swept of the state built before it (the previous round's
   included), and the round serves from the last one, again from a
   swept heap.  Set-up is short next to the host's swings in speed, so
   its metric is the median of set-ups spread over the whole run rather
   than of a burst at its start.  [times] collects every set-up's
   duration. *)
let setup_round reps times f =
  let last = ref None in
  for _ = 1 to reps do
    last := None;
    Gc.full_major ();
    let st, dt = timed f in
    times := dt :: !times;
    last := Some st
  done;
  Gc.full_major ();
  Option.get !last

(* The heap figure covers the serving of the first [heap_rounds] rounds,
   a fixed amount of work, so it does not depend on how many rounds a
   run completes. *)
let heap_rounds = 2

(* Peak size of the OCaml major heap while serving, in MB: the largest
   [heap_words] seen at the end of any major GC cycle (a [Gc] alarm),
   between operations, or at the start or end of a round's serving,
   over the rounds the watch is running.  Each round's serving starts
   from a swept heap holding the inputs and the program state, so
   set-up's garbage does not count; [Gc.top_heap_words] is a lifetime
   high-water mark and would include it and the generation of the
   inputs. *)
type heap_watch = { mutable peak : int; mutable running : bool; mutable words : float }

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let sample w = if w.running then w.peak <- max w.peak (heap_words ())

(* Called between operations, outside their timing.  A [quick_stat]
   costs about 2 us, so it is taken only once the operations since the
   last one have allocated 64k words (512 kB) on the minor heap: after
   every heavy operation, and every few dozen light ones. *)
let sample_heap w =
  let words = Gc.minor_words () in
  if words -. w.words >= 65536.0 then begin
    w.words <- words;
    sample w
  end

let watch_heap () =
  let w = { peak = 0; running = false; words = 0.0 } in
  ignore (Gc.create_alarm (fun () -> sample w));
  w

let resume_heap w =
  w.running <- true;
  sample w

let pause_heap w =
  sample w;
  w.running <- false

let heap_peak_mb w = float_of_int (w.peak * (Sys.word_size / 8)) /. 1048576.0

(* The traced run interleaves three kinds of operation so all three
   see the same host conditions: [Obs] off, [Obs] on, and the layer
   ledger.  [op ~obs s words f] runs [f] with [Obs] set to [obs], adding
   its latency to [s] and the minor-heap words it allocated to [words]. *)
let op ~obs s words f =
  Obs.set_enabled obs;
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  add s (now () -. t0);
  words := !words +. (Gc.minor_words () -. w0);
  Obs.set_enabled true;
  r

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Output of traced runs: a Chrome trace per run, next to (never inside)
   the benchmark's sources. *)
let out_dir = ".perfbench-out"

let out_path file =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir file

let write_out file contents =
  let path = out_path file in
  Obs.Json.write_raw path contents;
  Printf.printf "wrote:       %s\n" path

let write_trace ~workload ~seed json =
  let path = out_path (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Obs.Json.write_file path json;
  Printf.printf "trace:       %s (%d events)\n" path (Obs.Trace.event_count json)
