(* The three serve workloads: one client, closed loop, every request one
   [Serve.Server.run] call over the program's real serving path. *)

module Engine = Treequery.Engine
module Tree = Treekit.Tree
module Nodeset = Treekit.Nodeset
module Server = Serve.Server
module Plan_cache = Serve.Plan_cache
module Workload = Serve.Workload
module Cost_store = Telemetry.Cost_store
module Flight_recorder = Telemetry.Flight_recorder

type popularity = Uniform | Zipf of float

type reference =
  | Naive  (** [Xpath.Semantics] / [Cqtree.Naive] *)
  | Second_technique  (** [Engine.prepare_with] another strategy *)

type spec = {
  scale : int;  (** XMark scale of the served document *)
  nshapes : int;
  capacity : int;  (** plan-cache entries *)
  popularity : popularity;
  round : int;  (** requests per round *)
  auto : bool;  (** [--strategy auto]: the adaptive optimizer routes *)
  warm : bool;  (** set-up fills the plan cache with every shape *)
  reference : reference;
  setup_reps : int;  (** set-ups per round *)
}

(* The tail percentile of every serve workload.  The highest percentile
   with ten samples beyond it (p99.9 and above here) was not steady
   between runs of one seed (see the README). *)
let tail = 0.99

let specs =
  [
    ( "serve-hot",
      { scale = 512; nshapes = 100; capacity = 128; popularity = Uniform;
        round = 2000; auto = false; warm = true; reference = Second_technique;
        setup_reps = 2 } );
    ( "serve-adhoc",
      { scale = 16; nshapes = 2000; capacity = 128; popularity = Zipf 1.2;
        round = 20000; auto = false; warm = false; reference = Naive;
        setup_reps = 4 } );
    ( "serve-auto",
      { scale = 16; nshapes = 400; capacity = 4096; popularity = Uniform;
        round = 4000; auto = true; warm = true; reference = Naive;
        setup_reps = 10 } );
  ]

(* The served document and the shape catalogue are the same for every
   seed (the document is the generator's default: 761 nodes at scale 16,
   13,738 at scale 512).  The seed draws the request stream: which
   shapes are requested, how often and in what order.  Drawing the
   catalogue from the seed as well makes the mean cost of a request
   depend on a few expensive shapes, which moved throughput by a fifth
   between seeds. *)
let doc_seed = 42
let catalogue_seed = 7

type inputs = {
  doc : Tree.t;  (** the generator's tree, used only by the checks *)
  text : string;  (** what the program receives *)
  sources : string array;  (** query shapes as text *)
  stream : int array;  (** one round of requests, as shape indices *)
}

let make_inputs spec ~seed =
  let doc = Treekit.Generator.xmark ~seed:doc_seed ~scale:spec.scale () in
  let shapes =
    Workload.shapes ~rng:(Random.State.make [| catalogue_seed |]) ~count:spec.nshapes
  in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let n = spec.nshapes in
  let stream =
    match spec.popularity with
    | Uniform ->
      (* every shape equally often, in a seeded order *)
      let a = Array.init spec.round (fun i -> i mod n) in
      for i = spec.round - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      a
    | Zipf s ->
      (* shape i has popularity rank i + 1; the catalogue comes out of
         the generator in random order, so rank is independent of cost *)
      let cdf = Array.make n 0.0 in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
        cdf.(i) <- !acc
      done;
      Array.init spec.round (fun _ ->
          let u = Random.State.float rng !acc in
          let lo = ref 0 and hi = ref (n - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if cdf.(mid) < u then lo := mid + 1 else hi := mid
          done;
          !lo)
  in
  {
    doc;
    text = Treekit.Xml.to_string doc;
    sources = Array.map (fun (s : Workload.shape) -> s.Workload.source) shapes;
    stream;
  }

(* ------------------------------------------------------------------ *)
(* Program state *)

type state = {
  tree : Tree.t;
  shapes : Workload.shape array;
  cache : Plan_cache.t;
  store : Cost_store.t;
  recorder : Flight_recorder.t;
  optimizer : Optimizer.t option;
  cfg : Server.config;
}

let parse_query source =
  if String.length source > 0 && source.[0] = '/' then Engine.parse_xpath source
  else Engine.parse_cq source

(* Load the document from its text, seal it, parse every shape and
   build the serving state: plan cache, cost store, flight recorder and
   (under [auto]) a cold optimizer; [warm] also plans every shape. *)
let setup spec ~seed inputs ~warm =
  let tree = Treekit.Xml.parse inputs.text in
  Tree.seal tree;
  let shapes =
    Array.map (fun source -> { Workload.source; query = parse_query source }) inputs.sources
  in
  let cache = Plan_cache.create ~capacity:spec.capacity () in
  let store = Cost_store.create () in
  let recorder = Flight_recorder.create () in
  let optimizer = if spec.auto then Some (Optimizer.create ~seed ~store ()) else None in
  let cfg = Server.config ~cache ~telemetry:store ~recorder ?optimizer () in
  if warm then
    Array.iter (fun (s : Workload.shape) -> ignore (Plan_cache.find cache s.Workload.query)) shapes;
  { tree; shapes; cache; store; recorder; optimizer; cfg }

(* ------------------------------------------------------------------ *)
(* Checks, computed apart from the serving path *)

let reference_answer spec doc (q : Engine.query) =
  match (spec.reference, q) with
  | Naive, Engine.Xpath_query p -> Xpath.Semantics.query doc p
  | Naive, Engine.Cq_query c -> Cqtree.Naive.unary c doc
  | Naive, _ -> failwith "reference: unexpected query language"
  | Second_technique, _ ->
    let default = Engine.plan q in
    let alt =
      List.find
        (fun s -> s <> default && s <> Engine.Xpath_fo2)
        (Engine.strategies q)
    in
    (Engine.prepare_with alt q).Engine.exec doc

(* Per-request outcomes, tallied by (shape, clean, answer cardinality):
   [Server.run] returns counts, not answer sets, so each served request
   is checked by its cardinality, and the plans that produced them are
   checked set-for-set in [check]. *)
type tally = (int * bool * int, int) Hashtbl.t

let note (tally : tally) shape (s : Server.stats) =
  let clean =
    s.Server.served = 1 && s.Server.errors = 0 && s.Server.rejected = 0
    && s.Server.shed = 0
  in
  let key = (shape, clean, s.Server.result_nodes) in
  Hashtbl.replace tally key (1 + Option.value ~default:0 (Hashtbl.find_opt tally key))

(* Failed requests: unclean, or a cardinality other than the
   reference's, or served from a plan whose answer set differs from the
   reference (every arm of the plan under [auto], so an answer cannot
   depend on the optimizer's pick). *)
let check spec st refs (tally : tally) =
  let plan_ok = Hashtbl.create 64 in
  let plans_agree shape =
    match Hashtbl.find_opt plan_ok shape with
    | Some ok -> ok
    | None ->
      let q = st.shapes.(shape).Workload.query in
      let agrees (p : Engine.prepared) = Nodeset.equal (p.Engine.exec st.tree) refs.(shape) in
      let ok =
        if spec.auto then
          List.for_all (fun s -> agrees (Engine.prepare_with s q)) (Engine.strategies q)
        else agrees (snd (Plan_cache.find st.cache q))
      in
      Hashtbl.add plan_ok shape ok;
      ok
  in
  Hashtbl.fold
    (fun (shape, clean, card) n failed ->
      if clean && card = Nodeset.cardinal refs.(shape) && plans_agree shape then failed
      else failed + n)
    tally 0

(* ------------------------------------------------------------------ *)
(* The measured loop *)

let references spec inputs =
  Array.map (fun src -> reference_answer spec inputs.doc (parse_query src)) inputs.sources

let describe name spec inputs =
  Printf.printf "workload:    %s (closed loop, 1 client, 1 domain)\n" name;
  Printf.printf "document:    XMark scale %d, %d nodes, %d bytes of XML\n" spec.scale
    (Tree.size inputs.doc) (String.length inputs.text);
  Printf.printf "shapes:      %d, %s popularity, %d-entry plan cache%s, %s planner\n"
    spec.nshapes
    (match spec.popularity with
     | Uniform -> "uniform"
     | Zipf s -> Printf.sprintf "Zipf(%g)" s)
    spec.capacity
    (if spec.warm then " planned in set-up" else "")
    (if spec.auto then "adaptive (auto)" else "default");
  Printf.printf "round:       %d set-ups, then %d requests\n" spec.setup_reps spec.round

(* Whole rounds until [seconds] have passed, each a fresh set-up and
   then the request stream, served the way [treequery serve] runs with
   telemetry attached: [Obs] enabled (the cost store and flight recorder
   are fed from each request's profile) and reset at the start, as one
   invocation of the command.  Every request's latency, every round's
   rate (set-up excluded), every set-up's time, and the heap over the
   first [Measure.heap_rounds] rounds' serving. *)
let run_e2e name spec ~seed ~seconds =
  let inputs = make_inputs spec ~seed in
  describe name spec inputs;
  let reqs =
    Array.mapi (fun i shape -> [ { Workload.id = i; shape; arrival = None } ]) inputs.stream
  in
  let tally = Hashtbl.create 1024 in
  let lat = Measure.samples () and setups = ref [] and rates = ref [] in
  let last = ref None and elapsed = ref 0.0 and rounds = ref 0 in
  let heap = Measure.watch_heap () in
  Obs.set_enabled true;
  while !rounds < Measure.heap_rounds || !elapsed < seconds do
    last := None;
    Obs.reset ();
    let st =
      Measure.setup_round spec.setup_reps setups (fun () ->
          setup spec ~seed inputs ~warm:spec.warm)
    in
    if !rounds < Measure.heap_rounds then Measure.resume_heap heap;
    let t_round = Measure.now () in
    Array.iteri
      (fun i req ->
        let t0 = Measure.now () in
        let s = Server.run st.cfg st.tree st.shapes req in
        Measure.add lat (Measure.now () -. t0);
        Measure.sample_heap heap;
        note tally inputs.stream.(i) s)
      reqs;
    let dt = Measure.now () -. t_round in
    elapsed := !elapsed +. dt;
    rates := (float_of_int (Array.length reqs) /. dt) :: !rates;
    incr rounds;
    Measure.pause_heap heap;
    last := Some st
  done;
  Obs.set_enabled false;
  Obs.reset ();
  let failed = check spec (Option.get !last) (references spec inputs) tally in
  let metrics =
    Measure.end_to_end ~setups:!setups ~rates:!rates ~lat ~tail
      ~heap_mb:(Measure.heap_peak_mb heap)
  in
  (Measure.count lat, failed, metrics)

(* ------------------------------------------------------------------ *)
(* The layer ledger: the steps of [Server.run]'s sequential path, each
   called through the layer's public function and timed, so the rows
   can be compared with a traced [Server.run] of the same stream. *)

type ledger = {
  mutable requests : int;
  mutable canon : float;
  mutable hits : int;
  mutable hit_time : float;
  mutable misses : int;
  mutable miss_time : float;
  mutable warm_misses : int;  (** set-up's plan-cache fills, not a request's *)
  mutable warm_time : float;
  mutable evictions : int;
  mutable optimizer : float;
  mutable explorations : int;
  mutable explore : float;
  mutable admission : float;
  engine : (string, float * int) Hashtbl.t;
  work : (string, int) Hashtbl.t;
  mutable telemetry : float;
  mutable result : float;
  mutable result_nodes : int;
  mutable wrong : int;
}

let ledger () =
  {
    requests = 0; canon = 0.0; hits = 0; hit_time = 0.0; misses = 0;
    miss_time = 0.0; warm_misses = 0; warm_time = 0.0; evictions = 0; optimizer = 0.0; explorations = 0;
    explore = 0.0; admission = 0.0; engine = Hashtbl.create 8;
    work = Hashtbl.create 8; telemetry = 0.0; result = 0.0; result_nodes = 0;
    wrong = 0;
  }

let layer id name f =
  Obs.Span.with_ ~attrs:[ ("request", Obs.Int id) ] name (fun () -> Measure.timed f)

(* [Plan_cache.find] canonicalises the query itself.  The canonicalise
   row times [Engine.canonical] on the same query just before the
   lookup; it is a part of the find row, not added to it.  [warm]
   lookups are set-up's, timed apart from the requests'. *)
let ledger_find ?(warm = false) lg id cache q =
  let _, t_canon = layer id "treequery.canonical" (fun () -> Engine.canonical q) in
  let (outcome, p), t_find = layer id "serve.plan_cache" (fun () -> Plan_cache.find cache q) in
  (match outcome with
   | _ when warm ->
     lg.warm_misses <- lg.warm_misses + 1;
     lg.warm_time <- lg.warm_time +. t_find
   | `Hit ->
     lg.canon <- lg.canon +. t_canon;
     lg.hits <- lg.hits + 1;
     lg.hit_time <- lg.hit_time +. t_find
   | `Miss ->
     lg.canon <- lg.canon +. t_canon;
     lg.misses <- lg.misses + 1;
     lg.miss_time <- lg.miss_time +. t_find);
  p

let ledger_request lg st (shape : Workload.shape) ~ref_answer id =
  let tree = st.tree in
  Obs.Span.with_ ~attrs:[ ("request", Obs.Int id) ] "request" @@ fun () ->
  let p = ledger_find lg id st.cache shape.Workload.query in
  let p, exploring =
    match st.optimizer with
    | None -> (p, false)
    | Some opt ->
      let d, t =
        layer id "optimizer.decide" (fun () ->
            let pinned =
              Option.map
                (fun pk -> pk.Plan_cache.pick_strategy)
                (Plan_cache.pick st.cache ~canon:p.Engine.canon)
            in
            Optimizer.decide opt ?pinned tree p)
      in
      lg.optimizer <- lg.optimizer +. t;
      (d.Optimizer.d_prepared, d.Optimizer.d_reason = Optimizer.Exploring)
  in
  let bound, t = layer id "serve.admission" (fun () -> Server.naive_bound p tree) in
  lg.admission <- lg.admission +. t;
  let strategy = Engine.strategy_name p.Engine.strategy in
  let tech = Layers.technique p.Engine.strategy in
  let t_exec = ref 0.0 in
  let answer, profile =
    Obs.Span.with_ ~attrs:[ ("request", Obs.Int id) ] ("engine." ^ tech) (fun () ->
        Obs.Scope.collect
          ~attrs:[ ("fingerprint", Obs.Str p.Engine.fp); ("strategy", Obs.Str strategy) ]
          (Printf.sprintf "request-%d" id)
          (fun () ->
            let a, dt = Measure.timed (fun () -> p.Engine.exec tree) in
            t_exec := dt;
            a))
  in
  let ms, runs = Option.value ~default:(0.0, 0) (Hashtbl.find_opt lg.engine tech) in
  Hashtbl.replace lg.engine tech (ms +. !t_exec, runs + 1);
  if exploring then lg.explore <- lg.explore +. !t_exec;
  List.iter
    (fun (c, d) ->
      if List.mem_assoc c Layers.work_counters then
        Hashtbl.replace lg.work c (d + Option.value ~default:0 (Hashtbl.find_opt lg.work c)))
    profile.Obs.profile_counters;
  (* feedback, in [Server.run]'s order: cost store, optimizer, recorder *)
  let latency =
    if profile.Obs.profile_duration > 0.0 then profile.Obs.profile_duration else !t_exec
  in
  let observed =
    float_of_int
      (List.fold_left (fun acc (_, d) -> if d > 0 then acc + d else acc) 0
         profile.Obs.profile_counters)
  in
  let violation, t =
    layer id "telemetry.observe" (fun () ->
        Cost_store.observe st.store ~fingerprint:p.Engine.fp ~strategy ~predicted:bound
          ~observed ~latency ~counters:profile.Obs.profile_counters)
  in
  lg.telemetry <- lg.telemetry +. t;
  (match st.optimizer with
   | None -> ()
   | Some opt ->
     let (), t =
       layer id "optimizer.observe" (fun () ->
           match
             Optimizer.observe opt ~canon:p.Engine.canon ~strategy ~latency ~cost:observed
           with
           | Some (strategy, cost) ->
             Plan_cache.set_pick st.cache ~canon:p.Engine.canon ~strategy ~cost
           | None -> ())
     in
     lg.optimizer <- lg.optimizer +. t);
  let (), t =
    layer id "telemetry.record" (fun () ->
        if violation then Flight_recorder.trigger st.recorder "residual-violation";
        Flight_recorder.push st.recorder
          {
            Flight_recorder.id;
            fingerprint = p.Engine.fp;
            strategy;
            attrs = profile.Obs.profile_attrs;
            counters = profile.Obs.profile_counters;
            latency;
            predicted = bound;
            observed;
            outcome = (if violation then Flight_recorder.Violation else Flight_recorder.Served);
          })
  in
  lg.telemetry <- lg.telemetry +. t;
  let card, t = layer id "result" (fun () -> Nodeset.cardinal answer) in
  lg.result <- lg.result +. t;
  lg.result_nodes <- lg.result_nodes + card;
  lg.requests <- lg.requests + 1;
  if not (Nodeset.equal answer ref_answer) then lg.wrong <- lg.wrong + 1

(* The sum of the ledger's rows, seconds per request. *)
let rows_per_request lg =
  let engine = Hashtbl.fold (fun _ (ms, _) acc -> acc +. ms) lg.engine 0.0 in
  (lg.hit_time +. lg.miss_time +. lg.optimizer +. lg.admission +. engine
   +. lg.telemetry +. lg.result)
  /. float_of_int lg.requests

(* Traced run: whole rounds for [seconds], each a fresh set-up (its
   plan-cache fills timed through the ledger) and then the request
   stream, each request served one of three ways in turn — [Server.run]
   with [Obs] off (the overhead base), [Server.run] with [Obs] on, as
   the end-to-end run serves (GC figures; the time the ledger's rows
   must add up to), and through the ledger — so all three see the same
   host conditions and the same shape mix. *)
let run_traced name spec ~seed ~seconds =
  let inputs = make_inputs spec ~seed in
  describe name spec inputs;
  let refs = references spec inputs in
  let lg = ledger () in
  let (), load_s = Measure.timed (fun () -> Tree.seal (Treekit.Xml.parse inputs.text)) in
  let off = Measure.samples () and on = Measure.samples () in
  let off_words = ref 0.0 and on_words = ref 0.0 and tally = Hashtbl.create 1024 in
  Obs.set_enabled true;
  Obs.reset ();
  let major0 = Measure.major_collections () in
  let sink = Obs.Trace.start_stream () in
  let trace = ref None and last = ref None in
  let t_start = Measure.now () and rounds = ref 0 in
  while !rounds = 0 || Measure.now () -. t_start < seconds do
    let st = setup spec ~seed inputs ~warm:false in
    if spec.warm then
      Array.iteri
        (fun i (s : Workload.shape) ->
          ignore (ledger_find ~warm:true lg (-1 - i) st.cache s.Workload.query))
        st.shapes;
    Array.iteri
      (fun i shape ->
        let id = (!rounds * spec.round) + i in
        let serve () =
          Server.run st.cfg st.tree st.shapes [ { Workload.id; shape; arrival = None } ]
        in
        (match id mod 3 with
         | 0 -> note tally shape (Measure.op ~obs:false off off_words serve)
         | 1 -> note tally shape (Measure.op ~obs:true on on_words serve)
         | _ -> ledger_request lg st st.shapes.(shape) ~ref_answer:refs.(shape) id);
        (* the Chrome trace keeps the first 3,000 requests *)
        if id = 2999 then trace := Some (Obs.Trace.stop_stream sink))
      inputs.stream;
    lg.evictions <- lg.evictions + (Plan_cache.stats st.cache).Plan_cache.evictions;
    (* the optimizer starts cold each round: its own count is exact *)
    Option.iter
      (fun opt -> lg.explorations <- lg.explorations + (Optimizer.stats opt).Optimizer.explorations)
      st.optimizer;
    incr rounds;
    last := Some st;
    Obs.reset ()
  done;
  let major = Measure.major_collections () - major0 in
  Obs.set_enabled false;
  let trace = match !trace with Some t -> t | None -> Obs.Trace.stop_stream sink in
  Measure.write_trace ~workload:name ~seed trace;
  let st = Option.get !last in
  let failed = check spec st refs tally in
  (* the last round's converged picks, one line per shape, so two runs'
     routing can be compared *)
  Option.iter
    (fun opt ->
      Measure.write_out (Printf.sprintf "picks-%s-%d.txt" name seed)
        (String.concat ""
           (List.filter_map
              (fun (r : Optimizer.entry_report) ->
                match r.Optimizer.r_choice with
                | Some c when r.Optimizer.r_converged ->
                  Some (Printf.sprintf "%s %s\n" r.Optimizer.r_canon c)
                | _ -> None)
              (Optimizer.report opt))))
    st.optimizer;
  let t = Layers.create () in
  let per_req x = x /. float_of_int lg.requests in
  (* a third of each round goes through the ledger; its tallies are
     scaled to a whole round *)
  let per_round x = x *. float_of_int spec.round /. float_of_int lg.requests in
  Layers.set t "treekit.load_ms" (1e3 *. load_s);
  Layers.set t "treekit.load_ms_per_doc" (1e3 *. load_s);
  Layers.set t "treequery.canon_us_per_req" (1e6 *. per_req lg.canon);
  Layers.set t "plan_cache.find_us_per_hit" (1e6 *. Layers.ratio lg.hit_time (float_of_int lg.hits));
  Layers.set t "plan_cache.hit_ratio"
    (Layers.ratio (float_of_int lg.hits) (float_of_int (lg.hits + lg.misses)));
  Layers.set t "plan_cache.prepare_ms_per_miss"
    (1e3
    *. Layers.ratio (lg.miss_time +. lg.warm_time) (float_of_int (lg.misses + lg.warm_misses)));
  Layers.set t "plan_cache.evictions" (float_of_int lg.evictions /. float_of_int !rounds);
  Layers.set t "optimizer.decide_us_per_req" (1e6 *. per_req lg.optimizer);
  Layers.set t "optimizer.explorations" (float_of_int lg.explorations /. float_of_int !rounds);
  Layers.set t "optimizer.explore_ms" (1e3 *. per_round lg.explore);
  Layers.set t "serve.admission_us_per_req" (1e6 *. per_req lg.admission);
  Hashtbl.iter
    (fun tech (s, runs) ->
      Layers.set t ("engine." ^ tech ^ ".ms") (1e3 *. per_round s);
      Layers.set t ("engine." ^ tech ^ ".runs") (per_round (float_of_int runs)))
    lg.engine;
  List.iter
    (fun (c, m) ->
      Layers.set t m (per_req (float_of_int (Option.value ~default:0 (Hashtbl.find_opt lg.work c)))))
    Layers.work_counters;
  Layers.set t "telemetry.observe_us_per_req" (1e6 *. per_req lg.telemetry);
  Layers.set t "result.us_per_req" (1e6 *. per_req lg.result);
  Layers.set t "result.nodes_per_req" (per_req (float_of_int lg.result_nodes));
  Layers.set_common t ~off ~on ~minor_words_per_op:(!on_words /. float_of_int (Measure.count on))
    ~major ~rounds:!rounds ~rows_per_op:(rows_per_request lg);
  let attempted = Measure.count off + Measure.count on + lg.requests in
  (attempted, failed + lg.wrong, Layers.metrics t)
