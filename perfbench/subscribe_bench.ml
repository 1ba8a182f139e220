(* subscribe-churn: XMark documents arrive as XML text and are matched
   against a churning population of standing queries; register and
   unregister events land between documents at fixed epochs, as
   [Serve.Ingest] applies them.  One operation is one document: parse,
   seal, match. *)

module Engine = Treequery.Engine
module Tree = Treekit.Tree
module Nodeset = Treekit.Nodeset
module Index = Subscribe.Index
module Workload = Serve.Workload

let n_events = 10_000
let churn = 0.2
let docs = 32 (* per round *)
let epochs = 16 (* [Serve.Ingest]'s rule: min docs 16 *)
let scale = 4
let tail = 0.9
let setup_reps = 10 (* per round *)

type inputs = {
  stream : Workload.registration_event array;
  sources : string array;  (** registration shape [i] as text *)
  trees : Tree.t array;  (** the generator's documents, used only by the checks *)
  texts : string array;  (** what the program receives *)
}

let make_inputs ~seed =
  let stream =
    Array.of_list
      (Workload.registrations_split ~seed ~shapes:n_events ~count:n_events ~churn)
  in
  let n_register =
    Array.fold_left
      (fun acc -> function Workload.Register _ -> acc + 1 | Workload.Unregister _ -> acc)
      0 stream
  in
  (* the registration catalogue and the documents are fixed; the seed
     draws the churn stream, i.e. which registrations come and go when *)
  let shapes =
    Workload.shapes ~rng:(Random.State.make [| Serve_bench.catalogue_seed; 0x5b5 |])
      ~count:n_register
  in
  let trees =
    Array.init docs (fun i ->
        Treekit.Generator.xmark ~rng:(Random.State.make [| Serve_bench.doc_seed; i |]) ~scale ())
  in
  {
    stream;
    sources = Array.map (fun (s : Workload.shape) -> s.Workload.source) shapes;
    trees;
    texts = Array.map Treekit.Xml.to_string trees;
  }

(* One round: a fresh index, then per epoch its slice of the event
   stream followed by its documents. *)
let round_plan f_events f_doc =
  let applied = ref 0 in
  for e = 0 to epochs - 1 do
    let lo = e * docs / epochs and hi = (e + 1) * docs / epochs in
    let upto = hi * n_events / docs in
    f_events !applied upto;
    applied := upto;
    for d = lo to hi - 1 do
      f_doc d
    done
  done

type state = { queries : Engine.query array; index : Index.t; session : Index.session }

(* Parse every registration's query text and build an empty index and
   its matching session. *)
let setup inputs =
  let queries = Array.map Serve_bench.parse_query inputs.sources in
  let index = Index.create () in
  { queries; index; session = Index.session index }

let apply st = function
  | Workload.Register { id; shape } -> ignore (Index.register st.index ~id st.queries.(shape))
  | Workload.Unregister { id } -> ignore (Index.unregister st.index ~id)

let load text =
  let tree = Treekit.Xml.parse text in
  Tree.seal tree;
  tree

(* ------------------------------------------------------------------ *)
(* Checks: each document's fired set against the live registrations
   whose query holds when evaluated one at a time by the naive
   evaluators. *)

let holds (q : Engine.query) tree =
  match q with
  | Engine.Xpath_query p -> not (Nodeset.is_empty (Xpath.Semantics.query tree p))
  | Engine.Cq_query c -> Cqtree.Naive.boolean c tree
  | _ -> failwith "reference: unexpected query language"

let expected inputs =
  let queries = Array.map Serve_bench.parse_query inputs.sources in
  let live = Hashtbl.create 8192 in
  let memo = Hashtbl.create 65536 in
  let out = Array.make docs [] in
  round_plan
    (fun lo hi ->
      for i = lo to hi - 1 do
        match inputs.stream.(i) with
        | Workload.Register { id; shape } -> Hashtbl.replace live id shape
        | Workload.Unregister { id } -> Hashtbl.remove live id
      done)
    (fun d ->
      let fired =
        Hashtbl.fold
          (fun id shape acc ->
            let h =
              match Hashtbl.find_opt memo (d, shape) with
              | Some h -> h
              | None ->
                let h = holds queries.(shape) inputs.trees.(d) in
                Hashtbl.add memo (d, shape) h;
                h
            in
            if h then id :: acc else acc)
          live []
      in
      out.(d) <- List.sort compare fired);
  out

type tally = (int * int list, int) Hashtbl.t

let note (tally : tally) d fired =
  let key = (d, fired) in
  Hashtbl.replace tally key (1 + Option.value ~default:0 (Hashtbl.find_opt tally key))

let check expected (tally : tally) =
  Hashtbl.fold (fun (d, fired) n failed -> if fired = expected.(d) then failed else failed + n) tally 0

(* ------------------------------------------------------------------ *)

let describe inputs =
  let sizes = Array.map Tree.size inputs.trees in
  Printf.printf "workload:    subscribe-churn (closed loop, 1 client, 1 domain)\n";
  Printf.printf "documents:   %d per round, XMark scale %d, %d-%d nodes (%d in all)\n" docs
    scale (Array.fold_left min max_int sizes) (Array.fold_left max 0 sizes)
    (Array.fold_left ( + ) 0 sizes);
  Printf.printf "churn:       %d events per round (churn %g, %d registrations), %d epochs\n"
    n_events churn (Array.length inputs.sources) epochs;
  Printf.printf "round:       %d set-ups, then the events and documents\n" setup_reps

(* Whole rounds until [seconds] have passed, each a fresh set-up and
   then the churn stream and documents, with [Obs] off as [treequery
   subscribe] runs by default.  Every document's latency, every round's
   rate (set-up excluded), every set-up's time, and the heap over the
   first [Measure.heap_rounds] rounds' serving. *)
let run_e2e ~seed ~seconds =
  let inputs = make_inputs ~seed in
  describe inputs;
  let tally = Hashtbl.create 64 in
  let lat = Measure.samples () and setups = ref [] and rates = ref [] in
  let last = ref None and elapsed = ref 0.0 and rounds = ref 0 in
  let heap = Measure.watch_heap () in
  while !rounds < Measure.heap_rounds || !elapsed < seconds do
    last := None;
    let st = Measure.setup_round setup_reps setups (fun () -> setup inputs) in
    if !rounds < Measure.heap_rounds then Measure.resume_heap heap;
    let t_round = Measure.now () in
    round_plan
      (fun lo hi ->
        for i = lo to hi - 1 do
          apply st inputs.stream.(i)
        done)
      (fun d ->
        let t0 = Measure.now () in
        let fired = Index.match_tree st.session (load inputs.texts.(d)) in
        Measure.add lat (Measure.now () -. t0);
        Measure.sample_heap heap;
        note tally d fired);
    let dt = Measure.now () -. t_round in
    elapsed := !elapsed +. dt;
    rates := (float_of_int docs /. dt) :: !rates;
    incr rounds;
    Measure.pause_heap heap;
    last := Some st
  done;
  let failed = check (expected inputs) tally in
  let metrics =
    Measure.end_to_end ~setups:!setups ~rates:!rates ~lat ~tail
      ~heap_mb:(Measure.heap_peak_mb heap)
  in
  let st = Option.get !last in
  Printf.printf "live:        %d subscriptions at round end, classes %s\n" (Index.live st.index)
    (String.concat ", "
       (List.map (fun (c, n) -> Printf.sprintf "%s %d" c n) (Index.class_counts st.index)));
  (Measure.count lat, failed, metrics)

(* Traced run: rounds for [seconds], each a fresh set-up and then the
   churn stream and documents, each document matched one of three ways
   in turn — with [Obs] off (as the end-to-end run matches: GC figures),
   with [Obs] on, and through the ledger (see [Serve_bench.run_traced]). *)
let run_traced ~seed ~seconds =
  let inputs = make_inputs ~seed in
  describe inputs;
  let expected = expected inputs in
  Obs.set_enabled true;
  Obs.reset ();
  let off = Measure.samples () and on = Measure.samples () in
  let off_words = ref 0.0 and on_words = ref 0.0 and tally = Hashtbl.create 64 in
  let load_t = ref 0.0 and matching = ref 0.0 and churn_t = ref 0.0 in
  let n_docs = ref 0 and n_ev = ref 0 and fired = ref 0 and general = ref 0 in
  let sax = ref 0 and active = ref 0 and wrong = ref 0 in
  let layer id name f =
    Obs.Span.with_ ~attrs:[ ("document", Obs.Int id) ] name (fun () -> Measure.timed f)
  in
  let ledger_doc st id d =
    Obs.Span.with_ ~attrs:[ ("document", Obs.Int id) ] "document" @@ fun () ->
    let tree, t = layer id "treekit.load" (fun () -> load inputs.texts.(d)) in
    load_t := !load_t +. t;
    general :=
      !general + Option.value ~default:0 (List.assoc_opt "general" (Index.class_counts st.index));
    let (f, profile), t =
      layer id "subscribe.match" (fun () ->
          Obs.Scope.collect "match" (fun () -> Index.match_tree st.session tree))
    in
    matching := !matching +. t;
    let counter c = Option.value ~default:0 (List.assoc_opt c profile.Obs.profile_counters) in
    sax := !sax + counter "sax_events";
    active := !active + counter "subscribe_active_states";
    fired := !fired + List.length f;
    if f <> expected.(d) then incr wrong;
    incr n_docs
  in
  let major0 = Measure.major_collections () in
  let sink = Obs.Trace.start_stream () in
  let trace = ref None in
  let t_start = Measure.now () and rounds = ref 0 in
  while !rounds = 0 || Measure.now () -. t_start < seconds do
    let st = setup inputs in
    round_plan
      (fun lo hi ->
        let (), t =
          layer (-1) "subscribe.churn" (fun () ->
              for i = lo to hi - 1 do
                apply st inputs.stream.(i)
              done)
        in
        churn_t := !churn_t +. t;
        n_ev := !n_ev + (hi - lo))
      (fun d ->
        let id = (!rounds * docs) + d in
        let op () = Index.match_tree st.session (load inputs.texts.(d)) in
        match id mod 3 with
        | 0 -> note tally d (Measure.op ~obs:false off off_words op)
        | 1 -> note tally d (Measure.op ~obs:true on on_words op)
        | _ -> ledger_doc st id d);
    (* the Chrome trace keeps the first round *)
    if !trace = None then trace := Some (Obs.Trace.stop_stream sink);
    incr rounds;
    Obs.reset ()
  done;
  let major = Measure.major_collections () - major0 in
  Obs.set_enabled false;
  Measure.write_trace ~workload:"subscribe-churn" ~seed (Option.get !trace);
  let t = Layers.create () in
  let per_doc x = x /. float_of_int !n_docs in
  let per_doc_i x = per_doc (float_of_int x) in
  Layers.set t "treekit.load_ms" (1e3 *. per_doc !load_t *. float_of_int docs);
  Layers.set t "treekit.load_ms_per_doc" (1e3 *. per_doc !load_t);
  Layers.set t "subscribe.match_ms_per_doc" (1e3 *. per_doc !matching);
  Layers.set t "subscribe.churn_us_per_event" (1e6 *. !churn_t /. float_of_int !n_ev);
  Layers.set t "subscribe.sax_events_per_doc" (per_doc_i !sax);
  Layers.set t "subscribe.active_states_per_doc" (per_doc_i !active);
  Layers.set t "subscribe.general_runs_per_doc" (per_doc_i !general);
  Layers.set t "subscribe.fired_per_doc" (per_doc_i !fired);
  Layers.set_common t ~off ~on ~minor_words_per_op:(!off_words /. float_of_int (Measure.count off))
    ~major ~rounds:!rounds ~rows_per_op:(per_doc (!load_t +. !matching));
  ( Measure.count off + Measure.count on + !n_docs,
    check expected tally + !wrong,
    Layers.metrics t )
