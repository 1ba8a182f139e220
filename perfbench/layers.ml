(* The per-layer metrics a traced run prints, in one fixed order.  Every
   workload prints all of them; a layer the workload never enters reads
   0 (see the README's table of which workload moves which layer). *)

let techniques =
  [ "xpath_bottom_up"; "yannakakis"; "arc_consistency"; "rewrite"; "hornsat"; "fo2" ]

(* The engine technique (paper section) a strategy belongs to. *)
let technique (s : Treequery.Engine.strategy) =
  match s with
  | Xpath_bottom_up -> "xpath_bottom_up"
  | Cq_yannakakis -> "yannakakis"
  | Cq_arc_consistency -> "arc_consistency"
  | Cq_rewrite | Positive_rewrite -> "rewrite"
  | Datalog_hornsat | Datalog_fixpoint -> "hornsat"
  | Xpath_fo2 -> "fo2"

(* Engine work counters (Obs counter name, metric name). *)
let work_counters =
  [
    ("nodes_visited", "engine.nodes_visited_per_req");
    ("semijoin_passes", "engine.semijoin_passes_per_req");
    ("hornsat_unit_props", "engine.hornsat_unit_props_per_req");
    ("tuples_materialised", "engine.tuples_materialised_per_req");
    ("arc_revisions", "engine.arc_revisions_per_req");
    ("fo2_rows_materialised", "engine.fo2_rows_per_req");
  ]

let all =
  [
    ("treekit.load_ms", "ms");
    ("treekit.load_ms_per_doc", "ms");
    ("treequery.canon_us_per_req", "us");
    ("plan_cache.find_us_per_hit", "us");
    ("plan_cache.hit_ratio", "ratio");
    ("plan_cache.prepare_ms_per_miss", "ms");
    ("plan_cache.evictions", "count");
    ("optimizer.decide_us_per_req", "us");
    ("optimizer.explorations", "count");
    ("optimizer.explore_ms", "ms");
    ("serve.admission_us_per_req", "us");
  ]
  @ List.concat_map
      (fun t -> [ ("engine." ^ t ^ ".ms", "ms"); ("engine." ^ t ^ ".runs", "count") ])
      techniques
  @ List.map (fun (_, m) -> (m, "count")) work_counters
  @ [
      ("telemetry.observe_us_per_req", "us");
      ("result.us_per_req", "us");
      ("result.nodes_per_req", "count");
      ("serve.unattributed_share", "ratio");
      ("subscribe.match_ms_per_doc", "ms");
      ("subscribe.churn_us_per_event", "us");
      ("subscribe.sax_events_per_doc", "count");
      ("subscribe.active_states_per_doc", "count");
      ("subscribe.general_runs_per_doc", "count");
      ("subscribe.fired_per_doc", "count");
      ("gc.minor_words_per_op", "words");
      ("gc.major_collections", "count");
      ("trace.overhead_share", "ratio");
    ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.mem_assoc name all) then invalid_arg ("Layers.set: " ^ name);
  Hashtbl.replace t name v

let metrics (t : t) =
  List.map
    (fun (name, unit_) ->
      Measure.metric name unit_ (Option.value ~default:0.0 (Hashtbl.find_opt t name)))
    all

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The rows every workload shares, from the traced run's interleaved
   operations with [Obs] off and on, the minor-heap words per operation
   of the kind the end-to-end run serves, and the ledger's rows per
   operation (seconds). *)
let set_common t ~off ~on ~minor_words_per_op ~major ~rounds ~rows_per_op =
  set t "gc.minor_words_per_op" minor_words_per_op;
  set t "gc.major_collections" (ratio (float_of_int major) (float_of_int rounds));
  set t "trace.overhead_share" (ratio (Measure.mean on) (Measure.mean off) -. 1.0);
  set t "serve.unattributed_share" (1.0 -. ratio rows_per_op (Measure.mean on))
