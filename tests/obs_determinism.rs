//! The observability layer's side of the determinism contract
//! (DESIGN.md §3.3): recording and exporting traces is strictly
//! observational. Evaluation output must be byte-identical whether
//! `NLI_TRACE` is set or not, at any worker count, and the deterministic
//! sections of the trace must replay exactly across identical runs.
//!
//! Every test here touches the process-global registry, so the tests
//! serialize on one mutex — the workloads themselves still fan out over
//! the worker pool under test.

use nli_core::{obs, with_threads, Prng};
use nli_data::schema_gen::{generate_database, DbGenConfig};
use nli_data::spider_like::{self, SpiderConfig};
use nli_metrics::{evaluate_sql, SqlScores};
use nli_sql::SqlEngine;
use nli_text2sql::{GrammarConfig, GrammarParser};
use std::collections::BTreeMap;
use std::sync::Mutex;

static GLOBAL_REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn sql_bench() -> nli_data::SqlBenchmark {
    spider_like::build(&SpiderConfig {
        n_databases: 9,
        n_dev_databases: 2,
        n_train: 12,
        n_dev: 40,
        ..Default::default()
    })
}

/// Zero the one deliberately nondeterministic field (wall clock), exactly
/// as `tests/parallel_determinism.rs` does.
fn zt(mut s: SqlScores) -> SqlScores {
    s.avg_micros = 0.0;
    s
}

/// Per-key increase between two snapshots of a monotone counter map.
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

fn span_counts(snap: &obs::Snapshot) -> BTreeMap<String, u64> {
    snap.spans
        .iter()
        .map(|(k, h)| (k.clone(), h.count))
        .collect()
}

#[test]
fn tracing_does_not_alter_evaluation_output() {
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    let bench = sql_bench();
    let parser = GrammarParser::new(GrammarConfig::neural());
    let registry = obs::global();
    let trace_path = std::env::temp_dir().join(format!("nli-trace-{}.json", std::process::id()));
    let mut tree_shapes = Vec::new();

    for threads in [1, 4] {
        // Baseline: tracing disabled (no NLI_TRACE, nothing exported).
        std::env::remove_var("NLI_TRACE");
        assert_eq!(obs::export_trace_if_requested().unwrap(), None);
        let baseline = zt(with_threads(threads, || evaluate_sql(&parser, &bench)));

        // Traced run: NLI_TRACE set, span trees recorded, full trace
        // exported afterwards.
        std::env::set_var("NLI_TRACE", &trace_path);
        obs::enable_trace_events_from_env();
        let _ = registry.drain_trace_trees();
        let traced = zt(with_threads(threads, || evaluate_sql(&parser, &bench)));
        let written = obs::export_trace_if_requested().unwrap();
        registry.set_trace_events(false);
        std::env::remove_var("NLI_TRACE");
        let mut shapes: Vec<String> = registry
            .drain_trace_trees()
            .iter()
            .map(|t| t.render(false))
            .collect();
        shapes.sort();
        tree_shapes.push(shapes);

        assert_eq!(
            traced, baseline,
            "exporting a trace changed evaluation output at {threads} workers"
        );
        assert_eq!(traced.row(), baseline.row());
        let trace = std::fs::read_to_string(written.expect("trace path")).unwrap();
        assert!(trace.contains("\"plan_cache.hits\""), "{trace}");
        assert!(trace.contains("\"sql.execute\""), "{trace}");
        assert!(trace.contains("\"eval.sql.examples\""), "{trace}");
    }
    let _ = std::fs::remove_file(&trace_path);
    // Every par item starts a fresh tree, so the multiset of tree shapes
    // does not depend on the worker count.
    assert!(!tree_shapes[0].is_empty());
    assert_eq!(
        tree_shapes[0], tree_shapes[1],
        "trace tree shapes differ between 1 and 4 workers"
    );
}

#[test]
fn deterministic_trace_sections_replay_across_identical_runs() {
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    let bench = sql_bench();
    let parser = GrammarParser::new(GrammarConfig::neural());
    let registry = obs::global();

    // Two identical sequential runs must advance every deterministic
    // counter — and every span count — by exactly the same amount. (At >1
    // workers the parse/plan span counts and the plan-cache hit/miss split
    // may differ by the benign double-compile race, which is why those live
    // in the scheduling section; the sequential oracle has no such race.)
    let s0 = registry.snapshot();
    with_threads(1, || evaluate_sql(&parser, &bench));
    let s1 = registry.snapshot();
    with_threads(1, || evaluate_sql(&parser, &bench));
    let s2 = registry.snapshot();

    let first = delta(&s0.counters, &s1.counters);
    let second = delta(&s1.counters, &s2.counters);
    assert_eq!(first, second, "deterministic counters diverged");
    assert!(
        first.get("eval.sql.examples").copied() == Some(bench.dev.len() as u64),
        "{first:?}"
    );

    let first_spans = delta(&span_counts(&s0), &span_counts(&s1));
    let second_spans = delta(&span_counts(&s1), &span_counts(&s2));
    assert_eq!(first_spans, second_spans, "span counts diverged");
    assert!(first_spans["sql.execute"] > 0, "{first_spans:?}");
}

#[test]
fn parallel_runs_record_pool_and_worker_telemetry() {
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    let bench = sql_bench();
    let parser = GrammarParser::new(GrammarConfig::neural());
    let registry = obs::global();

    let before = registry.snapshot();
    with_threads(4, || evaluate_sql(&parser, &bench));
    let after = registry.snapshot();

    let fanouts = delta(&before.counters, &after.counters);
    assert!(fanouts["par.fanouts"] > 0, "{fanouts:?}");
    assert!(
        fanouts["par.items"] >= bench.dev.len() as u64,
        "{fanouts:?}"
    );
    assert_eq!(after.gauges.get("par.workers"), Some(&4));
    // Per-worker task counters exist for each of the 4 workers and the
    // per-fan-out totals add up to the items dispatched.
    let tasks = delta(&before.scheduling, &after.scheduling);
    let per_worker: u64 = (0..4)
        .map(|w| {
            tasks
                .get(&format!("par.worker.{w}.tasks"))
                .copied()
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(per_worker, fanouts["par.items"], "{tasks:?}");
}

/// The generated retail database and three-table join + aggregate query
/// the `EXPLAIN ANALYZE` determinism tests below run against (same
/// generator arguments as the benchmark baseline emitter).
fn retail_db() -> nli_core::Database {
    let cfg = DbGenConfig {
        min_tables: 3,
        optional_col_p: 1.0,
        rows: (200, 200),
    };
    generate_database(
        nli_data::domains::domain("retail").unwrap(),
        0,
        &cfg,
        &mut Prng::new(42),
    )
}

const THREE_WAY: &str = "SELECT stores.city, SUM(sales.amount) FROM sales \
     JOIN stores ON sales.store_id = stores.id \
     JOIN products ON sales.product_id = products.id \
     WHERE products.price > 50 GROUP BY stores.city \
     ORDER BY SUM(sales.amount) DESC";

#[test]
fn explain_analyze_row_counts_are_identical_across_worker_counts() {
    // The deterministic EXPLAIN ANALYZE render (rows in/out, batches,
    // operator counters; no timings) must be byte-identical at any worker
    // count — instrumented execution sits on the same deterministic
    // runtime the evaluators use.
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    let db = retail_db();
    let engine = SqlEngine::new();
    let stmt = engine.prepare(THREE_WAY, &db.schema).unwrap();
    let render_at = |threads| with_threads(threads, || stmt.explain_analyze(&db).unwrap().render());

    let sequential = render_at(1);
    let parallel = render_at(4);
    assert_eq!(
        sequential, parallel,
        "EXPLAIN ANALYZE diverged across worker counts"
    );
    assert_eq!(sequential, render_at(1), "replay across identical runs");
    // The report actually carries per-operator row flow for the full tree.
    for needle in ["rows_in=", "rows_out=", "HashJoin", "Aggregate", "Scan"] {
        assert!(sequential.contains(needle), "{sequential}");
    }
}

#[test]
fn traced_queries_appear_as_nested_trace_events_in_export() {
    // With NLI_TRACE set, span-tree recording turns on and the export's
    // `trace_events` section carries the per-query trees — including
    // parent/child nesting for spans opened inside an enclosing span.
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    let registry = obs::global();
    let trace_path =
        std::env::temp_dir().join(format!("nli-trace-events-{}.json", std::process::id()));
    std::env::set_var("NLI_TRACE", &trace_path);
    obs::enable_trace_events_from_env();
    let _ = registry.drain_trace_trees(); // discard trees from earlier tests

    let db = retail_db();
    let engine = SqlEngine::new();
    let stmt = engine.prepare(THREE_WAY, &db.schema).unwrap();
    {
        // `sql.execute` nests under this enclosing span on the same thread.
        let _root = registry.span("test.query");
        stmt.execute(&db).unwrap();
    }
    stmt.explain_analyze(&db).unwrap();
    evaluate_sql(&GrammarParser::new(GrammarConfig::neural()), &sql_bench());

    // One primitive times and traces every stage: each traced label has a
    // histogram that counted at least as many entries as it has events.
    let snap = registry.snapshot();
    let mut events: BTreeMap<&str, u64> = BTreeMap::new();
    for e in snap.trace_events.iter().flat_map(|t| &t.events) {
        *events.entry(e.label.as_str()).or_default() += 1;
    }
    for (label, n) in &events {
        let counted = snap.span_count(label).unwrap_or(0);
        assert!(
            counted >= *n,
            "{label}: {n} trace events, {counted} in spans"
        );
    }
    assert!(events.contains_key("eval.sql.example"), "{events:?}");
    assert!(events.contains_key("sql.vectorize"), "{events:?}");

    let written = obs::export_trace_if_requested().unwrap().expect("path");
    registry.set_trace_events(false);
    let _ = registry.drain_trace_trees();
    std::env::remove_var("NLI_TRACE");

    let json = std::fs::read_to_string(written).unwrap();
    assert!(json.contains("\"trace_events\""), "{json}");
    // Root events export with a null parent, nested ones with their
    // parent's id: sql.execute recorded as a child of test.query.
    assert!(
        json.contains("\"parent\": null, \"label\": \"test.query\""),
        "{json}"
    );
    assert!(
        json.contains("\"parent\": 0, \"label\": \"sql.execute\""),
        "{json}"
    );
    assert!(
        json.contains("\"label\": \"sql.explain_analyze\""),
        "{json}"
    );
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn windowed_metrics_stay_out_of_the_deterministic_export() {
    // Windowed histograms are wall-clock driven (rolling 60s rings), so
    // they export in the full snapshot's `windows` section but must be
    // excluded from the deterministic view the golden tests compare.
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    let registry = obs::global();
    let win = registry.windowed_histogram("test.window.metric");
    win.record(150);
    win.record(2_500);

    let snap = registry.snapshot();
    let summary = snap.windows.get("test.window.metric").expect("exported");
    assert!(summary.count >= 2);
    assert!(summary.max_micros >= 2_500);

    let full = snap.to_json();
    let deterministic = snap.deterministic_json();
    assert!(full.contains("\"windows\""), "{full}");
    assert!(full.contains("test.window.metric"), "{full}");
    assert!(
        !deterministic.contains("\"windows\""),
        "windowed metrics leaked into the deterministic export"
    );
    assert!(!deterministic.contains("test.window.metric"));
}

#[test]
fn thread_scoped_capture_bypasses_the_registry_tree_store() {
    // The slow-query capture path (`capture_thread_traces`) must return
    // the profiled query's span trees to its caller *without* leaving
    // them in the registry's bounded store — and it must work with
    // registry tracing disabled, so capturing a slow query never turns
    // global tracing on as a side effect.
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    let registry = obs::global();
    registry.set_trace_events(false);
    let _ = registry.drain_trace_trees();

    let db = retail_db();
    let engine = SqlEngine::new();
    let stmt = engine.prepare(THREE_WAY, &db.schema).unwrap();
    let (rendered, trees) =
        registry.capture_thread_traces(|| stmt.explain_analyze(&db).unwrap().render());
    assert!(rendered.contains("rows_out="), "{rendered}");
    assert!(!trees.is_empty(), "capture returned the profiled spans");
    assert!(
        trees
            .iter()
            .any(|t| t.render(false).contains("sql.explain_analyze")),
        "{trees:?}"
    );
    assert!(
        registry.drain_trace_trees().is_empty(),
        "captured trees must not land in the registry store"
    );
}

#[test]
fn trace_export_bytes_are_stable_for_one_snapshot() {
    // The satellite bugfix, end to end: however metric registration was
    // interleaved across worker threads, one snapshot always renders the
    // same bytes (sorted keys, fixed layout).
    let _serial = GLOBAL_REGISTRY_LOCK.lock().unwrap();
    let bench = sql_bench();
    let parser = GrammarParser::new(GrammarConfig::neural());
    with_threads(4, || evaluate_sql(&parser, &bench));
    let snap = obs::global().snapshot();
    assert_eq!(snap.to_json(), snap.to_json());
    assert_eq!(snap.deterministic_json(), snap.deterministic_json());
    let keys: Vec<&String> = snap.counters.keys().collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "counter keys must export sorted");
}
