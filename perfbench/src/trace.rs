//! The traced run: the workload's own generated requests replayed
//! in-process through each layer's public functions, with a span around
//! every call. A request's spans are disjoint, so its named layers plus a
//! remainder (glue between the calls, timer reads) add up to the
//! request's traced total; the remainder is reported on its own line and
//! must stay within [`TOLERANCE`] of the total.
//!
//! Layer figures are *mean µs per replayed request*, so they sum;
//! `*_p50_us`/`*_p99_us` figures are per-call percentiles. Every request
//! is replayed twice, on two independent replicas fed the same stream in
//! alternating order: once with spans and once with the spans switched
//! off. The median per-request difference between the two is the
//! tracing overhead.

use crate::gen::{Kind, PoolEntry, Stream, Writer};
use crate::oracle;
use crate::server::ScratchDir;
use crate::stats::{mean, quantile, share};
use nli_core::{Database, ExecutionEngine, NlQuestion, Store};
use nli_server::proto;
use nli_server::{Batcher, DbHandle};
use nli_sql::SqlEngine;
use nli_systems::architectures::wants_chart;
use nli_systems::Session;
use nli_text2sql::{analyze, DialogueParser, GrammarConfig};
use nli_text2vis::VisDialogueParser;
use nli_vql::VisEngine;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Largest |remainder| / total the reconciliation accepts.
pub const TOLERANCE: f64 = 0.05;

/// Requests replayed (after as many warm-up requests).
pub const SQL_REQUESTS: usize = 6000;
pub const ASK_REQUESTS: usize = 1000;
/// `rw_mix`: writes replayed, each followed by two reads.
pub const RW_WRITES: usize = 300;
/// Statements timed both inline and through the batch queue.
pub const HANDOFF_REQUESTS: usize = 2000;

/// The per-request layers; their spans never overlap.
pub const LAYERS: [&str; 10] = [
    "sql.prepare",
    "sql.execute",
    "proto.render",
    "text2sql.parse_turn",
    "text2vis.parse_turn",
    "vql.execute",
    "sql.dml_op",
    "core.storage.commit",
    "server.db.publish",
    "systems.session.route",
];

/// Replay results, as per-layer metrics (name → value).
pub type Figures = BTreeMap<String, f64>;

fn us(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1000.0
}

/// Span accounting for one replica. With `on == false` the same code
/// runs with no timer inside a request, only around it.
pub struct Tracer {
    on: bool,
    sums: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, Vec<f64>>,
    totals: Vec<(Kind, f64)>,
    /// Replayed answers that differ from the expected answer.
    mismatches: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            sums: BTreeMap::new(),
            calls: BTreeMap::new(),
            totals: Vec::new(),
            mismatches: 0,
        }
    }

    /// Run one layer call, timing it when spans are on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let t = us(start);
        *self.sums.entry(name).or_default() += t;
        self.calls.entry(name).or_default().push(t);
        out
    }

    /// Close one request that started at `start`; returns its total.
    pub fn request(&mut self, kind: Kind, start: Instant) -> f64 {
        let t = us(start);
        self.totals.push((kind, t));
        t
    }

    /// Mean µs per request spent in `name`.
    fn per_request(&self, name: &str) -> f64 {
        share(
            self.sums.get(name).copied().unwrap_or(0.0),
            self.totals.len() as f64,
        )
    }

    fn call_quantile(&self, name: &str, q: f64) -> f64 {
        self.calls.get(name).map(|c| quantile(c, q)).unwrap_or(0.0)
    }

    fn total(&self) -> f64 {
        mean(&self.totals.iter().map(|t| t.1).collect::<Vec<_>>())
    }

    fn class_p50(&self, kind: Kind) -> f64 {
        let v: Vec<f64> = self
            .totals
            .iter()
            .filter(|t| t.0 == kind)
            .map(|t| t.1)
            .collect();
        quantile(&v, 0.5)
    }
}

/// Reduce the traced and untraced replicas to figures and check them.
fn finish(
    traced: &Tracer,
    plain: &Tracer,
    bytes: f64,
    main: Kind,
    out: &mut Figures,
) -> Result<(), String> {
    for layer in LAYERS {
        out.insert(format!("{layer}_us"), traced.per_request(layer));
    }
    let total = traced.total();
    let remainder = total - LAYERS.iter().map(|l| traced.per_request(l)).sum::<f64>();
    out.insert("trace.requests".into(), traced.totals.len() as f64);
    out.insert("trace.total_us".into(), total);
    out.insert("trace.remainder_us".into(), remainder);
    out.insert("trace.untraced_total_us".into(), plain.total());
    out.insert(
        "trace.overhead_us".into(),
        paired_median(&traced.totals, &plain.totals),
    );
    out.insert("trace.untraced_main_p50_us".into(), plain.class_p50(main));
    out.insert(
        "proto.bytes_per_response".into(),
        share(bytes, traced.totals.len() as f64),
    );
    out.insert(
        "text2sql.parse_turn_p50_us".into(),
        traced.call_quantile("text2sql.parse_turn", 0.5),
    );
    out.insert(
        "text2sql.parse_turn_p99_us".into(),
        traced.call_quantile("text2sql.parse_turn", 0.99),
    );
    let mismatches = traced.mismatches + plain.mismatches;
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} replayed answers differ from the expected answers"
        ));
    }
    if remainder.abs() > TOLERANCE * total {
        return Err(format!(
            "layers do not reconcile: remainder {remainder:.3} us of {total:.3} us exceeds {TOLERANCE}"
        ));
    }
    Ok(())
}

/// Median of the per-request differences `a[i] - b[i]`: both replicas
/// ran the same requests in the same order, so pairing them cancels the
/// drift a mean over two separate passes would pick up.
fn paired_median(a: &[(Kind, f64)], b: &[(Kind, f64)]) -> f64 {
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x.1 - y.1).collect();
    quantile(&diffs, 0.5)
}

fn response_bytes(lines: &[String]) -> f64 {
    lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64
}

/// One read statement through the steps the batch worker runs.
fn sql_request(t: &mut Tracer, engine: &SqlEngine, sql: &str, db: &Database) -> (Vec<String>, f64) {
    let start = Instant::now();
    let result = match t.span("sql.prepare", || engine.prepare(sql, &db.schema)) {
        Ok(p) => t.span("sql.execute", || p.execute(db)),
        Err(e) => Err(e),
    };
    let lines = t.span("proto.render", || match &result {
        Ok(rs) => proto::render_table(rs),
        Err(e) => vec![proto::error_line(e)],
    });
    let total = t.request(Kind::Sql, start);
    (lines, total)
}

/// [`Session::ask`] on a reset session, rebuilt from its public parts:
/// route, parse (vis first for chart requests, falling back to SQL),
/// execute, render as the server renders.
struct Asker {
    sql: DialogueParser,
    vis: VisDialogueParser,
    engine: SqlEngine,
}

impl Asker {
    fn new() -> Asker {
        Asker {
            sql: DialogueParser::new(GrammarConfig::llm_reasoner()),
            vis: VisDialogueParser::new(),
            engine: SqlEngine::new(),
        }
    }

    fn ask(&mut self, t: &mut Tracer, text: &str, db: &Database) -> Vec<String> {
        self.sql.reset();
        self.vis.reset();
        let start = Instant::now();
        let q = NlQuestion::new(text);
        let mut lines = None;
        if t.span("systems.session.route", || wants_chart(text)) {
            if let Ok(v) = t.span("text2vis.parse_turn", || self.vis.parse_turn(&q, db)) {
                let chart = t.span("vql.execute", || VisEngine::new().execute(&v, db));
                lines = Some(t.span("proto.render", || match &chart {
                    Ok(c) => proto::render_chart(c),
                    Err(e) => vec![proto::error_line(e)],
                }));
            }
        }
        let lines = lines.unwrap_or_else(|| {
            let result = match t.span("text2sql.parse_turn", || self.sql.parse_turn(&q, db)) {
                Ok(query) => match t.span("sql.prepare", || {
                    self.engine.prepare_ast(&query, &db.schema)
                }) {
                    Ok(p) => t.span("sql.execute", || p.execute(db)),
                    Err(e) => Err(e),
                },
                Err(e) => Err(e),
            };
            t.span("proto.render", || match &result {
                Ok(rs) => proto::render_table(rs),
                Err(e) => vec![proto::error_line(e)],
            })
        });
        t.request(Kind::Ask, start);
        lines
    }
}

/// Replay a read pool's stream: SQL reads (`sql_mix`) or `ASK`s
/// (`ask_mix`).
pub fn replay_reads(
    pool: &[PoolEntry],
    expected: &[Vec<String>],
    mut stream: Stream,
    db: &Database,
    out: &mut Figures,
) -> Result<(), String> {
    let is_ask = pool[0].kind == Kind::Ask;
    let n = if is_ask { ASK_REQUESTS } else { SQL_REQUESTS };
    let warm: Vec<usize> = (0..n).map(|_| stream.next_index()).collect();
    let seg: Vec<usize> = (0..n).map(|_| stream.next_index()).collect();
    let mut tracers = [Tracer::new(true), Tracer::new(false)];
    let mut bytes = 0.0;
    let question = |i: usize| pool[i].ask.as_ref().expect("ask pool").question.as_str();
    let sql = |i: usize| pool[i].sql.as_deref().expect("sql pool");
    if is_ask {
        let mut askers = [Asker::new(), Asker::new()];
        let mut session = Session::new();
        let (mut asks, mut analyses) = (Vec::new(), Vec::new());
        for &i in &warm {
            for a in &mut askers {
                a.ask(&mut Tracer::new(false), question(i), db);
            }
            oracle::render_ask(&mut session, question(i), db);
        }
        for (j, &i) in seg.iter().enumerate() {
            for k in [j % 2, 1 - j % 2] {
                let lines = askers[k].ask(&mut tracers[k], question(i), db);
                tracers[k].mismatches += usize::from(lines != expected[i]);
                if k == 0 {
                    bytes += response_bytes(&lines);
                }
            }
            // The public entry point the server calls, as a black box.
            session.reset();
            let start = Instant::now();
            std::hint::black_box(session.ask(&NlQuestion::new(question(i)), db).is_ok());
            asks.push(us(start));
            // Question analysis runs inside parse_turn; timed on its own,
            // it is not one of the summed layers.
            if !wants_chart(question(i)) {
                let start = Instant::now();
                std::hint::black_box(analyze(question(i)));
                analyses.push(us(start));
            }
        }
        out.insert("systems.session.ask_us".into(), mean(&asks));
        out.insert("text2sql.analyze_p50_us".into(), quantile(&analyses, 0.5));
        out.insert("text2sql.analyze_p99_us".into(), quantile(&analyses, 0.99));
    } else {
        let engines = [SqlEngine::new(), SqlEngine::new()];
        for &i in &warm {
            for e in &engines {
                oracle::render_sql(e, sql(i), db);
            }
        }
        for (j, &i) in seg.iter().enumerate() {
            for k in [j % 2, 1 - j % 2] {
                let (lines, _) = sql_request(&mut tracers[k], &engines[k], sql(i), db);
                tracers[k].mismatches += usize::from(lines != expected[i]);
                if k == 0 {
                    bytes += response_bytes(&lines);
                }
            }
        }
        let stmts: Vec<&str> = seg.iter().take(HANDOFF_REQUESTS).map(|&i| sql(i)).collect();
        out.insert(
            "batch.handoff_us".into(),
            batch_handoff(&engines[1], db, &stmts),
        );
    }
    let main = if is_ask { Kind::Ask } else { Kind::Sql };
    let [traced, plain] = tracers;
    finish(&traced, &plain, bytes, main, out)
}

/// Extra time of handing a statement to the batch executor
/// (`BatchQueue::submit().recv()`) over running the worker's own steps
/// inline on the calling thread: the median of the per-statement
/// differences, the two run back to back for every statement.
fn batch_handoff(engine: &SqlEngine, db: &Database, stmts: &[&str]) -> f64 {
    let handle = Arc::new(DbHandle::read_only(Arc::new(db.clone())));
    let batcher = Batcher::start(engine.clone(), handle, 1, 16, None);
    let queue = batcher.queue();
    let mut diffs = Vec::with_capacity(stmts.len());
    for sql in stmts {
        let start = Instant::now();
        std::hint::black_box(engine.plan_cached(sql, &db.schema));
        std::hint::black_box(oracle::render_sql(engine, sql, db));
        let inline = us(start);
        let start = Instant::now();
        let lines = queue.submit(sql.to_string(), None).recv();
        diffs.push(us(start) - inline);
        std::hint::black_box(lines.is_ok());
    }
    batcher.shutdown();
    quantile(&diffs, 0.5)
}

/// A durable replica for the write replay.
struct StoreReplica {
    store: Store,
    engine: SqlEngine,
    _dir: ScratchDir,
}

impl StoreReplica {
    fn new(base: &Database, tag: &str) -> Result<StoreReplica, String> {
        let dir = ScratchDir::new(tag);
        let store =
            Store::create(dir.path(), base.clone()).map_err(|e| format!("replay store: {e}"))?;
        Ok(StoreReplica {
            store,
            engine: SqlEngine::new(),
            _dir: dir,
        })
    }

    /// One DML request through the steps `DbHandle::execute_dml_metered`
    /// takes: plan and compute the op, journal it, publish a snapshot.
    fn dml(&mut self, t: &mut Tracer, sql: &str) -> Result<Arc<Database>, String> {
        let start = Instant::now();
        let (store, engine) = (&mut self.store, &self.engine);
        let op = t
            .span("sql.dml_op", || {
                nli_sql::parse_statement(sql)
                    .and_then(|stmt| engine.compute_dml_op(&stmt, store.db()))
            })
            .map_err(|e| format!("replay {sql:?}: {e}"))?;
        t.span("core.storage.commit", || store.commit(&op))
            .map_err(|e| format!("replay {sql:?}: {e}"))?;
        let snapshot = t.span("server.db.publish", || Arc::new(store.db().clone()));
        t.request(Kind::Dml, start);
        Ok(snapshot)
    }
}

/// Replay the `rw_mix` writer's stream on fresh stores, each write
/// followed by two reads of the reader's next ladder query on the
/// freshly published snapshot: the first pays the rebuild of the derived
/// caches the write invalidated, the second reads warm.
pub fn replay_writes(
    base: &Database,
    ladder: &[PoolEntry],
    mut writer: Writer,
    mut reads: Stream,
    out: &mut Figures,
) -> Result<(), String> {
    let ops: Vec<String> = (0..RW_WRITES).map(|_| writer.next_sql()).collect();
    let queries: Vec<&str> = (0..RW_WRITES)
        .map(|_| {
            ladder[reads.next_index()]
                .sql
                .as_deref()
                .expect("ladder SQL")
        })
        .collect();
    let mut replicas = [
        StoreReplica::new(base, "replay-traced")?,
        StoreReplica::new(base, "replay-untraced")?,
    ];
    let mut tracers = [Tracer::new(true), Tracer::new(false)];
    let handle_dir = ScratchDir::new("replay-handle");
    let handle = DbHandle::durable(
        Store::create(handle_dir.path(), base.clone()).map_err(|e| format!("replay store: {e}"))?,
    );
    let (mut first, mut steady, mut dml) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0.0;
    for (j, (sql, read)) in ops.iter().zip(&queries).enumerate() {
        for k in [j % 2, 1 - j % 2] {
            let (t, r) = (&mut tracers[k], &mut replicas[k]);
            let snapshot = r.dml(t, sql)?;
            let (_, first_us) = sql_request(t, &r.engine, read, &snapshot);
            let (lines, steady_us) = sql_request(t, &r.engine, read, &snapshot);
            if k == 0 {
                first.push(first_us);
                steady.push(steady_us);
                bytes += "OK affected 1\n".len() as f64 + 2.0 * response_bytes(&lines);
            }
        }
        // The public entry point the server calls, as a black box.
        let start = Instant::now();
        handle
            .execute_dml_metered(&replicas[0].engine, sql)
            .map_err(|e| format!("replay {sql:?}: {e}"))?;
        dml.push(us(start));
    }
    drop(handle);
    out.insert("server.db.dml_us".into(), mean(&dml));
    out.insert("sql.first_read_after_write_us".into(), mean(&first));
    out.insert("sql.steady_read_us".into(), mean(&steady));
    let stmts: Vec<&str> = queries.iter().take(HANDOFF_REQUESTS).copied().collect();
    out.insert(
        "batch.handoff_us".into(),
        batch_handoff(&replicas[1].engine, base, &stmts),
    );
    let [traced, plain] = tracers;
    finish(&traced, &plain, bytes, Kind::Dml, out)
}
