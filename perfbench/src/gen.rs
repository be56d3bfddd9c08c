//! Seeded workload generation.
//!
//! Every workload draws from a *fixed* pool of requests (generated from
//! [`POOL_SEED`], so all runs see the same pool and `ask_exec_acc` is the
//! same number on every seed) and a *seeded* per-client stream over that
//! pool: the `--seed` argument is forked once per client with
//! [`Prng::fork`], so the clients are never in lockstep and the same seed
//! replays the same streams.

use nli_bench::baseline;
use nli_core::{Database, ExecutionEngine, NlQuestion, Prng};
use nli_data::builder::generate_examples;
use nli_data::nl_gen::NlStyle;
use nli_data::nvbench_like::{realize_vis, sample_vis_plan, vis_plan_to_vql};
use nli_data::sql_gen::SqlProfile;
use nli_sql::{Query, SqlEngine};
use nli_vql::{VisEngine, VisQuery};

/// Seed of the request pools (not of the streams over them).
pub const POOL_SEED: u64 = 0x5EED_B0B5;
/// Questions generated for the SQL pools.
pub const GOLD_QUESTIONS: usize = 1000;
/// Chart questions in the `ask_mix` pool (about a fifth of it).
pub const CHART_QUESTIONS: usize = 200;
/// Zipf exponent of the `sql_mix` statement popularity.
pub const ZIPF_S: f64 = 1.0;
/// Ids of rows the `rw_mix` writer inserts start here, clear of the
/// generated rows.
pub const FIRST_WRITE_ID: i64 = 1_000_000;

/// The statement every client prepares as `hot`.
pub use nli_server::loadgen::HOT_QUERY;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SqlMix,
    AskMix,
    RwMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SqlMix, Workload::AskMix, Workload::RwMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SqlMix => "sql_mix",
            Workload::AskMix => "ask_mix",
            Workload::RwMix => "rw_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the server runs with a `--data-dir` (DML enabled).
    pub fn durable(self) -> bool {
        self == Workload::RwMix
    }
}

/// Request classes, for per-class latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SQL <select>` or `EXEC <name>`.
    Sql,
    /// `ASK <question>`.
    Ask,
    /// `SQL <insert|update|delete>`.
    Dml,
}

/// One pool entry of a read workload.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    pub kind: Kind,
    /// The frame sent on the wire.
    pub frame: String,
    /// The SQL the server runs for it (`None` for `ASK`).
    pub sql: Option<String>,
    /// `ASK` only: the question and its gold answer.
    pub ask: Option<AskItem>,
}

#[derive(Debug, Clone)]
pub struct AskItem {
    pub question: String,
    pub gold: Gold,
}

#[derive(Debug, Clone)]
pub enum Gold {
    Table(Query),
    Chart(VisQuery),
}

/// The database the server serves (`nli-server` serves exactly this one).
pub fn served_db() -> Database {
    baseline::baseline_db()
}

/// Gold (question, SQL) pairs over the served database, Spider profile.
fn gold_examples(db: &Database) -> Vec<(String, Query)> {
    let mut rng = Prng::new(POOL_SEED);
    let examples = generate_examples(
        std::slice::from_ref(db),
        0..1,
        &SqlProfile::spider(),
        NlStyle::plain(),
        GOLD_QUESTIONS,
        &mut rng,
    );
    examples
        .into_iter()
        .map(|ex| (ex.question.text, ex.gold))
        .collect()
}

/// A frame must be one line within the server's frame limit.
fn frame_ok(frame: &str) -> bool {
    !frame.contains('\n')
        && !frame.contains('\r')
        && frame.len() < nli_server::proto::MAX_FRAME_BYTES
}

/// `sql_mix` pool: the baseline ladder, `EXEC hot`, and the distinct gold
/// SQL of the generated questions, in a fixed popularity order. Only
/// statements that prepare and run in-process are kept, so no request of
/// the workload is expected to fail.
pub fn sql_pool(db: &Database) -> Vec<PoolEntry> {
    let engine = SqlEngine::new();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut push_sql = |sql: String, out: &mut Vec<PoolEntry>| {
        let frame = format!("SQL {sql}");
        if frame_ok(&frame) && seen.insert(sql.clone()) && engine.run_sql(&sql, db).is_ok() {
            out.push(PoolEntry {
                kind: Kind::Sql,
                frame,
                sql: Some(sql),
                ask: None,
            });
        }
    };
    for (_, sql) in baseline::QUERIES {
        push_sql(sql.to_string(), &mut out);
    }
    out.push(PoolEntry {
        kind: Kind::Sql,
        frame: "EXEC hot".to_string(),
        sql: Some(HOT_QUERY.to_string()),
        ask: None,
    });
    for (_, gold) in gold_examples(db) {
        push_sql(gold.to_string(), &mut out);
    }
    // Popularity rank is fixed (not seeded), so every seed weighs the
    // same statements equally and runs stay comparable.
    Prng::new(POOL_SEED ^ 1).shuffle(&mut out);
    out
}

/// `ask_mix` pool: Spider-profile SQL questions plus nvBench-like chart
/// questions (about one in five), each with its gold program.
pub fn ask_pool(db: &Database) -> Vec<PoolEntry> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut push = |question: String, gold: Gold, out: &mut Vec<PoolEntry>| {
        let frame = format!("ASK {question}");
        if frame_ok(&frame) && seen.insert(question.clone()) {
            out.push(PoolEntry {
                kind: Kind::Ask,
                frame,
                sql: None,
                ask: Some(AskItem { question, gold }),
            });
        }
    };
    for (question, gold) in gold_examples(db)
        .into_iter()
        .take(GOLD_QUESTIONS - CHART_QUESTIONS)
    {
        push(question, Gold::Table(gold), &mut out);
    }
    let engine = VisEngine::new();
    let mut rng = Prng::new(POOL_SEED ^ 2);
    let mut charts = 0;
    let mut attempts = 0;
    while charts < CHART_QUESTIONS && attempts < CHART_QUESTIONS * 20 {
        attempts += 1;
        let mut r = rng.fork(attempts as u64);
        let Some(plan) = sample_vis_plan(db, &mut r) else {
            continue;
        };
        let gold = vis_plan_to_vql(db, &plan);
        if engine.execute(&gold, db).is_err() {
            continue;
        }
        let question: NlQuestion = realize_vis(db, &plan, NlStyle::plain(), &mut r);
        let before = out.len();
        push(question.text, Gold::Chart(gold), &mut out);
        charts += out.len() - before;
    }
    out
}

/// `rw_mix` reader pool: the seven-query baseline ladder.
pub fn ladder_pool() -> Vec<PoolEntry> {
    baseline::QUERIES
        .iter()
        .map(|(_, sql)| PoolEntry {
            kind: Kind::Sql,
            frame: format!("SQL {sql}"),
            sql: Some(sql.to_string()),
            ask: None,
        })
        .collect()
}

/// Zipf sampler over ranks `0..n`: rank `r` has weight `1 / (r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Prng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A client's endless request stream: pool indices.
pub enum Stream {
    /// Zipf-skewed draws (`sql_mix`).
    Zipf(Prng, std::sync::Arc<Zipf>),
    /// Seeded permutations of the pool, one after another (`ask_mix`,
    /// the `rw_mix` reader): every pass covers the pool exactly once.
    Passes {
        rng: Prng,
        order: Vec<usize>,
        pos: usize,
    },
}

impl Stream {
    pub fn passes(rng: Prng, n: usize) -> Stream {
        Stream::Passes {
            rng,
            order: (0..n).collect(),
            pos: n,
        }
    }

    pub fn next_index(&mut self) -> usize {
        match self {
            Stream::Zipf(rng, z) => z.sample(rng),
            Stream::Passes { rng, order, pos } => {
                if *pos == order.len() {
                    rng.shuffle(order);
                    *pos = 0;
                }
                *pos += 1;
                order[*pos - 1]
            }
        }
    }
}

/// The `rw_mix` writer: an endless seeded stream of `INSERT` / `UPDATE` /
/// `DELETE` statements on `sales`, in cycles of three that insert a fresh
/// row, update a row, and delete the inserted row again, so the live row
/// count only ever alternates between `n` and `n + 1`.
pub struct Writer {
    rng: Prng,
    step: u64,
    base_rows: i64,
    current: i64,
}

impl Writer {
    pub fn new(rng: Prng, base_rows: usize) -> Writer {
        Writer {
            rng,
            step: 0,
            base_rows: base_rows as i64,
            current: FIRST_WRITE_ID,
        }
    }

    /// The next DML statement (SQL text, without the `SQL ` verb).
    pub fn next_sql(&mut self) -> String {
        let n = self.base_rows;
        let sql = match self.step % 3 {
            0 => {
                self.current = FIRST_WRITE_ID + (self.step / 3) as i64;
                format!(
                    "INSERT INTO sales VALUES ({}, {}, {}, {}.{:02}, '{}-{:02}-{:02}', {})",
                    self.current,
                    self.rng.range(1, n),
                    self.rng.range(1, n),
                    self.rng.range(5, 1999),
                    self.rng.range(0, 99),
                    self.rng.range(2021, 2025),
                    self.rng.range(1, 12),
                    self.rng.range(1, 28),
                    self.rng.range(1, 40)
                )
            }
            1 => {
                // Half the updates touch a generated row, half the new one.
                let id = if self.rng.chance(0.5) {
                    self.rng.range(1, n)
                } else {
                    self.current
                };
                format!(
                    "UPDATE sales SET amount = {}.{:02} WHERE id = {id}",
                    self.rng.range(5, 1999),
                    self.rng.range(0, 99)
                )
            }
            _ => format!("DELETE FROM sales WHERE id = {}", self.current),
        };
        self.step += 1;
        sql
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Prng::new(7);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
    }

    #[test]
    fn passes_cover_the_pool_once_per_pass() {
        let mut s = Stream::passes(Prng::new(3), 10);
        let mut first: Vec<usize> = (0..10).map(|_| s.next_index()).collect();
        first.sort_unstable();
        assert_eq!(first, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn writer_cycles_insert_update_delete() {
        let mut w = Writer::new(Prng::new(1), 200);
        assert!(w
            .next_sql()
            .starts_with("INSERT INTO sales VALUES (1000000,"));
        assert!(w.next_sql().starts_with("UPDATE sales SET amount = "));
        assert_eq!(w.next_sql(), "DELETE FROM sales WHERE id = 1000000");
        assert!(w
            .next_sql()
            .starts_with("INSERT INTO sales VALUES (1000001,"));
    }
}
