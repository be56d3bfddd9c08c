//! Correctness oracles. Every wire answer is checked against an answer
//! computed in-process from the same public functions the server calls:
//!
//! * `SQL`/`EXEC` reads must be byte-equal to [`SqlEngine::prepare`] +
//!   execute + [`proto::render_table`] on the same database;
//! * `ASK` answers must be byte-equal to a reset [`Session::ask`] +
//!   [`proto::render_response`], and are scored against the gold program
//!   for `ask_exec_acc`;
//! * `rw_mix` DML acks must equal the affected counts of the writer's
//!   acknowledged ops replayed on a model database, each concurrent read
//!   must equal the model's answer at some state the read could have seen,
//!   and the drained store must reopen to the model's `sales` rows.
//!
//! The expected renderings are checked with [`validate_server_line`] once,
//! so a wire answer equal to one of them passes the response grammar too.

use crate::gen::{Gold, PoolEntry};
use crate::stats::share;
use nli_core::{Database, ExecutionEngine, NlQuestion};
use nli_server::proto::{self, validate_server_line};
use nli_sql::SqlEngine;
use nli_systems::Session;
use nli_vql::VisEngine;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Check every line of a response against the `nli/1` server grammar.
pub(crate) fn validate_lines(lines: &[String]) -> Result<(), String> {
    for line in lines {
        validate_server_line(line).map_err(|e| format!("{line:?}: {e}"))?;
    }
    if lines.is_empty() {
        return Err("empty response".to_string());
    }
    Ok(())
}

/// The response the server must send for a read SQL statement on `db`.
pub fn render_sql(engine: &SqlEngine, sql: &str, db: &Database) -> Vec<String> {
    match engine.prepare(sql, &db.schema).and_then(|s| s.execute(db)) {
        Ok(rs) => proto::render_table(&rs),
        Err(e) => vec![proto::error_line(&e)],
    }
}

/// The response the server must send for `ASK question` on a freshly
/// reset tenant.
pub(crate) fn render_ask(session: &mut Session, question: &str, db: &Database) -> Vec<String> {
    session.reset();
    match session.ask(&NlQuestion::new(question), db) {
        Ok(resp) => proto::render_response(&resp),
        Err(e) => vec![proto::error_line(&e)],
    }
}

/// Expected response lines for every entry of a read pool, grammar-checked.
pub fn expected_responses(pool: &[PoolEntry], db: &Database) -> Result<Vec<Vec<String>>, String> {
    let engine = SqlEngine::new();
    let mut session = Session::new();
    pool.iter()
        .map(|entry| {
            let lines = match (&entry.sql, &entry.ask) {
                (Some(sql), _) => render_sql(&engine, sql, db),
                (None, Some(ask)) => render_ask(&mut session, &ask.question, db),
                (None, None) => unreachable!("pool entries carry SQL or a question"),
            };
            validate_lines(&lines)
                .map_err(|e| format!("expected answer to {:?}: {e}", entry.frame))?;
            Ok(lines)
        })
        .collect()
}

fn row_lines(lines: &[String]) -> Vec<&str> {
    lines
        .iter()
        .filter(|l| l.starts_with("ROW "))
        .map(String::as_str)
        .collect()
}

/// Whether a rendered `ASK` answer shows the gold table or chart: the same
/// rows (in order when the gold query orders them, as a multiset
/// otherwise) and, for charts, the same chart type and point count.
/// Column labels are ignored, as in execution-accuracy evaluation.
pub(crate) fn matches_gold(
    lines: &[String],
    gold: &Gold,
    db: &Database,
    engine: &SqlEngine,
) -> bool {
    let (gold_lines, ordered) = match gold {
        Gold::Table(q) => match engine.execute(q, db) {
            Ok(rs) => (proto::render_table(&rs), rs.ordered),
            Err(_) => return false,
        },
        Gold::Chart(v) => match VisEngine::new().execute(v, db) {
            Ok(chart) => (proto::render_chart(&chart), false),
            Err(_) => return false,
        },
    };
    let head_ok = match gold {
        Gold::Table(_) => lines[0].starts_with("OK table "),
        Gold::Chart(_) => lines[0] == gold_lines[0],
    };
    let (mut got, mut want) = (row_lines(lines), row_lines(&gold_lines));
    if !ordered {
        got.sort_unstable();
        want.sort_unstable();
    }
    head_ok && got == want
}

/// Hash of a response, for checks that keep many answers.
pub fn hash_lines(lines: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    lines.hash(&mut h);
    h.finish()
}

/// One acknowledged `rw_mix` write: its SQL and the ack's affected count.
#[derive(Debug, Clone)]
pub struct WriteAck {
    pub sql: String,
    pub affected: u64,
}

/// One `rw_mix` read and the window of writer states it may have seen:
/// `lo` writes were acknowledged before it was sent and at most `hi` had
/// been sent when its answer arrived.
#[derive(Debug, Clone)]
pub struct ReadObs {
    pub query: usize,
    pub lo: usize,
    pub hi: usize,
    pub hash: u64,
}

/// What the `rw_mix` oracle concluded.
#[derive(Debug)]
pub struct RwVerdict {
    /// Acks whose affected count differs from the model's.
    pub bad_acks: usize,
    /// Reads that match no model state in their window.
    pub bad_reads: usize,
    /// The model after every acknowledged write.
    pub model: Database,
    /// Fewest and most live `sales` rows over the model's states.
    pub live_rows: (usize, usize),
    pub first_error: Option<String>,
}

/// Replay the acknowledged writes on a model of the served database and
/// check every ack and every concurrent read against it.
pub fn check_rw(
    base: &Database,
    ladder: &[String],
    acks: &[WriteAck],
    reads: &[ReadObs],
) -> RwVerdict {
    let engine = SqlEngine::new();
    let mut model = base.clone();
    let (mut bad_acks, mut bad_reads, mut first_error) = (0, 0, None);
    let sales_rows = |m: &Database| m.rows_of("sales").map_or(0, <[_]>::len);
    let mut live_rows = (sales_rows(&model), sales_rows(&model));
    let states = acks.len() + 1;
    // needed[q][k]: some read of query q may have seen state k.
    let mut needed = vec![vec![false; states]; ladder.len()];
    for r in reads {
        for seen in &mut needed[r.query][r.lo..=r.hi.min(states - 1)] {
            *seen = true;
        }
    }
    // A query that does not read `sales` answers the same in every state.
    let reads_sales: Vec<bool> = ladder
        .iter()
        .map(|sql| {
            nli_sql::parse_query(sql)
                .map(|q| q.tables().iter().any(|t| t == "sales"))
                .unwrap_or(true)
        })
        .collect();
    let mut hashes: Vec<Vec<Option<u64>>> = vec![vec![None; states]; ladder.len()];
    let mut constant: Vec<Option<u64>> = vec![None; ladder.len()];
    for k in 0..states {
        for (q, sql) in ladder.iter().enumerate() {
            if !needed[q][k] {
                continue;
            }
            if !reads_sales[q] {
                if constant[q].is_none() {
                    constant[q] = Some(hash_lines(&render_sql(&engine, sql, &model)));
                }
                hashes[q][k] = constant[q];
            } else {
                hashes[q][k] = Some(hash_lines(&render_sql(&engine, sql, &model)));
            }
        }
        let Some(ack) = acks.get(k) else { break };
        // The tree-walk interpreter, independent of the planner and the
        // vectorized executor the server computes its ops with.
        let applied = nli_sql::parse_statement(&ack.sql)
            .and_then(|stmt| nli_sql::compute_dml_tree_walk(&stmt, &model))
            .and_then(|op| model.apply_op(&op));
        let rows = sales_rows(&model);
        live_rows = (live_rows.0.min(rows), live_rows.1.max(rows));
        match applied {
            Ok(n) if n == ack.affected => {}
            other => {
                bad_acks += 1;
                first_error.get_or_insert_with(|| {
                    format!(
                        "write {k} {:?}: server acked {} rows, model says {other:?}",
                        ack.sql, ack.affected
                    )
                });
            }
        }
    }
    for r in reads {
        let hi = r.hi.min(states - 1);
        if !(r.lo..=hi).any(|k| hashes[r.query][k] == Some(r.hash)) {
            bad_reads += 1;
            first_error.get_or_insert_with(|| {
                format!(
                    "read of {:?} matches no model state in {}..={}",
                    ladder[r.query], r.lo, hi
                )
            });
        }
    }
    RwVerdict {
        bad_acks,
        bad_reads,
        model,
        live_rows,
        first_error,
    }
}

/// `ask_exec_acc` and the `E_PARSE` share over the pool-pass answers.
pub(crate) fn score_asks(
    pool: &[PoolEntry],
    answers: &[(usize, Vec<String>)],
    db: &Database,
) -> (f64, f64) {
    let engine = SqlEngine::new();
    let mut correct = 0usize;
    let mut parse_fail = 0usize;
    for (i, lines) in answers {
        let gold = &pool[*i].ask.as_ref().expect("ask pool").gold;
        correct += usize::from(matches_gold(lines, gold, db, &engine));
        parse_fail += usize::from(lines[0].starts_with("ERR E_PARSE "));
    }
    let n = answers.len() as f64;
    (share(correct as f64, n), share(parse_fail as f64, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn gold_matching_ignores_row_order_of_unordered_results() {
        let db = gen::served_db();
        let engine = SqlEngine::new();
        let q = nli_sql::parse_query("SELECT name FROM products WHERE price > 400").unwrap();
        let mut lines = proto::render_table(&engine.execute(&q, &db).unwrap());
        assert!(matches_gold(&lines, &Gold::Table(q.clone()), &db, &engine));
        let n = lines.len();
        lines[2..n - 1].reverse();
        assert!(matches_gold(&lines, &Gold::Table(q.clone()), &db, &engine));
        lines.remove(2);
        assert!(!matches_gold(&lines, &Gold::Table(q), &db, &engine));
    }
}
