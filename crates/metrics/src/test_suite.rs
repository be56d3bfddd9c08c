//! Test-suite matching (Zhong et al. 2020, distilled test suites).
//!
//! One database state cannot distinguish all inequivalent queries; a *test
//! suite* of fuzzed database variants can. A prediction passes only when it
//! matches the gold query's results on **every** variant, which removes
//! most of naive execution match's false positives at a linear cost in
//! executor calls.

use nli_core::{par, Database, Prng, Value};
use nli_sql::SqlEngine;

/// A suite of database variants derived from one base database.
pub struct TestSuite {
    pub variants: Vec<Database>,
}

impl TestSuite {
    /// Build `n` fuzzed variants (plus the base as variant 0).
    ///
    /// Fuzzing perturbs non-key numeric cells, rewrites some text cells,
    /// duplicates and drops rows — while keeping primary/foreign-key
    /// columns intact so join structure survives.
    pub fn build(base: &Database, n: usize, seed: u64) -> TestSuite {
        // Fork every variant's stream sequentially, then fuzz in parallel:
        // each variant's randomness is fixed before fan-out, so the suite
        // is identical at any thread count.
        let forks = Prng::new(seed).fork_n(n);
        let mut variants = vec![base.clone()];
        variants.extend(par::par_map(&forks, |_, v_rng| {
            let mut db = base.clone();
            fuzz(&mut db, &mut v_rng.clone());
            db
        }));
        TestSuite { variants }
    }

    pub fn len(&self) -> usize {
        self.variants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }
}

fn fuzz(db: &mut Database, rng: &mut Prng) {
    let schema = db.schema.clone();
    for (ti, table) in schema.tables.iter().enumerate() {
        let key_cols: Vec<bool> = (0..table.columns.len())
            .map(|ci| {
                table.columns[ci].primary_key
                    || schema.foreign_keys.iter().any(|fk| {
                        (fk.from.table == ti && fk.from.column == ci)
                            || (fk.to.table == ti && fk.to.column == ci)
                    })
            })
            .collect();
        // perturb cells
        for row in db.data[ti].rows.iter_mut() {
            for (ci, cell) in row.iter_mut().enumerate() {
                if key_cols[ci] || rng.chance(0.5) {
                    continue;
                }
                *cell = match &*cell {
                    Value::Int(i) => Value::Int(i + rng.range(-3, 7)),
                    Value::Float(f) => {
                        Value::Float(((f * (0.5 + rng.unit())) * 100.0).round() / 100.0)
                    }
                    Value::Bool(b) => Value::Bool(*b != rng.chance(0.5)),
                    Value::Date(d) => Value::Date(nli_core::Date::new(
                        d.year + rng.range(-1, 1) as i32,
                        rng.range(1, 12) as u8,
                        d.day,
                    )),
                    other => other.clone(),
                };
            }
        }
        // drop a few rows (children reference by value; the executor treats
        // dangling references as non-matching, which is itself a useful
        // discriminating state)
        let rows = &mut db.data[ti].rows;
        if rows.len() > 4 {
            let drop = rng.below(rows.len() / 4 + 1);
            for _ in 0..drop {
                let i = rng.below(rows.len());
                rows.remove(i);
            }
        }
        // duplicate a row to shake DISTINCT-sensitive queries
        if !rows.is_empty() && rng.chance(0.6) {
            let i = rng.below(rows.len());
            let dup = rows[i].clone();
            rows.push(dup);
        }
    }
    // The edits above bypass `Database::insert`, so the clone still carries
    // the base database's cached columnar views — drop them or the
    // vectorized executor would answer from pre-fuzz data.
    db.invalidate_derived();
}

/// Test-suite match: the prediction must match gold on **every** variant.
pub fn test_suite_match(pred: &str, gold: &str, suite: &TestSuite) -> bool {
    test_suite_match_with(&SqlEngine::new(), pred, gold, suite)
}

/// [`test_suite_match`] against a caller-supplied engine. All variants
/// share the base schema (fuzzing perturbs data, never structure), so each
/// query is parsed and planned exactly once for the whole suite — the
/// prepared statements then fan out across workers, one execution pair per
/// variant, sharing the engine's plan cache. The verdict is the
/// conjunction over variants, so the parallel fan-out returns exactly what
/// the sequential early-exit loop would.
pub fn test_suite_match_with(
    engine: &SqlEngine,
    pred: &str,
    gold: &str,
    suite: &TestSuite,
) -> bool {
    let registry = nli_core::obs::global();
    let _span = registry.span("eval.test_suite_match");
    registry.counter("eval.test_suite.calls").inc();
    registry
        .counter("eval.test_suite.variants")
        .add(suite.len() as u64);
    let Some(base) = suite.variants.first() else {
        return true;
    };
    let gold_prepared = engine.prepare(gold, &base.schema);
    let Ok(gold_prepared) = gold_prepared else {
        // gold doesn't compile: every variant is skipped, vacuous pass
        return true;
    };
    let pred_prepared = engine.prepare(pred, &base.schema);
    par::par_map(&suite.variants, |_, db| {
        let gold_rs = match gold_prepared.execute(db) {
            Ok(rs) => rs,
            // a variant broke the gold query (e.g. pie-hole edge); skip it
            Err(_) => return true,
        };
        let gold_canonical = gold_rs.to_canonical();
        match &pred_prepared {
            Ok(p) => p
                .execute(db)
                .map(|pred_rs| pred_rs.matches_canonical(&gold_canonical))
                .unwrap_or(false),
            Err(_) => false,
        }
    })
    .into_iter()
    .all(|matched| matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_core::{Column, DataType, Schema, Table};

    fn db() -> Database {
        let schema = Schema::new(
            "d",
            vec![Table::new(
                "t",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Text),
                ],
            )],
        );
        let mut d = Database::empty(schema);
        d.insert_all(
            "t",
            vec![
                vec![1.into(), 1.into(), "x".into()],
                vec![2.into(), 2.into(), "y".into()],
                vec![3.into(), 3.into(), "y".into()],
                vec![4.into(), 4.into(), "z".into()],
                vec![5.into(), 5.into(), "x".into()],
                vec![6.into(), 6.into(), "y".into()],
            ],
        )
        .unwrap();
        d
    }

    #[test]
    fn equivalent_queries_pass_the_whole_suite() {
        let suite = TestSuite::build(&db(), 8, 42);
        assert_eq!(suite.len(), 9);
        assert!(test_suite_match(
            "SELECT a FROM t WHERE a >= 2",
            "SELECT a FROM t WHERE a > 1",
            &suite
        ));
    }

    #[test]
    fn suite_kills_coincidental_false_positives() {
        let base = db();
        // coincidentally equal on the base state...
        let pred = "SELECT a FROM t WHERE b = 'y'";
        let gold = "SELECT a FROM t WHERE a IN (2, 3, 6)";
        assert!(crate::execution::execution_match(pred, gold, &base));
        // ...but fuzzing perturbs `a` values, separating the two intents.
        let suite = TestSuite::build(&base, 8, 7);
        assert!(
            !test_suite_match(pred, gold, &suite),
            "the suite failed to distinguish the queries"
        );
    }

    #[test]
    fn identical_queries_always_pass() {
        let suite = TestSuite::build(&db(), 5, 3);
        assert!(test_suite_match(
            "SELECT a FROM t",
            "SELECT a FROM t",
            &suite
        ));
    }

    #[test]
    fn fuzzing_preserves_key_columns() {
        let base = db();
        let suite = TestSuite::build(&base, 4, 9);
        for v in &suite.variants {
            for row in v.rows(0) {
                if let Value::Int(id) = row[0] {
                    assert!((1..=6).contains(&id), "pk was fuzzed: {id}");
                }
            }
        }
    }

    #[test]
    fn broken_predictions_fail() {
        let suite = TestSuite::build(&db(), 3, 1);
        assert!(!test_suite_match("SELEC nope", "SELECT a FROM t", &suite));
    }

    /// The acceptance property for the prepared pipeline in evaluation:
    /// matching over N variants costs one parse+plan per query, not N.
    #[test]
    fn suite_match_parses_each_query_once_across_variants() {
        let engine = SqlEngine::new();
        let suite = TestSuite::build(&db(), 32, 11);
        assert_eq!(suite.len(), 33);
        assert!(test_suite_match_with(
            &engine,
            "SELECT a FROM t WHERE a >= 2",
            "SELECT a FROM t WHERE a > 1",
            &suite
        ));
        assert_eq!(
            engine.parse_count(),
            2,
            "33 variants must share one prepared plan per query"
        );
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 2, "only the two first-time preparations miss");
    }
}
