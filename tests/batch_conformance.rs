//! Batch-size conformance for the vectorized executor (ISSUE 6 satellite).
//!
//! The columnar pipeline chunks every stage into `DEFAULT_BATCH_ROWS`
//! (4096) positions; tests override it with `with_batch_rows`. Chunking must be invisible: for any generated query, running the
//! cost-based plan at batch size 1 (degenerate row-at-a-time), 7 (prime,
//! never divides the row counts), and the default must each produce a
//! result byte-identical to the reference tree-walk interpreter — same
//! columns, same rows in the same order, same `ordered` flag, or the same
//! error outcome. A kernel that mishandles a chunk boundary (carry-over
//! state, off-by-one at the seam, partial-batch nulls) diverges at one of
//! the odd sizes even when the default size happens to hide it.

use nli_core::{Database, Prng};
use nli_data::spider_like::{self, SpiderConfig};
use nli_data::sql_gen::{plan_to_query, sample_plan, SqlProfile};
use nli_sql::interp::run_tree_walk;
use nli_sql::{with_batch_rows, SqlEngine};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Batch sizes under test: degenerate, prime/non-divisible, default.
const BATCH_SIZES: &[Option<usize>] = &[Some(1), Some(7), None];

fn corpus_databases() -> &'static Vec<Database> {
    static DBS: OnceLock<Vec<Database>> = OnceLock::new();
    DBS.get_or_init(|| {
        spider_like::build(&SpiderConfig {
            n_databases: 8,
            n_dev_databases: 2,
            n_train: 0,
            n_dev: 0,
            ..Default::default()
        })
        .databases
    })
}

/// Run one generated query through the tree-walk reference and through the
/// stats-aware planned pipeline at every batch size; assert all agree.
/// Returns whether a query was actually drawn for this seed.
fn check_one(engine: &SqlEngine, seed: u64) -> bool {
    let dbs = corpus_databases();
    let db = &dbs[(seed % dbs.len() as u64) as usize];
    let mut rng = Prng::new(seed);
    let Some(plan) = sample_plan(db, &SqlProfile::spider(), &mut rng) else {
        return false;
    };
    let q = plan_to_query(db, &plan);
    let reference = run_tree_walk(&q, db);
    for &batch in BATCH_SIZES {
        let run = || engine.prepare_ast_on(&q, db).and_then(|p| p.execute(db));
        let vectorized = match batch {
            Some(n) => with_batch_rows(n, run),
            None => run(),
        };
        let label = batch.map_or("default".to_string(), |n| n.to_string());
        match (&reference, vectorized) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.columns, b.columns,
                    "columns diverged on {q} (batch={label})"
                );
                assert_eq!(
                    a.ordered, b.ordered,
                    "ordered flag diverged on {q} (batch={label})"
                );
                assert_eq!(
                    a.rows, b.rows,
                    "rows diverged on {q} (batch={label}, db {})",
                    db.schema.name
                );
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                panic!("vectorized failed where tree-walk succeeded on {q} (batch={label}): {e}")
            }
            (Err(e), Ok(_)) => {
                panic!("tree-walk failed where vectorized succeeded on {q} (batch={label}): {e}")
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// For any seed, the sampled query agrees between the reference
    /// interpreter and the vectorized executor at every batch size.
    #[test]
    fn vectorized_executor_is_batch_size_invariant(seed in any::<u64>()) {
        let engine = SqlEngine::new();
        check_one(&engine, seed);
    }
}

/// Deterministic floor: a fixed seed sweep that always draws enough
/// queries, independent of proptest's shrink/skip behavior.
#[test]
fn batch_size_sweep_covers_a_fixed_corpus() {
    let engine = SqlEngine::new();
    let mut drawn = 0usize;
    for seed in 0..256u64 {
        if check_one(&engine, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            drawn += 1;
        }
    }
    assert!(drawn >= 96, "only {drawn} queries drawn (need >= 96)");
}
