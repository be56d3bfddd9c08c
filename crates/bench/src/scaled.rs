//! Scaled vectorization ladder (`cargo run -p nli-bench --bin scaled`).
//!
//! Where [`crate::baseline`] tracks the absolute cost of the seven-query
//! ladder on a small fixed database, this harness measures what the
//! vectorized-execution rework (DESIGN.md §3.5) actually bought: the same
//! join/aggregate workload run through
//! the reference tree-walk interpreter versus the vectorized, cost-planned
//! pipeline, on synthetic retail databases scaled from 10 k to 1 M fact
//! rows. It writes `BENCH_scaled.json`: one entry per (rung, query) with
//! median/min wall-times for three legs — tree-walk, indexed vectorized
//! (the default), and vectorized with auto-indexing off — plus the
//! derived `speedup` (interp/vectorized) and `index_speedup`
//! (fullscan/vectorized, the secondary-index access-path win).
//!
//! Both executors are run to completion once before timing and their
//! [`nli_sql::CanonicalResult`]s compared — a rung aborts if the engines
//! disagree, so the speedup numbers can never come from a wrong answer.
//!
//! The 10 k and 100 k rungs are the committed defaults; the 1 M rung is
//! opt-in (`--full`) because the interpreter leg alone takes seconds.
//! [`validate`] runs through the shared [`crate::doc`] path, like the
//! baseline's.

use crate::doc::{self, median_upper, require_number};
use nli_core::{Column, DataType, Database, Prng, Schema, Table, Value};
use nli_sql::interp::run_tree_walk;
use nli_sql::parser::parse_query;
use nli_sql::SqlEngine;
use serde_json::Value as Json;
use std::hint::black_box;
use std::time::Instant;

/// Bumped whenever the emitted document shape changes.
pub const SCHEMA_VERSION: i64 = 1;

/// The document's `suite` header.
pub const SUITE: &str = "sql_scaled";

/// The `scaled` binary's document: `BENCH_scaled.json`.
pub const DOC: doc::Spec = doc::Spec {
    bin: "scaled",
    kind: "scaled ladder",
    default_out: "BENCH_scaled.json",
    validate,
};

/// Fact-table row counts of the committed ladder rungs.
pub const DEFAULT_RUNGS: [usize; 2] = [10_000, 100_000];

/// The opt-in top rung (`--full`).
pub const FULL_RUNG: usize = 1_000_000;

/// The scaled workload: joins and aggregates where batching pays, plus
/// three index-favourable rungs (point lookup, 0.1% range, selective
/// join) where the secondary-index probe is the whole story. Every query
/// is also run through an auto-index-off engine, so each entry carries a
/// vectorized-full-scan leg priced against the indexed default.
pub const QUERIES: [(&str, &str); 8] = [
    (
        "filter",
        "SELECT amount FROM sales WHERE amount > 450 AND amount < 460",
    ),
    (
        "group",
        "SELECT store_id, COUNT(*), SUM(amount) FROM sales GROUP BY store_id",
    ),
    (
        "join",
        "SELECT products.category, sales.amount FROM sales JOIN products \
         ON sales.product_id = products.id WHERE products.price > 450",
    ),
    (
        "join_group",
        "SELECT products.category, SUM(sales.amount) FROM sales JOIN products \
         ON sales.product_id = products.id GROUP BY products.category \
         ORDER BY SUM(sales.amount) DESC",
    ),
    (
        "three_way",
        "SELECT stores.city, SUM(sales.amount) FROM sales \
         JOIN stores ON sales.store_id = stores.id \
         JOIN products ON sales.product_id = products.id \
         WHERE products.price > 100 GROUP BY stores.city",
    ),
    ("point", "SELECT amount FROM sales WHERE id = 7411"),
    (
        "range",
        "SELECT id FROM sales WHERE id BETWEEN 5000 AND 5099",
    ),
    (
        "index_join",
        "SELECT products.category, sales.amount FROM sales JOIN products \
         ON sales.product_id = products.id WHERE sales.id BETWEEN 2000 AND 2049",
    ),
];

/// Build one rung's database: `rows` sales facts over `rows / 50` products
/// and `max(rows / 1000, 8)` stores, fully deterministic in `rows`.
pub fn scaled_db(rows: usize) -> Database {
    let n_products = (rows / 50).max(8);
    let n_stores = (rows / 1000).max(8);
    let mut schema = Schema::new(
        "retail_scaled",
        vec![
            Table::new(
                "stores",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("city", DataType::Text),
                ],
            ),
            Table::new(
                "products",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("category", DataType::Text),
                    Column::new("price", DataType::Float),
                ],
            ),
            Table::new(
                "sales",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("store_id", DataType::Int),
                    Column::new("product_id", DataType::Int),
                    Column::new("amount", DataType::Float),
                ],
            ),
        ],
    );
    schema
        .add_foreign_key("sales", "store_id", "stores", "id")
        .unwrap();
    schema
        .add_foreign_key("sales", "product_id", "products", "id")
        .unwrap();
    let mut db = Database::empty(schema);
    let mut rng = Prng::new(rows as u64 ^ 0x005C_A1ED);
    const CITIES: [&str; 6] = ["Oslo", "Bergen", "Trondheim", "Tromso", "Stavanger", "Bodo"];
    const CATEGORIES: [&str; 5] = ["Tools", "Toys", "Food", "Office", "Garden"];
    db.insert_all(
        "stores",
        (1..=n_stores).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Text(format!("{}-{}", CITIES[i % CITIES.len()], i % 97)),
            ]
        }),
    )
    .unwrap();
    db.insert_all(
        "products",
        (1..=n_products).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Text(CATEGORIES[i % CATEGORIES.len()].to_string()),
                // multiplicative hash spreads prices over (0, 500] at every
                // table size, so selectivity of a fixed threshold is
                // rung-independent
                Value::Float((i.wrapping_mul(7919) % 500) as f64 + 0.5),
            ]
        }),
    )
    .unwrap();
    db.insert_all(
        "sales",
        (1..=rows).map(|i| {
            let store = if rng.chance(0.01) {
                Value::Null
            } else {
                Value::Int(rng.below(n_stores) as i64 + 1)
            };
            vec![
                Value::Int(i as i64),
                store,
                Value::Int(rng.below(n_products) as i64 + 1),
                Value::Float((rng.below(100_000) as f64) / 100.0),
            ]
        }),
    )
    .unwrap();
    db
}

fn time_micros(iters: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_micros() as f64);
    }
    samples.sort_by(f64::total_cmp);
    (median_upper(&samples), samples[0])
}

/// Run one rung: every ladder query through three executors — the
/// tree-walk reference, the indexed default pipeline (auto-indexing on),
/// and the same vectorized pipeline with auto-indexing off, so
/// `index_speedup` isolates the access-path win from the batching win.
fn run_rung(rows: usize, iters: usize) -> Json {
    let db = scaled_db(rows);
    let engine = SqlEngine::new();
    let fullscan_engine = SqlEngine::new().with_auto_index(false);
    let mut benchmarks = Vec::new();
    for (name, sql) in QUERIES {
        let q = parse_query(sql).expect("scaled query must parse");
        let stmt = engine
            .prepare_ast_on(&q, &db)
            .expect("scaled query must plan");
        let fullscan_stmt = fullscan_engine
            .prepare_ast_on(&q, &db)
            .expect("scaled query must plan without indexes");

        // Conformance gate: all three executors must agree before any
        // timing loop is allowed to count.
        let reference = run_tree_walk(&q, &db).expect("interp leg must execute");
        let vectorized = stmt.execute(&db).expect("vectorized leg must execute");
        let fullscan = fullscan_stmt
            .execute(&db)
            .expect("full-scan leg must execute");
        assert!(
            vectorized.matches_canonical(&reference.to_canonical()),
            "executors disagree on {name} at {rows} rows"
        );
        assert!(
            fullscan.matches_canonical(&reference.to_canonical()),
            "full-scan leg disagrees on {name} at {rows} rows"
        );
        let rows_out = vectorized.rows.len();

        let (interp_median, interp_min) = time_micros(iters, || {
            black_box(run_tree_walk(&q, &db).unwrap());
        });
        let (vec_median, vec_min) = time_micros(iters, || {
            black_box(stmt.execute(&db).unwrap());
        });
        let (full_median, full_min) = time_micros(iters, || {
            black_box(fullscan_stmt.execute(&db).unwrap());
        });
        let speedup = if vec_median > 0.0 {
            interp_median / vec_median
        } else {
            interp_median.max(1.0)
        };
        let index_speedup = if vec_median > 0.0 {
            full_median / vec_median
        } else {
            full_median.max(1.0)
        };
        benchmarks.push(Json::obj([
            ("name", Json::from(name)),
            ("sql", Json::from(sql)),
            ("iters", Json::from(iters)),
            ("rows_out", Json::from(rows_out)),
            ("interp_median_micros", Json::from(interp_median)),
            ("interp_min_micros", Json::from(interp_min)),
            ("vectorized_median_micros", Json::from(vec_median)),
            ("vectorized_min_micros", Json::from(vec_min)),
            ("fullscan_median_micros", Json::from(full_median)),
            ("fullscan_min_micros", Json::from(full_min)),
            ("speedup", Json::from(speedup)),
            ("index_speedup", Json::from(index_speedup)),
        ]));
    }
    Json::obj([
        ("rows", Json::from(rows)),
        ("benchmarks", Json::Array(benchmarks)),
    ])
}

/// Run the ladder and build the `BENCH_scaled.json` document.
pub fn run(rungs: &[usize], iters: usize) -> Json {
    let iters = iters.max(1);
    let rung_docs: Vec<Json> = rungs.iter().map(|&rows| run_rung(rows, iters)).collect();
    Json::obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("suite", Json::from(SUITE)),
        ("rungs", Json::Array(rung_docs)),
    ])
}

/// Schema check for an emitted scaled document: well-formed rungs, every
/// benchmark carrying both timing legs and a consistent speedup.
pub fn validate(doc: &Json) -> Result<(), String> {
    doc::check_header(doc, SCHEMA_VERSION, SUITE)?;
    let rungs = doc
        .get("rungs")
        .and_then(Json::as_array)
        .ok_or("missing rungs array")?;
    if rungs.is_empty() {
        return Err("empty rungs array".into());
    }
    for rung in rungs {
        let rows = rung
            .get("rows")
            .and_then(Json::as_i64)
            .filter(|r| *r > 0)
            .ok_or("rung with missing rows")?;
        let ctx0 = format!("rung {rows}");
        let benchmarks = rung
            .get("benchmarks")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{ctx0}: missing benchmarks"))?;
        if benchmarks.len() != QUERIES.len() {
            return Err(format!(
                "{ctx0}: {} benchmarks (expected {})",
                benchmarks.len(),
                QUERIES.len()
            ));
        }
        for entry in benchmarks {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .filter(|n| QUERIES.iter().any(|(q, _)| q == n))
                .ok_or_else(|| format!("{ctx0}: benchmark with unknown name"))?;
            let ctx = format!("{ctx0}/{name}");
            let im = require_number(entry, "interp_median_micros", &ctx)?;
            require_number(entry, "interp_min_micros", &ctx)?;
            let vm = require_number(entry, "vectorized_median_micros", &ctx)?;
            require_number(entry, "vectorized_min_micros", &ctx)?;
            let fm = require_number(entry, "fullscan_median_micros", &ctx)?;
            require_number(entry, "fullscan_min_micros", &ctx)?;
            require_number(entry, "rows_out", &ctx)?;
            let speedup = require_number(entry, "speedup", &ctx)?;
            let index_speedup = require_number(entry, "index_speedup", &ctx)?;
            if vm > 0.0 {
                let derived = im / vm;
                if (derived - speedup).abs() > derived.abs() * 0.01 + 1e-9 {
                    return Err(format!(
                        "{ctx}: speedup {speedup} inconsistent with medians ({derived})"
                    ));
                }
                let derived_idx = fm / vm;
                if (derived_idx - index_speedup).abs() > derived_idx.abs() * 0.01 + 1e-9 {
                    return Err(format!(
                        "{ctx}: index_speedup {index_speedup} inconsistent with medians ({derived_idx})"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_scaled_doc_passes_its_own_schema_check() {
        // tiny rung: exercises the full emit path (including the built-in
        // conformance gate) without benchmark-scale cost
        let doc = run(&[500], 1);
        validate(&doc).unwrap();
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let reparsed = serde_json::from_str(&text).unwrap();
        validate(&reparsed).unwrap();
    }

    /// `doc` with `f` applied to its first rung.
    fn with_first_rung(doc: &Json, f: impl FnOnce(&mut Json)) -> Json {
        let mut doc = doc.clone();
        let Some(Json::Array(mut rungs)) = doc.get("rungs").cloned() else {
            unreachable!()
        };
        f(&mut rungs[0]);
        doc.set("rungs", Json::Array(rungs));
        doc
    }

    /// `doc` with `f` applied to its first rung's first benchmark entry.
    fn with_first_benchmark(doc: &Json, f: fn(&mut Json)) -> Json {
        with_first_rung(doc, |rung| {
            let Some(Json::Array(mut benchmarks)) = rung.get("benchmarks").cloned() else {
                unreachable!()
            };
            f(&mut benchmarks[0]);
            rung.set("benchmarks", Json::Array(benchmarks));
        })
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        let good = run(&[200], 1);
        validate(&good).unwrap();
        let mut wrong_version = good.clone();
        wrong_version.set("schema_version", 99i64);
        let mut wrong_suite = good.clone();
        wrong_suite.set("suite", "sql_engine");
        let first = |f| with_first_benchmark(&good, f);
        let cases: Vec<(&str, Json, &str)> = vec![
            ("wrong version", wrong_version, "schema_version"),
            (
                "missing suite",
                Json::obj([("schema_version", Json::from(SCHEMA_VERSION))]),
                "suite",
            ),
            ("wrong suite", wrong_suite, "suite"),
            (
                "missing rungs",
                Json::obj([
                    ("schema_version", Json::from(SCHEMA_VERSION)),
                    ("suite", Json::from(SUITE)),
                ]),
                "rungs",
            ),
            (
                "short benchmark list",
                with_first_rung(&good, |rung| {
                    if let Some(Json::Array(benchmarks)) = rung.get("benchmarks").cloned() {
                        rung.set("benchmarks", Json::Array(benchmarks[..3].to_vec()));
                    }
                }),
                "3 benchmarks (expected 8)",
            ),
            (
                "inconsistent speedup",
                first(|b| {
                    b.set("interp_median_micros", 20.0);
                    b.set("vectorized_median_micros", 10.0);
                    b.set("speedup", 1e9);
                }),
                "speedup",
            ),
            (
                "inconsistent index_speedup",
                first(|b| {
                    b.set("interp_median_micros", 20.0);
                    b.set("vectorized_median_micros", 10.0);
                    b.set("speedup", 2.0);
                    b.set("index_speedup", 1e9);
                }),
                "index_speedup",
            ),
            (
                "negative number",
                first(|b| b.set("interp_min_micros", -1.0)),
                "invalid interp_min_micros",
            ),
            (
                "missing number",
                first(|b| {
                    if let Json::Object(pairs) = b {
                        pairs.retain(|(k, _)| k != "fullscan_median_micros");
                    }
                }),
                "invalid fullscan_median_micros",
            ),
        ];
        for (what, doc, want) in cases {
            let err = validate(&doc).expect_err(what);
            assert!(err.contains(want), "{what}: {err}");
        }
    }

    #[test]
    fn scaled_db_is_deterministic_and_fk_clean() {
        let a = scaled_db(1_000);
        let b = scaled_db(1_000);
        assert_eq!(a, b);
        a.check_foreign_keys().unwrap();
    }
}
