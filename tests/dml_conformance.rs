//! Differential DML conformance: random `INSERT`/`UPDATE`/`DELETE`
//! interleavings applied through three independent legs that must stay
//! byte-identical at every step —
//!
//! 1. **tree-walk** — `compute_dml_tree_walk` (the reference
//!    interpreter) computes each op, applied with `Database::apply_op`;
//! 2. **planned** — `SqlEngine::compute_dml_op` (cost-based planner +
//!    vectorized executor, WHERE clauses may take index probes);
//! 3. **durable** — the same planned ops committed through a real
//!    [`Store`] (journal → apply), with the directory reopened at the end
//!    and after periodic checkpoints.
//!
//! After every statement a fixed probe-query ladder runs on each leg and
//! the canonicalized results must agree exactly; the whole interleaving
//! runs at `NLI_THREADS=1` and `4` and must produce identical transcripts
//! (the vectorized executor's determinism contract extends to DML).

use nli_core::{with_threads, Column, DataType, Database, Prng, Schema, Store, Table, Value};
use nli_sql::{compute_dml_tree_walk, parse_statement, SqlEngine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// items: an indexed-friendly mix of Int/Text/Float/Date columns whose
/// small value domains make generated WHERE clauses actually select rows.
fn seed_db() -> Database {
    let schema = Schema::new(
        "conformance",
        vec![Table::new(
            "items",
            vec![
                Column::new("id", DataType::Int).primary(),
                Column::new("tag", DataType::Text),
                Column::new("qty", DataType::Int),
                Column::new("price", DataType::Float),
                Column::new("added", DataType::Date),
            ],
        )],
    );
    let mut db = Database::empty(schema);
    let mut rng = Prng::new(0x5EED_D31B);
    let rows: Vec<Vec<Value>> = (1..=40).map(|i| seed_row(i, &mut rng)).collect();
    db.insert_all("items", rows).unwrap();
    db
}

const TAGS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const DATES: [&str; 3] = ["2024-01-15", "2024-06-01", "2025-02-28"];

fn seed_row(id: i64, rng: &mut Prng) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Text(TAGS[rng.below(TAGS.len())].to_string()),
        Value::Int(rng.range(0, 9)),
        Value::Float(rng.range(1, 40) as f64 * 2.5),
        parse_date(DATES[rng.below(DATES.len())]),
    ]
}

fn parse_date(s: &str) -> Value {
    Value::Date(nli_core::Date::parse(s).expect("literal date"))
}

/// One random DML statement. `next_id` keeps generated INSERT keys unique
/// so the interleaving never depends on duplicate-id edge behaviour.
fn gen_stmt(rng: &mut Prng, next_id: &mut i64) -> String {
    let tag = TAGS[rng.below(TAGS.len())];
    let qty = rng.range(0, 9);
    let price = rng.range(1, 40) as f64 * 2.5;
    match rng.below(10) {
        // INSERT one to three rows (multi-row VALUES exercises batching)
        0..=3 => {
            let n = 1 + rng.below(3);
            let rows: Vec<String> = (0..n)
                .map(|_| {
                    let id = *next_id;
                    *next_id += 1;
                    format!(
                        "({id}, '{}', {}, {}, '{}')",
                        TAGS[rng.below(TAGS.len())],
                        rng.range(0, 9),
                        rng.range(1, 40) as f64 * 2.5,
                        DATES[rng.below(DATES.len())]
                    )
                })
                .collect();
            format!("INSERT INTO items VALUES {}", rows.join(", "))
        }
        // UPDATE through a few WHERE shapes (eq on text, range on int,
        // BETWEEN on float, IN list) and SET shapes incl. self-reference
        4..=6 => {
            let set = match rng.below(4) {
                0 => format!("qty = {}", rng.range(0, 9)),
                1 => format!("price = {price}"),
                2 => "qty = qty + 1".to_string(),
                _ => format!("tag = '{tag}', price = price * 2"),
            };
            let cond = gen_where(rng, tag, qty, price);
            format!("UPDATE items SET {set} WHERE {cond}")
        }
        // DELETE (bounded predicates so the table never empties out)
        _ => {
            let cond = gen_where(rng, tag, qty, price);
            format!("DELETE FROM items WHERE {cond}")
        }
    }
}

fn gen_where(rng: &mut Prng, tag: &str, qty: i64, price: f64) -> String {
    match rng.below(5) {
        0 => format!("tag = '{tag}' AND qty = {qty}"),
        1 => format!("qty > {} AND qty < {}", qty.min(7), qty.min(7) + 2),
        2 => format!("price BETWEEN {} AND {}", price, price + 10.0),
        3 => format!("tag IN ('{tag}', 'nope') AND price < {price}"),
        _ => format!(
            "added = '{}' AND qty = {qty}",
            DATES[rng.below(DATES.len())]
        ),
    }
}

/// The probe ladder: shapes that cover scans, filters, aggregates,
/// grouping, and ordering over the mutated table.
const PROBES: [&str; 6] = [
    "SELECT COUNT(*) FROM items",
    "SELECT tag, COUNT(*), SUM(qty) FROM items GROUP BY tag ORDER BY tag",
    "SELECT id, price FROM items WHERE qty >= 5 ORDER BY id",
    "SELECT MIN(price), MAX(price), AVG(qty) FROM items",
    "SELECT tag FROM items WHERE price > 40.0 GROUP BY tag ORDER BY tag",
    "SELECT COUNT(*) FROM items WHERE added > '2024-03-01'",
];

/// Canonical transcript entry for one probe on one leg: columns, ordered
/// flag, and canonicalized rows — byte-comparable across legs and runs.
fn probe_transcript(engine: &SqlEngine, db: &Database) -> Vec<String> {
    PROBES
        .iter()
        .map(|sql| {
            let rs = engine.run_sql(sql, db).expect(sql);
            format!(
                "{sql} => cols={:?} ordered={} rows={:?}",
                rs.columns,
                rs.ordered,
                rs.to_canonical()
            )
        })
        .collect()
}

/// A fresh directory unique to this call: tests in one process share the
/// pid, so the name also carries a process-wide sequence number.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nli-dml-conf-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one full interleaving of `steps` statements from `seed`, asserting
/// the three legs agree after every statement. Returns the concatenated
/// probe transcript (for the cross-thread-count comparison).
fn run_interleaving(seed: u64, steps: usize, dir: &PathBuf) -> Vec<String> {
    let engine = SqlEngine::new();
    let mut rng = Prng::new(seed);
    let mut next_id = 1000;

    let mut tree_db = seed_db();
    let mut plan_db = seed_db();
    let mut store = Store::create(dir, seed_db()).unwrap();
    let mut transcript = Vec::new();

    for step in 0..steps {
        let sql = gen_stmt(&mut rng, &mut next_id);
        let stmt = parse_statement(&sql).expect(&sql);

        // leg 1: reference tree-walk
        let tree_op = compute_dml_tree_walk(&stmt, &tree_db).expect(&sql);
        let tree_n = tree_db.apply_op(&tree_op).expect(&sql);

        // leg 2: cost-based planner + vectorized executor
        let plan_op = engine.compute_dml_op(&stmt, &plan_db).expect(&sql);
        assert_eq!(
            tree_op, plan_op,
            "tree-walk and planned ops diverged on {sql} (step {step})"
        );
        let plan_n = plan_db.apply_op(&plan_op).expect(&sql);
        assert_eq!(tree_n, plan_n, "affected counts diverged on {sql}");

        // leg 3: journaled commit through the store
        let store_op = engine.compute_dml_op(&stmt, store.db()).expect(&sql);
        assert_eq!(
            plan_op, store_op,
            "store leg computed a different op on {sql}"
        );
        let store_n = store.commit(&store_op).expect(&sql);
        assert_eq!(plan_n, store_n, "store affected count diverged on {sql}");

        // periodic checkpoint: folding the WAL must not change anything
        if step % 11 == 10 {
            store.checkpoint().expect("checkpoint");
        }

        let probes = probe_transcript(&engine, &plan_db);
        assert_eq!(
            probe_transcript(&engine, &tree_db),
            probes,
            "tree-walk leg diverged after {sql} (step {step})"
        );
        assert_eq!(
            probe_transcript(&engine, store.db()),
            probes,
            "store leg diverged after {sql} (step {step})"
        );
        transcript.push(format!("{sql} => affected {plan_n}"));
        transcript.extend(probes);
    }

    // persist → reopen: the recovered image answers every probe the same
    drop(store);
    let reopened = Store::open(dir).unwrap();
    assert_eq!(
        probe_transcript(&engine, reopened.db()),
        probe_transcript(&engine, &plan_db),
        "reopened store diverged from the live image (seed {seed})"
    );
    transcript
}

#[test]
fn random_dml_interleavings_agree_across_all_three_legs() {
    for seed in [1u64, 42, 0xD31B] {
        let dir = temp_dir(&format!("legs-{seed}"));
        run_interleaving(seed, 36, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn dml_transcripts_are_identical_across_thread_counts() {
    let dir1 = temp_dir("t1");
    let dir4 = temp_dir("t4");
    let one = with_threads(1, || run_interleaving(7, 30, &dir1));
    let four = with_threads(4, || run_interleaving(7, 30, &dir4));
    assert_eq!(one, four, "NLI_THREADS=1 vs 4 transcripts diverged");
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn indexes_declared_on_the_store_survive_and_keep_answers_identical() {
    let dir = temp_dir("indexed");
    let engine = SqlEngine::new();
    let mut store = Store::create(&dir, seed_db()).unwrap();
    assert!(store.create_index("items", "tag").unwrap());
    assert!(store.create_index("items", "qty").unwrap());

    let mut rng = Prng::new(99);
    let mut next_id = 5000;
    let mut plain = seed_db();
    for _ in 0..20 {
        let sql = gen_stmt(&mut rng, &mut next_id);
        let stmt = parse_statement(&sql).unwrap();
        // the index-aware leg may pick index probes; results must match
        // the plain leg's tree-walk ground truth anyway
        let op = engine.compute_dml_op(&stmt, store.db()).unwrap();
        let reference = compute_dml_tree_walk(&stmt, &plain).unwrap();
        assert_eq!(op, reference, "indexed op diverged on {sql}");
        store.commit(&op).unwrap();
        plain.apply_op(&reference).unwrap();
    }
    assert_eq!(
        probe_transcript(&engine, store.db()),
        probe_transcript(&engine, &plain)
    );

    // reopen: index declarations replay from the journal too
    drop(store);
    let reopened = Store::open(&dir).unwrap();
    assert!(!reopened.db().index_declarations().is_empty());
    assert_eq!(
        probe_transcript(&engine, reopened.db()),
        probe_transcript(&engine, &plain)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
