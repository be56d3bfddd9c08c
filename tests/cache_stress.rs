//! Concurrency stress for the shared caches.
//!
//! [`nli_core::PlanCache`]: many threads hammering `get_or_insert` over a
//! mixed hit/miss key population against a tiny capacity, so every
//! pathological interleaving — racing double-compiles, evictions under
//! contention, hits on entries another thread just inserted — happens
//! constantly. The cache must never panic, never lose a lookup, and its
//! accounting must stay exact.
//!
//! The schema linker's per-schema surface cache: threads sharing one
//! `GrammarParser` over many schemas race to build and read each schema's
//! surfaces, and every parse must equal the single-threaded answer.

use nli_core::{Database, NlQuestion, PlanCache, Prng, SemanticParser};
use nli_data::builder::{generate_databases, generate_examples};
use nli_data::nl_gen::NlStyle;
use nli_data::schema_gen::DbGenConfig;
use nli_data::sql_gen::SqlProfile;
use nli_text2sql::{GrammarConfig, GrammarParser};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const THREADS: usize = 8;
const ROUNDS: usize = 400;
/// Tiny on purpose: far below the key population, so eviction churns.
const CAPACITY: usize = 4;

#[test]
fn concurrent_get_or_insert_never_loses_a_lookup() {
    let cache: PlanCache<String> = PlanCache::with_capacity(CAPACITY);
    let builds = AtomicU64::new(0);
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let builds = &builds;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // a few keys are shared by all threads (hot: mostly
                    // hits), the rest are drawn from a pool much larger
                    // than capacity (cold: mostly misses + evictions)
                    let (source, fp) = if round % 3 == 0 {
                        (format!("hot-{}", round % 2), 7u64)
                    } else {
                        (format!("cold-{}-{}", t, round % 16), (round % 5) as u64)
                    };
                    let plan = cache
                        .get_or_insert(&source, fp, 0, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            Ok(format!("plan:{source}:{fp}"))
                        })
                        .unwrap();
                    // a hit must hand back the plan for *this* key, never a
                    // neighbour's — even mid-eviction
                    assert_eq!(*plan, format!("plan:{source}:{fp}"));
                }
            });
        }
    });

    let stats = cache.stats();
    let lookups = (THREADS * ROUNDS) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "every lookup is exactly one hit or one miss: {stats:?}"
    );
    // every miss compiles (and racing threads may both compile), so builds
    // can only meet or exceed the miss count
    assert!(builds.load(Ordering::Relaxed) >= stats.misses, "{stats:?}");
    assert!(stats.hits > 0, "hot keys must produce hits: {stats:?}");
    assert!(stats.misses > 0, "cold keys must produce misses: {stats:?}");
    assert!(stats.len <= CAPACITY, "capacity breached: {stats:?}");
    let rate = stats.hit_rate();
    assert!(rate.is_finite() && (0.0..=1.0).contains(&rate), "{rate}");
}

#[test]
fn concurrent_failures_and_successes_keep_accounting_exact() {
    // half the keys always fail to build: errors must propagate, never
    // cache, and never corrupt the hit/miss totals under contention
    let cache: PlanCache<u32> = PlanCache::with_capacity(CAPACITY);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    let key = format!("k{}", (t + round) % 6);
                    let fails = key.as_bytes()[1] % 2 == 0;
                    let r = cache.get_or_insert(&key, u64::from(fails), 0, || {
                        if fails {
                            Err(nli_core::NliError::Syntax("always broken".into()))
                        } else {
                            Ok(7)
                        }
                    });
                    assert_eq!(r.is_err(), fails, "{key}");
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS) as u64);
    assert!(stats.len <= CAPACITY);
    assert!(stats.hit_rate().is_finite());
}

/// One question's parser output, as text: the parse (or its error) and
/// the execution-guided candidate list.
fn parse_output(p: &GrammarParser, q: &NlQuestion, db: &Database) -> String {
    let parse = match p.parse(q, db) {
        Ok(sql) => sql.to_string(),
        Err(e) => format!("ERR {e}"),
    };
    let cands: Vec<String> = p
        .parse_candidates(q, db, 4)
        .iter()
        .map(|c| c.to_string())
        .collect();
    format!("{parse} | {}", cands.join(" || "))
}

#[test]
fn shared_parser_over_many_schemas_matches_single_thread() {
    const SCHEMAS: usize = 20;
    let mut rng = Prng::new(0x05C4_E3A5);
    let dbs = generate_databases(SCHEMAS, &DbGenConfig::default(), &mut rng);
    let examples = generate_examples(
        &dbs,
        0..SCHEMAS,
        &SqlProfile::spider(),
        NlStyle::plain(),
        3 * SCHEMAS,
        &mut rng,
    );
    let distinct: std::collections::HashSet<usize> = examples.iter().map(|e| e.db).collect();
    assert!(
        distinct.len() >= 16,
        "only {} schemas asked",
        distinct.len()
    );
    let expected: Vec<String> = examples
        .iter()
        .map(|ex| {
            // a fresh parser per question: no cache carried over
            let p = GrammarParser::new(GrammarConfig::llm_reasoner());
            parse_output(&p, &ex.question, &dbs[ex.db])
        })
        .collect();

    let shared = GrammarParser::new(GrammarConfig::llm_reasoner());
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (shared, barrier, dbs, examples, expected) =
                (&shared, &barrier, &dbs, &examples, &expected);
            s.spawn(move || {
                barrier.wait();
                // each thread starts at a different question, so threads
                // race to build different schemas' surfaces first
                for k in 0..examples.len() {
                    let i = (k + t * examples.len() / THREADS) % examples.len();
                    let ex = &examples[i];
                    let got = parse_output(shared, &ex.question, &dbs[ex.db]);
                    assert_eq!(got, expected[i], "thread {t}, question {i}");
                }
            });
        }
    });
}
