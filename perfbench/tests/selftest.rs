//! Self-tests of the benchmark: a smoke-size run of every workload
//! against the real server binary, and negative tests showing that the
//! SQL oracle and the DML oracle each fire when fed a wrong answer.

use nli_core::Prng;
use nli_perfbench::gen::{self, Stream, Workload};
use nli_perfbench::load::{self, Phases, Role};
use nli_perfbench::oracle::{self, ReadObs, WriteAck};
use nli_perfbench::server::{build_server, repo_root, Server};
use nli_perfbench::{run, Config, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::sync::{Barrier, OnceLock};
use std::time::Duration;

fn server_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| build_server(&repo_root()).expect("build nli-server"))
        .clone()
}

fn smoke(workload: Workload, trace: bool) {
    let outcome = run(&Config {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        server_bin: server_bin(),
    })
    .expect("the run completes");
    assert!(
        outcome.correct && outcome.failed == 0,
        "{}: {:?}",
        workload.name(),
        outcome.failures
    );
    assert!(outcome.attempted > 0);
    let want: Vec<&str> = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    }
    .iter()
    .map(|(name, _)| *name)
    .collect();
    let got: Vec<&str> = outcome.metrics.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(got, want);
    if !trace {
        for (name, value, _) in &outcome.metrics {
            assert!(*value > 0.0, "{name} is {value}");
        }
    }
    let line = outcome.result_json().to_string();
    let parsed = serde_json::from_str(&line).expect("the result line is JSON");
    assert_eq!(parsed.get("correct").and_then(|v| v.as_bool()), Some(true));
}

#[test]
fn sql_mix_smoke() {
    smoke(Workload::SqlMix, false);
    smoke(Workload::SqlMix, true);
}

#[test]
fn ask_mix_smoke() {
    smoke(Workload::AskMix, true);
}

#[test]
fn rw_mix_smoke() {
    smoke(Workload::RwMix, false);
    smoke(Workload::RwMix, true);
}

#[test]
fn sql_oracle_fires_on_a_wrong_answer() {
    let db = gen::served_db();
    let pool = gen::ladder_pool();
    let mut expected = oracle::expected_responses(&pool, &db).unwrap();
    // Corrupt what the oracle expects for one statement: every answer
    // the server gives to it must now be reported as a failure.
    let n = expected[0].len();
    expected[0][n - 2].push('x');
    let server = Server::start(&server_bin(), None).unwrap();
    let log = load::run_client(
        server.addr(),
        0,
        1,
        Role::Reads {
            pool: &pool,
            expected: &expected,
            stream: Stream::passes(Prng::new(1), pool.len()),
            pool_pass: true,
        },
        Phases {
            warmup: Duration::ZERO,
            measure: Duration::from_millis(200),
        },
        &Barrier::new(1),
    );
    server.stop().unwrap();
    assert!(log.failed >= 1, "the corrupted answer was not caught");
    let asked_first = log.requested.iter().filter(|&&i| i == 0).count() as u64 + 1;
    assert_eq!(log.failed, asked_first, "only statement 0 is wrong");
    assert!(log
        .first_failure
        .unwrap()
        .contains("differs from the in-process answer"));
}

#[test]
fn dml_oracle_fires_on_a_wrong_ack_or_read() {
    let db = gen::served_db();
    let ladder: Vec<String> = gen::ladder_pool()
        .into_iter()
        .filter_map(|e| e.sql)
        .collect();
    let mut writer = gen::Writer::new(Prng::new(3), 200);
    let acks: Vec<WriteAck> = (0..6)
        .map(|_| WriteAck {
            sql: writer.next_sql(),
            affected: 1,
        })
        .collect();
    // The join reads `sales`; its answer after the first insert.
    let join = 2;
    let mut model = db.clone();
    nli_sql::SqlEngine::new()
        .run_statement(&acks[0].sql, &mut model)
        .unwrap();
    let after_insert = oracle::hash_lines(&oracle::render_sql(
        &nli_sql::SqlEngine::new(),
        &ladder[join],
        &model,
    ));
    let read = |lo, hi| ReadObs {
        query: join,
        lo,
        hi,
        hash: after_insert,
    };

    let honest = oracle::check_rw(&db, &ladder, &acks, &[read(0, 1), read(1, 1)]);
    assert_eq!(
        (honest.bad_acks, honest.bad_reads),
        (0, 0),
        "{:?}",
        honest.first_error
    );
    assert_eq!(
        honest.model.rows_of("sales").unwrap().len(),
        200,
        "every cycle deletes its insert"
    );

    // A read that claims a state it could not have seen.
    let stale = oracle::check_rw(&db, &ladder, &acks, &[read(2, 3)]);
    assert_eq!(stale.bad_reads, 1);

    // An ack whose affected count the model disagrees with.
    let mut lying = acks.clone();
    lying[4].affected = 2;
    let verdict = oracle::check_rw(&db, &ladder, &lying, &[]);
    assert_eq!(verdict.bad_acks, 1);
    assert!(verdict.first_error.unwrap().contains("server acked 2 rows"));
}
