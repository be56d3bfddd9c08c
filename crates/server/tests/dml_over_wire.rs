//! DML over the wire: `INSERT`/`UPDATE`/`DELETE` frames against a durable
//! (`data_dir`) server, read-only refusal without one, and persistence
//! across a full server restart — the walkthrough EXPERIMENTS.md's
//! persistence section narrates, as a test.

use nli_core::{Column, DataType, Database, Schema, Table};
use nli_server::{start, validate_server_line, Client, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn shop_db() -> Arc<Database> {
    let schema = Schema::new(
        "shop",
        vec![Table::new(
            "sales",
            vec![
                Column::new("id", DataType::Int).primary(),
                Column::new("category", DataType::Text),
                Column::new("amount", DataType::Float),
            ],
        )],
    );
    let mut d = Database::empty(schema);
    d.insert_all(
        "sales",
        vec![
            vec![1.into(), "Tools".into(), 100.0.into()],
            vec![2.into(), "Toys".into(), 50.0.into()],
            vec![3.into(), "Tools".into(), 70.0.into()],
        ],
    )
    .unwrap();
    Arc::new(d)
}

/// A fresh directory unique to this call: tests in one process share the
/// pid, so the name also carries a process-wide sequence number.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nli-server-dml-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_shop(data_dir: Option<PathBuf>) -> ServerHandle {
    let mut cfg = ServerConfig::new(shop_db());
    cfg.data_dir = data_dir;
    start(cfg).expect("server starts on a loopback port")
}

fn handshake(handle: &ServerHandle, tenant: &str) -> Client {
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect("HELLO nli/1", "OK nli/1 ready").unwrap();
    c.expect(&format!("TENANT {tenant}"), &format!("OK tenant {tenant}"))
        .unwrap();
    c
}

fn count(c: &mut Client, sql: &str) -> String {
    let lines = c.request(&format!("SQL {sql}")).unwrap();
    assert_eq!(lines[0], "OK table 1 1", "{lines:?}");
    lines[2].strip_prefix("ROW ").unwrap().to_string()
}

#[test]
fn read_only_server_refuses_dml_without_mutating() {
    let handle = start_shop(None);
    let mut c = handshake(&handle, "alice");
    let lines = c
        .request("SQL DELETE FROM sales WHERE amount < 80")
        .unwrap();
    assert!(lines[0].starts_with("ERR E_EXEC "), "{lines:?}");
    assert!(lines[0].contains("read-only"), "{lines:?}");
    validate_server_line(&lines[0]).unwrap();
    assert_eq!(count(&mut c, "SELECT COUNT(*) FROM sales"), "3");
    c.expect("QUIT", "OK bye").unwrap();
    handle.shutdown();
}

#[test]
fn dml_mutates_over_the_wire_and_survives_restart() {
    let dir = temp_dir("restart");

    let handle = start_shop(Some(dir.clone()));
    let mut c = handshake(&handle, "alice");

    // INSERT acks with the row count and is immediately visible to reads.
    let lines = c
        .request("SQL INSERT INTO sales VALUES (4, 'Toys', 20.0), (5, 'Tools', 55.5)")
        .unwrap();
    assert_eq!(lines, vec!["OK affected 2".to_string()]);
    validate_server_line(&lines[0]).unwrap();
    assert_eq!(count(&mut c, "SELECT COUNT(*) FROM sales"), "5");

    // UPDATE with an indexed-style WHERE, then DELETE.
    let lines = c
        .request("SQL UPDATE sales SET amount = 60.0 WHERE category = 'Toys'")
        .unwrap();
    assert_eq!(lines, vec!["OK affected 2".to_string()]);
    let lines = c.request("SQL DELETE FROM sales WHERE id = 1").unwrap();
    assert_eq!(lines, vec!["OK affected 1".to_string()]);
    assert_eq!(
        count(&mut c, "SELECT COUNT(*) FROM sales WHERE amount = 60.0"),
        "2"
    );

    // An invalid statement neither acks nor mutates.
    let lines = c
        .request("SQL INSERT INTO sales VALUES (6, 'Toys')")
        .unwrap();
    assert!(lines[0].starts_with("ERR "), "{lines:?}");
    assert_eq!(count(&mut c, "SELECT COUNT(*) FROM sales"), "4");

    // Conversational reads observe the committed writes too.
    let lines = c.request("ASK How many sales are there?").unwrap();
    assert_eq!(lines[2], "ROW 4", "{lines:?}");

    c.expect("QUIT", "OK bye").unwrap();
    handle.shutdown();

    // Restart over the same directory: the persisted state wins over the
    // seed image the config carries.
    let handle = start_shop(Some(dir.clone()));
    let mut c = handshake(&handle, "bob");
    assert_eq!(count(&mut c, "SELECT COUNT(*) FROM sales"), "4");
    assert_eq!(
        count(&mut c, "SELECT COUNT(*) FROM sales WHERE amount = 60.0"),
        "2"
    );
    assert_eq!(
        count(&mut c, "SELECT COUNT(*) FROM sales WHERE id = 1"),
        "0"
    );
    c.expect("QUIT", "OK bye").unwrap();
    handle.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_dml_from_many_connections_all_lands() {
    let dir = temp_dir("concurrent");
    let handle = start_shop(Some(dir.clone()));

    // Identical INSERT texts from parallel clients must all apply —
    // DML bypasses the identical-statement batcher by design.
    let addr = handle.addr();
    let workers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.expect("HELLO nli/1", "OK nli/1 ready").unwrap();
                c.expect(&format!("TENANT w{i}"), &format!("OK tenant w{i}"))
                    .unwrap();
                for j in 0..5 {
                    let id = 100 + i * 10 + j;
                    let lines = c
                        .request(&format!("SQL INSERT INTO sales VALUES ({id}, 'Bulk', 1.0)"))
                        .unwrap();
                    assert_eq!(lines, vec!["OK affected 1".to_string()]);
                }
                c.expect("QUIT", "OK bye").unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut c = handshake(&handle, "check");
    assert_eq!(
        count(&mut c, "SELECT COUNT(*) FROM sales WHERE category = 'Bulk'"),
        "20"
    );
    c.expect("QUIT", "OK bye").unwrap();
    handle.shutdown();

    // Every acknowledged insert is durable.
    let handle = start_shop(Some(dir.clone()));
    let mut c = handshake(&handle, "check2");
    assert_eq!(
        count(&mut c, "SELECT COUNT(*) FROM sales WHERE category = 'Bulk'"),
        "20"
    );
    c.expect("QUIT", "OK bye").unwrap();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
