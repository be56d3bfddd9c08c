//! Batched execution of stateless queries.
//!
//! `SQL` and `EXEC` requests have no conversational state, so the server
//! does not run them on the connection threads. They are enqueued as
//! jobs and drained by a small pool of executor workers; when a
//! worker pops a job it also claims every *identical* statement currently
//! queued (up to the configured `batch_max`), executes the statement once
//! through the shared engine, and fans the rendered response out to every
//! waiting connection. Under a bursty workload of hot queries this turns
//! N executions into one — the `server.batch_size` value histogram
//! records how often that actually happens.
//!
//! `ASK` is deliberately *not* batched: it mutates per-tenant dialogue
//! state, so two identical questions from different tenants are not the
//! same request (see the determinism contract in DESIGN.md §3.7).

use crate::db::DbHandle;
use crate::proto::{self};
use nli_sql::SqlEngine;
use nli_systems::TenantStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A deterministic pause switch for the executor workers, exposed so
/// tests (and only tests) can hold execution mid-flight: close the gate,
/// submit work, observe the server's behaviour at saturation (`BUSY`) or
/// during drain, then reopen. A production server never sets one.
#[derive(Clone, Default)]
pub struct ExecGate {
    state: Arc<(Mutex<bool>, Condvar)>,
}

impl ExecGate {
    /// A new gate, initially open.
    pub fn new() -> ExecGate {
        ExecGate {
            state: Arc::new((Mutex::new(true), Condvar::new())),
        }
    }

    /// Block executor workers at the next batch boundary.
    pub fn close(&self) {
        *self.state.0.lock().unwrap() = false;
    }

    /// Release blocked workers.
    pub fn open(&self) {
        *self.state.0.lock().unwrap() = true;
        self.state.1.notify_all();
    }

    fn wait_open(&self) {
        let mut open = self.state.0.lock().unwrap();
        while !*open {
            open = self.state.1.wait(open).unwrap();
        }
    }
}

/// One queued stateless statement and the channel its response lines go
/// back on. Batched responses are shared (`Arc`), not copied per client.
/// `stats` is the submitting tenant's accounting (if any): the worker
/// meters batch participation and plan-cache hits there — per job, so a
/// batch of N identical statements from N tenants charges each of them.
struct QueryJob {
    sql: String,
    reply: mpsc::Sender<Arc<Vec<String>>>,
    stats: Option<Arc<TenantStats>>,
}

struct BatchState {
    queue: Mutex<VecDeque<QueryJob>>,
    available: Condvar,
    shutting_down: AtomicBool,
    batch_max: usize,
    engine: SqlEngine,
    db: Arc<DbHandle>,
    gate: Option<ExecGate>,
}

/// Cloneable submit-side handle to the executor queue.
#[derive(Clone)]
pub struct BatchQueue {
    state: Arc<BatchState>,
}

impl BatchQueue {
    /// Enqueue one statement; the receiver yields the response lines.
    /// `stats` (the submitting tenant's accounting) is metered by the
    /// worker that runs the batch. After shutdown has begun the job is
    /// refused with `E_SHUTDOWN` (connection threads should not race the
    /// drain).
    pub fn submit(
        &self,
        sql: String,
        stats: Option<Arc<TenantStats>>,
    ) -> mpsc::Receiver<Arc<Vec<String>>> {
        let (tx, rx) = mpsc::channel();
        if self.state.shutting_down.load(Ordering::Acquire) {
            let _ = tx.send(Arc::new(vec![
                "ERR E_SHUTDOWN server is draining".to_string()
            ]));
            return rx;
        }
        self.state.queue.lock().unwrap().push_back(QueryJob {
            sql,
            reply: tx,
            stats,
        });
        self.state.available.notify_one();
        rx
    }
}

/// The executor pool: owns the worker threads; [`BatchQueue`] handles
/// feed it from the connection threads.
pub struct Batcher {
    state: Arc<BatchState>,
    workers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Start `workers` executor threads over the shared `engine`/`db`.
    pub fn start(
        engine: SqlEngine,
        db: Arc<DbHandle>,
        workers: usize,
        batch_max: usize,
        gate: Option<ExecGate>,
    ) -> Batcher {
        let state = Arc::new(BatchState {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            batch_max: batch_max.max(1),
            engine,
            db,
            gate,
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("nli-server-exec-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn executor worker")
            })
            .collect();
        Batcher { state, workers }
    }

    /// A submit handle for connection threads.
    pub fn queue(&self) -> BatchQueue {
        BatchQueue {
            state: Arc::clone(&self.state),
        }
    }

    /// Graceful drain: stop accepting new jobs, finish everything already
    /// queued, then join the workers.
    pub fn shutdown(self) {
        self.state.shutting_down.store(true, Ordering::Release);
        self.state.available.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(state: &BatchState) {
    let registry = nli_core::obs::global();
    loop {
        let batch = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(first) = queue.pop_front() {
                    // Claim every queued job with the *identical* statement
                    // text — same bytes, same plan, same result.
                    let mut batch = vec![first];
                    let mut i = 0;
                    while i < queue.len() && batch.len() < state.batch_max {
                        if queue[i].sql == batch[0].sql {
                            batch.push(queue.remove(i).expect("index in bounds"));
                        } else {
                            i += 1;
                        }
                    }
                    break batch;
                }
                if state.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                queue = state.available.wait(queue).unwrap();
            }
        };
        if let Some(gate) = &state.gate {
            gate.wait_open();
        }
        registry
            .value_histogram("server.batch_size")
            .record(batch.len() as u64);
        let (lines, plan_was_cached) = execute(state, &batch[0].sql);
        let lines = Arc::new(lines);
        for job in batch {
            if let Some(stats) = &job.stats {
                stats.batches_joined.inc();
                if plan_was_cached {
                    // Scheduling class: whether the plan was warm when
                    // *this* batch ran depends on cross-tenant timing.
                    stats.plan_cache_hits.inc();
                }
            }
            // A client that hung up mid-request just drops its receiver.
            let _ = job.reply.send(Arc::clone(&lines));
        }
    }
}

fn execute(state: &BatchState, sql: &str) -> (Vec<String>, bool) {
    // One snapshot per batch: every client in the batch reads the same
    // consistent image, and a DML commit mid-batch is simply not seen.
    let db = state.db.snapshot();
    // Probe before `prepare` inserts: "was the plan already warm".
    let plan_was_cached = state.engine.plan_cached(sql, &db.schema);
    let lines = match state
        .engine
        .prepare(sql, &db.schema)
        .and_then(|stmt| stmt.execute(&db))
    {
        Ok(rs) => proto::render_table(&rs),
        Err(err) => vec![proto::error_line(&err)],
    };
    (lines, plan_was_cached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nli_core::{Column, DataType, Database, Schema, Table, Value};

    fn db() -> Arc<DbHandle> {
        let schema = Schema::new(
            "shop",
            vec![Table::new(
                "sales",
                vec![
                    Column::new("id", DataType::Int).primary(),
                    Column::new("amount", DataType::Float),
                ],
            )],
        );
        let mut d = Database::empty(schema);
        d.insert_all(
            "sales",
            (1..=4).map(|i| vec![Value::Int(i), Value::Float(i as f64 * 10.0)]),
        )
        .unwrap();
        Arc::new(DbHandle::read_only(Arc::new(d)))
    }

    #[test]
    fn identical_queued_statements_share_one_execution() {
        let gate = ExecGate::new();
        gate.close();
        let batcher = Batcher::start(SqlEngine::new(), db(), 1, 8, Some(gate.clone()));
        let q = batcher.queue();
        let receivers: Vec<_> = (0..5)
            .map(|_| q.submit("SELECT COUNT(*) FROM sales".to_string(), None))
            .collect();
        gate.open();
        let responses: Vec<Arc<Vec<String>>> =
            receivers.into_iter().map(|rx| rx.recv().unwrap()).collect();
        // all five clients observe the same response object
        for r in &responses {
            assert!(Arc::ptr_eq(r, &responses[0]) || **r == **responses.first().unwrap());
            assert_eq!(r[0], "OK table 1 1");
            assert_eq!(r[2], "ROW 4");
        }
        batcher.shutdown();
    }

    #[test]
    fn errors_come_back_as_err_lines() {
        let batcher = Batcher::start(SqlEngine::new(), db(), 2, 4, None);
        let rx = batcher
            .queue()
            .submit("SELECT nope FROM sales".to_string(), None);
        let lines = rx.recv().unwrap();
        assert!(lines[0].starts_with("ERR E_EXEC "), "{lines:?}");
        let rx = batcher.queue().submit("SELEC 1".to_string(), None);
        let lines = rx.recv().unwrap();
        assert!(lines[0].starts_with("ERR E_PARSE "), "{lines:?}");
        batcher.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_before_joining() {
        let gate = ExecGate::new();
        gate.close();
        let batcher = Batcher::start(SqlEngine::new(), db(), 1, 1, Some(gate.clone()));
        let q = batcher.queue();
        let receivers: Vec<_> = (0..3)
            .map(|_| q.submit("SELECT id FROM sales".to_string(), None))
            .collect();
        gate.open();
        batcher.shutdown();
        for rx in receivers {
            let lines = rx.recv().unwrap();
            assert_eq!(lines[0], "OK table 4 1", "{lines:?}");
        }
        // jobs submitted after shutdown are refused, not lost
        let lines = q
            .submit("SELECT id FROM sales".to_string(), None)
            .recv()
            .unwrap();
        assert!(lines[0].starts_with("ERR E_SHUTDOWN "), "{lines:?}");
    }

    #[test]
    fn workers_meter_batches_and_plan_cache_hits_per_tenant() {
        let batcher = Batcher::start(SqlEngine::new(), db(), 1, 8, None);
        let q = batcher.queue();
        let stats = Arc::new(TenantStats::default());
        // First run compiles the plan (cold)...
        q.submit("SELECT id FROM sales".to_string(), Some(Arc::clone(&stats)))
            .recv()
            .unwrap();
        assert_eq!(stats.batches_joined.get(), 1);
        assert_eq!(stats.plan_cache_hits.get(), 0, "cold plan is not a hit");
        // ...the second finds it warm.
        q.submit("SELECT id FROM sales".to_string(), Some(Arc::clone(&stats)))
            .recv()
            .unwrap();
        assert_eq!(stats.batches_joined.get(), 2);
        assert_eq!(stats.plan_cache_hits.get(), 1);
        batcher.shutdown();
    }
}
