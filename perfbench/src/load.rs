//! The closed-loop load generator: one thread per connection, each its
//! own tenant, each sending its next request only after the previous
//! answer fully arrived (an analyst reads each answer before asking the
//! next). Latency is timed around send + full read; control frames
//! (`RESET`) are sent between requests and never timed or counted.

use crate::gen::{Kind, PoolEntry, Stream, Writer};
use crate::oracle::{self, ReadObs, WriteAck};
use nli_server::Client;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Completion time, seconds after the timed phase began.
    pub end_s: f64,
    pub micros: f64,
}

/// What one connection does.
pub enum Role<'a> {
    /// Draw pool entries from `stream`; every answer must equal
    /// `expected[index]`. `pool_pass` first asks this client's share of
    /// the whole pool once, keeping the answers (for `ask_exec_acc`).
    Reads {
        pool: &'a [PoolEntry],
        expected: &'a [Vec<String>],
        stream: Stream,
        pool_pass: bool,
    },
    /// The `rw_mix` writer.
    Writes {
        writer: Writer,
        sent: &'a AtomicUsize,
        acked: &'a AtomicUsize,
        gate: &'a Gate,
    },
    /// The `rw_mix` reader: answers depend on concurrent writes, so they
    /// are kept (hashed) for the model check after the run.
    RacingReads {
        ladder: &'a [PoolEntry],
        stream: Stream,
        sent: &'a AtomicUsize,
        acked: &'a AtomicUsize,
        gate: &'a Gate,
    },
}

/// The `rw_mix` writer sends its n-th write once the reader has completed
/// `n × READS_PER_WRITE` reads (two passes over the ladder). Both clients
/// are otherwise closed-loop, so the read/write mix, and with it the share
/// of reads that land on a freshly published snapshot, is fixed by the
/// workload rather than by how fast the machine or its disk runs.
pub const READS_PER_WRITE: usize = 14;

/// The reader's completed reads, which the writer waits on.
#[derive(Debug, Default)]
pub struct Gate {
    reads: Mutex<usize>,
    more: Condvar,
}

impl Gate {
    fn read_done(&self) {
        *self.reads.lock().unwrap() += 1;
        self.more.notify_all();
    }

    /// Block until `reads` reads are done or `until` has passed.
    fn wait_for(&self, reads: usize, until: Instant) {
        let done = self.reads.lock().unwrap();
        let left = until.saturating_duration_since(Instant::now());
        let _ = self.more.wait_timeout_while(done, left, |n| *n < reads);
    }
}

/// Timing of the load phases, shared by all clients.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warmup: Duration,
    pub measure: Duration,
}

/// Everything one connection observed.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Requests sent (every phase), and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Timed-phase samples.
    pub samples: Vec<Sample>,
    /// Every latency of the load loop, warm-up included.
    pub all_micros: Vec<f64>,
    /// Pool pass answers: `(pool index, lines)`.
    pub pool_answers: Vec<(usize, Vec<String>)>,
    /// The pool indices requested in the timed phase, in order.
    pub requested: Vec<usize>,
    pub acks: Vec<WriteAck>,
    pub reads: Vec<ReadObs>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

struct Conn {
    client: Client,
}

impl Conn {
    fn open(addr: SocketAddr, tenant: &str) -> std::io::Result<Conn> {
        let mut client = Client::connect(addr)?;
        client.expect("HELLO nli/1", "OK nli/1 ready")?;
        client.expect(&format!("TENANT {tenant}"), &format!("OK tenant {tenant}"))?;
        Ok(Conn { client })
    }

    /// One timed request: `(lines, micros)`.
    fn timed(&mut self, frame: &str) -> std::io::Result<(Vec<String>, f64)> {
        let start = Instant::now();
        self.client.send(frame)?;
        let lines = self.client.read_response()?;
        Ok((lines, start.elapsed().as_nanos() as f64 / 1000.0))
    }
}

/// The tenant id of client `i`.
pub(crate) fn tenant_id(i: usize) -> String {
    format!("c{i}")
}

/// Run one client to completion. `start` lines every client up so the
/// phases begin together.
pub fn run_client(
    addr: SocketAddr,
    index: usize,
    clients: usize,
    mut role: Role<'_>,
    phases: Phases,
    start: &Barrier,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr, &tenant_id(index)) {
        Ok(c) => c,
        Err(e) => {
            start.wait();
            log.attempted += 1;
            log.fail(format!("client {index}: handshake: {e}"));
            return log;
        }
    };
    let prepared = conn.client.expect(
        &format!("PREPARE hot {}", crate::gen::HOT_QUERY),
        "OK prepared hot",
    );
    if let Err(e) = prepared {
        log.attempted += 1;
        log.fail(format!("client {index}: PREPARE: {e}"));
    }
    if let Role::Reads {
        pool,
        expected,
        pool_pass: true,
        ..
    } = &role
    {
        for idx in (index..pool.len()).step_by(clients) {
            match read_request(&mut conn, pool, expected, idx, &mut log) {
                Some((lines, _)) => log.pool_answers.push((idx, lines)),
                None => break,
            }
        }
    }
    start.wait();
    let t0 = Instant::now();
    let measure_from = t0 + phases.warmup;
    let end = measure_from + phases.measure;
    loop {
        if let Role::Writes { sent, gate, .. } = &role {
            gate.wait_for((sent.load(Ordering::SeqCst) + 1) * READS_PER_WRITE, end);
        }
        let now = Instant::now();
        if now >= end {
            break;
        }
        let timed = now >= measure_from;
        let outcome = match &mut role {
            Role::Reads {
                pool,
                expected,
                stream,
                ..
            } => {
                let idx = stream.next_index();
                if timed {
                    log.requested.push(idx);
                }
                read_request(&mut conn, pool, expected, idx, &mut log)
                    .map(|(_, us)| (pool[idx].kind, us))
            }
            Role::Writes {
                writer,
                sent,
                acked,
                ..
            } => {
                let sql = writer.next_sql();
                sent.fetch_add(1, Ordering::SeqCst);
                log.attempted += 1;
                match conn.timed(&format!("SQL {sql}")) {
                    Ok((lines, us)) => {
                        match lines[0]
                            .strip_prefix("OK affected ")
                            .and_then(|n| n.parse::<u64>().ok())
                        {
                            Some(affected) if lines.len() == 1 => {
                                log.acks.push(WriteAck { sql, affected });
                                acked.fetch_add(1, Ordering::SeqCst);
                            }
                            _ => {
                                // Every later state of the model would be
                                // off by this write: stop writing.
                                log.fail(format!("write {sql:?} answered {lines:?}"));
                                break;
                            }
                        }
                        Some((Kind::Dml, us))
                    }
                    Err(e) => {
                        log.fail(format!("write {sql:?}: {e}"));
                        None
                    }
                }
            }
            Role::RacingReads {
                ladder,
                stream,
                sent,
                acked,
                gate,
            } => {
                let idx = stream.next_index();
                let lo = acked.load(Ordering::SeqCst);
                log.attempted += 1;
                match conn.timed(&ladder[idx].frame) {
                    Ok((lines, us)) => {
                        let hi = sent.load(Ordering::SeqCst);
                        gate.read_done();
                        if let Err(e) = oracle::validate_lines(&lines) {
                            log.fail(format!("read {:?}: {e}", ladder[idx].frame));
                        } else {
                            log.reads.push(ReadObs {
                                query: idx,
                                lo,
                                hi,
                                hash: oracle::hash_lines(&lines),
                            });
                        }
                        Some((Kind::Sql, us))
                    }
                    Err(e) => {
                        log.fail(format!("read {:?}: {e}", ladder[idx].frame));
                        None
                    }
                }
            }
        };
        let Some((kind, micros)) = outcome else {
            break;
        };
        log.all_micros.push(micros);
        if timed {
            log.samples.push(Sample {
                kind,
                end_s: (Instant::now() - measure_from).as_secs_f64(),
                micros,
            });
        }
    }
    let _ = conn.client.expect("QUIT", "OK bye");
    log
}

/// One pool request (with the `RESET` an `ASK` needs first), checked
/// against its expected answer. `None` when the connection broke.
fn read_request(
    conn: &mut Conn,
    pool: &[PoolEntry],
    expected: &[Vec<String>],
    idx: usize,
    log: &mut ClientLog,
) -> Option<(Vec<String>, f64)> {
    let entry = &pool[idx];
    if entry.kind == Kind::Ask {
        if let Err(e) = conn.client.expect("RESET", "OK reset") {
            log.attempted += 1;
            log.fail(format!("RESET: {e}"));
            return None;
        }
    }
    log.attempted += 1;
    match conn.timed(&entry.frame) {
        Ok((lines, us)) => {
            if lines != expected[idx] {
                let grammar = oracle::validate_lines(&lines).err();
                log.fail(format!(
                    "{:?}: answer differs from the in-process answer{}: got {:?}, want {:?}",
                    entry.frame,
                    grammar
                        .map(|g| format!(" and breaks the grammar ({g})"))
                        .unwrap_or_default(),
                    lines.iter().take(3).collect::<Vec<_>>(),
                    expected[idx].iter().take(3).collect::<Vec<_>>()
                ));
            }
            Some((lines, us))
        }
        Err(e) => {
            log.fail(format!("{:?}: {e}", entry.frame));
            None
        }
    }
}

/// Read an admin report (`STATS` or `STATS TENANT <id>`) as key/value
/// pairs over a fresh admin connection.
pub(crate) fn admin_stats(
    addr: SocketAddr,
    frames: &[String],
) -> Result<Vec<Vec<(String, String)>>, String> {
    let mut conn = Conn::open(addr, "admin").map_err(|e| format!("admin connection: {e}"))?;
    let mut out = Vec::new();
    for frame in frames {
        let lines = conn
            .client
            .request(frame)
            .map_err(|e| format!("{frame}: {e}"))?;
        oracle::validate_lines(&lines).map_err(|e| format!("{frame}: {e}"))?;
        if !lines[0].starts_with("OK stats ") {
            return Err(format!("{frame} answered {:?}", lines[0]));
        }
        out.push(
            lines
                .iter()
                .filter_map(|l| l.strip_prefix("ROW "))
                .filter_map(|kv| kv.split_once('\t'))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
    }
    let _ = conn.client.expect("QUIT", "OK bye");
    Ok(out)
}

/// One untimed request on a fresh connection bound to `tenant`.
pub(crate) fn one_request(
    addr: SocketAddr,
    tenant: &str,
    frame: &str,
) -> Result<Vec<String>, String> {
    let mut conn = Conn::open(addr, tenant).map_err(|e| e.to_string())?;
    let lines = conn.client.request(frame).map_err(|e| e.to_string())?;
    let _ = conn.client.expect("QUIT", "OK bye");
    Ok(lines)
}
