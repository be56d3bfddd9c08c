//! Closed-loop load generator: N concurrent protocol clients against an
//! in-process server.
//!
//! Each client is its own tenant, opens one real loopback TCP connection,
//! and walks the same deterministic request script: the seven-query
//! [`nli_bench::baseline::QUERIES`] ladder round-robin via `SQL`, with
//! every eighth request an `EXEC` of a per-tenant prepared hot query. The
//! loop is *closed*: a client sends its next request only after the
//! previous response fully arrived, and retries (unrecorded) on `BUSY`.
//!
//! A run yields per-client response transcripts (byte-exact,
//! scheduling-independent) and the count of `BUSY` retries. The
//! transcripts are the determinism probe `scripts/ci.sh` byte-compares
//! across executor-worker counts; `BUSY` lines are excluded from them
//! because rejection counts legitimately vary with scheduling. The fleet
//! also drives a live server for the admin-plane smoke (`--connect`).
//! It records no latency: wire latency is measured by the repository
//! benchmark (`perfbench`, workload `sql_mix`), which uses a seeded,
//! de-lockstepped request mix and checks every answer.

use crate::server::{self, ServerConfig};
use nli_bench::baseline;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// The prepared hot statement every client binds as `hot`.
pub const HOT_QUERY: &str = "SELECT name FROM products WHERE price > 100";

/// Load-generator shape. `clients` and `requests_per_client` size the
/// fleet in both modes; the server fields configure the in-process
/// server of [`run_loadgen`] and are ignored by [`run_loadgen_against`],
/// which drives a server somebody else configured.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent clients, each its own tenant `client-<i>`.
    pub clients: usize,
    /// Requests each client sends (`BUSY` retries not counted).
    pub requests_per_client: usize,
    /// In-process server's admission limit ([`run_loadgen`] only).
    pub admission_limit: usize,
    /// In-process server's batch cap ([`run_loadgen`] only).
    pub batch_max: usize,
    /// In-process server's executor workers ([`run_loadgen`] only).
    pub exec_workers: usize,
    /// In-process server's slow-query capture threshold ([`run_loadgen`]
    /// only).
    pub slow_threshold_micros: Option<u64>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            clients: 4,
            requests_per_client: 50,
            admission_limit: 32,
            batch_max: 16,
            exec_workers: 2,
            slow_threshold_micros: None,
        }
    }
}

/// Everything one run produced.
pub struct LoadgenReport {
    /// Per-client response transcripts, client order; `BUSY` lines
    /// excluded. Byte-identical across executor-worker counts.
    pub dumps: Vec<Vec<u8>>,
    /// Total `BUSY` rejections retried by the closed loop (each retry
    /// eventually produced a recorded response; this counts the extra
    /// round-trips, which legitimately vary with scheduling).
    pub rejected_busy_retries: u64,
}

/// A blocking protocol client over one TCP connection. Also used by the
/// integration tests, so test traffic and load traffic speak through the
/// same code path.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect and return a raw (pre-handshake) client.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Send one frame line (newline appended).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Read one response line (newline stripped). EOF is an error.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Read one full response: a single line, or — for `OK table`,
    /// `OK chart`, `OK clarify`, `OK stats`, and `OK slowlog` — every
    /// line through `END`.
    pub fn read_response(&mut self) -> std::io::Result<Vec<String>> {
        let head = self.read_line()?;
        let multi = head.starts_with("OK table ")
            || head.starts_with("OK chart ")
            || head.starts_with("OK clarify ")
            || head.starts_with("OK stats ")
            || head.starts_with("OK slowlog ");
        let mut lines = vec![head];
        if multi {
            loop {
                let line = self.read_line()?;
                let done = line == "END";
                lines.push(line);
                if done {
                    break;
                }
            }
        }
        Ok(lines)
    }

    /// Send a frame and read its full response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.send(line)?;
        self.read_response()
    }

    /// Send a frame and assert a single-line response equal to `want`.
    pub fn expect(&mut self, line: &str, want: &str) -> std::io::Result<()> {
        let got = self.request(line)?;
        if got.len() != 1 || got[0] != want {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("sent {line:?}, wanted {want:?}, got {got:?}"),
            ));
        }
        Ok(())
    }
}

struct ClientOutcome {
    dump: Vec<u8>,
    busy: u64,
}

fn run_client(addr: SocketAddr, index: usize, requests: usize) -> std::io::Result<ClientOutcome> {
    let mut client = Client::connect(addr)?;
    let mut dump = Vec::new();
    let record = |lines: &[String], dump: &mut Vec<u8>| {
        for line in lines {
            dump.extend_from_slice(line.as_bytes());
            dump.push(b'\n');
        }
    };
    client.expect("HELLO nli/1", "OK nli/1 ready")?;
    client.expect(
        &format!("TENANT client-{index}"),
        &format!("OK tenant client-{index}"),
    )?;
    client.expect(&format!("PREPARE hot {HOT_QUERY}"), "OK prepared hot")?;
    let mut busy = 0u64;
    for j in 0..requests {
        let frame = if j % 8 == 7 {
            "EXEC hot".to_string()
        } else {
            let (_, sql) = baseline::QUERIES[j % baseline::QUERIES.len()];
            format!("SQL {sql}")
        };
        loop {
            client.send(&frame)?;
            let lines = client.read_response()?;
            if lines.len() == 1 && lines[0].starts_with("BUSY ") {
                busy += 1;
                continue; // closed-loop retry; not recorded anywhere
            }
            record(&lines, &mut dump);
            break;
        }
    }
    client.expect("QUIT", "OK bye")?;
    Ok(ClientOutcome { dump, busy })
}

/// Start an in-process server on a fresh loopback port, run the client
/// fleet against it, and shut the server down.
pub fn run_loadgen(cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let db = Arc::new(baseline::baseline_db());
    let mut server_cfg = ServerConfig::new(db);
    server_cfg.admission_limit = cfg.admission_limit;
    server_cfg.batch_max = cfg.batch_max;
    server_cfg.exec_workers = cfg.exec_workers;
    server_cfg.slow_threshold_micros = cfg.slow_threshold_micros;
    let handle = server::start(server_cfg)?;
    let report = run_loadgen_against(handle.addr(), cfg);
    handle.shutdown();
    report
}

/// Run the client fleet against an *already running* server (the
/// `--connect` mode of `nli-server-loadgen`, and what the admin-plane CI
/// smoke uses so `STATS TENANT` counts can be reconciled before the
/// server drains). The caller owns the server's lifecycle; only the
/// fleet-size fields of `cfg` apply.
pub fn run_loadgen_against(
    addr: SocketAddr,
    cfg: &LoadgenConfig,
) -> std::io::Result<LoadgenReport> {
    let outcomes: Vec<std::io::Result<ClientOutcome>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..cfg.clients.max(1))
            .map(|i| scope.spawn(move || run_client(addr, i, cfg.requests_per_client.max(1))))
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let mut dumps = Vec::with_capacity(outcomes.len());
    let mut rejected_busy_retries = 0u64;
    for outcome in outcomes {
        let outcome = outcome?;
        rejected_busy_retries += outcome.busy;
        dumps.push(outcome.dump);
    }
    Ok(LoadgenReport {
        dumps,
        rejected_busy_retries,
    })
}
