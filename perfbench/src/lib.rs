//! The repository benchmark. See `README.md` in this directory for the
//! workloads, the metrics, and how to run it.

pub mod gen;
pub mod load;
pub mod oracle;
pub mod server;
mod stats;
mod trace;

use gen::{Kind, PoolEntry, Stream, Workload, Writer};
use load::{ClientLog, Phases, Role};
use nli_core::{Prng, Store};
use serde_json::Value;
use server::{ScratchDir, Server};
use stats::{median, quantile, share};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Server start-ups timed per run; `setup_s` is their median.
pub const SETUP_RUNS: usize = 21;
/// Load before the timed phase (caches fill, lazy set-up finishes).
pub const WARMUP: Duration = Duration::from_secs(1);
/// The timed phase is cut into windows this long. On a shared virtual
/// machine the hypervisor takes CPU time away (`steal` in `/proc/stat`)
/// for stretches of seconds, and a window it steals from runs slower. A
/// run therefore reports throughput and latency over the windows with
/// the least steal: those at or below the [`QUIET`] quantile of steal.
pub const WINDOW_S: f64 = 0.5;
pub const QUIET: f64 = 0.25;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("server_cpu_us_per_req", "us"),
    ("server_peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("throughput_rps", "1/s"),
    ("sql_p50_us", "us"),
    ("sql_p99_us", "us"),
    ("ask_p50_us", "us"),
    ("ask_p99_us", "us"),
    ("dml_p50_us", "us"),
    ("dml_p99_us", "us"),
    ("ask_exec_acc", "ratio"),
    ("text2sql.parse_fail_share", "ratio"),
    ("server.wire_overhead_us", "us"),
    ("server.beyond_engine_us", "us"),
    ("batch.joined_share", "ratio"),
    ("admission.busy_share", "ratio"),
    ("sql.plan_cache_hit_rate", "ratio"),
    ("core.storage.wal_bytes_per_commit", "B"),
    ("sql.prepare_us", "us"),
    ("sql.execute_us", "us"),
    ("proto.render_us", "us"),
    ("text2sql.parse_turn_us", "us"),
    ("text2vis.parse_turn_us", "us"),
    ("vql.execute_us", "us"),
    ("sql.dml_op_us", "us"),
    ("core.storage.commit_us", "us"),
    ("server.db.publish_us", "us"),
    ("systems.session.route_us", "us"),
    ("proto.bytes_per_response", "B"),
    ("batch.handoff_us", "us"),
    ("sql.first_read_after_write_us", "us"),
    ("sql.steady_read_us", "us"),
    ("server.db.dml_us", "us"),
    ("systems.session.ask_us", "us"),
    ("text2sql.analyze_p50_us", "us"),
    ("text2sql.analyze_p99_us", "us"),
    ("text2sql.parse_turn_p50_us", "us"),
    ("text2sql.parse_turn_p99_us", "us"),
    ("trace.total_us", "us"),
    ("trace.remainder_us", "us"),
    ("trace.overhead_us", "us"),
];

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server_bin: PathBuf,
}

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every check passed (no failed request, no oracle mismatch).
    pub correct: bool,
    /// `(name, value, unit)` in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Stamp, workload properties and sample counts, for the log.
    pub info: Value,
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Value {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.to_string(),
                        Value::obj([("value", Value::from(*value)), ("unit", Value::from(*unit))]),
                    )
                })
                .collect(),
        );
        Value::obj([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", metrics),
        ])
    }
}

/// The run's environment stamp.
fn stamp(cfg: &Config, clients: usize) -> Value {
    // The commit of the checkout itself: git must not walk up into a
    // repository that merely contains it.
    let root = server::repo_root();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut flags: Vec<String> = server::SERVER_FLAGS.iter().map(|s| s.to_string()).collect();
    if cfg.workload.durable() {
        flags.push("--data-dir <fresh dir>".to_string());
    }
    Value::obj([
        ("nproc", Value::from(nproc() as u64)),
        ("commit", Value::from(commit)),
        (
            "profile",
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "NLI_THREADS",
            Value::from(std::env::var("NLI_THREADS").unwrap_or_else(|_| "unset".to_string())),
        ),
        ("server_flags", Value::from(flags.join(" "))),
        ("clients", Value::from(clients as u64)),
        ("workload", Value::from(cfg.workload.name())),
        ("seed", Value::from(cfg.seed)),
        ("seconds", Value::from(cfg.seconds)),
    ])
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop connections: one per core, at most two; `rw_mix` always
/// has its writer and its reader.
fn client_count(workload: Workload) -> usize {
    if workload == Workload::RwMix {
        2
    } else {
        nproc().clamp(1, 2)
    }
}

/// `f(samples of the window)` for every window.
fn per_window(samples: &[load::Sample], windows: usize, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for s in samples {
        let w = ((s.end_s / WINDOW_S) as usize).min(windows - 1);
        per[w].push(s.micros);
    }
    per.iter().map(|w| f(w)).collect()
}

fn array(values: &[f64]) -> Value {
    Value::from(values.iter().map(|v| Value::from(*v)).collect::<Vec<_>>())
}

/// A run's generated inputs: the served database, the request pool, the
/// answers the oracle expects, and one forked stream seed per client.
struct Inputs {
    workload: Workload,
    db: nli_core::Database,
    pool: Vec<PoolEntry>,
    ladder: Vec<PoolEntry>,
    expected: Vec<Vec<String>>,
    zipf: Arc<gen::Zipf>,
    forks: Vec<Prng>,
    base_rows: usize,
}

impl Inputs {
    fn new(cfg: &Config, clients: usize) -> Result<Inputs, String> {
        let workload = cfg.workload;
        let db = gen::served_db();
        let (pool, ladder) = match workload {
            Workload::SqlMix => (gen::sql_pool(&db), Vec::new()),
            Workload::AskMix => (gen::ask_pool(&db), Vec::new()),
            Workload::RwMix => (Vec::new(), gen::ladder_pool()),
        };
        let expected = oracle::expected_responses(&pool, &db)?;
        let zipf = Arc::new(gen::Zipf::new(pool.len().max(1), gen::ZIPF_S));
        let mut root = Prng::new(cfg.seed);
        let forks = (0..clients).map(|i| root.fork(i as u64)).collect();
        let base_rows = db.rows_of("sales").map_err(|e| e.to_string())?.len();
        Ok(Inputs {
            workload,
            db,
            pool,
            ladder,
            expected,
            zipf,
            forks,
            base_rows,
        })
    }

    /// Client `i`'s request stream over `n` pool entries.
    fn stream(&self, i: usize, n: usize) -> Stream {
        match self.workload {
            Workload::SqlMix => Stream::Zipf(self.forks[i].clone(), Arc::clone(&self.zipf)),
            _ => Stream::passes(self.forks[i].clone(), n),
        }
    }

    /// Client `i`'s writer (`rw_mix` client 0).
    fn writer(&self, i: usize) -> Writer {
        Writer::new(self.forks[i].clone(), self.base_rows)
    }

    fn role<'a>(
        &'a self,
        i: usize,
        sent: &'a AtomicUsize,
        acked: &'a AtomicUsize,
        gate: &'a load::Gate,
    ) -> Role<'a> {
        match self.workload {
            Workload::RwMix if i == 0 => Role::Writes {
                writer: self.writer(i),
                sent,
                acked,
                gate,
            },
            Workload::RwMix => Role::RacingReads {
                ladder: &self.ladder,
                stream: self.stream(i, self.ladder.len()),
                sent,
                acked,
                gate,
            },
            _ => Role::Reads {
                pool: &self.pool,
                expected: &self.expected,
                stream: self.stream(i, self.pool.len()),
                pool_pass: self.workload == Workload::AskMix,
            },
        }
    }

    /// The request class the workload is about.
    fn main_kind(&self) -> Kind {
        match self.workload {
            Workload::SqlMix => Kind::Sql,
            Workload::AskMix => Kind::Ask,
            Workload::RwMix => Kind::Dml,
        }
    }
}

/// Requests attempted and failed, with the first reason of each failure
/// source.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count one check; `Err` is a failure.
    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }
}

/// Several cold starts of the server; the last one stays up to serve
/// the load. Returns each start's set-up time.
fn start_server(cfg: &Config) -> Result<(Vec<f64>, Server, Option<ScratchDir>), String> {
    let mut setups = Vec::with_capacity(SETUP_RUNS);
    loop {
        let dir = cfg.workload.durable().then(|| ScratchDir::new("rw-server"));
        let server = Server::start(&cfg.server_bin, dir.as_ref().map(|d| d.path()))?;
        setups.push(server.setup_s);
        if setups.len() == SETUP_RUNS {
            return Ok((setups, server, dir));
        }
        server.stop()?;
    }
}

/// What the measuring thread saw while the clients ran.
struct Observed {
    logs: Vec<ClientLog>,
    /// Server CPU seconds over the timed phase.
    server_cpu: Result<f64, String>,
    /// Per window: the share of the machine's CPU time the hypervisor
    /// took away (`steal` in `/proc/stat`).
    steal: Vec<f64>,
}

/// `(steal, total)` CPU ticks of the whole machine so far.
fn machine_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

/// Run every client to completion while this thread reads the server's
/// CPU time at the edges of the timed phase and the machine's steal at
/// every window edge.
fn drive(
    inputs: &Inputs,
    server: &Server,
    phases: Phases,
    clients: usize,
    windows: usize,
) -> Observed {
    let sent = AtomicUsize::new(0);
    let acked = AtomicUsize::new(0);
    let gate = load::Gate::default();
    let barrier = Barrier::new(clients + 1);
    let addr = server.addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let role = inputs.role(i, &sent, &acked, &gate);
                let barrier = &barrier;
                scope.spawn(move || load::run_client(addr, i, clients, role, phases, barrier))
            })
            .collect();
        barrier.wait();
        let measure_from = Instant::now() + phases.warmup;
        std::thread::sleep(phases.warmup);
        let cpu_from = server.cpu_s();
        let mut steal = Vec::with_capacity(windows);
        let mut last = machine_ticks();
        for w in 1..=windows {
            let edge = measure_from + Duration::from_secs_f64(w as f64 * WINDOW_S);
            std::thread::sleep(edge.saturating_duration_since(Instant::now()));
            let now = machine_ticks();
            steal.push(share(now.0 - last.0, now.1 - last.1));
            last = now;
        }
        let server_cpu = server.cpu_s().and_then(|end| Ok(end - cpu_from?));
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        Observed {
            logs,
            server_cpu,
            steal,
        }
    })
}

/// The `rw_mix` oracle: every ack and concurrent read against the model,
/// then a final read of `sales` over the wire. Returns the model.
fn check_writes(
    inputs: &Inputs,
    logs: &[ClientLog],
    addr: std::net::SocketAddr,
    tally: &mut Tally,
) -> oracle::RwVerdict {
    let ladder_sql: Vec<String> = inputs.ladder.iter().filter_map(|e| e.sql.clone()).collect();
    let verdict = oracle::check_rw(&inputs.db, &ladder_sql, &logs[0].acks, &logs[1].reads);
    tally.failed += (verdict.bad_acks + verdict.bad_reads) as u64;
    tally.failures.extend(verdict.first_error.clone());
    let want = oracle::render_sql(
        &nli_sql::SqlEngine::new(),
        "SELECT * FROM sales",
        &verdict.model,
    );
    tally.check(
        match load::one_request(addr, &load::tenant_id(0), "SQL SELECT * FROM sales") {
            Ok(lines) if lines == want => Ok(()),
            other => Err(format!(
                "final sales read differs from the model: {:?}",
                other.map(|l| l.len())
            )),
        },
    );
    verdict
}

/// Run one workload end to end and reduce it to metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let clients = client_count(cfg.workload);
    // Wall time of each phase, for the log line.
    let mut phases_s: Vec<(&str, f64)> = Vec::new();
    let mut mark = Instant::now();
    let mut phase = |name: &'static str| {
        phases_s.push((name, mark.elapsed().as_secs_f64()));
        mark = Instant::now();
    };
    let inputs = Inputs::new(cfg, clients)?;
    phase("inputs");
    let (setups, server, data_dir) = start_server(cfg)?;
    phase("setup");
    let phases = Phases {
        warmup: WARMUP,
        measure: Duration::from_secs(cfg.seconds),
    };
    let windows = (cfg.seconds as f64 / WINDOW_S).ceil().max(1.0) as usize;
    let Observed {
        logs,
        server_cpu,
        steal,
    } = drive(&inputs, &server, phases, clients, windows);
    phase("load");

    let mut tally = Tally {
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        failures: logs
            .iter()
            .filter_map(|l| l.first_failure.clone())
            .collect(),
    };
    let samples: Vec<load::Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let rw = (cfg.workload == Workload::RwMix)
        .then(|| check_writes(&inputs, &logs, server.addr(), &mut tally));
    phase("check");
    let admin = if cfg.trace {
        let mut frames = vec!["STATS".to_string()];
        frames.extend((0..clients).map(|i| format!("STATS TENANT {}", load::tenant_id(i))));
        Some(load::admin_stats(server.addr(), &frames)?)
    } else {
        None
    };
    let rss = server.peak_rss_mb()?;
    server.stop()?;
    if let (Some(dir), Some(rw)) = (&data_dir, &rw) {
        let reopened = Store::open(dir.path()).map_err(|e| format!("reopen store: {e}"))?;
        let (got, want) = (reopened.db().rows_of("sales"), rw.model.rows_of("sales"));
        tally.check(match (got, want) {
            (Ok(got), Ok(want)) if got == want => Ok(()),
            _ => Err("the reopened store's sales rows differ from the model".to_string()),
        });
    }
    drop(data_dir);
    phase("drain");

    let class = |k: Kind| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.kind == k)
            .map(|s| s.micros)
            .collect()
    };
    let window_rps = per_window(&samples, windows, |w| w.len() as f64 / WINDOW_S);
    let window_p50 = per_window(&samples, windows, |w| quantile(w, 0.5));
    let window_p99 = per_window(&samples, windows, |w| quantile(w, 0.99));
    // The windows with the least steal, ties included (on a quiet machine
    // that is every window), and the median of a per-window figure over
    // them.
    let calm = quantile(&steal, QUIET);
    let quiet_windows: Vec<usize> = (0..windows).filter(|&w| steal[w] <= calm).collect();
    let quiet = |per: &[f64]| median(&quiet_windows.iter().map(|&w| per[w]).collect::<Vec<_>>());
    let live_rows = rw
        .as_ref()
        .map_or((inputs.base_rows, inputs.base_rows), |v| v.live_rows);
    let mut info = Value::obj([
        ("stamp", stamp(cfg, clients)),
        (
            "samples",
            Value::obj([
                ("timed_requests", Value::from(samples.len())),
                ("sql", Value::from(class(Kind::Sql).len())),
                ("ask", Value::from(class(Kind::Ask).len())),
                ("dml", Value::from(class(Kind::Dml).len())),
                ("windows", Value::from(windows)),
                ("setup_runs", array(&setups)),
                ("window_rps", array(&window_rps)),
                ("window_p50_us", array(&window_p50)),
                ("window_p99_us", array(&window_p99)),
                ("window_steal", array(&steal)),
            ]),
        ),
        (
            "properties",
            properties(cfg.workload, &inputs.pool, &logs, live_rows),
        ),
    ]);

    let figures: BTreeMap<String, f64> = match admin {
        None => [
            ("setup_s", median(&setups)),
            ("p50_us", quiet(&window_p50)),
            (
                "server_cpu_us_per_req",
                share(server_cpu? * 1e6, samples.len() as f64),
            ),
            ("server_peak_rss_mb", rss),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
        Some(admin) => {
            let mut f = wire_layers(&inputs, &logs, &admin, &class);
            f.insert("throughput_rps".into(), quiet(&window_rps));
            // The traced in-process replay of the clients' own inputs.
            let replay = match cfg.workload {
                Workload::RwMix => trace::replay_writes(
                    &inputs.db,
                    &inputs.ladder,
                    inputs.writer(0),
                    inputs.stream(1, inputs.ladder.len()),
                    &mut f,
                ),
                _ => trace::replay_reads(
                    &inputs.pool,
                    &inputs.expected,
                    inputs.stream(0, inputs.pool.len()),
                    &inputs.db,
                    &mut f,
                ),
            };
            tally.check(replay.map_err(|e| format!("traced replay: {e}")));
            f.insert(
                "server.beyond_engine_us".into(),
                quantile(&class(inputs.main_kind()), 0.5) - f["trace.untraced_main_p50_us"],
            );
            info.set(
                "reconciliation",
                Value::obj([
                    ("tolerance_share", Value::from(trace::TOLERANCE)),
                    ("replayed_requests", Value::from(f["trace.requests"])),
                    (
                        "untraced_total_us",
                        Value::from(f["trace.untraced_total_us"]),
                    ),
                ]),
            );
            f
        }
    };
    // A layer the workload never reaches has no figure and reads 0.
    let (names, idle) = if cfg.trace {
        (&PER_LAYER[..], Some(0.0))
    } else {
        (&END_TO_END[..], None)
    };
    let metrics = names
        .iter()
        .map(|&(name, unit)| match figures.get(name).copied().or(idle) {
            Some(v) if v.is_finite() => Ok((name, v, unit)),
            other => Err(format!("no finite figure for {name}: {other:?}")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    phase("reduce");
    info.set(
        "phase_s",
        Value::Object(
            phases_s
                .iter()
                .map(|(n, s)| (n.to_string(), Value::from(*s)))
                .collect(),
        ),
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
        metrics,
        info,
        failures: tally.failures,
    })
}

/// Per-layer figures from the wire run and the admin frames: latency by
/// request class, `ASK` accuracy over the pool pass, and the server's
/// own counters.
fn wire_layers(
    inputs: &Inputs,
    logs: &[ClientLog],
    admin: &[Vec<(String, String)>],
    class: &dyn Fn(Kind) -> Vec<f64>,
) -> trace::Figures {
    let mut f = trace::Figures::new();
    for (kind, p50, p99) in [
        (Kind::Sql, "sql_p50_us", "sql_p99_us"),
        (Kind::Ask, "ask_p50_us", "ask_p99_us"),
        (Kind::Dml, "dml_p50_us", "dml_p99_us"),
    ] {
        let v = class(kind);
        f.insert(p50.into(), quantile(&v, 0.5));
        f.insert(p99.into(), quantile(&v, 0.99));
    }
    let answers: Vec<(usize, Vec<String>)> = logs
        .iter()
        .flat_map(|l| l.pool_answers.iter().cloned())
        .collect();
    let (acc, parse_fail) = oracle::score_asks(&inputs.pool, &answers, &inputs.db);
    f.insert("ask_exec_acc".into(), acc);
    f.insert("text2sql.parse_fail_share".into(), parse_fail);

    let num = |pairs: &[(String, String)], key: &str| -> f64 {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let server = &admin[0];
    let tenants = |key: &str| -> f64 { admin[1..].iter().map(|t| num(t, key)).sum() };
    let all_micros: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.all_micros.iter().copied())
        .collect();
    f.insert(
        "server.wire_overhead_us".into(),
        quantile(&all_micros, 0.5) - num(server, "window.p50_us"),
    );
    let requests = tenants("requests.total");
    let busy = tenants("busy_rejections");
    f.insert(
        "batch.joined_share".into(),
        share(tenants("batches_joined"), requests),
    );
    f.insert("admission.busy_share".into(), share(busy, requests + busy));
    let hits = num(server, "plan_cache.hits");
    f.insert(
        "sql.plan_cache_hit_rate".into(),
        share(hits, hits + num(server, "plan_cache.misses")),
    );
    f.insert(
        "core.storage.wal_bytes_per_commit".into(),
        share(tenants("wal_bytes"), tenants("requests.dml")),
    );
    f
}

/// The workload properties the server's behaviour depends on, measured on
/// the timed stream: how much the requests repeat against the plan
/// cache's capacity (`sql_mix`), the chart share (`ask_mix`), the write
/// share and the live row count it holds steady (`rw_mix`).
fn properties(
    workload: Workload,
    pool: &[PoolEntry],
    logs: &[ClientLog],
    live_rows: (usize, usize),
) -> Value {
    let requested: Vec<usize> = logs
        .iter()
        .flat_map(|l| l.requested.iter().copied())
        .collect();
    let n = requested.len() as f64;
    let distinct = requested.iter().collect::<HashSet<_>>().len();
    match workload {
        Workload::SqlMix => Value::obj([
            ("pool_statements", Value::from(pool.len())),
            ("distinct_statements", Value::from(distinct)),
            (
                "plan_cache_capacity",
                Value::from(nli_sql::SqlEngine::new().cache_stats().capacity),
            ),
            ("repeat_share", Value::from(share(n - distinct as f64, n))),
        ]),
        Workload::AskMix => {
            let is_chart = |i: &usize| {
                matches!(
                    pool[*i].ask.as_ref().map(|a| &a.gold),
                    Some(gen::Gold::Chart(_))
                )
            };
            let pool_charts = (0..pool.len()).filter(is_chart).count() as f64;
            Value::obj([
                ("pool_questions", Value::from(pool.len())),
                (
                    "pool_chart_share",
                    Value::from(share(pool_charts, pool.len() as f64)),
                ),
                (
                    "chart_share",
                    Value::from(share(
                        requested.iter().filter(|i| is_chart(i)).count() as f64,
                        n,
                    )),
                ),
            ])
        }
        Workload::RwMix => {
            let kinds = |k: Kind| {
                logs.iter()
                    .flat_map(|l| &l.samples)
                    .filter(|s| s.kind == k)
                    .count() as f64
            };
            let (writes, reads) = (kinds(Kind::Dml), kinds(Kind::Sql));
            Value::obj([
                ("write_share", Value::from(share(writes, writes + reads))),
                ("live_rows_min", Value::from(live_rows.0)),
                ("live_rows_max", Value::from(live_rows.1)),
            ])
        }
    }
}
