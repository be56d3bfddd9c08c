//! The server under test: the `nli-server` release binary as a child
//! process, built from the checkout's own sources.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nli_server::Client;

/// Executor workers, admission limit and batch size the server runs with
/// (the binary's defaults, spelled out so the stamp records them).
pub const SERVER_FLAGS: [&str; 6] = ["--workers", "2", "--admission", "32", "--batch-max", "16"];

/// Build `nli-server` in release mode from the repository at `root` and
/// return the path of the binary cargo reports.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "nli-server",
            "--bin",
            "nli-server",
            "--message-format=json",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building nli-server failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| serde_json::from_str(line).ok())
        .find_map(|msg: serde_json::Value| {
            let target = msg.get("target")?.get("name")?.as_str()?;
            let exe = msg.get("executable")?.as_str()?;
            (target == "nli-server").then(|| PathBuf::from(exe))
        })
        .ok_or_else(|| "cargo reported no nli-server executable".to_string())
}

/// The repository root: the parent of the benchmark's own directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf()
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh, uniquely named directory under `.perfbench-data/` in the
/// working directory (pid + process-wide counter, so concurrent and
/// back-to-back runs never share one). Removed on drop.
pub(crate) struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub(crate) fn new(tag: &str) -> ScratchDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            PathBuf::from(".perfbench-data").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir { path }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the parent only if it is now empty.
        let _ = std::fs::remove_dir(".perfbench-data");
    }
}

/// A running `nli-server` child. Dropping it without [`Server::stop`]
/// kills the process and waits for it.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// Spawn → first `OK nli/1 ready`, in seconds.
    pub setup_s: f64,
}

impl Server {
    /// Spawn the binary on an OS-assigned loopback port and complete one
    /// `HELLO` handshake; the time until that handshake is `setup_s`.
    pub fn start(bin: &Path, data_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"]).args(SERVER_FLAGS);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("nli-server listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let mut server = Server {
            child,
            stdin,
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            setup_s: 0.0,
        };
        let Some(addr) = addr else {
            return Err(format!(
                "server did not report its address: {read:?} {line:?}"
            ));
        };
        server.addr = addr;
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .expect("HELLO nli/1", "OK nli/1 ready")
            .map_err(|e| format!("handshake: {e}"))?;
        server.setup_s = started.elapsed().as_secs_f64();
        client.expect("QUIT", "OK bye").map_err(|e| e.to_string())?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time (user + system, all threads) the child has used so far,
    /// in seconds. `/proc` reports it in USER_HZ ticks, 100 per second.
    pub(crate) fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("cannot read the server's CPU time: {e}"))?;
        // Fields after the parenthesised command name start at `state`
        // (field 3); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (tick(11), tick(12)) {
            (Some(user), Some(system)) => Ok((user + system) / 100.0),
            _ => Err(format!("unexpected /proc stat line: {stat:?}")),
        }
    }

    /// Peak resident set size (`VmHWM`) of the child so far, in MB.
    pub(crate) fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the server's VmHWM: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }

    /// Drain and stop: `quit` on stdin, then wait for the process to exit
    /// (killing it if it has not drained within 30 s).
    pub fn stop(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not drain within 30 s".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
