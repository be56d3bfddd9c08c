//! `perfbench --workload <sql_mix|ask_mix|rw_mix> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the `nli-server` release binary from this checkout (unless
//! `--server-bin <path>` names one), runs the workload against it, and
//! prints one JSON result object as the last line of standard output.
//! Exit status: 0 when every check passed, 1 when a request failed or an
//! oracle found a wrong answer (the result line is still printed), 2 when
//! the run could not be carried out.

use nli_perfbench::gen::Workload;
use nli_perfbench::{run, server, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<(Config, bool), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut server_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let build = server_bin.is_none();
    Ok((
        Config {
            workload,
            seed,
            seconds,
            trace,
            server_bin: server_bin.unwrap_or_default(),
        },
        build,
    ))
}

fn main() -> ExitCode {
    let (mut cfg, build) = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if build {
        match server::build_server(&server::repo_root()) {
            Ok(bin) => cfg.server_bin = bin,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{name:>36} {value:>14.3} {unit}");
    }
    println!("{}", outcome.info);
    println!("{}", outcome.result_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
