//! Benchmark baseline emitter.
//!
//! ```text
//! cargo run --release -p nli-bench --bin baseline -- --iters 200 --out BENCH_baseline.json
//! cargo run --release -p nli-bench --bin baseline -- --check BENCH_baseline.json
//! ```
//!
//! Emit mode runs the headless `sql_engine` suite ([`nli_bench::baseline`])
//! and writes the JSON document; `--check` instead validates an existing
//! file and exits non-zero on any mismatch. Both go through the shared
//! [`nli_bench::doc`] path; this binary owns only `--iters`.
//! `scripts/ci.sh` chains both under `NLI_BENCH=1` with a tiny `--iters`
//! as a smoke test.

use nli_bench::baseline;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut iters = 200;
    let mode = baseline::DOC.parse_args(std::env::args().skip(1), |flag, flags| match flag {
        "--iters" => {
            iters = flags.count(flag)?;
            Ok(())
        }
        other => Err(format!("unknown flag: {other}")),
    });
    baseline::DOC.run(
        mode,
        || baseline::run(iters),
        |doc| {
            let n = doc
                .get("benchmarks")
                .and_then(serde_json::Value::as_array)
                .map_or(0, <[serde_json::Value]>::len);
            println!("{n} benchmarks, {iters} iters each");
        },
    )
}
