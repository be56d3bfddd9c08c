//! Scaled vectorization-ladder emitter.
//!
//! ```text
//! cargo run --release -p nli-bench --bin scaled -- --iters 30 --out BENCH_scaled.json
//! cargo run --release -p nli-bench --bin scaled -- --full --iters 10
//! cargo run --release -p nli-bench --bin scaled -- --check BENCH_scaled.json
//! cargo run --release -p nli-bench --bin scaled -- --rungs 10000 --iters 3
//! ```
//!
//! Emit mode runs the tree-walk-vs-vectorized ladder ([`nli_bench::scaled`])
//! over the committed rungs (10 k and 100 k sales rows; `--full` adds the
//! 1 M rung), writes the JSON document, and prints one speedup line per
//! rung. `--check` validates an existing file and exits non-zero on any
//! mismatch. Both go through the shared [`nli_bench::doc`] path; this
//! binary owns only `--iters`, `--rungs` and `--full`. `scripts/ci.sh`
//! chains a single-rung emit and a `--check` under `NLI_BENCH_SCALED=1`
//! as a smoke test.

use nli_bench::{doc, scaled};
use serde_json::Value;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut iters = 30;
    let mut rungs = scaled::DEFAULT_RUNGS.to_vec();
    let mode = scaled::DOC.parse_args(std::env::args().skip(1), |flag, flags| {
        match flag {
            "--iters" => iters = flags.count(flag)?,
            "--full" => {
                if !rungs.contains(&scaled::FULL_RUNG) {
                    rungs.push(scaled::FULL_RUNG);
                }
            }
            "--rungs" => {
                rungs = flags
                    .value(flag)?
                    .split(',')
                    .map(|s| doc::parse_count(flag, s.trim()))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        Ok(())
    });
    scaled::DOC.run(
        mode,
        || scaled::run(&rungs, iters),
        |doc| {
            // per-rung speedup summary, so a terminal run is readable
            // without opening the JSON
            let lines = speedup_lines(doc).expect("a validated ladder has named, timed rungs");
            for line in lines {
                println!("{line}");
            }
            println!("{iters} iters per query");
        },
    )
}

/// One `ROWS rows: name=SPEEDUPx(idx INDEX_SPEEDUPx) ...` line per rung.
fn speedup_lines(doc: &Value) -> Option<Vec<String>> {
    let mut lines = Vec::new();
    for rung in doc.get("rungs")?.as_array()? {
        let rows = rung.get("rows")?.as_i64()?;
        let mut parts = Vec::new();
        for b in rung.get("benchmarks")?.as_array()? {
            let name = b.get("name")?.as_str()?;
            let speedup = b.get("speedup")?.as_f64()?;
            let idx = b.get("index_speedup")?.as_f64()?;
            parts.push(format!("{name}={speedup:.1}x(idx {idx:.1}x)"));
        }
        lines.push(format!("{rows} rows: {}", parts.join(" ")));
    }
    Some(lines)
}
