//! The one `BENCH_*.json` document path shared by the headless emitters
//! (`baseline`, `scaled`).
//!
//! Every document opens with the same header (`schema_version` + `suite`)
//! and carries non-negative finite timings, so [`check_header`] and
//! [`require_number`] are the common half of each emitter's `validate`;
//! the emitter modules keep only their own field lists and invariants.
//! [`Spec`] is the shared command line: `--out PATH` emits, validates
//! the fresh document against its own check, and writes it pretty-printed;
//! `--check PATH` reads, parses and validates a committed file. Both
//! binaries therefore accept and reject documents the same way, and the
//! sample reductions ([`percentile`], [`median_upper`]) mean the same
//! thing in every document.

use serde_json::Value;
use std::process::ExitCode;

/// `p`-th percentile of an ascending-sorted sample (nearest-rank: the
/// smallest sample such that at least `p`% of the data is `<=` it).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Upper median of an ascending-sorted sample (`sorted[len / 2]`) — the
/// historical definition the scaled ladder's committed speedup ratios
/// were computed with, kept distinct from [`percentile`]`(_, 50.0)`
/// (nearest-rank), which picks the lower middle sample on even sizes.
pub fn median_upper(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[sorted.len() / 2]
}

/// The header every document starts with: `schema_version` must equal
/// `version` and `suite` must name this document's suite.
pub fn check_header(doc: &Value, version: i64, suite: &str) -> Result<(), String> {
    match doc.get("schema_version").and_then(Value::as_i64) {
        Some(v) if v == version => {}
        Some(v) => return Err(format!("schema_version {v} != {version}")),
        None => return Err("missing schema_version".into()),
    }
    if doc.get("suite").and_then(Value::as_str) != Some(suite) {
        return Err(format!("missing or wrong suite (want {suite:?})"));
    }
    Ok(())
}

/// `entry[key]` as a finite, non-negative number; `ctx` prefixes the error.
pub fn require_number(entry: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    entry
        .get(key)
        .and_then(Value::as_f64)
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("{ctx}: missing or invalid {key}"))
}

/// What the shared command line does: write a fresh document, or check
/// an existing file.
#[derive(Debug, PartialEq)]
pub enum Mode {
    Emit { out: String },
    Check { path: String },
}

/// The remaining command-line arguments, for an emitter's own flags.
pub struct Flags<I> {
    args: I,
}

impl<I: Iterator<Item = String>> Flags<I> {
    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag` as a [`parse_count`].
    pub fn count(&mut self, flag: &str) -> Result<usize, String> {
        parse_count(flag, &self.value(flag)?)
    }
}

/// `text`, a value of `flag`, as a count of at least 1.
pub fn parse_count(flag: &str, text: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(0) => Err(format!("{flag} must be >= 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

/// One document kind as its binary sees it.
pub struct Spec {
    /// Binary name; prefixes every diagnostic.
    pub bin: &'static str,
    /// Noun of the `--check` success line (`PATH: valid <kind>`).
    pub kind: &'static str,
    /// Where emit mode writes without `--out`.
    pub default_out: &'static str,
    /// The document's full schema check.
    pub validate: fn(&Value) -> Result<(), String>,
}

impl Spec {
    /// Parse a command line: `--out PATH` and `--check PATH` are handled
    /// here (`--check` wins when both are given); every other flag goes
    /// to `own`, which reads any value it needs from the [`Flags`].
    pub fn parse_args<I: Iterator<Item = String>>(
        &self,
        args: I,
        mut own: impl FnMut(&str, &mut Flags<I>) -> Result<(), String>,
    ) -> Result<Mode, String> {
        let mut flags = Flags { args };
        let mut out = self.default_out.to_string();
        let mut check = None;
        while let Some(flag) = flags.args.next() {
            match flag.as_str() {
                "--out" => out = flags.value("--out")?,
                "--check" => check = Some(flags.value("--check")?),
                other => own(other, &mut flags)?,
            }
        }
        Ok(match check {
            Some(path) => Mode::Check { path },
            None => Mode::Emit { out },
        })
    }

    /// Read, parse and validate the document at `path`.
    fn check_file(&self, path: &str) -> Result<(), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
        (self.validate)(&doc).map_err(|e| format!("{path}: {e}"))
    }

    /// Validate a freshly emitted document against its own check, then
    /// write it pretty-printed (newline-terminated) to `out`.
    fn write_file(&self, doc: &Value, out: &str) -> Result<(), String> {
        (self.validate)(doc)
            .map_err(|e| format!("emitted document failed its own schema check: {e}"))?;
        let text = serde_json::to_string_pretty(doc).expect("a document always prints");
        std::fs::write(out, text + "\n").map_err(|e| format!("cannot write {out}: {e}"))
    }

    /// The binary's whole run after [`Spec::parse_args`]: check mode
    /// reads, parses and validates the file; emit mode builds the
    /// document with `emit`, validates it against its own check, writes
    /// it pretty-printed, prints `wrote PATH`, and hands the document to
    /// `report` for any summary lines. Every failure is one
    /// `bin: message` line on stderr and a failing exit.
    pub fn run(
        &self,
        mode: Result<Mode, String>,
        emit: impl FnOnce() -> Value,
        report: impl FnOnce(&Value),
    ) -> ExitCode {
        let outcome = mode.and_then(|mode| match mode {
            Mode::Check { path } => self.check_file(&path).map(|()| {
                println!("{path}: valid {}", self.kind);
            }),
            Mode::Emit { out } => {
                let doc = emit();
                self.write_file(&doc, &out).map(|()| {
                    println!("wrote {out}");
                    report(&doc);
                })
            }
        });
        match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{}: {e}", self.bin);
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baseline, scaled};

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_upper_takes_the_upper_middle() {
        assert_eq!(median_upper(&[1.0, 2.0, 3.0, 4.0]), 3.0);
        assert_eq!(median_upper(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median_upper(&[]), 0.0);
        // ... where nearest-rank p50 takes the lower middle on even sizes
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn percentile_ladder_is_ordered() {
        let mut samples: Vec<f64> = (0..1000).map(|i| f64::from((i * 37) % 1000)).collect();
        samples.sort_by(f64::total_cmp);
        let ladder = [0.0, 50.0, 95.0, 99.0, 100.0].map(|p| percentile(&samples, p));
        assert!(ladder.windows(2).all(|w| w[0] <= w[1]), "{ladder:?}");
        assert_eq!(ladder[0], 0.0);
        assert_eq!(ladder[4], 999.0);
    }

    #[test]
    fn header_and_numbers_are_checked_once_for_every_document() {
        let doc = Value::obj([
            ("schema_version", Value::from(1i64)),
            ("suite", Value::from("s")),
        ]);
        check_header(&doc, 1, "s").unwrap();
        assert!(check_header(&doc, 2, "s")
            .unwrap_err()
            .contains("schema_version"));
        assert!(check_header(&doc, 1, "t").unwrap_err().contains("suite"));
        let bare = Value::obj([("suite", Value::from("s"))]);
        assert!(check_header(&bare, 1, "s").unwrap_err().contains("missing"));

        let entry = Value::obj([
            ("ok", Value::from(3.5)),
            ("neg", Value::from(-1.0)),
            ("text", Value::from("7")),
        ]);
        assert_eq!(require_number(&entry, "ok", "e"), Ok(3.5));
        for key in ["neg", "text", "absent"] {
            let err = require_number(&entry, key, "e").unwrap_err();
            assert_eq!(err, format!("e: missing or invalid {key}"));
        }
    }

    fn args(line: &str) -> std::vec::IntoIter<String> {
        line.split_whitespace()
            .map(String::from)
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn shared_flags_are_parsed_once_and_own_flags_are_forwarded() {
        let spec = &baseline::DOC;
        let mut iters = 0;
        let mut own = |flag: &str, flags: &mut Flags<_>| match flag {
            "--iters" => {
                iters = flags.count(flag)?;
                Ok(())
            }
            other => Err(format!("unknown flag: {other}")),
        };
        assert_eq!(
            spec.parse_args(args("--iters 3"), &mut own),
            Ok(Mode::Emit {
                out: "BENCH_baseline.json".into()
            })
        );
        assert_eq!(
            spec.parse_args(args("--out a.json --check b.json"), &mut own),
            Ok(Mode::Check {
                path: "b.json".into()
            })
        );
        assert_eq!(
            spec.parse_args(args("--iters 0"), &mut own),
            Err("--iters must be >= 1".into())
        );
        assert_eq!(
            spec.parse_args(args("--out"), &mut own),
            Err("--out needs a value".into())
        );
        assert_eq!(
            spec.parse_args(args("--bogus"), &mut own),
            Err("unknown flag: --bogus".into())
        );
        assert_eq!(iters, 3);
    }

    fn committed(name: &str) -> String {
        format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn committed_documents_pass_their_checks() {
        for spec in [&baseline::DOC, &scaled::DOC] {
            spec.check_file(&committed(spec.default_out)).unwrap();
        }
        let err = baseline::DOC
            .check_file(&committed(scaled::DOC.default_out))
            .unwrap_err();
        assert!(err.contains("suite"), "{err}");
    }

    /// Every key path of a document in first-seen order, array elements
    /// merged (`benchmarks[].name`).
    fn key_paths(v: &Value, prefix: &str, out: &mut Vec<String>) {
        match v {
            Value::Object(pairs) => {
                for (k, child) in pairs {
                    let path = format!("{prefix}.{k}");
                    if !out.contains(&path) {
                        out.push(path.clone());
                    }
                    key_paths(child, &path, out);
                }
            }
            Value::Array(items) => {
                for item in items {
                    key_paths(item, &format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn fresh_emits_have_the_committed_key_paths() {
        let fresh = [baseline::run(1), scaled::run(&[500], 1)];
        for (spec, doc) in [&baseline::DOC, &scaled::DOC].into_iter().zip(fresh) {
            let text = std::fs::read_to_string(committed(spec.default_out)).unwrap();
            let (mut want, mut got) = (Vec::new(), Vec::new());
            key_paths(&serde_json::from_str(&text).unwrap(), "", &mut want);
            key_paths(&doc, "", &mut got);
            assert_eq!(got, want, "{}", spec.default_out);
        }
    }
}
