//! # nli-fuzz
//!
//! Metamorphic + differential conformance fuzzing for the workspace's
//! execution engines. The survey's problem definition reduces every
//! evaluation metric to trusting an execution substrate `E(e, D) → r`;
//! this crate turns the substrate's *redundancy* — three independent SQL
//! execution paths, each runnable at any worker count — into its own
//! oracle, the differential-testing shape the execution-match literature
//! leans on.
//!
//! Three layers (DESIGN.md §3.4):
//!
//! 1. **Generators** ([`gen`]) — grammar-directed random SQL queries and
//!    VQL specs over [`nli_data::schema_gen`] databases. Every case is
//!    derived from a `(seed, index)` pair via [`nli_core::Prng::for_case`],
//!    so a failure report is a complete reproducer.
//! 2. **Oracles** ([`oracle`]) — a *differential* oracle (tree-walk
//!    interpreter vs planned pipeline vs reparse-from-printed-SQL must
//!    agree on [`nli_sql::CanonicalResult`]s) and a *metamorphic* oracle
//!    ([`rewrite`]: semantics-preserving query rewrites must preserve the
//!    result multiset).
//! 3. **Minimizer** ([`minimize()`]) — greedy shrinking of a failing query
//!    by subtree deletion and literal simplification, down to a minimal
//!    reproducer printed as replayable SQL plus its seed pair.
//!
//! The driver binary (`cargo run -p nli-fuzz --bin fuzz`) runs a bounded
//! deterministic batch; `scripts/ci.sh` gates merges on a fixed-seed smoke
//! run at `NLI_THREADS=1` and `4` being violation-free and byte-identical.

pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod rewrite;

pub use gen::{
    declare_random_indexes, gen_case, gen_dml_case, gen_vis_case, DmlCase, FuzzCase, GenConfig,
};
pub use minimize::{minimize, node_count, ShrinkResult};
pub use oracle::{
    check_case, check_dml_case, mutate_comparison, persist_divergence_with_dropped_tail,
    CaseReport, Violation,
};
pub use rewrite::{apply_rule, CompareMode, Rewrite, Rule};

use nli_core::obs::{global, Counter, Stage};
use std::sync::OnceLock;

/// Cached handles for the fuzzing counters and stages (`fuzz.*`
/// namespace).
pub(crate) struct FuzzObs {
    pub cases: Counter,
    pub violations: Counter,
    pub rewrites: Counter,
    pub shrink_steps: Counter,
    pub case: Stage,
    pub dml_case: Stage,
    pub leg_interp: Stage,
    pub leg_plan: Stage,
    pub leg_reparse: Stage,
    pub leg_metamorphic: Stage,
}

pub(crate) fn fuzz_obs() -> &'static FuzzObs {
    static OBS: OnceLock<FuzzObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = global();
        FuzzObs {
            cases: r.counter("fuzz.cases"),
            violations: r.counter("fuzz.oracle_violations"),
            rewrites: r.counter("fuzz.rewrites_checked"),
            shrink_steps: r.counter("fuzz.shrink_steps"),
            case: r.stage("fuzz.case"),
            dml_case: r.stage("fuzz.dml_case"),
            leg_interp: r.stage("fuzz.leg.interp"),
            leg_plan: r.stage("fuzz.leg.plan"),
            leg_reparse: r.stage("fuzz.leg.reparse"),
            leg_metamorphic: r.stage("fuzz.leg.metamorphic"),
        }
    })
}

/// FNV-1a over a byte stream; the batch digest the driver compares across
/// worker counts and repeat runs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}
