//! Schema-fingerprinted LRU cache for prepared query plans.
//!
//! Execution-based evaluation re-runs the same query text against many
//! database variants that share one schema (test-suite accuracy), and runs
//! whole corpora of distinct queries against one database. [`PlanCache`]
//! makes the parse/plan step amortize across both axes: entries are keyed
//! by `(source text, schema fingerprint, stats epoch)`, so a plan is reused
//! exactly when re-planning would be guaranteed to produce the same result,
//! and is invalidated — by key miss, not by eviction scans — the moment the
//! schema structurally changes or the table statistics a cost-based plan
//! was built against move to a new epoch (see
//! [`crate::Database::stats_epoch`]). Rule-based planning, which never
//! reads statistics, passes epoch 0 so its entries survive data mutations.

use crate::error::Result;
use crate::obs;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: the expression source plus [`crate::Schema::fingerprint`]
/// plus the stats epoch the plan was costed against (0 for plans that do
/// not depend on statistics).
type Key = (String, u64, u64);

#[derive(Debug)]
struct Slot<P> {
    plan: Arc<P>,
    /// Logical timestamp of last use; smallest is evicted first.
    last_used: u64,
}

/// The cache's event counters, in [`Inner::counts`] order; each is also
/// the suffix of its registry counter (see [`PlanCache::attach_obs`]).
#[derive(Debug, Clone, Copy)]
enum Event {
    Hit,
    Miss,
    Eviction,
    DuplicateInsert,
}

const EVENT_NAMES: [&str; 4] = ["hits", "misses", "evictions", "duplicate_inserts"];

#[derive(Debug)]
struct Inner<P> {
    slots: HashMap<Key, Slot<P>>,
    clock: u64,
    /// Per-[`Event`] totals for this cache ([`CacheStats`]).
    counts: [u64; 4],
    /// The attached registry counters, per [`Event`].
    obs: Option<[obs::Counter; 4]>,
}

impl<P> Inner<P> {
    /// Count one event in this cache and in the attached registry, both
    /// under the cache mutex — the only place either is written.
    fn bump(&mut self, event: Event) {
        self.counts[event as usize] += 1;
        if let Some(counters) = &self.obs {
            counters[event as usize].inc();
        }
    }
}

/// Running totals for cache effectiveness reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped by the LRU policy (capacity pressure), as opposed
    /// to invalidation by key miss after a schema change.
    pub evictions: u64,
    /// Inserts that found the key already present — two threads raced to
    /// compile the same `(source, fingerprint)` and the loser's plan
    /// replaced an interchangeable winner. (A true 64-bit fingerprint
    /// *collision* — distinct schemas hashing alike — is indistinguishable
    /// from a hit and is not counted; see DESIGN.md §3.3.)
    pub duplicate_inserts: u64,
    pub len: usize,
    pub capacity: usize,
}

impl CacheStats {
    /// Total lookups: every [`PlanCache::get_or_insert`] call counts as
    /// exactly one hit or one miss.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (0.0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded, thread-safe, least-recently-used plan cache.
///
/// `P` is the prepared-plan type; plans are handed out as `Arc<P>` so a hit
/// costs a clone of a pointer, never of a plan. Failed compilations are
/// *not* cached: an erroring source re-compiles on every lookup, which keeps
/// error reporting fresh and the cache free of dead entries.
#[derive(Debug)]
pub struct PlanCache<P> {
    inner: Mutex<Inner<P>>,
    capacity: usize,
}

impl<P> PlanCache<P> {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                clock: 0,
                counts: [0; 4],
                obs: None,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Also count this cache's events in `registry`, under
    /// `{prefix}.hits`, `.misses`, `.evictions`, and `.duplicate_inserts`.
    /// Several caches may share one prefix (the registry counters then
    /// aggregate across them). One function bumps a cache count and its
    /// registry counter together under the cache lock, so for a cache
    /// attached before its first lookup the two always agree —
    /// `hits + misses == lookups`.
    ///
    /// The registry counters are *scheduling* counters: with more than
    /// one worker, which thread warms a key first is a race (two threads
    /// can both miss and compile), so the hit/miss split is reproducible
    /// only at `NLI_THREADS=1` even though their sum is always exact.
    pub fn attach_obs(&self, registry: &obs::Registry, prefix: &str) {
        self.inner.lock().obs =
            Some(EVENT_NAMES.map(|name| registry.scheduling_counter(&format!("{prefix}.{name}"))));
    }

    /// Look up `(source, fingerprint, epoch)`; on a miss, compile via
    /// `build`, insert, and evict the least-recently-used entry if over
    /// capacity. `epoch` is the stats epoch a cost-based plan depends on
    /// ([`crate::Database::stats_epoch`]); pass 0 for plans built without
    /// statistics.
    pub fn get_or_insert(
        &self,
        source: &str,
        fingerprint: u64,
        epoch: u64,
        build: impl FnOnce() -> Result<P>,
    ) -> Result<Arc<P>> {
        {
            let mut inner = self.inner.lock();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(slot) = inner
                .slots
                .get_mut(&(source.to_string(), fingerprint, epoch))
            {
                slot.last_used = clock;
                let plan = Arc::clone(&slot.plan);
                inner.bump(Event::Hit);
                return Ok(plan);
            }
            inner.bump(Event::Miss);
        }
        // Compile outside the lock: builds can be slow, and a build that
        // panics must not poison concurrent lookups. Two racing threads may
        // both compile; the second insert wins, which is harmless because
        // equal keys compile to interchangeable plans.
        let plan = Arc::new(build()?);
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let displaced = inner.slots.insert(
            (source.to_string(), fingerprint, epoch),
            Slot {
                plan: Arc::clone(&plan),
                last_used: clock,
            },
        );
        if displaced.is_some() {
            inner.bump(Event::DuplicateInsert);
        }
        if inner.slots.len() > self.capacity {
            if let Some(oldest) = inner
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.slots.remove(&oldest);
                inner.bump(Event::Eviction);
            }
        }
        Ok(plan)
    }

    /// Peek without counting a hit or inserting.
    pub fn contains(&self, source: &str, fingerprint: u64, epoch: u64) -> bool {
        self.inner
            .lock()
            .slots
            .contains_key(&(source.to_string(), fingerprint, epoch))
    }

    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        let [hits, misses, evictions, duplicate_inserts] = inner.counts;
        CacheStats {
            hits,
            misses,
            evictions,
            duplicate_inserts,
            len: inner.slots.len(),
            capacity: self.capacity,
        }
    }

    /// Drop all entries (counters are preserved).
    pub fn clear(&self) {
        self.inner.lock().slots.clear();
    }
}

impl<P> Default for PlanCache<P> {
    /// Capacity 256: comfortably above the distinct-query working set of
    /// the benchmark corpora, small enough to be negligible memory.
    fn default() -> Self {
        PlanCache::with_capacity(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NliError;

    #[test]
    fn hit_after_miss_reuses_the_plan() {
        let cache: PlanCache<String> = PlanCache::with_capacity(4);
        let mut builds = 0;
        for _ in 0..3 {
            let p = cache
                .get_or_insert("SELECT 1", 42, 0, || {
                    builds += 1;
                    Ok("plan".to_string())
                })
                .unwrap();
            assert_eq!(*p, "plan");
        }
        assert_eq!(builds, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_partitions_entries() {
        let cache: PlanCache<u32> = PlanCache::with_capacity(4);
        cache.get_or_insert("q", 1, 0, || Ok(10)).unwrap();
        let p = cache.get_or_insert("q", 2, 0, || Ok(20)).unwrap();
        assert_eq!(*p, 20, "same text, different schema: separate plans");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache: PlanCache<u32> = PlanCache::with_capacity(2);
        cache.get_or_insert("a", 0, 0, || Ok(1)).unwrap();
        cache.get_or_insert("b", 0, 0, || Ok(2)).unwrap();
        // touch "a" so "b" becomes the LRU entry
        cache.get_or_insert("a", 0, 0, || unreachable!()).unwrap();
        cache.get_or_insert("c", 0, 0, || Ok(3)).unwrap();
        assert!(cache.contains("a", 0, 0));
        assert!(!cache.contains("b", 0, 0), "LRU entry must be evicted");
        assert!(cache.contains("c", 0, 0));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: PlanCache<u32> = PlanCache::with_capacity(2);
        let mut attempts = 0;
        for _ in 0..2 {
            let r = cache.get_or_insert("bad", 0, 0, || {
                attempts += 1;
                Err(NliError::Syntax("nope".into()))
            });
            assert!(r.is_err());
        }
        assert_eq!(attempts, 2, "failed builds must re-run");
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn hit_rate_is_zero_before_any_lookup() {
        // Regression guard: 0/0 must read as 0.0, never NaN — downstream
        // reports format `hit_rate()` unconditionally.
        let untouched = CacheStats::default();
        assert_eq!(untouched.hit_rate(), 0.0);
        assert!(untouched.hit_rate().is_finite());
        let cache: PlanCache<u32> = PlanCache::with_capacity(2);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn evictions_are_counted() {
        let cache: PlanCache<u32> = PlanCache::with_capacity(2);
        cache.get_or_insert("a", 0, 0, || Ok(1)).unwrap();
        cache.get_or_insert("b", 0, 0, || Ok(2)).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        cache.get_or_insert("c", 0, 0, || Ok(3)).unwrap();
        cache.get_or_insert("d", 0, 0, || Ok(4)).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.len, 2);
        assert_eq!(s.lookups(), 4);
    }

    #[test]
    fn obs_counters_agree_with_stats() {
        let registry = crate::obs::Registry::new();
        let cache: PlanCache<u32> = PlanCache::with_capacity(2);
        cache.attach_obs(&registry, "plan_cache");
        for (src, fp) in [("a", 0), ("a", 0), ("b", 0), ("c", 1), ("a", 0), ("d", 2)] {
            let _ = cache.get_or_insert(src, fp, 0, || Ok(9));
        }
        let stats = cache.stats();
        assert_registry_matches(&registry, "plan_cache", stats);
        assert!(stats.evictions > 0, "capacity 2 with 4 keys must evict");
    }

    /// Every registry counter under `prefix` equals its `CacheStats` field.
    fn assert_registry_matches(registry: &crate::obs::Registry, prefix: &str, stats: CacheStats) {
        let snap = registry.snapshot();
        let sched = |name: &str| snap.scheduling.get(&format!("{prefix}.{name}")).copied();
        assert_eq!(sched("hits"), Some(stats.hits));
        assert_eq!(sched("misses"), Some(stats.misses));
        assert_eq!(sched("evictions"), Some(stats.evictions));
        assert_eq!(sched("duplicate_inserts"), Some(stats.duplicate_inserts));
    }

    /// After a randomized workload of hits, misses, failed builds,
    /// fingerprint changes, and eviction pressure, the registry counters
    /// must equal the `CacheStats` fields exactly (one cache on a fresh
    /// registry, so no aggregation blurs the comparison).
    #[test]
    fn obs_mirrors_track_stats_exactly_under_randomized_workload() {
        let registry = crate::obs::Registry::new();
        let cache: PlanCache<usize> = PlanCache::with_capacity(4);
        cache.attach_obs(&registry, "mirror");
        let mut rng = crate::rng::Prng::new(0xD01F);
        for _ in 0..2000 {
            let src = format!("q{}", rng.below(12));
            let fp = rng.below(3) as u64;
            if rng.chance(0.1) {
                // Errors only surface on a miss: a hit returns the cached
                // plan without invoking the failing build.
                let _ = cache.get_or_insert(&src, fp, 0, || Err(NliError::Syntax("boom".into())));
            } else {
                let v = rng.below(100);
                let _ = cache.get_or_insert(&src, fp, 0, || Ok(v)).unwrap();
            }
        }
        let stats = cache.stats();
        assert_registry_matches(&registry, "mirror", stats);
        assert_eq!(stats.lookups(), 2000);
        assert!(stats.hits > 0 && stats.misses > 0 && stats.evictions > 0);
    }

    /// Same invariant under 8-thread contention: the registry counters are
    /// bumped under the cache mutex, so per-counter totals stay exact even though
    /// the hit/miss split itself is scheduling-dependent.
    #[test]
    fn obs_mirrors_stay_exact_under_contention() {
        let registry = crate::obs::Registry::new();
        let cache: PlanCache<usize> = PlanCache::with_capacity(4);
        cache.attach_obs(&registry, "mirror");
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    let mut rng = crate::rng::Prng::new(0xC0FFEE + t);
                    for _ in 0..500 {
                        let src = format!("q{}", rng.below(10));
                        let _ = cache.get_or_insert(&src, 0, 0, || Ok(1usize));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_registry_matches(&registry, "mirror", stats);
        assert_eq!(stats.lookups(), 8 * 500);
    }

    /// The satellite invariant: a stats-epoch bump (data mutation) is a
    /// plan-cache invalidation for stats-dependent plans, by key miss —
    /// while epoch-0 (rule-based) entries survive, since their plans never
    /// read the mutated statistics.
    #[test]
    fn stats_epoch_change_invalidates_cost_based_plans() {
        use crate::schema::{Column, Schema, Table};
        use crate::value::DataType;
        let schema = Schema::new(
            "s",
            vec![Table::new("t", vec![Column::new("id", DataType::Int)])],
        );
        let fp = schema.fingerprint();
        let mut db = crate::Database::empty(schema);
        let cache: PlanCache<&str> = PlanCache::with_capacity(8);

        let e1 = db.stats_epoch();
        assert_ne!(e1, 0, "a live database never reports the reserved epoch 0");
        assert_eq!(db.stats_epoch(), e1, "epoch is stable while data is");
        cache.get_or_insert("q", fp, 0, || Ok("rule")).unwrap();
        cache.get_or_insert("q", fp, e1, || Ok("cost@e1")).unwrap();

        db.insert("t", vec![1.into()]).unwrap();
        let e2 = db.stats_epoch();
        assert_ne!(e2, e1, "insert must move the database to a fresh epoch");
        assert!(
            !cache.contains("q", fp, e2),
            "stats-keyed entry must miss after mutation"
        );
        assert!(cache.contains("q", fp, 0), "rule-based entry survives");
        let mut rebuilt = false;
        let p = cache
            .get_or_insert("q", fp, e2, || {
                rebuilt = true;
                Ok("cost@e2")
            })
            .unwrap();
        assert!(
            rebuilt,
            "new epoch must recompile, not reuse the stale plan"
        );
        assert_eq!(*p, "cost@e2");
    }

    #[test]
    fn clear_preserves_counters() {
        let cache: PlanCache<u32> = PlanCache::with_capacity(2);
        cache.get_or_insert("a", 0, 0, || Ok(1)).unwrap();
        cache.clear();
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().misses, 1);
    }
}
