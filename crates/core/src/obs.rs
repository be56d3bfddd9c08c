//! Zero-dependency observability: counters, gauges, histograms, stage
//! spans, and stable JSON trace export.
//!
//! PRs 1–2 built a prepared-statement plan cache and a deterministic
//! work-stealing pool; this module makes both visible. Every instrumented
//! component records into a [`Registry`] — thread-safe metric tables over
//! plain `std` atomics (no new dependencies) — and a whole run's registry
//! can be snapshotted and serialized as diff-friendly JSON
//! ([`Snapshot::to_json`]), which the bench binaries write when the
//! `NLI_TRACE` environment variable names a path
//! ([`export_trace_if_requested`]).
//!
//! ## One primitive per stage
//!
//! A stage is instrumented once, with [`Registry::span`] — or, on hot
//! paths, a [`Stage`] handle resolved once and [`Stage::enter`]ed per
//! call. The [`Span`] guard takes one measurement and records it into the
//! stage's µs histogram, into a [`TraceEvent`] when tracing is on (see
//! below), and into the stage's rolling window when it has one
//! ([`Registry::windowed_stage`]), so the three cannot disagree. Every
//! histogram kind sits on one bucket core parameterised by its bounds.
//!
//! ## Metric classes and the determinism contract
//!
//! The parallel runtime promises byte-identical *results* at any worker
//! count (see [`crate::par`]); observability must not weaken that, so
//! recording is strictly observational — counters and timers are written
//! with relaxed atomics on the side, never read back by any computation.
//! Metrics fall into three classes, kept in separate sections of the
//! export:
//!
//! 1. **Deterministic counters/gauges** ([`Registry::counter`],
//!    [`Registry::gauge`]): pure functions of the workload — plan-cache
//!    hits, examples evaluated, sessions served. Two runs with the same
//!    seeds and the same `NLI_THREADS` produce identical values, so the
//!    `"counters"`/`"gauges"` sections of two traces diff clean.
//! 2. **Scheduling counters** ([`Registry::scheduling_counter`]) and
//!    **value histograms** ([`Registry::value_histogram`]): products of how
//!    work happened to interleave — steal counts, per-worker task totals,
//!    idle transitions, server batch-size distributions. Real and useful
//!    (they show pool balance and batching efficiency), but two runs may
//!    legitimately differ; they live in the `"scheduling"` and `"values"`
//!    sections.
//! 3. **Span timings** ([`Registry::span`], [`Span`]): wall-clock
//!    histograms. The *count* of spans is deterministic; the recorded
//!    durations are not, exactly like the `avg_micros` fields the
//!    determinism tests already zero before comparing. They live in the
//!    `"spans"` section.
//!
//! [`Snapshot::deterministic_json`] exports only what must be byte-stable
//! (class 1 plus span counts); determinism tests compare that form.
//!
//! ## Windowed metrics
//!
//! Cumulative counters answer "how much since boot"; a live operator asks
//! "how fast *right now*". A [`WindowedHistogram`] is a ring of
//! [`WINDOW_SLOTS`] one-second histograms driven by a process-monotonic
//! clock; recording stamps the current slot (lazily resetting expired
//! ones), and [`WindowedHistogram::summary`] folds the last N seconds into
//! count, rate, and p50/p95/p99 estimates — what the `nli-server` admin
//! `STATS` frame serves. Windows are wall-clock driven and therefore
//! **scheduling class**: they export in their own `"windows"` section and
//! never appear in [`Snapshot::deterministic_json`].
//!
//! Two snapshots can also be *diffed*: [`Snapshot::delta`] subtracts an
//! earlier snapshot's monotone sections (counters, scheduling counters,
//! span counts) from a later one, yielding the activity in between.
//! Gauges are last-write-wins, not monotone, and are deliberately
//! excluded from deltas.
//!
//! ## Per-query trace events
//!
//! Histograms answer "how long does `sql.execute` take on average"; trace
//! trees answer "where did *this* query spend its time". When recording
//! is enabled ([`Registry::set_trace_events`], or
//! [`enable_trace_events_from_env`] when `NLI_TRACE` is set), every span
//! also records a [`TraceEvent`] — id, parent id, label, µs — nested under
//! the innermost span open on its thread; when a thread's outermost span
//! closes, the completed [`TraceTree`] joins the `trace_events` export
//! section. Ids and nesting are deterministic: pre-order within a tree,
//! and every [`crate::par`] work item starts a fresh tree
//! (`detach_trace`), so shapes do not depend on `NLI_THREADS`.
//! Durations and cross-thread tree order are not, which is why
//! `trace_events` is excluded from [`Snapshot::deterministic_json`]. With
//! recording off, a span's trace side is one relaxed atomic load plus an
//! empty thread-local check.
//!
//! ## Example
//!
//! ```
//! use nli_core::obs::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache.hits");
//! hits.inc();
//! hits.add(2);
//! {
//!     let _timing = reg.span("parse"); // records wall time on drop
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache.hits"), Some(3));
//! assert_eq!(snap.span_count("parse"), Some(1));
//! assert!(snap.to_json().contains("\"cache.hits\": 3"));
//! ```

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Histogram bucket upper bounds in microseconds (a value lands in the
/// first bucket whose bound is `>=` it; larger values land in the overflow
/// bucket). Log-ish spacing from 1 µs to 10 s covers everything from a
/// cached `prepare` to a whole-benchmark evaluation.
pub const BUCKET_BOUNDS_MICROS: [u64; 22] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Bucket upper bounds for *value* histograms ([`Registry::value_histogram`]):
/// unit-less magnitudes such as batch sizes or queue depths, where powers of
/// two resolve the interesting range (1 … 1024, plus overflow).
pub const VALUE_BUCKET_BOUNDS: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024];

/// A monotonically increasing atomic counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Keep the maximum of the current value and `v`.
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct Cells {
    bounds: &'static [u64],
    /// One cell per entry of `bounds`, plus the overflow cell.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// The bucket core under every histogram kind: a fixed-bucket histogram
/// over a bounds table — [`BUCKET_BOUNDS_MICROS`] for durations (the
/// default, also each [`WindowedHistogram`] slot), [`VALUE_BUCKET_BOUNDS`]
/// for value histograms. A value lands in the first bucket whose bound is
/// `>=` it, or the overflow bucket. Cloning shares the cells; recording is
/// a few relaxed atomic adds, safe from any thread.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Cells>);

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::with_bounds(&BUCKET_BOUNDS_MICROS)
    }

    /// A histogram over `bounds` (ascending inclusive upper bounds).
    fn with_bounds(bounds: &'static [u64]) -> Histogram {
        Histogram(Arc::new(Cells {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        let c = &self.0;
        let idx = c.bounds.partition_point(|&le| le < value);
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
        c.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Fold `other` (same bounds) into this histogram.
    fn merge(&self, other: &Histogram) {
        let (c, o) = (&self.0, &other.0);
        for (acc, n) in c.buckets.iter().zip(&o.buckets) {
            acc.fetch_add(n.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        c.count
            .fetch_add(o.count.load(Ordering::Relaxed), Ordering::Relaxed);
        c.sum
            .fetch_add(o.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        c.max
            .fetch_max(o.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn reset(&self) {
        let c = &self.0;
        for cell in c.buckets.iter().chain([&c.count, &c.sum, &c.max]) {
            cell.store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        HistogramSnapshot {
            bounds: c.bounds,
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
            buckets: c
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Number of one-second slots in a [`WindowedHistogram`] ring — the
/// longest lookback a summary can cover.
pub const WINDOW_SLOTS: usize = 60;

/// Whole seconds elapsed since the process-wide monotonic anchor (the
/// first call in this process). Monotonic by construction: wall-clock
/// adjustments cannot move it backwards, so ring slots only ever expire.
fn window_clock_secs() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_secs()
}

/// One second of a [`WindowedHistogram`] ring.
#[derive(Debug)]
struct WindowSlot {
    /// The tick (second) these counts belong to; `u64::MAX` = never used.
    stamp: u64,
    hist: Histogram,
}

/// A rolling time-windowed duration histogram: a ring of [`WINDOW_SLOTS`]
/// one-second slots, each a fixed-bucket histogram over
/// [`BUCKET_BOUNDS_MICROS`]. Recording stamps the slot for the current
/// second (lazily resetting a slot whose stamp has rolled off), so the
/// structure answers "what were count / rate / p50/p95/p99 over the last
/// N seconds" at any moment, with O(`WINDOW_SLOTS`) memory forever.
///
/// Driven by a process-monotonic clock and therefore **scheduling
/// class**: summaries depend on when requests happened in wall time, so
/// they export in the `"windows"` section and never appear in
/// [`Snapshot::deterministic_json`]. Cloning shares the ring.
///
/// The `_at` variants take the tick explicitly, which is what the unit
/// tests use to exercise slot expiry without sleeping.
#[derive(Debug, Clone)]
pub struct WindowedHistogram(Arc<Mutex<Vec<WindowSlot>>>);

impl WindowedHistogram {
    pub fn new() -> WindowedHistogram {
        let slot = || WindowSlot {
            stamp: u64::MAX,
            hist: Histogram::new(),
        };
        WindowedHistogram(Arc::new(Mutex::new(
            (0..WINDOW_SLOTS).map(|_| slot()).collect(),
        )))
    }

    /// Record one observation (in microseconds) at the current second.
    pub fn record(&self, micros: u64) {
        self.record_at(window_clock_secs(), micros);
    }

    /// Record one observation at an explicit tick (test hook; production
    /// callers use [`WindowedHistogram::record`]).
    pub fn record_at(&self, tick: u64, micros: u64) {
        let mut slots = self.0.lock();
        let slot = &mut slots[(tick as usize) % WINDOW_SLOTS];
        if slot.stamp != tick {
            slot.stamp = tick;
            slot.hist.reset();
        }
        slot.hist.record(micros);
    }

    /// Summarize the last `window_secs` seconds ending now (clamped to
    /// `1..=`[`WINDOW_SLOTS`]).
    pub fn summary(&self, window_secs: u64) -> WindowSummary {
        self.summary_at(window_clock_secs(), window_secs)
    }

    /// Summarize the `window_secs` seconds ending at tick `now` inclusive
    /// (test hook; production callers use [`WindowedHistogram::summary`]).
    pub fn summary_at(&self, now: u64, window_secs: u64) -> WindowSummary {
        let window = window_secs.clamp(1, WINDOW_SLOTS as u64);
        let live = now.saturating_sub(window - 1)..=now;
        let total = Histogram::new();
        for slot in self.0.lock().iter().filter(|s| live.contains(&s.stamp)) {
            total.merge(&slot.hist);
        }
        let total = total.snapshot();
        WindowSummary {
            window_secs: window,
            count: total.count,
            sum_micros: total.sum,
            max_micros: total.max,
            rps_x1000: total.count * 1000 / window,
            p50_micros: total.percentile(50),
            p95_micros: total.percentile(95),
            p99_micros: total.percentile(99),
        }
    }
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::new()
    }
}

/// Frozen summary of one [`WindowedHistogram`] over its full window. All
/// fields are integers (the trace export has no floats); the rate is
/// requests-per-second scaled by 1000.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSummary {
    pub window_secs: u64,
    pub count: u64,
    pub sum_micros: u64,
    pub max_micros: u64,
    /// Mean requests per second over the window, ×1000.
    pub rps_x1000: u64,
    pub p50_micros: u64,
    pub p95_micros: u64,
    pub p99_micros: u64,
}

/// A resolved instrumentation point: one stage's µs histogram, its trace
/// label, and its rolling window when it has one. Resolve it once
/// ([`Registry::stage`]) and [`Stage::enter`] it per call; cloning shares
/// the handle.
#[derive(Debug, Clone)]
pub struct Stage(Arc<StageInner>);

#[derive(Debug)]
struct StageInner {
    registry: Registry,
    label: String,
    hist: Histogram,
    window: Option<WindowedHistogram>,
}

impl Stage {
    /// Open a span of this stage; it records when dropped or
    /// [`Span::finish`]ed.
    pub fn enter(&self) -> Span {
        let event = self.0.registry.open_event(&self.0.label);
        Span {
            stage: self.clone(),
            event,
            start: Instant::now(),
            open: true,
        }
    }

    /// The stage's rolling window, when it has one.
    pub fn window(&self) -> Option<&WindowedHistogram> {
        self.0.window.as_ref()
    }
}

/// RAII guard for one entry into a [`Stage`], created by [`Stage::enter`]
/// or [`Registry::span`]. It takes one wall-clock measurement and records
/// it, when it closes, into the stage's histogram, its trace event (when
/// recording was on at open) and its window (when it has one). Timing is
/// observational only — nothing in the pipeline reads it back, so entering
/// spans cannot perturb any computed result.
#[derive(Debug)]
#[must_use = "dropping immediately records a zero-length span"]
pub struct Span {
    stage: Stage,
    /// The open trace event's id, when recording was on at open.
    event: Option<u32>,
    start: Instant,
    open: bool,
}

impl Span {
    /// Close the span now and return the microseconds it recorded.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        self.open = false;
        let micros = self.start.elapsed().as_micros() as u64;
        let stage = &self.stage.0;
        stage.hist.record(micros);
        if let Some(window) = &stage.window {
            window.record(micros);
        }
        if let Some(id) = self.event {
            stage.registry.close_event(id, micros);
        }
        micros
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.open {
            self.close();
        }
    }
}

#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<String, Counter>,
    scheduling: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    spans: BTreeMap<String, Histogram>,
    values: BTreeMap<String, Histogram>,
    windows: BTreeMap<String, WindowedHistogram>,
}

/// One completed span inside a [`TraceTree`]: ids are assigned in
/// pre-order as spans open (so `events[e.id] == e` and every parent id is
/// smaller than its children's), which makes the structure a deterministic
/// function of the instrumented code path. Only `micros` is wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub id: u32,
    /// `None` for the tree's root event.
    pub parent: Option<u32>,
    pub label: String,
    pub micros: u64,
}

/// A completed per-query span tree: every span that opened (transitively)
/// under one outermost span on one thread while recording was on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// Events in id (= open) order; `events[0]` is the root.
    pub events: Vec<TraceEvent>,
}

impl TraceTree {
    /// The outermost event.
    pub fn root(&self) -> &TraceEvent {
        &self.events[0]
    }

    /// Events whose parent is `id`, in open order.
    pub fn children(&self, id: u32) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.parent == Some(id))
    }

    /// Indented text rendering (two spaces per depth level). With
    /// `with_micros` false the output is a pure function of the executed
    /// code path — safe for byte-compared output like the fuzz driver's
    /// stdout; with it true each line carries its wall-clock duration.
    pub fn render(&self, with_micros: bool) -> String {
        let mut depth = vec![0usize; self.events.len()];
        let mut out = String::new();
        for e in &self.events {
            let d = e.parent.map_or(0, |p| depth[p as usize] + 1);
            depth[e.id as usize] = d;
            for _ in 0..d {
                out.push_str("  ");
            }
            out.push_str(&e.label);
            if with_micros {
                out.push_str(&format!(" [{}us]", e.micros));
            }
            out.push('\n');
        }
        out
    }
}

/// Completed trees awaiting snapshot/drain, bounded by
/// [`MAX_TRACE_TREES`].
#[derive(Debug, Default)]
struct TraceState {
    trees: Vec<TraceTree>,
}

/// Cap on retained completed trees per registry; once reached, further
/// trees are counted in the `obs.trace_trees_dropped` scheduling counter
/// instead of retained, so a long traced run cannot grow without bound.
pub const MAX_TRACE_TREES: usize = 4096;

/// A tree under construction on one thread, for one registry.
struct ActiveTrace {
    /// Identity of the owning registry (pointer of its shared trace state).
    key: usize,
    events: Vec<TraceEvent>,
    /// Open span ids, innermost last.
    stack: Vec<u32>,
}

/// One scoped capture in progress on this thread (see
/// [`Registry::capture_thread_traces`]): completed trees for registry
/// `key` are routed here instead of the registry's shared store.
struct CaptureFrame {
    key: usize,
    trees: Vec<TraceTree>,
}

thread_local! {
    /// In-progress trees of the current thread, one per registry that has
    /// an open span here. Keyed by registry identity so tests with fresh
    /// registries never interleave with the global one.
    static ACTIVE_TRACES: RefCell<Vec<ActiveTrace>> = const { RefCell::new(Vec::new()) };
    /// Active [`Registry::capture_thread_traces`] scopes, innermost last.
    static CAPTURE_FRAMES: RefCell<Vec<CaptureFrame>> = const { RefCell::new(Vec::new()) };
}

/// Whether a capture scope for registry identity `key` is active on this
/// thread. Cheap when none is: one thread-local access over an empty vec.
fn thread_capture_active(key: usize) -> bool {
    CAPTURE_FRAMES.with(|f| f.borrow().iter().any(|c| c.key == key))
}

/// Run `f` with this thread's open spans set aside: spans opened inside
/// `f` start fresh trace trees, and the set-aside spans resume when `f`
/// returns (or unwinds). The [`crate::par`] runtime runs every work item
/// this way, so an item's tree has the same shape whether the item ran
/// inline on the calling thread or on a pool worker.
pub(crate) fn detach_trace<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<ActiveTrace>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = std::mem::take(&mut self.0);
            ACTIVE_TRACES.with(|a| *a.borrow_mut() = outer);
        }
    }
    let _restore = Restore(ACTIVE_TRACES.with(|a| std::mem::take(&mut *a.borrow_mut())));
    f()
}

/// The metric registered under `name` in `table`, registering a fresh one
/// on first use.
fn registered<T: Clone + Default>(table: &mut BTreeMap<String, T>, name: &str) -> T {
    table.entry(name.to_string()).or_default().clone()
}

/// A thread-safe metric registry. Cloning shares the tables; metric
/// handles ([`Counter`], [`Gauge`], [`Histogram`], [`Stage`]) are
/// registered by name on first use and shared by every later registration
/// of the same name, so call sites can cache handles and skip the registry
/// lock on hot paths. The process-wide default registry is [`global`].
#[derive(Debug, Clone, Default)]
pub struct Registry {
    tables: Arc<Mutex<Tables>>,
    trace_enabled: Arc<AtomicBool>,
    traces: Arc<Mutex<TraceState>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A deterministic counter: its value must be a pure function of the
    /// workload (and the configured `NLI_THREADS`), never of scheduling.
    pub fn counter(&self, name: &str) -> Counter {
        registered(&mut self.tables.lock().counters, name)
    }

    /// A scheduling counter: steal counts, per-worker totals — values that
    /// two otherwise identical runs may legitimately disagree on. Exported
    /// in a separate section so deterministic diffs stay clean.
    pub fn scheduling_counter(&self, name: &str) -> Counter {
        registered(&mut self.tables.lock().scheduling, name)
    }

    /// A deterministic last-write-wins gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        registered(&mut self.tables.lock().gauges, name)
    }

    /// A value histogram: a distribution of unit-less magnitudes (batch
    /// sizes, queue depths) over [`VALUE_BUCKET_BOUNDS`]. Scheduling
    /// class: what values get recorded may legitimately differ between two
    /// otherwise identical runs, so the `"values"` export section — like
    /// `"scheduling"` — is excluded from [`Snapshot::deterministic_json`].
    pub fn value_histogram(&self, name: &str) -> Histogram {
        self.tables
            .lock()
            .values
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(&VALUE_BUCKET_BOUNDS))
            .clone()
    }

    /// A rolling time-windowed duration histogram (see
    /// [`WindowedHistogram`]). Scheduling class: wall-clock driven, so
    /// the `"windows"` export section is excluded from
    /// [`Snapshot::deterministic_json`].
    pub fn windowed_histogram(&self, name: &str) -> WindowedHistogram {
        registered(&mut self.tables.lock().windows, name)
    }

    /// The timing histogram of stage `name` (registered on first use).
    fn span_histogram(&self, name: &str) -> Histogram {
        registered(&mut self.tables.lock().spans, name)
    }

    /// Resolve stage `name`: its timing histogram (registered on first
    /// use) and, when a window named `{name}.window` is registered, that
    /// window. Hot paths resolve once and [`Stage::enter`] per call.
    pub fn stage(&self, name: &str) -> Stage {
        let hist = self.span_histogram(name);
        let window = self
            .tables
            .lock()
            .windows
            .get(&format!("{name}.window"))
            .cloned();
        Stage(Arc::new(StageInner {
            registry: self.clone(),
            label: name.to_string(),
            hist,
            window,
        }))
    }

    /// [`Registry::stage`] for a stage that also feeds the rolling window
    /// `{name}.window`, registering the window first.
    pub fn windowed_stage(&self, name: &str) -> Stage {
        self.windowed_histogram(&format!("{name}.window"));
        self.stage(name)
    }

    /// Enter stage `name`: a guard that times, traces and windows the
    /// stage (see [`Span`]). Shorthand for `self.stage(name).enter()`.
    pub fn span(&self, name: &str) -> Span {
        self.stage(name).enter()
    }

    /// Turn per-query trace-event recording on or off (off by default).
    /// Disabling does not discard trees already completed.
    pub fn set_trace_events(&self, enabled: bool) {
        self.trace_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans currently record trace events.
    pub fn trace_events_enabled(&self) -> bool {
        self.trace_enabled.load(Ordering::Relaxed)
    }

    /// This registry's identity in the thread-local trace state.
    fn trace_key(&self) -> usize {
        Arc::as_ptr(&self.traces) as usize
    }

    /// Open a trace event labelled `label`, nested under the innermost
    /// event currently open on this thread (for this registry), and return
    /// its id. `None` — nothing recorded — when recording is disabled and
    /// no [`Registry::capture_thread_traces`] scope is active on this
    /// thread.
    fn open_event(&self, label: &str) -> Option<u32> {
        let key = self.trace_key();
        if !self.trace_enabled.load(Ordering::Relaxed) && !thread_capture_active(key) {
            return None;
        }
        let id = ACTIVE_TRACES.with(|a| {
            let mut a = a.borrow_mut();
            let t = match a.iter().position(|t| t.key == key) {
                Some(pos) => &mut a[pos],
                None => {
                    a.push(ActiveTrace {
                        key,
                        events: Vec::new(),
                        stack: Vec::new(),
                    });
                    a.last_mut().expect("just pushed")
                }
            };
            let id = t.events.len() as u32;
            t.events.push(TraceEvent {
                id,
                parent: t.stack.last().copied(),
                label: label.to_string(),
                micros: 0,
            });
            t.stack.push(id);
            id
        });
        Some(id)
    }

    /// Close event `id` with its duration; when it was the outermost open
    /// event, hand the completed tree to the innermost capture scope on
    /// this thread, or else to the registry's shared (bounded) store.
    fn close_event(&self, id: u32, micros: u64) {
        let key = self.trace_key();
        let finished = ACTIVE_TRACES.with(|a| {
            let mut a = a.borrow_mut();
            let pos = a.iter().position(|t| t.key == key)?;
            let t = &mut a[pos];
            t.events[id as usize].micros = micros;
            // Guards drop LIFO, but be defensive about leaked inner spans:
            // close everything opened after this one.
            while let Some(top) = t.stack.pop() {
                if top == id {
                    break;
                }
            }
            if t.stack.is_empty() {
                Some(a.swap_remove(pos).events)
            } else {
                None
            }
        });
        let Some(events) = finished else {
            return;
        };
        let mut tree = Some(TraceTree { events });
        CAPTURE_FRAMES.with(|f| {
            if let Some(frame) = f.borrow_mut().iter_mut().rev().find(|c| c.key == key) {
                frame.trees.extend(tree.take());
            }
        });
        let Some(tree) = tree else {
            return;
        };
        let mut state = self.traces.lock();
        if state.trees.len() < MAX_TRACE_TREES {
            state.trees.push(tree);
        } else {
            drop(state);
            self.scheduling_counter("obs.trace_trees_dropped").inc();
        }
    }

    /// Take (and clear) every completed trace tree, in completion order.
    pub fn drain_trace_trees(&self) -> Vec<TraceTree> {
        std::mem::take(&mut self.traces.lock().trees)
    }

    /// Run `f` on the current thread with scoped trace capture: every
    /// trace tree this registry completes *on this thread* during `f` is
    /// returned alongside `f`'s result instead of entering the registry's
    /// shared store — and recording is forced on for the scope even when
    /// [`Registry::trace_events_enabled`] is false. The server's
    /// slow-query profiler uses this to attach a span tree to one re-run
    /// statement without enabling (or polluting) global tracing.
    ///
    /// Thread-local by design: spans opened by other threads during `f`
    /// (e.g. pool workers) follow the normal rules. Scopes nest; the
    /// innermost scope for a registry claims its trees.
    pub fn capture_thread_traces<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<TraceTree>) {
        let key = self.trace_key();
        // Pop the frame even if `f` unwinds, so a caught panic in a test
        // cannot leave a stale capture scope on this thread.
        struct PopOnDrop(usize);
        impl Drop for PopOnDrop {
            fn drop(&mut self) {
                CAPTURE_FRAMES.with(|frames| {
                    let mut frames = frames.borrow_mut();
                    if let Some(pos) = frames.iter().rposition(|c| c.key == self.0) {
                        frames.remove(pos);
                    }
                });
            }
        }
        CAPTURE_FRAMES.with(|frames| {
            frames.borrow_mut().push(CaptureFrame {
                key,
                trees: Vec::new(),
            })
        });
        let guard = PopOnDrop(key);
        let result = f();
        let trees = CAPTURE_FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            match frames.iter().rposition(|c| c.key == key) {
                Some(pos) => std::mem::take(&mut frames[pos].trees),
                None => Vec::new(),
            }
        });
        drop(guard);
        (result, trees)
    }

    /// A point-in-time copy of every metric, with sorted keys.
    pub fn snapshot(&self) -> Snapshot {
        let trace_events = self.traces.lock().trees.clone();
        let tables = self.tables.lock();
        let read = |m: &BTreeMap<String, Counter>| -> BTreeMap<String, u64> {
            m.iter().map(|(k, v)| (k.clone(), v.get())).collect()
        };
        let histograms = |m: &BTreeMap<String, Histogram>| -> BTreeMap<String, HistogramSnapshot> {
            m.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
        };
        Snapshot {
            trace_events,
            counters: read(&tables.counters),
            scheduling: read(&tables.scheduling),
            gauges: tables
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            spans: histograms(&tables.spans),
            values: histograms(&tables.values),
            windows: tables
                .windows
                .iter()
                .map(|(k, v)| (k.clone(), v.summary(WINDOW_SLOTS as u64)))
                .collect(),
        }
    }
}

/// The process-wide registry every built-in instrumentation point records
/// into ([`crate::PlanCache`] via `SqlEngine`, [`crate::par`], the metric
/// evaluators, the session pool). [`export_trace_if_requested`] snapshots
/// it at the end of a bench run.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Frozen state of one histogram of any kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The bounds table the buckets follow ([`BUCKET_BOUNDS_MICROS`] for
    /// spans and windows, [`VALUE_BUCKET_BOUNDS`] for value histograms).
    pub bounds: &'static [u64],
    pub count: u64,
    /// Sum of the recorded values (microseconds for durations).
    pub sum: u64,
    pub max: u64,
    /// Parallel to `bounds`, plus the overflow bucket last.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean recorded value, `0.0` when nothing was recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `pct`-th percentile estimated from the buckets: the upper bound
    /// of the bucket holding the rank, clamped to the observed max (the
    /// max itself for the overflow bucket, and 0 when nothing was
    /// recorded). An upper-bound estimate — never below the true
    /// percentile by more than one bucket's width.
    fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * pct).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return self.bounds.get(i).map_or(self.max, |&b| b.min(self.max));
            }
        }
        self.max
    }
}

/// A point-in-time copy of a [`Registry`], ready for export. All maps are
/// `BTreeMap`s, so iteration — and therefore the JSON — is ordered by
/// metric name regardless of the order worker threads registered metrics
/// in (two identical runs export byte-identical deterministic sections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub scheduling: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub spans: BTreeMap<String, HistogramSnapshot>,
    /// Value histograms (scheduling class, like `scheduling`).
    pub values: BTreeMap<String, HistogramSnapshot>,
    /// Windowed histograms summarized over their full window (scheduling
    /// class — wall-clock driven).
    pub windows: BTreeMap<String, WindowSummary>,
    /// Completed per-query trace trees, in completion order (see the
    /// module docs: structure deterministic, durations and cross-thread
    /// ordering not).
    pub trace_events: Vec<TraceTree>,
}

impl Snapshot {
    /// The value of a deterministic counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The number of times a span stage was entered, if registered.
    pub fn span_count(&self, stage: &str) -> Option<u64> {
        self.spans.get(stage).map(|h| h.count)
    }

    /// Span counts by stage name.
    fn span_counts(&self) -> BTreeMap<String, u64> {
        self.spans
            .iter()
            .map(|(k, h)| (k.clone(), h.count))
            .collect()
    }

    /// Full trace JSON: deterministic counters/gauges, scheduling
    /// counters, value histograms, windows, span timing histograms, and
    /// trace trees. Keys are sorted and the layout is fixed, so two traces
    /// diff line-by-line; see `docs/trace-format.md` for the field-by-field
    /// reference.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        write_section(&mut out, "counters", &self.counters, false, push_u64);
        write_section(&mut out, "gauges", &self.gauges, false, push_u64);
        write_section(&mut out, "scheduling", &self.scheduling, false, push_u64);
        write_section(&mut out, "values", &self.values, false, |out, h| {
            push_histogram(out, h, ["sum", "max", "buckets_le"])
        });
        write_section(&mut out, "windows", &self.windows, false, |out, w| {
            let fields = [
                ("window_secs", w.window_secs),
                ("count", w.count),
                ("sum_micros", w.sum_micros),
                ("max_micros", w.max_micros),
                ("rps_x1000", w.rps_x1000),
                ("p50_micros", w.p50_micros),
                ("p95_micros", w.p95_micros),
                ("p99_micros", w.p99_micros),
            ];
            push_fields(out, &fields.map(|(k, v)| (k, v.to_string())));
        });
        write_section(&mut out, "spans", &self.spans, false, |out, h| {
            push_histogram(out, h, ["sum_micros", "max_micros", "buckets_le_micros"])
        });
        out.push_str("  \"trace_events\": [");
        for (i, tree) in self.trace_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"events\": [");
            for (j, e) in tree.events.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      {\"id\": ");
                out.push_str(&e.id.to_string());
                out.push_str(", \"parent\": ");
                match e.parent {
                    Some(p) => out.push_str(&p.to_string()),
                    None => out.push_str("null"),
                }
                out.push_str(", \"label\": ");
                push_json_string(&mut out, &e.label);
                out.push_str(&format!(", \"micros\": {}}}", e.micros));
            }
            if !tree.events.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("]}");
        }
        if !self.trace_events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Only the byte-stable part of the trace: deterministic counters,
    /// gauges, and span *counts* (durations stripped). Two runs with the
    /// same seeds and thread count must produce identical output —
    /// `tests/obs_determinism.rs` asserts exactly that.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        write_section(&mut out, "counters", &self.counters, false, push_u64);
        write_section(&mut out, "gauges", &self.gauges, false, push_u64);
        write_section(&mut out, "span_counts", &self.span_counts(), true, push_u64);
        out.push_str("}\n");
        out
    }

    /// The activity between `earlier` and `self` (two snapshots of the
    /// same registry, `earlier` taken first): per-name differences of the
    /// monotone sections — deterministic counters, scheduling counters,
    /// and span *counts*. Names absent from `earlier` count from zero
    /// (metrics register lazily). Gauges are last-write-wins, not
    /// monotone — "later minus earlier" is meaningless for them — so they
    /// are excluded by construction.
    pub fn delta(&self, earlier: &Snapshot) -> SnapshotDelta {
        fn diff(
            later: &BTreeMap<String, u64>,
            earlier: &BTreeMap<String, u64>,
        ) -> BTreeMap<String, u64> {
            later
                .iter()
                .map(|(k, &v)| {
                    let before = earlier.get(k).copied().unwrap_or(0);
                    debug_assert!(v >= before, "counter {k} regressed: {before} -> {v}");
                    (k.clone(), v.saturating_sub(before))
                })
                .collect()
        }
        SnapshotDelta {
            counters: diff(&self.counters, &earlier.counters),
            scheduling: diff(&self.scheduling, &earlier.scheduling),
            span_counts: diff(&self.span_counts(), &earlier.span_counts()),
        }
    }
}

/// The difference between two [`Snapshot`]s of one registry (see
/// [`Snapshot::delta`]): only the monotone sections, so every value is
/// "how much happened in between". No gauges field on purpose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDelta {
    pub counters: BTreeMap<String, u64>,
    pub scheduling: BTreeMap<String, u64>,
    pub span_counts: BTreeMap<String, u64>,
}

impl SnapshotDelta {
    /// True when nothing happened between the two snapshots.
    pub fn is_empty(&self) -> bool {
        let zero = |m: &BTreeMap<String, u64>| m.values().all(|&v| v == 0);
        zero(&self.counters) && zero(&self.scheduling) && zero(&self.span_counts)
    }
}

/// Write one top-level JSON object section: `"name": {` then one
/// `"key": <value>` line per map entry in key order, the value written by
/// `value`, then `}` (with a trailing comma unless `last`).
fn write_section<V>(
    out: &mut String,
    name: &str,
    map: &BTreeMap<String, V>,
    last: bool,
    mut value: impl FnMut(&mut String, &V),
) {
    out.push_str("  ");
    push_json_string(out, name);
    out.push_str(": {");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(out, k);
        out.push_str(": ");
        value(out, v);
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
    if !last {
        out.push(',');
    }
    out.push('\n');
}

fn push_u64(out: &mut String, v: &u64) {
    out.push_str(&v.to_string());
}

/// One histogram entry of the `spans` or `values` section; `keys` names
/// the sum, max and bucket fields, which differ between the two.
fn push_histogram(out: &mut String, h: &HistogramSnapshot, keys: [&str; 3]) {
    let [sum, max, buckets] = keys;
    let labels = h.bounds.iter().map(|b| b.to_string());
    let mut le = String::from("{");
    // Empty buckets are elided: shorter, still stable.
    for (bound, n) in labels.chain(["inf".to_string()]).zip(&h.buckets) {
        if *n > 0 {
            if le.len() > 1 {
                le.push_str(", ");
            }
            push_json_string(&mut le, &bound);
            le.push_str(&format!(": {n}"));
        }
    }
    le.push('}');
    let fields = [
        ("count", h.count.to_string()),
        (sum, h.sum.to_string()),
        (max, h.max.to_string()),
        (buckets, le),
    ];
    push_fields(out, &fields);
}

/// A section entry's object body: one `"key": value` line per field.
fn push_fields(out: &mut String, fields: &[(&str, String)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        out.push_str(if i > 0 { ",\n      " } else { "\n      " });
        push_json_string(out, k);
        out.push_str(": ");
        out.push_str(v);
    }
    out.push_str("\n    }");
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// If the `NLI_TRACE` environment variable names a path, snapshot the
/// [`global`] registry and write the full trace JSON there. Returns the
/// path written to, `None` when tracing is not requested. The bench
/// binaries call this as their last statement; it never affects results —
/// recording happens either way, `NLI_TRACE` only controls the file write.
pub fn export_trace_if_requested() -> std::io::Result<Option<std::path::PathBuf>> {
    let Ok(path) = std::env::var("NLI_TRACE") else {
        return Ok(None);
    };
    if path.trim().is_empty() {
        return Ok(None);
    }
    let path = std::path::PathBuf::from(path);
    std::fs::write(&path, global().snapshot().to_json())?;
    Ok(Some(path))
}

/// Turn on per-query trace-event recording on the [`global`] registry when
/// `NLI_TRACE` names a path. Binaries that end with
/// [`export_trace_if_requested`] call this first, so a traced run's export
/// carries a populated `trace_events` section; untraced runs keep a span's
/// trace side at its one-atomic-load cost.
pub fn enable_trace_events_from_env() {
    let enabled = std::env::var("NLI_TRACE").is_ok_and(|p| !p.trim().is_empty());
    if enabled {
        global().set_trace_events(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_exact_under_8_thread_contention() {
        let reg = Registry::new();
        let c = reg.counter("contended");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000, "atomic totals must be exact");
        assert_eq!(reg.snapshot().counter("contended"), Some(80_000));
    }

    #[test]
    fn same_name_shares_one_cell() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.counter("x").add(4);
        assert_eq!(reg.counter("x").get(), 5);
        // Scheduling counters are a separate namespace.
        reg.scheduling_counter("x").inc();
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.snapshot().scheduling.get("x"), Some(&1));
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let h = Histogram::new();
        // On-boundary values land in the bucket whose bound equals them;
        // one-past-boundary values land in the next bucket up.
        h.record(0); // <= 1        -> bucket 0
        h.record(1); // <= 1        -> bucket 0
        h.record(2); // <= 2        -> bucket 1
        h.record(3); // <= 5        -> bucket 2
        h.record(10_000_000); // last finite bound -> bucket 21
        h.record(10_000_001); // past every bound  -> overflow
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[BUCKET_BOUNDS_MICROS.len() - 1], 1);
        assert_eq!(s.buckets[BUCKET_BOUNDS_MICROS.len()], 1, "overflow");
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 20_000_007);
        assert_eq!(s.max, 10_000_001);
    }

    #[test]
    fn histogram_buckets_cover_every_value_once() {
        let h = Histogram::new();
        for v in [0, 1, 7, 99, 100, 101, 999_999, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert_eq!(s.buckets.len(), BUCKET_BOUNDS_MICROS.len() + 1);
    }

    #[test]
    fn value_histogram_buckets_are_powers_of_two() {
        let reg = Registry::new();
        let h = reg.value_histogram("batch.size");
        h.record(1); // <= 1  -> bucket 0
        h.record(2); // <= 2  -> bucket 1
        h.record(3); // <= 4  -> bucket 2
        h.record(1_024); // last finite bound
        h.record(1_025); // overflow
        let s = reg.snapshot().values["batch.size"].clone();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[VALUE_BUCKET_BOUNDS.len() - 1], 1);
        assert_eq!(s.buckets[VALUE_BUCKET_BOUNDS.len()], 1, "overflow");
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 2_055);
        assert_eq!(s.max, 1_025);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert!((s.mean() - 411.0).abs() < 1e-9);
    }

    #[test]
    fn value_histograms_export_in_their_own_section_and_stay_nondeterministic() {
        let reg = Registry::new();
        reg.value_histogram("server.batch_size").record(4);
        let json = reg.snapshot().to_json();
        assert!(
            json.contains("\"values\": {\n    \"server.batch_size\""),
            "{json}"
        );
        assert!(json.contains("\"buckets_le\": {\"4\": 1}"), "{json}");
        // scheduling class: excluded from the deterministic view
        let det = reg.snapshot().deterministic_json();
        assert!(!det.contains("server.batch_size"), "{det}");
        // same-name handles share one cell, like every other metric kind
        reg.value_histogram("server.batch_size").record(2);
        assert_eq!(reg.value_histogram("server.batch_size").count(), 2);
    }

    #[test]
    fn span_records_on_drop() {
        let reg = Registry::new();
        assert_eq!(reg.span_histogram("stage").count(), 0);
        {
            let _guard = reg.span("stage");
        }
        {
            let _guard = reg.stage("stage").enter();
        }
        assert_eq!(reg.snapshot().span_count("stage"), Some(2));
        // With tracing on, one measurement feeds histogram and event.
        reg.set_trace_events(true);
        let micros = reg.span("once").finish();
        assert_eq!(reg.drain_trace_trees()[0].root().micros, micros);
        assert_eq!(reg.snapshot().spans["once"].sum, micros);
    }

    #[test]
    fn export_is_independent_of_registration_order() {
        // The satellite bugfix: worker threads race to register metrics,
        // so export order must come from sorted keys, not insertion order.
        let a = Registry::new();
        a.counter("alpha").add(1);
        a.counter("beta").add(2);
        a.scheduling_counter("z.steals").add(3);
        a.span_histogram("parse"); // registered, never recorded

        let b = Registry::new();
        b.span_histogram("parse");
        b.scheduling_counter("z.steals").add(3);
        b.counter("beta").add(2);
        b.counter("alpha").add(1);

        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
        assert_eq!(
            a.snapshot().deterministic_json(),
            b.snapshot().deterministic_json()
        );
    }

    #[test]
    fn json_shape_is_stable() {
        // The full layout of every section, byte for byte.
        let reg = Registry::new();
        reg.counter("c").add(2);
        reg.gauge("g").set(3);
        reg.scheduling_counter("s").inc();
        reg.value_histogram("v").record(3);
        reg.value_histogram("v").record(5_000);
        reg.windowed_histogram("w").record(40);
        reg.span_histogram("p").record(7);
        reg.span_histogram("p").record(2_000);
        reg.span_histogram("q");
        let mut snap = reg.snapshot();
        let ev = |id, parent, label: &str| TraceEvent {
            id,
            parent,
            label: label.to_string(),
            micros: 9,
        };
        let trees = [
            vec![ev(0, None, "a"), ev(1, Some(0), "b")],
            vec![ev(0, None, "c")],
        ];
        snap.trace_events = trees.map(|events| TraceTree { events }).to_vec();
        let json = r#"{
  "counters": {
    "c": 2
  },
  "gauges": {
    "g": 3
  },
  "scheduling": {
    "s": 1
  },
  "values": {
    "v": {
      "count": 2,
      "sum": 5003,
      "max": 5000,
      "buckets_le": {"4": 1, "inf": 1}
    }
  },
  "windows": {
    "w": {
      "window_secs": 60,
      "count": 1,
      "sum_micros": 40,
      "max_micros": 40,
      "rps_x1000": 16,
      "p50_micros": 40,
      "p95_micros": 40,
      "p99_micros": 40
    }
  },
  "spans": {
    "p": {
      "count": 2,
      "sum_micros": 2007,
      "max_micros": 2000,
      "buckets_le_micros": {"10": 1, "2500": 1}
    },
    "q": {
      "count": 0,
      "sum_micros": 0,
      "max_micros": 0,
      "buckets_le_micros": {}
    }
  },
  "trace_events": [
    {"events": [
      {"id": 0, "parent": null, "label": "a", "micros": 9},
      {"id": 1, "parent": 0, "label": "b", "micros": 9}
    ]},
    {"events": [
      {"id": 0, "parent": null, "label": "c", "micros": 9}
    ]}
  ]
}
"#;
        assert_eq!(snap.to_json(), json);
        // deterministic view strips durations but keeps the count
        let det = snap.deterministic_json();
        assert!(det.contains("\"span_counts\": {\n    \"p\": 2,\n    \"q\": 0\n  }\n}\n"));
        assert!(!det.contains("sum_micros"), "{det}");
    }

    #[test]
    fn gauge_set_max_keeps_the_high_water_mark() {
        let g = Gauge::new();
        g.set_max(3);
        g.set_max(1);
        assert_eq!(g.get(), 3);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn trace_spans_build_a_nested_tree_with_preorder_ids() {
        let reg = Registry::new();
        reg.set_trace_events(true);
        {
            let _root = reg.span("query");
            {
                let _parse = reg.span("parse");
            }
            {
                let _exec = reg.span("execute");
                let _scan = reg.span("scan");
            }
        }
        let trees = reg.drain_trace_trees();
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        let shape: Vec<(u32, Option<u32>, &str)> = t
            .events
            .iter()
            .map(|e| (e.id, e.parent, e.label.as_str()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (0, None, "query"),
                (1, Some(0), "parse"),
                (2, Some(0), "execute"),
                (3, Some(2), "scan"),
            ]
        );
        assert_eq!(t.root().label, "query");
        assert_eq!(t.children(0).count(), 2);
        assert_eq!(
            t.render(false),
            "query\n  parse\n  execute\n    scan\n",
            "render without micros must be a pure function of structure"
        );
        assert!(t.render(true).contains("us]"));
        assert!(reg.drain_trace_trees().is_empty(), "drain clears");
    }

    #[test]
    fn trace_span_is_inert_when_disabled() {
        let reg = Registry::new();
        {
            let _g = reg.span("never.recorded");
        }
        assert!(reg.drain_trace_trees().is_empty());
        assert!(!reg.trace_events_enabled());
        reg.set_trace_events(true);
        assert!(reg.trace_events_enabled());
    }

    #[test]
    fn sibling_top_level_spans_become_separate_trees() {
        let reg = Registry::new();
        reg.set_trace_events(true);
        {
            let _a = reg.span("a");
        }
        {
            let _b = reg.span("b");
        }
        // A detached span (a par item) roots its own tree even while
        // another span is open; the outer tree resumes afterwards.
        {
            let _outer = reg.span("outer");
            detach_trace(|| {
                let _item = reg.span("item");
                let _child = reg.span("child");
            });
            let _after = reg.span("after");
        }
        let trees: Vec<String> = reg
            .drain_trace_trees()
            .iter()
            .map(|t| t.render(false))
            .collect();
        assert_eq!(trees, ["a\n", "b\n", "item\n  child\n", "outer\n  after\n"]);
    }

    #[test]
    fn registries_do_not_share_thread_local_nesting() {
        let a = Registry::new();
        let b = Registry::new();
        a.set_trace_events(true);
        b.set_trace_events(true);
        {
            let _outer = a.span("a.outer");
            let _other = b.span("b.root");
            let _inner = a.span("a.inner");
        }
        let ta = a.drain_trace_trees();
        let tb = b.drain_trace_trees();
        assert_eq!(ta.len(), 1);
        assert_eq!(
            ta[0]
                .events
                .iter()
                .map(|e| e.label.as_str())
                .collect::<Vec<_>>(),
            vec!["a.outer", "a.inner"],
            "registry b's span must not nest into registry a's tree"
        );
        assert_eq!(tb.len(), 1);
        assert_eq!(tb[0].events.len(), 1);
    }

    #[test]
    fn trace_trees_from_worker_threads_are_all_collected() {
        let reg = Registry::new();
        reg.set_trace_events(true);
        std::thread::scope(|s| {
            for i in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    let _root = reg.span(&format!("thread.{i}"));
                    let _child = reg.span("work");
                });
            }
        });
        let trees = reg.drain_trace_trees();
        assert_eq!(trees.len(), 4, "one tree per thread");
        for t in &trees {
            assert_eq!(t.events.len(), 2);
            assert_eq!(t.events[1].parent, Some(0));
        }
    }

    #[test]
    fn trace_events_appear_in_json_and_not_in_deterministic_json() {
        let reg = Registry::new();
        reg.set_trace_events(true);
        {
            let _root = reg.span("q");
            let _inner = reg.span("s");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.trace_events.len(), 1);
        let json = snap.to_json();
        assert!(
            json.contains("\"trace_events\": [\n    {\"events\": [\n      {\"id\": 0, \"parent\": null, \"label\": \"q\", \"micros\": "),
            "{json}"
        );
        assert!(
            json.contains("{\"id\": 1, \"parent\": 0, \"label\": \"s\", \"micros\": "),
            "{json}"
        );
        assert!(!snap.deterministic_json().contains("trace_events"));
        // Empty section still renders, as `[]`.
        let empty = Registry::new().snapshot().to_json();
        assert!(empty.contains("\"trace_events\": []"), "{empty}");
    }

    #[test]
    fn windowed_histogram_rolls_slots_and_summarizes() {
        let w = WindowedHistogram::new();
        w.record_at(10, 100);
        w.record_at(10, 100);
        w.record_at(12, 2_000);
        let s = w.summary_at(12, 60);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_micros, 2_200);
        assert_eq!(s.max_micros, 2_000);
        assert_eq!(s.rps_x1000, 3 * 1000 / 60);
        // rank(50) = 2 of 3 -> the 100µs bucket; rank(95|99) = 3 -> 2.5ms
        // bucket, clamped to the observed max.
        assert_eq!(s.p50_micros, 100);
        assert_eq!(s.p95_micros, 2_000);
        assert_eq!(s.p99_micros, 2_000);
        // A narrow window ending at tick 12 excludes tick 10.
        let narrow = w.summary_at(12, 2);
        assert_eq!(narrow.count, 1);
        assert_eq!(narrow.rps_x1000, 500);
        // WINDOW_SLOTS seconds later the ring has rolled everything off.
        let later = w.summary_at(12 + WINDOW_SLOTS as u64, 60);
        assert_eq!(later.count, 0);
        assert_eq!(later.p99_micros, 0);
        // ...and writing at the later tick reclaims the stale slot.
        w.record_at(12 + WINDOW_SLOTS as u64, 7);
        assert_eq!(w.summary_at(12 + WINDOW_SLOTS as u64, 1).count, 1);
    }

    #[test]
    fn windowed_overflow_percentile_reports_observed_max() {
        let w = WindowedHistogram::new();
        w.record_at(5, 99_000_000); // past every finite bound
        let s = w.summary_at(5, 60);
        assert_eq!(s.p50_micros, 99_000_000);
        assert_eq!(s.p99_micros, 99_000_000);
        // Window length clamps to the ring size.
        assert_eq!(w.summary_at(5, 10_000).window_secs, WINDOW_SLOTS as u64);
        assert_eq!(w.summary_at(5, 0).window_secs, 1);
    }

    #[test]
    fn windows_export_in_their_own_section_and_stay_out_of_deterministic_json() {
        let reg = Registry::new();
        reg.windowed_histogram("server.request.window").record(40);
        let snap = reg.snapshot();
        assert_eq!(snap.windows["server.request.window"].count, 1);
        let json = snap.to_json();
        assert!(
            json.contains("\"windows\": {\n    \"server.request.window\""),
            "{json}"
        );
        assert!(json.contains("\"rps_x1000\": "), "{json}");
        let det = snap.deterministic_json();
        assert!(!det.contains("server.request.window"), "{det}");
        assert!(!det.contains("windows"), "{det}");
        // Same-name handles share one ring.
        reg.windowed_histogram("server.request.window").record(41);
        assert_eq!(reg.snapshot().windows["server.request.window"].count, 2);
    }

    #[test]
    fn snapshot_delta_is_monotone_and_excludes_gauges() {
        let reg = Registry::new();
        reg.counter("work.done").add(5);
        reg.scheduling_counter("pool.steals").add(2);
        reg.gauge("pool.workers").set(4);
        {
            let _s = reg.span("stage");
        }
        let earlier = reg.snapshot();
        reg.counter("work.done").add(3);
        reg.counter("late.metric").add(1); // registered after `earlier`
        reg.scheduling_counter("pool.steals").inc();
        reg.gauge("pool.workers").set(1); // gauges may go DOWN...
        {
            let _s = reg.span("stage");
        }
        let later = reg.snapshot();
        // Counters are monotone: every later value >= its earlier value.
        for (k, v) in &later.counters {
            assert!(earlier.counter(k).unwrap_or(0) <= *v, "{k} regressed");
        }
        let d = later.delta(&earlier);
        assert_eq!(d.counters["work.done"], 3);
        assert_eq!(
            d.counters["late.metric"], 1,
            "absent-in-earlier counts from 0"
        );
        assert_eq!(d.scheduling["pool.steals"], 1);
        assert_eq!(d.span_counts["stage"], 1);
        assert!(!d.is_empty());
        // ...which is exactly why deltas exclude them by construction.
        assert!(
            !format!("{d:?}").contains("pool.workers"),
            "gauges must not appear in a delta: {d:?}"
        );
        assert!(later.delta(&later).is_empty());
    }

    #[test]
    fn capture_thread_traces_records_even_when_disabled_and_bypasses_registry() {
        let reg = Registry::new();
        assert!(!reg.trace_events_enabled());
        let ((), trees) = reg.capture_thread_traces(|| {
            let _root = reg.span("profile");
            let _inner = reg.span("scan");
        });
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].render(false), "profile\n  scan\n");
        assert!(
            reg.drain_trace_trees().is_empty(),
            "captured trees must not also enter the registry store"
        );
        // Outside the scope, disabled means inert again.
        {
            let _g = reg.span("after");
        }
        assert!(reg.drain_trace_trees().is_empty());
    }

    #[test]
    fn capture_thread_traces_claims_from_an_enabled_registry_without_stealing_other_threads() {
        let reg = Registry::new();
        reg.set_trace_events(true);
        {
            let _before = reg.span("before");
        }
        let ((), trees) = reg.capture_thread_traces(|| {
            let _mine = reg.span("mine");
            drop(_mine);
            // Another thread's tree goes to the registry as usual.
            std::thread::scope(|s| {
                let reg = reg.clone();
                s.spawn(move || {
                    let _other = reg.span("other.thread");
                });
            });
        });
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].root().label, "mine");
        let stored: Vec<String> = reg
            .drain_trace_trees()
            .iter()
            .map(|t| t.root().label.clone())
            .collect();
        assert_eq!(stored, vec!["before", "other.thread"]);
    }

    #[test]
    fn trace_tree_retention_is_capped() {
        let reg = Registry::new();
        reg.set_trace_events(true);
        for _ in 0..MAX_TRACE_TREES + 3 {
            let _g = reg.span("t");
        }
        let trees = reg.drain_trace_trees();
        assert_eq!(trees.len(), MAX_TRACE_TREES);
        assert_eq!(
            reg.snapshot().scheduling.get("obs.trace_trees_dropped"),
            Some(&3)
        );
    }

    #[test]
    fn windowed_stage_records_identical_count_and_sum_into_histogram_and_window() {
        let reg = Registry::new();
        let stage = reg.windowed_stage("req");
        for _ in 0..3 {
            let _s = stage.enter();
            std::hint::black_box((0..1_000u64).sum::<u64>());
        }
        drop(reg.span("req")); // a later resolution shares the window
        let snap = reg.snapshot();
        let (hist, window) = (&snap.spans["req"], &snap.windows["req.window"]);
        assert_eq!((window.count, window.sum_micros), (hist.count, hist.sum));
        assert_eq!((hist.count, window.max_micros), (4, hist.max));
        assert!(reg.stage("plain").window().is_none());
    }
}
