//! Outside-in tracing: CPU clocks and peak memory, an in-memory span
//! buffer, timing decorators for the two SENSEI adaptor traits, and the
//! statistics (percentiles, self time, ratios) the report is built from.
//!
//! Nothing here reaches inside the program: spans are recorded around
//! the public calls the benchmark makes (`Newton::step`,
//! `Bridge::execute`, ...) and around the trait methods the bridge's
//! engines call on the decorated adaptors.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use minimpi::TierSnapshot;
use parking_lot::Mutex;
use sensei::{
    AnalysisAdaptor, AnalysisCounters, BackendControls, DagScheduler, DataAdaptor,
    DataRequirements, ExecContext, MeshMetadata,
};
use svtk::DataObject;

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime`, from the C library the standard library
    /// already links (the vendored dependency set has no `libc` crate).
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Read a CPU-time clock in nanoseconds (0 if the clock is unavailable).
/// `/proc/thread-self/schedstat` is not used: for a running thread it
/// only advances at scheduler ticks (4 ms at `HZ=250`), far coarser than
/// most spans.
fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields, matching the C layout on 64-bit Linux) that outlives the
    // call; `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// User + system CPU of every thread of the process, exited threads
/// included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The system allocator, counting the bytes the process holds live and
/// their high-water mark. Installed as the benchmark binary's global
/// allocator, so it sees every allocation the program makes without the
/// program changing. The benchmark's own buffers (kept results, samples,
/// spans) are allocated inside [`uncounted`] and stay out of the count.
pub struct CountingAlloc;

/// Live bytes and their high-water mark. Signed: a buffer allocated
/// uncounted and freed counted makes the live figure drift low, and the
/// peak is only ever read relative to a run's start, where a constant
/// offset cancels. Every buffer the benchmark frees during a run is freed
/// inside [`uncounted`], so the offset is constant within a run.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set while the calling thread allocates for the benchmark itself.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the calling thread's allocations and frees left out of
/// the heap count: for the benchmark's own bookkeeping, so the heap
/// figure is the program's.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = UNCOUNTED.with(|u| u.replace(true));
    let out = f();
    UNCOUNTED.with(|u| u.set(was));
    out
}

/// False inside [`uncounted`]. A `const` thread-local of a `Cell<bool>`
/// needs no allocation and no destructor, so reading it from inside the
/// allocator is sound on every thread at every point of its life.
fn counted() -> bool {
    UNCOUNTED.try_with(|u| !u.get()).unwrap_or(true)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are plain
// statistics (relaxed atomics publish no other data).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && counted() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && counted() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if counted() {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for `ptr`, `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && counted() {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

fn grew(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

/// Restart the heap high-water mark from the bytes live now, and return
/// them.
pub fn reset_heap_peak() -> i64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// The heap high-water mark since the last reset, in bytes.
pub fn heap_peak() -> i64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Size of the block [`settle_allocator`] frees: just under glibc's cap
/// on its adaptive mmap threshold (32 MiB on 64-bit), so the freed
/// mapping still raises the threshold.
const SETTLE_BLOCK: usize = (32 << 20) - (64 << 10);

/// Put the C allocator in the state a long-running process reaches, so
/// every run starts from the same state. glibc maps large blocks with
/// `mmap` until a mapped block is freed, then raises its mmap threshold
/// (and its trim threshold, to twice that) to the freed size. Without
/// this, which sizes a fresh process happened to free first decided
/// whether the program's per-step result arrays were served from the
/// heap or faulted in as fresh pages: host_real's in situ p50 was about
/// 14 ms in some invocations and 18 ms in others. Allocating and freeing
/// one untouched block just under the threshold's cap settles it at the
/// cap; the block is never touched, so it costs no resident memory.
pub fn settle_allocator() {
    let layout = Layout::from_size_align(SETTLE_BLOCK, 8).expect("valid layout");
    uncounted(|| {
        // SAFETY: `layout` has a non-zero size; the block is freed with
        // the layout it was allocated with, and never read or written.
        unsafe {
            let p = std::alloc::alloc(layout);
            if !p.is_null() {
                std::alloc::dealloc(std::hint::black_box(p), layout);
            }
        }
    });
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next().and_then(|kb| kb.parse::<f64>().ok()))
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within its [`Recorder`].
    pub id: u64,
    /// The span open on the same thread when this one started.
    pub parent: Option<u64>,
    /// Layer boundary name (`newtonpp.step`, `bridge.execute`, ...).
    pub name: &'static str,
    /// Rank the call was made on.
    pub rank: usize,
    /// Simulation step the call belongs to.
    pub step: u64,
    /// Start and end, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU the calling thread spent inside the span.
    pub thread_cpu_ns: u64,
    /// CPU every thread of the process spent inside the span, when the
    /// span asked for it (`None` otherwise).
    pub process_cpu_ns: Option<u64>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// When an analysis finished a step on a rank (kept in untraced runs
/// too: the end-to-end `deliver_ms_*` metrics need it).
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub rank: usize,
    pub step: u64,
    pub at: Instant,
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// In-memory span and completion buffer for one world run. Spans are
/// only kept when `tracing` is on; they are written out once, at the
/// end of the benchmark.
pub struct Recorder {
    tracing: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    completions: Mutex<Vec<Completion>>,
    /// Traffic the decorated analyses' communicators carried inside
    /// `execute` (traced runs only).
    analysis_tiers: Mutex<TierSnapshot>,
}

/// An open span; records itself into the recorder when dropped.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    open: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    rank: usize,
    step: u64,
    start: Instant,
    thread_cpu0: u64,
    process_cpu0: Option<u64>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Arc<Self> {
        Arc::new(Recorder {
            tracing,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            analysis_tiers: Mutex::new(TierSnapshot::default()),
        })
    }

    /// Open a span (a no-op guard when tracing is off). With
    /// `process_cpu` the span also samples the CPU of every thread.
    pub fn span(
        &self,
        name: &'static str,
        rank: usize,
        step: u64,
        process_cpu: bool,
    ) -> SpanGuard<'_> {
        if !self.tracing {
            return SpanGuard { rec: self, open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(Some(id)));
        let process_cpu0 = process_cpu.then(process_cpu_ns);
        let open = OpenSpan {
            id,
            parent,
            name,
            rank,
            step,
            start: Instant::now(),
            thread_cpu0: thread_cpu_ns(),
            process_cpu0,
        };
        SpanGuard { rec: self, open: Some(open) }
    }

    /// Note that an analysis handed a step's result over on `rank`.
    pub fn complete(&self, rank: usize, step: u64) {
        let at = Instant::now();
        uncounted(|| self.completions.lock().push(Completion { rank, step, at }));
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }

    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock())
    }

    pub fn analysis_tiers(&self) -> TierSnapshot {
        *self.analysis_tiers.lock()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end = Instant::now();
        let thread_cpu_ns = thread_cpu_ns().saturating_sub(o.thread_cpu0);
        let process_cpu_ns = o.process_cpu0.map(|c0| process_cpu_ns().saturating_sub(c0));
        CURRENT.with(|c| c.set(o.parent));
        let ns = |t: Instant| t.saturating_duration_since(self.rec.epoch).as_nanos() as u64;
        let span = Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            rank: o.rank,
            step: o.step,
            start_ns: ns(o.start),
            end_ns: ns(end),
            thread_cpu_ns,
            process_cpu_ns,
        };
        uncounted(|| self.rec.spans.lock().push(span));
    }
}

/// Write spans as tab-separated rows (one header line) to `path`,
/// creating its directory.
pub fn write_spans(path: &Path, runs: &[(String, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "run\tid\tparent\tname\trank\tstep\tstart_ns\tend_ns\twall_ns\tthread_cpu_ns\tprocess_cpu_ns"
    )?;
    for (run, spans) in runs {
        for s in spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let pcpu = s.process_cpu_ns.map_or("-".to_string(), |c| c.to_string());
            writeln!(
                out,
                "{run}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{pcpu}",
                s.id,
                s.name,
                s.rank,
                s.step,
                s.start_ns,
                s.end_ns,
                s.wall_ns(),
                s.thread_cpu_ns
            )?;
        }
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

/// Times every `execute` of the wrapped back-end and notes when each
/// step's result was handed over; forwards every other method unchanged.
pub struct TimedAnalysis {
    inner: Box<dyn AnalysisAdaptor>,
    rec: Arc<Recorder>,
    rank: usize,
}

impl TimedAnalysis {
    pub fn new(inner: Box<dyn AnalysisAdaptor>, rec: Arc<Recorder>, rank: usize) -> Self {
        TimedAnalysis { inner, rec, rank }
    }

    /// Note the hand-over and, when tracing, the traffic the execute put
    /// on the analysis's communicator.
    fn finish(&self, step: u64, ctx: &ExecContext<'_>, tiers: Option<TierSnapshot>, ok: bool) {
        if let Some(before) = tiers {
            let delta = ctx.comm.tier_stats().delta_since(&before);
            self.rec.analysis_tiers.lock().accumulate(&delta);
        }
        if ok {
            self.rec.complete(self.rank, step);
        }
    }
}

impl AnalysisAdaptor for TimedAnalysis {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn controls(&self) -> &BackendControls {
        self.inner.controls()
    }

    fn controls_mut(&mut self) -> &mut BackendControls {
        self.inner.controls_mut()
    }

    fn required_arrays(&self) -> DataRequirements {
        self.inner.required_arrays()
    }

    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        self.inner.counters()
    }

    fn execute(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> sensei::Result<bool> {
        let step = data.time_step();
        let tiers = self.rec.tracing.then(|| ctx.comm.tier_stats());
        let out = {
            let _span = self.rec.span("analysis.execute", self.rank, step, false);
            let timed = TimedData::new(data, &self.rec, self.rank);
            self.inner.execute(&timed, ctx)
        };
        self.finish(step, ctx, tiers, out.is_ok());
        out
    }

    fn supports_dag(&self) -> bool {
        self.inner.supports_dag()
    }

    fn execute_dag(
        &mut self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        sched: &mut DagScheduler,
    ) -> sensei::Result<bool> {
        let step = data.time_step();
        let tiers = self.rec.tracing.then(|| ctx.comm.tier_stats());
        let out = {
            let _span = self.rec.span("analysis.execute", self.rank, step, false);
            let timed = TimedData::new(data, &self.rec, self.rank);
            self.inner.execute_dag(&timed, ctx, sched)
        };
        self.finish(step, ctx, tiers, out.is_ok());
        out
    }

    fn finalize(&mut self, ctx: &ExecContext<'_>) -> sensei::Result<()> {
        self.inner.finalize(ctx)
    }
}

/// Times `mesh()` — the hamr access (and any relayout) an analysis
/// triggers — and forwards every other method unchanged.
struct TimedData<'a> {
    inner: &'a dyn DataAdaptor,
    rec: &'a Recorder,
    rank: usize,
}

impl<'a> TimedData<'a> {
    fn new(inner: &'a dyn DataAdaptor, rec: &'a Recorder, rank: usize) -> Self {
        TimedData { inner, rec, rank }
    }
}

// SAFETY: `DataAdaptor` requires `Send`, but `&dyn DataAdaptor` is only
// `Send` for `Sync` adaptors. A `TimedData` is built on the stack inside
// `TimedAnalysis::execute*`, lent to the wrapped back-end by shared
// reference for the duration of that call and dropped before it
// returns; it is never moved to another thread. It is not `Sync`, so the
// back-end cannot share the reference with another thread either. The
// other fields (`&Recorder`, `usize`) are `Send`.
unsafe impl Send for TimedData<'_> {}

impl DataAdaptor for TimedData<'_> {
    fn num_meshes(&self) -> usize {
        self.inner.num_meshes()
    }

    fn mesh_metadata(&self, i: usize) -> sensei::Result<MeshMetadata> {
        self.inner.mesh_metadata(i)
    }

    fn mesh(&self, name: &str) -> sensei::Result<DataObject> {
        let _span = self.rec.span("hamr.mesh", self.rank, self.inner.time_step(), false);
        self.inner.mesh(name)
    }

    fn time(&self) -> f64 {
        self.inner.time()
    }

    fn time_step(&self) -> u64 {
        self.inner.time_step()
    }

    fn release_shared(&self) {
        self.inner.release_shared()
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Samples the nearest-rank `q` percentile of `n` samples leaves strictly
/// above it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `q` percentile of `values` (any order). `None` when
/// the percentile would leave fewer than ten samples beyond it — the
/// rule every reported tail percentile must meet.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || (q < 1.0 && q > 0.5 && samples_beyond(values.len(), q) < 10) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// The `q` percentile of samples gathered over several runs: the
/// interquartile mean of the runs' own percentiles when every run has
/// enough samples for it, so a slow stretch of a shared machine moves one
/// run's value rather than the result; otherwise the percentile of the
/// pooled samples. `None` when neither meets the ten-samples rule.
pub fn runs_percentile(runs: &[&[f64]], q: f64) -> Option<f64> {
    let per_run: Option<Vec<f64>> = runs.iter().map(|r| percentile(r, q)).collect();
    match per_run {
        Some(v) if !v.is_empty() => Some(interquartile_mean(&v)),
        _ => percentile(&runs.concat(), q),
    }
}

/// The mean of the middle half of `values`: a quarter (rounded down) is
/// dropped from each end (0 for none). The summary over runs: as robust
/// to a stray run as the median, but when runs fall into two modes (a
/// fresh world's allocator state decides whether its result arrays fault
/// in fresh pages) it moves in proportion to the mix, where the median
/// jumps from one mode to the other.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// `num / den`, with 0 for a zero base (nothing was attempted, so
/// nothing was achieved).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time of `span`: its wall time minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    span.wall_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            rank: 0,
            step: 1,
            start_ns,
            end_ns,
            thread_cpu_ns: 0,
            process_cpu_ns: None,
        }
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(percentile(&v[..199], 0.95), None, "9 samples beyond p95");
        assert_eq!(percentile(&v[..100], 0.90), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.90), None);
        assert_eq!(percentile(&v[..999.min(v.len())], 0.99), None);
    }

    #[test]
    fn runs_percentile_takes_the_median_run_or_pools() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let slow: Vec<f64> = calm.iter().map(|v| v * 3.0).collect();
        // Four runs supporting p90 each: the slow run is dropped.
        let four: [&[f64]; 4] = [&calm, &slow, &calm, &calm];
        assert_eq!(runs_percentile(&four, 0.90), Some(90.0));
        assert_eq!(runs_percentile(&four, 0.5), Some(50.0));
        // Runs too short for p90 on their own are pooled.
        let short = &calm[..50];
        assert_eq!(runs_percentile(&[short, short], 0.90), Some(45.0));
        assert_eq!(runs_percentile(&[short], 0.90), None);
        assert_eq!(runs_percentile(&[], 0.5), None);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 4.0, 1.0]), 3.0);
        assert_eq!(interquartile_mean(&[5.0, 7.0]), 6.0, "too few to drop any");
        assert_eq!(interquartile_mean(&[]), 0.0);
        // Two modes: the result follows the mix; the median would jump.
        let mix = |slow: usize| {
            let v: Vec<f64> = (0..12).map(|i| if i < slow { 21.0 } else { 15.0 }).collect();
            (interquartile_mean(&v), median(&v))
        };
        assert_eq!(mix(5), (17.0, 15.0));
        assert_eq!(mix(6), (18.0, 15.0));
        assert_eq!(mix(7), (19.0, 21.0));
    }

    #[test]
    fn median_has_no_tail_rule() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0, "nearest rank, lower middle");
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_with_a_zero_base_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(0, None, 100, 200);
        let a = span(1, Some(0), 110, 140);
        let b = span(2, Some(0), 130, 160); // overlaps a: union 110..160
        let c = span(3, Some(0), 190, 250); // clipped to 190..200
        assert_eq!(self_ns(&parent, &[&a, &b, &c]), 100 - 50 - 10);
        assert_eq!(self_ns(&parent, &[]), 100);
    }

    #[test]
    fn recorder_nests_spans_per_thread_and_skips_when_off() {
        let rec = Recorder::new(true);
        {
            let _outer = rec.span("outer", 0, 1, false);
            let _inner = rec.span("inner", 0, 1, true);
        }
        std::thread::scope(|s| {
            s.spawn(|| drop(rec.span("other_thread", 1, 1, false)));
        });
        let spans = rec.take_spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded").clone();
        let (outer, inner, other) = (by("outer"), by("inner"), by("other_thread"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(other.parent, None, "parents never cross threads");
        assert!(inner.process_cpu_ns.is_some() && outer.process_cpu_ns.is_none());
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = Recorder::new(false);
        drop(off.span("ignored", 0, 1, true));
        off.complete(0, 1);
        assert!(off.take_spans().is_empty());
        assert_eq!(off.take_completions().len(), 1, "completions are kept untraced");
    }

    /// A back-end that reads one mesh per execute.
    struct Probe {
        controls: BackendControls,
        counters: Arc<AnalysisCounters>,
        executed: Arc<AtomicU64>,
    }

    impl AnalysisAdaptor for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn controls(&self) -> &BackendControls {
            &self.controls
        }
        fn controls_mut(&mut self) -> &mut BackendControls {
            &mut self.controls
        }
        fn required_arrays(&self) -> DataRequirements {
            DataRequirements::Subset(Default::default())
        }
        fn counters(&self) -> Option<Arc<AnalysisCounters>> {
            Some(self.counters.clone())
        }
        fn execute(&mut self, data: &dyn DataAdaptor, _: &ExecContext<'_>) -> sensei::Result<bool> {
            data.mesh("bodies")?;
            self.executed.fetch_add(1, Ordering::Relaxed);
            Ok(true)
        }
    }

    struct Step7;

    impl DataAdaptor for Step7 {
        fn num_meshes(&self) -> usize {
            1
        }
        fn mesh_metadata(&self, _: usize) -> sensei::Result<MeshMetadata> {
            Ok(MeshMetadata { name: "bodies".into(), arrays: Vec::new() })
        }
        fn mesh(&self, _: &str) -> sensei::Result<DataObject> {
            Ok(DataObject::Table(svtk::TableData::new()))
        }
        fn time(&self) -> f64 {
            0.7
        }
        fn time_step(&self) -> u64 {
            7
        }
    }

    #[test]
    fn timed_analysis_forwards_and_records_execute_and_mesh() {
        let counters = Arc::new(AnalysisCounters::default());
        let executed = Arc::new(AtomicU64::new(0));
        let probe = Probe {
            controls: BackendControls::default(),
            counters: counters.clone(),
            executed: executed.clone(),
        };
        let rec = Recorder::new(true);
        let timed = TimedAnalysis::new(Box::new(probe), rec.clone(), 3);
        assert_eq!(timed.name(), "probe");
        assert!(Arc::ptr_eq(&timed.counters().expect("forwarded"), &counters));
        assert!(matches!(timed.required_arrays(), DataRequirements::Subset(_)));

        let node = devsim::SimNode::new(devsim::NodeConfig::fast_test(1));
        let timed = Mutex::new(timed);
        minimpi::World::new(1).run(|comm| {
            let ctx = ExecContext::new(&comm, &node);
            assert!(timed.lock().execute(&Step7, &ctx).expect("execute"));
        });
        assert_eq!(executed.load(Ordering::Relaxed), 1, "the wrapped back-end ran");

        let spans = rec.take_spans();
        let exec = spans.iter().find(|s| s.name == "analysis.execute").expect("execute span");
        let mesh = spans.iter().find(|s| s.name == "hamr.mesh").expect("mesh span");
        assert_eq!((exec.rank, exec.step), (3, 7));
        assert_eq!(mesh.parent, Some(exec.id), "mesh() is timed inside the execute");
        let done = rec.take_completions();
        assert_eq!((done.len(), done[0].rank, done[0].step), (1, 3, 7));
    }

    #[test]
    fn cpu_clocks_resolve_a_short_spin() {
        let (t0, p0) = (thread_cpu_ns(), process_cpu_ns());
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_micros(200) {
            std::hint::black_box(0u64);
        }
        let (dt, dp) = (thread_cpu_ns() - t0, process_cpu_ns() - p0);
        assert!(dt >= 100_000, "thread clock saw {dt} ns of a 200 us spin");
        assert!(dp >= dt / 2, "process clock saw {dp} ns");
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn heap_peak_counts_a_live_allocation() {
        // The test binary runs on the counting allocator too (it is the
        // crate's global allocator); the margins are far above what
        // concurrent tests allocate or free meanwhile.
        let base = reset_heap_peak();
        let block = vec![1u8; 64 << 20];
        assert!(heap_peak() >= base + (48 << 20));
        drop(std::hint::black_box(block));
        assert!(heap_peak() >= base + (48 << 20), "the peak outlives the block");
    }

    #[test]
    fn uncounted_allocations_stay_out_of_the_heap_peak() {
        let base = reset_heap_peak();
        // Reserved, not touched: no resident memory is needed.
        let mut block: Vec<u8> = uncounted(|| Vec::with_capacity(256 << 20));
        uncounted(|| block.reserve(512 << 20));
        let peak = heap_peak();
        uncounted(|| drop(std::hint::black_box(block)));
        assert!(peak < base + (128 << 20), "{} MiB counted", (peak - base) >> 20);
        assert!(counted(), "the guard is lifted after each call");
    }
}
