//! One world run: the benchmark's own step loop around the program's
//! public API (`Newton::new`/`step`, `NewtonAdaptor::new`,
//! `Bridge::execute`/`finalize`), shared by every workload and by the
//! correctness references.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use binning::{BinnedResult, BinningAnalysis, BinningSpec, BinningSuite, ResultSink};
use devsim::{MemSpace, PoolStats, SimNode, StatsSnapshot};
use minimpi::{Comm, TierSnapshot, World};
use newtonpp::{forces::Gravity, ic::UniformIc, IcKind, Newton, NewtonAdaptor, NewtonConfig};
use parking_lot::Mutex;
use sensei::{
    select_device, AnalysisAdaptor, BackendControls, Bridge, CounterSnapshot, DeviceSelector,
    DeviceSpec, ExecutionMethod, OverflowPolicy, Placement, ServeHub, ServeSnapshot, SessionConfig,
    SessionHandle, SnapshotCounterSnapshot, SnapshotMode, StepPayload, Topic,
};

use crate::trace::{self, uncounted, Recorder, Span, TimedAnalysis};

/// Steps at the start of every run left out of the timing samples: the
/// caching pool and the asynchronous workers' queues fill here.
pub const WARMUP_STEPS: u64 = 2;

/// Steps at the start of a run whose results are compared in full with
/// the reference; the last step's results are compared too, and they
/// depend on the whole trajectory.
pub const CHECKED_PREFIX_STEPS: u64 = 3;

/// How long the serving loop waits for the asynchronous worker to hand
/// over a run's last results before it counts them as failed.
const RESULT_WAIT: Duration = Duration::from_secs(60);

/// One world run of Newton++ coupled to the binning workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Decides the rank count (one rank per simulation device) and the
    /// devices the solver and the in situ work use.
    pub placement: Placement,
    /// Simulated devices on the node.
    pub num_devices: usize,
    /// Multiplier on modeled device, host and link time.
    pub time_scale: f64,
    pub bodies: usize,
    /// Newton++ initial-condition seed.
    pub ic_seed: u64,
    pub steps: u64,
    pub specs: Vec<BinningSpec>,
    /// One fused `BinningSuite` (true) or one `BinningAnalysis` per spec.
    pub fused: bool,
    pub execution: ExecutionMethod,
    pub snapshot: SnapshotMode,
    /// Asynchronous snapshot queue depth (block on overflow).
    pub queue_depth: usize,
    /// Force the in situ work onto the host whatever the placement
    /// (correctness references).
    pub insitu_on_host: bool,
}

impl RunConfig {
    pub fn ranks(&self) -> usize {
        self.placement.ranks_per_node(self.num_devices)
    }

    /// The lockstep, host, unmodeled run of the same case, seed and rank
    /// count whose results this run must reproduce bit for bit.
    pub fn reference(&self) -> RunConfig {
        RunConfig {
            time_scale: 0.0,
            execution: ExecutionMethod::Lockstep,
            snapshot: SnapshotMode::Deep,
            insitu_on_host: true,
            ..self.clone()
        }
    }

    /// True when this run already is its own reference configuration.
    pub fn is_own_reference(&self) -> bool {
        self.time_scale == 0.0
            && self.execution == ExecutionMethod::Lockstep
            && (self.insitu_on_host || self.placement == Placement::Host)
    }
}

/// The simulated audience of a serving run (single-rank runs only).
#[derive(Debug, Clone)]
pub struct Audience {
    /// Standing sessions: `(fast, topic)`; fast sessions are block-policy
    /// and drain eagerly, the others are drop-oldest and drain rarely.
    pub sessions: Vec<(bool, Topic)>,
    /// Per-session queue depth.
    pub queue_depth: usize,
    /// The churner's open-loop timetable.
    pub churn: ChurnPlan,
    /// Threads polling the standing sessions (the churner is one more).
    pub client_threads: usize,
}

/// The churn timetable, generated on the fly from its seed: entry `i`
/// is due `gap_1 + ... + gap_i` after the first step, each gap drawn
/// uniformly from `gap_us`, and subscribes a session on every churn
/// slot, polls each once and drops them.
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    pub seed: u64,
    pub slots: Vec<Topic>,
    pub gap_us: (u64, u64),
}

/// What a serving run's audience saw.
#[derive(Debug, Clone, Default)]
pub struct ServeOut {
    /// Publish-to-receipt latency of every frame received, in ms.
    pub latency_ms: Vec<f64>,
    /// Frames every client received.
    pub received: u64,
    /// Frames the fast (block-policy) sessions were owed, and how many
    /// of those never arrived.
    pub owed_fast: u64,
    pub missing_fast: u64,
    pub fast: usize,
    pub slow: usize,
    /// Hub totals.
    pub hub: ServeSnapshot,
    /// Wall time of one churner subscribe + unsubscribe, per session.
    pub subscribe_ms: Vec<f64>,
    /// How late each churn entry started against its schedule.
    pub churn_late_ms: Vec<f64>,
    pub churn_sessions: u64,
    /// Results the run never handed to the hub (worker stalled).
    pub unpublished: u64,
}

/// Everything one world run produced.
#[derive(Debug, Default)]
pub struct RunOut {
    pub ranks: usize,
    pub steps: u64,
    /// Main-thread start (before the node exists) to the last rank's
    /// first step.
    pub setup_s: f64,
    /// First rank's first step to the last rank's `finalize` return.
    pub run_s: f64,
    /// Heap high-water mark of the run above what was live when it
    /// started, in MiB.
    pub heap_peak_mb: f64,
    /// Per rank and step after warm-up: `Newton::step` + `Bridge::execute`,
    /// `Newton::step`, `Bridge::execute` wall times.
    pub step_ms: Vec<f64>,
    pub solver_ms: Vec<f64>,
    pub insitu_ms: Vec<f64>,
    /// Serving runs: publish to a session's receipt, per frame received
    /// (moved out of `serve`). Others: hand-off (`Bridge::execute` call)
    /// to each analysis handing its result over, per rank, analysis and
    /// step after warm-up.
    pub deliver_ms: Vec<f64>,
    /// Rank 0's results of the checked steps, sorted by (step, axes).
    pub checked: Vec<BinnedResult>,
    pub dispatches: u64,
    pub failed_dispatches: u64,
    /// Back-end counters summed over ranks.
    pub counters: CounterSnapshot,
    /// The solver's own traffic on the world communicators.
    pub world_tiers: TierSnapshot,
    /// The analyses' traffic, measured around each `execute` (traced
    /// runs only).
    pub analysis_tiers: TierSnapshot,
    pub world_allreduces: u64,
    pub snapshot: SnapshotCounterSnapshot,
    /// Collectives seen by the hook on every communicator.
    pub collectives: u64,
    pub node: StatsSnapshot,
    pub pool: PoolStats,
    pub spans: Vec<Span>,
    pub serve: Option<ServeOut>,
}

struct RankOut {
    first_step: Instant,
    done: Instant,
    /// `(step, Newton::step, Bridge::execute, both)` wall times.
    samples: Vec<(u64, Duration, Duration, Duration)>,
    execute_calls: Vec<(u64, Instant)>,
    checked: Vec<BinnedResult>,
    dispatches: u64,
    counters: CounterSnapshot,
    snapshot: SnapshotCounterSnapshot,
    world_tiers: TierSnapshot,
    world_allreduces: u64,
    serve: Option<ServeOut>,
}

fn newton_config(bodies: usize, seed: u64) -> NewtonConfig {
    NewtonConfig {
        ic: IcKind::Uniform(UniformIc {
            n: bodies,
            seed,
            half_width: 1.0,
            mass_range: (0.5, 1.5),
            velocity_scale: 0.1,
            central_mass: bodies as f64,
        }),
        dt: 1e-4,
        grav: Gravity { g: 1.0, eps: 0.05 },
        x_extent: (-2.0, 2.0),
        // Repartitioning stays off, as in the paper's runs (§4.3).
        repartition_every: None,
    }
}

/// Keeps the results the correctness gate compares (the copies are the
/// benchmark's, so they stay out of the heap count).
struct Checked {
    last_step: u64,
    kept: Vec<BinnedResult>,
}

impl Checked {
    fn take(&mut self, sink: &ResultSink) -> Vec<BinnedResult> {
        let fresh = std::mem::take(&mut *sink.lock());
        uncounted(|| {
            for r in &fresh {
                if r.step <= CHECKED_PREFIX_STEPS || r.step == self.last_step {
                    self.kept.push(r.clone());
                }
            }
        });
        fresh
    }
}

/// Run `cfg` once. `audience` turns on serving (single-rank runs only).
pub fn run(cfg: &RunConfig, audience: Option<&Audience>, rec: &Arc<Recorder>) -> RunOut {
    let ranks = cfg.ranks();
    assert!(audience.is_none() || ranks == 1, "serving runs are single-rank");
    let heap0 = trace::reset_heap_peak();
    let t0 = Instant::now();
    let node = SimNode::new(bench::bench_node_config(cfg.num_devices, cfg.time_scale));
    let collectives = Arc::new(AtomicU64::new(0));

    let outs: Vec<RankOut> = {
        let node = node.clone();
        let collectives = collectives.clone();
        let rec = rec.clone();
        let (cfg, audience) = uncounted(|| (cfg.clone(), audience.cloned()));
        World::new(ranks).run(move |comm| {
            run_rank(&cfg, audience.as_ref(), node.clone(), &comm, &rec, &collectives)
        })
    };

    let first = outs.iter().map(|o| o.first_step).min().expect("at least one rank");
    let last_first = outs.iter().map(|o| o.first_step).max().expect("at least one rank");
    let done = outs.iter().map(|o| o.done).max().expect("at least one rank");

    let mut out = RunOut {
        ranks,
        steps: cfg.steps,
        setup_s: (last_first - t0).as_secs_f64(),
        run_s: (done - first).as_secs_f64(),
        heap_peak_mb: (trace::heap_peak() - heap0) as f64 / (1024.0 * 1024.0),
        collectives: collectives.load(Ordering::Relaxed),
        node: node.stats(),
        ..Default::default()
    };
    out.pool = node.pool_stats(MemSpace::Host);
    for d in 0..node.num_devices() {
        out.pool.accumulate(&node.pool_stats(MemSpace::Device(d)));
    }

    let completions = rec.take_completions();
    for (rank, o) in outs.into_iter().enumerate() {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        for &(step, solver, insitu, total) in &o.samples {
            if step > WARMUP_STEPS {
                out.step_ms.push(ms(total));
                out.solver_ms.push(ms(solver));
                out.insitu_ms.push(ms(insitu));
            }
        }
        if o.serve.is_none() {
            for c in completions.iter().filter(|c| c.rank == rank && c.step > WARMUP_STEPS) {
                if let Some((_, called)) = o.execute_calls.iter().find(|(s, _)| *s == c.step) {
                    out.deliver_ms.push(ms(c.at.saturating_duration_since(*called)));
                }
            }
        }
        if rank == 0 {
            out.checked = o.checked;
            out.serve = o.serve;
            if let Some(s) = &mut out.serve {
                out.deliver_ms = std::mem::take(&mut s.latency_ms);
            }
        }
        out.dispatches += o.dispatches;
        out.failed_dispatches += o.counters.faults.aborted + o.counters.faults.skipped;
        out.counters.accumulate(&o.counters);
        out.snapshot.accumulate(&o.snapshot);
        out.world_tiers.accumulate(&o.world_tiers);
        out.world_allreduces += o.world_allreduces;
    }
    out.checked.sort_by(|a, b| (a.step, &a.axes).cmp(&(b.step, &b.axes)));
    out.spans = rec.take_spans();
    out.analysis_tiers = rec.analysis_tiers();
    out
}

fn run_rank(
    cfg: &RunConfig,
    audience: Option<&Audience>,
    node: Arc<SimNode>,
    comm: &Comm,
    rec: &Arc<Recorder>,
    collectives: &Arc<AtomicU64>,
) -> RankOut {
    let rank = comm.rank();
    // Installed before anything communicates, so every communicator the
    // bridge later duplicates inherits it.
    let hook_count = collectives.clone();
    comm.set_collective_hook(Arc::new(move |_seq| {
        hook_count.fetch_add(1, Ordering::Relaxed);
    }));

    let sim_device =
        select_device(rank, cfg.num_devices, &cfg.placement.sim_selector(cfg.num_devices));
    let mut sim =
        Newton::new(node.clone(), comm, sim_device, newton_config(cfg.bodies, cfg.ic_seed))
            .expect("simulation initialization");

    let (device, selector) = if cfg.insitu_on_host {
        (DeviceSpec::Host, DeviceSelector::default())
    } else {
        cfg.placement.insitu_spec(cfg.num_devices)
    };
    let controls = BackendControls {
        execution: cfg.execution,
        device,
        selector,
        queue_depth: cfg.queue_depth.max(1),
        overflow: OverflowPolicy::Block,
        ..Default::default()
    };
    let sink: Option<ResultSink> = (rank == 0).then(|| Arc::new(Mutex::new(Vec::new())));
    let mut bridge = Bridge::new(node.clone());
    bridge.set_snapshot_mode(cfg.snapshot);
    let hub = audience.map(|_| ServeHub::new(false));
    if let Some(hub) = &hub {
        bridge.attach_serve(hub.clone());
    }
    let timed = |a: Box<dyn AnalysisAdaptor>| Box::new(TimedAnalysis::new(a, rec.clone(), rank));
    let mut analyses = 0u64;
    if cfg.fused {
        let mut suite = BinningSuite::new(cfg.specs.clone())
            .expect("suite over the specs")
            .with_controls(controls);
        if let Some(sink) = &sink {
            suite = suite.with_sink(sink.clone());
        }
        bridge.add_analysis(timed(Box::new(suite)), comm).expect("attach suite");
        analyses += 1;
    } else {
        for spec in &cfg.specs {
            let mut a =
                BinningAnalysis::new(spec.clone()).with_fused(false).with_controls(controls);
            if let Some(sink) = &sink {
                a = a.with_sink(sink.clone());
            }
            bridge.add_analysis(timed(Box::new(a)), comm).expect("attach analysis");
            analyses += 1;
        }
    }

    let mut serving = match (audience, &hub) {
        (Some(a), Some(h)) => Some(Serving::start(a, h)),
        _ => None,
    };

    let mut checked = Checked { last_step: cfg.steps, kept: Vec::new() };
    // Sized for every step, so the pushes below never allocate.
    let (mut samples, mut execute_calls) = uncounted(|| {
        (Vec::with_capacity(cfg.steps as usize), Vec::with_capacity(cfg.steps as usize))
    });
    let first_step = Instant::now();
    for _ in 0..cfg.steps {
        let t_step = Instant::now();
        let solver = {
            let _s = rec.span("newtonpp.step", rank, sim.step_count() + 1, true);
            sim.step(comm).expect("solver step")
        };
        let step = sim.step_count();
        let t_exec = Instant::now();
        {
            let _s = rec.span("bridge.execute", rank, step, false);
            let adaptor = NewtonAdaptor::new(&sim);
            bridge.execute(&adaptor, comm, solver).expect("in situ execute");
        }
        let t_end = Instant::now();
        samples.push((step, t_exec - t_step, t_end - t_exec, t_end - t_step));
        execute_calls.push((step, t_exec));
        if let Some(sink) = &sink {
            let fresh = checked.take(sink);
            if let Some(s) = &mut serving {
                s.publish(fresh);
            }
        }
    }

    let mut serve_out = None;
    if let (Some(mut s), Some(sink)) = (serving, &sink) {
        // Every result must reach the hub before it shuts down.
        let owed = cfg.steps * cfg.specs.len() as u64;
        let waited = Instant::now();
        while s.published < owed && waited.elapsed() < RESULT_WAIT {
            let fresh = checked.take(sink);
            if fresh.is_empty() {
                std::thread::yield_now();
            }
            s.publish(fresh);
        }
        serve_out = Some(s.finish(cfg.steps, owed));
    }

    let profiler = {
        let _s = rec.span("bridge.finalize", rank, cfg.steps, false);
        bridge.finalize(comm).expect("finalize")
    };
    let done = Instant::now();
    if let Some(sink) = &sink {
        checked.take(sink);
    }
    comm.clear_collective_hook();

    let snapshot = profiler.snapshot_samples().iter().fold(
        SnapshotCounterSnapshot::default(),
        |mut acc, s| {
            acc.accumulate(&s.counters);
            acc
        },
    );
    RankOut {
        first_step,
        done,
        samples,
        execute_calls,
        checked: checked.kept,
        dispatches: analyses * cfg.steps,
        counters: profiler.counters_total(),
        snapshot,
        world_tiers: comm.tier_stats(),
        world_allreduces: comm.allreduce_count(),
        serve: serve_out,
    }
}

/// Per session `(fast, frames received)`, and the latencies seen (ms).
type ClientOut = (Vec<(bool, u64)>, Vec<f64>);

/// What the churner saw: per-session subscribe + unsubscribe times, how
/// late each entry started, the sessions churned and the frames they got.
#[derive(Default)]
struct ChurnOut {
    subscribe_ms: Vec<f64>,
    late_ms: Vec<f64>,
    sessions: u64,
    latency_ms: Vec<f64>,
}

/// The serving side of a run: standing sessions polled by client
/// threads, a churner following its timetable, and publication of each
/// result once per coordinate system.
struct Serving {
    stop: Arc<AtomicBool>,
    clients: Vec<std::thread::JoinHandle<ClientOut>>,
    churner: std::thread::JoinHandle<ChurnOut>,
    hub: Arc<ServeHub>,
    published: u64,
}

impl Serving {
    /// Subscribe the standing sessions and start the load generator; the
    /// churn timetable starts now, just before the first step.
    fn start(a: &Audience, hub: &Arc<ServeHub>) -> Serving {
        let mut sessions: Vec<(bool, SessionHandle)> =
            uncounted(|| Vec::with_capacity(a.sessions.len()));
        for (fast, topic) in &a.sessions {
            let overflow = if *fast { OverflowPolicy::Block } else { OverflowPolicy::DropOldest };
            let config = SessionConfig { queue_depth: a.queue_depth, overflow };
            sessions.push((*fast, hub.subscribe(topic.clone(), config)));
        }
        let chunk = sessions.len().div_ceil(a.client_threads.max(1)).max(1);
        let batches: Vec<Vec<_>> = uncounted(|| {
            let mut batches = Vec::new();
            while !sessions.is_empty() {
                batches.push(sessions.drain(..chunk.min(sessions.len())).collect());
            }
            drop(sessions);
            batches
        });
        let clients = batches
            .into_iter()
            .map(|batch| std::thread::spawn(move || client_worker(batch)))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let churner = {
            let (hub, stop, plan) = (hub.clone(), stop.clone(), a.churn.clone());
            let t0 = Instant::now();
            std::thread::spawn(move || churn(&hub, &stop, t0, &plan))
        };
        Serving { stop, clients, churner, hub: hub.clone(), published: 0 }
    }

    fn publish(&mut self, fresh: Vec<BinnedResult>) {
        for r in &fresh {
            let coords = format!("{}:{}", r.axes.0, r.axes.1);
            // Serialization: the finalized per-bin arrays are copied into
            // the step's payload once, whatever the audience size.
            let payload = StepPayload { step: r.step, time: r.time, columns: r.arrays.clone() };
            self.hub.publish(&coords, payload);
            self.published += 1;
        }
    }

    /// Shut the hub down, join the audience and total what it saw. Each
    /// standing session subscribes to one coordinate system, which
    /// publishes once per step, so a fast session is owed `steps` frames.
    fn finish(self, steps: u64, owed_results: u64) -> ServeOut {
        self.hub.shutdown();
        self.stop.store(true, Ordering::Release);
        let mut out = ServeOut::default();
        for c in self.clients {
            let (counts, latency_ms) = c.join().expect("client thread");
            uncounted(|| {
                out.latency_ms.extend_from_slice(&latency_ms);
                drop(latency_ms);
            });
            for &(fast, got) in &counts {
                out.received += got;
                if fast {
                    out.fast += 1;
                    out.owed_fast += steps;
                    out.missing_fast += steps.saturating_sub(got);
                } else {
                    out.slow += 1;
                }
            }
            uncounted(|| drop(counts));
        }
        let churned = self.churner.join().expect("churner thread");
        out.received += churned.latency_ms.len() as u64;
        uncounted(|| out.latency_ms.extend_from_slice(&churned.latency_ms));
        out.subscribe_ms = churned.subscribe_ms;
        out.churn_late_ms = churned.late_ms;
        out.churn_sessions = churned.sessions;
        uncounted(|| drop(churned.latency_ms));
        out.unpublished = owed_results.saturating_sub(self.published);
        out.hub = self.hub.counter_snapshot();
        out
    }
}

/// How long a client thread waits between passes over its sessions. A
/// session's topic gets a frame about once a millisecond (one step) and
/// a fast session's queue holds four, so a pause this short leaves room
/// in the queues. Polling back to back instead kept a
/// core busy, and the rank's timings then followed the scheduler
/// (serve_fanout spreads of 10 to 22% between invocations, against 3 to
/// 8% paced).
const CLIENT_POLL: Duration = Duration::from_micros(200);

/// Poll a slice of the standing sessions until the hub closes them.
/// Fast sessions drain everything queued each pass; slow ones take one
/// frame every 64th pass, so their drop-oldest queues evict.
fn client_worker(mut sessions: Vec<(bool, SessionHandle)>) -> ClientOut {
    let (mut counts, mut latency_ms, mut open) = uncounted(|| {
        let open: Vec<usize> = (0..sessions.len()).collect();
        (vec![0u64; sessions.len()], Vec::new(), open)
    });
    let mut record = |frame: sensei::Frame| {
        let ms = frame.published.elapsed().as_secs_f64() * 1e3;
        uncounted(|| latency_ms.push(ms));
    };
    let mut pass = 0u64;
    while !open.is_empty() {
        pass += 1;
        open.retain(|&i| {
            let (fast, h) = &mut sessions[i];
            if *fast {
                while let Some(frame) = h.try_recv() {
                    record(frame);
                    counts[i] += 1;
                }
            } else if pass.is_multiple_of(64) {
                if let Some(frame) = h.try_recv() {
                    record(frame);
                    counts[i] += 1;
                }
            }
            !h.is_closed()
        });
        std::thread::sleep(CLIENT_POLL);
    }
    let counts: Vec<(bool, u64)> =
        uncounted(|| sessions.iter().map(|(f, _)| *f).zip(counts).collect());
    // The handles are the program's, their container the benchmark's.
    sessions.drain(..).for_each(drop);
    uncounted(|| drop((sessions, open)));
    (counts, latency_ms)
}

/// Follow the churn timetable (open loop: each entry is due at a fixed
/// offset from the first step, however late the previous one ran) until
/// told to stop.
fn churn(hub: &Arc<ServeHub>, stop: &AtomicBool, t0: Instant, plan: &ChurnPlan) -> ChurnOut {
    let config = SessionConfig { queue_depth: 1, overflow: OverflowPolicy::DropOldest };
    let mut out = ChurnOut::default();
    if plan.slots.is_empty() {
        return out;
    }
    let mut rng = crate::workloads::SplitMix::new(plan.seed, 0);
    let (lo, hi) = plan.gap_us;
    let mut due_at = t0;
    loop {
        due_at += Duration::from_micros(lo + rng.next_u64() % (hi - lo).max(1));
        while Instant::now() < due_at {
            if stop.load(Ordering::Acquire) {
                return out;
            }
            std::thread::sleep((due_at - Instant::now()).min(Duration::from_micros(500)));
        }
        if stop.load(Ordering::Acquire) {
            return out;
        }
        let began = Instant::now();
        uncounted(|| out.late_ms.push((began - due_at).as_secs_f64() * 1e3));
        let mut batch: Vec<SessionHandle> =
            plan.slots.iter().map(|t| hub.subscribe(t.clone(), config)).collect();
        let subscribed = began.elapsed();
        for h in &mut batch {
            if let Some(frame) = h.try_recv() {
                let ms = frame.published.elapsed().as_secs_f64() * 1e3;
                uncounted(|| out.latency_ms.push(ms));
            }
        }
        let t_drop = Instant::now();
        drop(batch);
        let per = (subscribed + t_drop.elapsed()).as_secs_f64() * 1e3 / plan.slots.len() as f64;
        uncounted(|| out.subscribe_ms.push(per));
        out.sessions += plan.slots.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_lockstep_host_unmodeled_with_the_same_ranks() {
        let cfg = RunConfig {
            placement: Placement::DedicatedDevices(2),
            num_devices: 4,
            time_scale: 1.0,
            bodies: 64,
            ic_seed: 9,
            steps: 4,
            specs: bench::paper_binning_specs(8),
            fused: false,
            execution: ExecutionMethod::Asynchronous,
            snapshot: SnapshotMode::Cow,
            queue_depth: 4,
            insitu_on_host: false,
        };
        let r = cfg.reference();
        assert_eq!(r.ranks(), cfg.ranks());
        assert!(r.is_own_reference() && !cfg.is_own_reference());
        assert_eq!(
            (r.time_scale, r.execution, r.insitu_on_host),
            (0.0, ExecutionMethod::Lockstep, true)
        );
    }
}
