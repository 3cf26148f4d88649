//! The three workloads, each with the reason it was chosen, and the
//! reduction of their runs to the end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use binning::BinningSpec;
use sensei::{ExecutionMethod, Placement, SnapshotMode, Topic};

use crate::drive::{self, Audience, ChurnPlan, RunConfig, RunOut, WARMUP_STEPS};
use crate::trace::{
    self, interquartile_mean, median, percentile, ratio, runs_percentile, Recorder, Span,
};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_matrix",
        why: "The paper's headline: the eight Table 1 cases back to back at time scale 1, where \
              modeled device and link time dominate, so it measures overlap, placement, Deep \
              snapshot copies, hand-off and bytes moved; a host-CPU kernel speed-up should \
              barely move it, except through the solver.",
    },
    Workload {
        name: "host_real",
        why: "All on host, lockstep, fused bounded suite at time scale 0: every millisecond is \
              Rust CPU (the newtonpp force loop, the binning host kernels, the packed \
              allreduce); it takes no snapshot and has no sessions, so snapshot and serve \
              changes should show no change here.",
    },
    Workload {
        name: "serve_fanout",
        why: "One asynchronous rank with CoW snapshots and a small fused suite feeding 4096 \
              mixed sessions: the work is fan-out, CoW pins and payload serialization, the \
              opposite use of the snapshot layer to paper_matrix's Deep copies.",
    },
];

/// The benchmark's arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Hardware threads available (`nproc`).
    pub nproc: usize,
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (from the untraced runs).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced invocations only).
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced runs, labelled by run.
    pub spans: Vec<(String, Vec<Span>)>,
}

/// Setup samples each run configuration gets for the `setup_s` median.
const SETUP_SAMPLES: usize = 5;

/// Seed mixer (SplitMix64): every generated input derives from the
/// benchmark's seed through this.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// paper_matrix: rank-steps per case and pass after warm-up (steps per
/// case = warm-up + this ÷ ranks, close to the harness's 10-step cases).
/// Four passes pool 112 rank-steps per case, ten step samples beyond
/// p90.
const PAPER_RANK_STEPS: u64 = 28;

fn paper_matrix_cases(seed: u64) -> Vec<(String, RunConfig)> {
    let ic_seed = SplitMix::new(seed, 1).next_u64();
    let specs: Vec<BinningSpec> = bench::paper_binning_specs(64);
    let mut cases = Vec::new();
    for placement in Placement::paper_placements() {
        for execution in [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous] {
            let ranks = placement.ranks_per_node(4) as u64;
            let steps = WARMUP_STEPS + PAPER_RANK_STEPS.div_ceil(ranks);
            let cfg = RunConfig {
                placement,
                num_devices: 4,
                time_scale: 1.0,
                bodies: 2048,
                ic_seed,
                steps,
                specs: specs.clone(),
                fused: false,
                execution,
                snapshot: SnapshotMode::Deep,
                // Never blocks, as the paper's unbounded queue (§4.3).
                queue_depth: steps as usize,
                insitu_on_host: false,
            };
            let label = format!("{}/{}", placement_code(placement), execution.name());
            cases.push((label, cfg));
        }
    }
    cases
}

fn placement_code(p: Placement) -> String {
    match p {
        Placement::Host => "host".into(),
        Placement::SameDevice => "same_device".into(),
        Placement::DedicatedDevices(k) => format!("dedicated_{k}"),
    }
}

/// host_real: steps per run (each run is a fresh world, so every run also
/// gives one `setup_s` sample).
const HOST_REAL_STEPS: u64 = 60;

fn host_real_case(seed: u64, nproc: usize) -> RunConfig {
    // One rank per simulated device, and no more ranks than cores.
    let devices = nproc.clamp(1, 2);
    RunConfig {
        placement: Placement::Host,
        num_devices: devices,
        time_scale: 0.0,
        bodies: 2048,
        ic_seed: SplitMix::new(seed, 2).next_u64(),
        steps: HOST_REAL_STEPS,
        specs: bench::paper_binning_specs_bounded(128),
        fused: true,
        execution: ExecutionMethod::Lockstep,
        snapshot: SnapshotMode::Deep,
        queue_depth: 1,
        insitu_on_host: false,
    }
}

/// serve_fanout sizing.
const SERVE_STEPS: u64 = 200;
const SERVE_SESSIONS: usize = 4096;
const SERVE_COORDINATE_SYSTEMS: usize = 3;
const SERVE_QUEUE_DEPTH: usize = 4;
/// The churner's pace, subscribe + unsubscribe cycles per second: the
/// rate the repository's own `harness serve` churner reaches closed-loop
/// at 4096 sessions (five runs on a 2-vCPU VM: 76k to 89k per second,
/// median 82.7k). Run open-loop at this pace, the churner kept to its
/// timetable (lateness p50 0.06 ms, the sleep's own overshoot); it only
/// fell behind at 256k per second.
const CHURN_SESSIONS_PER_S: u64 = 82_000;

fn serve_case(seed: u64) -> RunConfig {
    RunConfig {
        placement: Placement::SameDevice,
        num_devices: 1,
        time_scale: 0.0,
        bodies: 256,
        ic_seed: SplitMix::new(seed, 3).next_u64(),
        steps: SERVE_STEPS,
        specs: bench::paper_binning_specs_bounded(16)
            .into_iter()
            .take(SERVE_COORDINATE_SYSTEMS)
            .collect(),
        fused: true,
        execution: ExecutionMethod::Asynchronous,
        snapshot: SnapshotMode::Cow,
        queue_depth: 2,
        insitu_on_host: false,
    }
}

/// The seeded audience: ~80% fast block-policy, ~15% slow drop-oldest,
/// the rest churn slots; every session picks its coordinate system and
/// variable from the seed, and so does the churn timetable.
fn serve_audience(seed: u64, cfg: &RunConfig, nproc: usize) -> Audience {
    let mut rng = SplitMix::new(seed, 4);
    let coords: Vec<String> =
        cfg.specs.iter().map(|s| format!("{}:{}", s.axes.0, s.axes.1)).collect();
    let topic = |rng: &mut SplitMix| {
        let c = coords[(rng.next_u64() % coords.len() as u64) as usize].clone();
        let v = if rng.next_u64().is_multiple_of(2) { "*" } else { "count" };
        Topic::new(v, c)
    };
    let mut sessions = Vec::new();
    let mut churners = Vec::new();
    for _ in 0..SERVE_SESSIONS {
        let u = rng.unit();
        let t = topic(&mut rng);
        if u < 0.80 {
            sessions.push((true, t));
        } else if u < 0.95 {
            sessions.push((false, t));
        } else {
            churners.push(Topic::new("*", t.coords));
        }
    }
    // Like one loop of the harness churner, each timetable entry cycles
    // every churn slot once; entries are spaced to keep the harness's
    // pace on average, each gap drawn from 0.5 to 1.5 times the mean.
    let mean_gap_us = (churners.len() as u64 * 1_000_000 / CHURN_SESSIONS_PER_S).max(2);
    Audience {
        sessions,
        queue_depth: SERVE_QUEUE_DEPTH,
        churn: ChurnPlan {
            seed: rng.next_u64(),
            slots: churners,
            gap_us: (mean_gap_us / 2, mean_gap_us * 3 / 2),
        },
        // At most `nproc` generator threads, the churner included.
        client_threads: nproc.saturating_sub(1).max(1),
    }
}

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

/// One configuration's runs. Each run's checked results are compared
/// with the first run's as soon as it ends (and then dropped), so the
/// benchmark holds one set per configuration; the first set is compared
/// with the reference at the end.
struct Group {
    label: String,
    cfg: RunConfig,
    audience: Option<Audience>,
    runs: Vec<RunOut>,
    traced: Vec<RunOut>,
    setup_only: Vec<f64>,
    first_checked: Option<Vec<binning::BinnedResult>>,
    differ_from_first: u64,
}

impl Group {
    fn new(label: String, cfg: RunConfig, audience: Option<Audience>) -> Self {
        Group {
            label,
            cfg,
            audience,
            runs: Vec::new(),
            traced: Vec::new(),
            setup_only: Vec::new(),
            first_checked: None,
            differ_from_first: 0,
        }
    }

    fn run_once(&mut self, tracing: bool) {
        let rec = Recorder::new(tracing);
        let mut out = drive::run(&self.cfg, self.audience.as_ref(), &rec);
        let checked = std::mem::take(&mut out.checked);
        match &self.first_checked {
            None => self.first_checked = Some(checked),
            Some(first) => {
                if !bench::results_bit_identical(first, &checked) {
                    self.differ_from_first += 1;
                }
            }
        }
        if tracing {
            self.traced.push(out);
        } else {
            self.runs.push(out);
        }
    }

    /// Enough untraced samples for every reported tail percentile.
    fn enough_samples(&self) -> bool {
        let steps: usize = self.runs.iter().map(|r| r.step_ms.len()).sum();
        let deliveries: usize = self.runs.iter().map(|r| r.deliver_ms.len()).sum();
        trace::samples_beyond(steps, 0.90) >= 10 && trace::samples_beyond(deliveries, 0.90) >= 10
    }
}

pub fn run(name: &str, args: &Args) -> Option<Report> {
    let mut groups: Vec<Group> = match name {
        "paper_matrix" => paper_matrix_cases(args.seed)
            .into_iter()
            .map(|(label, cfg)| Group::new(label, cfg, None))
            .collect(),
        "host_real" => {
            vec![Group::new("host_real".into(), host_real_case(args.seed, args.nproc), None)]
        }
        "serve_fanout" => {
            let cfg = serve_case(args.seed);
            let audience = serve_audience(args.seed, &cfg, args.nproc);
            vec![Group::new("serve_fanout".into(), cfg, Some(audience))]
        }
        _ => return None,
    };

    // Measure: whole passes over the configurations until the budget is
    // spent. A traced invocation alternates untraced and traced passes,
    // so the tracing overhead is measured on the same machine state.
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let cpu0 = trace::process_cpu_ns();
    let mut passes = 0u64;
    loop {
        let tracing = args.trace && passes % 2 == 1;
        for g in &mut groups {
            g.run_once(tracing);
        }
        passes += 1;
        let traced_evenly = !args.trace || passes.is_multiple_of(2);
        let sampled = args.trace || groups.iter().all(Group::enough_samples);
        if t0.elapsed() >= budget && traced_evenly && sampled {
            break;
        }
    }
    let untraced_passes = groups[0].runs.len();
    let cpu_s = (trace::process_cpu_ns() - cpu0) as f64 / 1e9 / passes as f64;
    let rss_peak_mb = trace::peak_rss_mib();

    // Extra set-ups so every configuration has SETUP_SAMPLES of them.
    for g in &mut groups {
        while g.runs.len() + g.traced.len() + g.setup_only.len() < SETUP_SAMPLES {
            let cfg = RunConfig { steps: 0, ..g.cfg.clone() };
            let out = drive::run(&cfg, g.audience.as_ref(), &Recorder::new(false));
            g.setup_only.push(out.setup_s);
        }
    }

    let mut report = Report { correct: true, ..Default::default() };
    check_results(&groups, &mut report);

    let threads_note = match name {
        "serve_fanout" => {
            let a = groups[0].audience.as_ref().expect("serving audience");
            format!(
                "threads: nproc={} load generator={} (clients={} + churner=1) ranks=1",
                args.nproc,
                a.client_threads + 1,
                a.client_threads
            )
        }
        _ => {
            let ranks: Vec<usize> = groups.iter().map(|g| g.cfg.ranks()).collect();
            format!("threads: nproc={} ranks per run={ranks:?}", args.nproc)
        }
    };
    report.notes.push(threads_note);
    report.notes.push(format!(
        "passes: {} ({} untraced), configurations: {}",
        passes,
        untraced_passes,
        groups.len()
    ));
    for g in &groups {
        let runs: Vec<String> = g.runs.iter().map(|r| format!("{:.3}", r.run_s)).collect();
        report.notes.push(format!("{} run_s per untraced run: [{}]", g.label, runs.join(", ")));
    }

    report.notes.push(format!(
        "failed_frac: {:.6} ({} failed / {} attempted)",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    ));
    if !args.trace {
        end_to_end(&groups, cpu_s, &mut report);
        report.notes.push(format!("process peak RSS (VmHWM): {rss_peak_mb:.1} MiB"));
    } else {
        per_layer(&groups, &mut report);
        for g in &mut groups {
            for (i, r) in g.traced.iter_mut().enumerate() {
                report.spans.push((format!("{}#{i}", g.label), std::mem::take(&mut r.spans)));
            }
        }
    }
    Some(report)
}

/// The correctness gate: every run's checked results against the
/// lockstep, host, unmodeled reference of the same case, seed and rank
/// count, bit for bit. References run after the measurement.
fn check_results(groups: &[Group], report: &mut Report) {
    let mut references: BTreeMap<(usize, u64, bool), Vec<binning::BinnedResult>> = BTreeMap::new();
    for g in groups {
        let first = g.first_checked.as_ref().expect("every configuration ran");
        let runs = (g.runs.len() + g.traced.len()) as u64;
        let expected =
            g.cfg.specs.len() * (drive::CHECKED_PREFIX_STEPS.min(g.cfg.steps) as usize + 1);
        let first_ok = first.len() == expected
            && (g.cfg.is_own_reference()
                || bench::results_bit_identical(
                    references.entry((g.cfg.ranks(), g.cfg.steps, g.cfg.fused)).or_insert_with(
                        || drive::run(&g.cfg.reference(), None, &Recorder::new(false)).checked,
                    ),
                    first,
                ));
        let mismatched = if first_ok { g.differ_from_first } else { runs };
        if mismatched > 0 {
            report.correct = false;
            report.notes.push(format!(
                "MISMATCH: {}: {mismatched} of {runs} runs differ from the reference",
                g.label
            ));
        }
        report.failed += mismatched;
        for r in g.runs.iter().chain(&g.traced) {
            report.attempted += r.dispatches;
            report.failed += r.failed_dispatches;
            if let Some(s) = &r.serve {
                report.attempted += s.owed_fast;
                report.failed += s.missing_fast;
                if s.missing_fast > 0 {
                    report.correct = false;
                    report.notes.push(format!(
                        "{}: {} of {} frames owed to block-policy sessions never arrived",
                        g.label, s.missing_fast, s.owed_fast
                    ));
                }
                if s.unpublished > 0 {
                    report.correct = false;
                    report
                        .notes
                        .push(format!("{}: {} results never published", g.label, s.unpublished));
                }
            }
        }
    }
    report.notes.push(format!(
        "correctness: {} ({} configurations against their lockstep host references)",
        if report.correct { "bit-identical" } else { "FAILED" },
        groups.len()
    ));
}

fn push(report: &mut Report, name: &'static str, unit: &'static str, value: f64) {
    report.metrics.push(Metric { name, unit, value });
}

/// A percentile that met the ten-samples rule, or 0 with a note.
fn reported(value: Option<f64>, what: String, notes: &mut Vec<String>) -> f64 {
    value.unwrap_or_else(|| {
        notes.push(format!("{what}: too few samples"));
        0.0
    })
}

/// End-to-end metrics from the untraced runs. Statistics are taken per
/// configuration and summed over configurations (paper_matrix's eight
/// cases, as in Figure 2), so no case's mode can flip a pooled median.
/// Within a configuration a percentile is the interquartile mean over
/// runs of each run's own percentile where every run has the samples for
/// it, and the percentile of the pooled samples otherwise
/// (`runs_percentile`); `run_s` and `heap_peak_mb` are interquartile
/// means over runs too, `setup_s` the median of the set-ups.
fn end_to_end(groups: &[Group], cpu_s: f64, report: &mut Report) {
    let mut notes = Vec::new();
    let (mut setup, mut run, mut p50, mut p90, mut solver, mut insitu) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut d50, mut d90, mut frames, mut run_total) = (0.0, 0.0, 0.0, 0.0);
    let mut heap_peak: f64 = 0.0;
    for g in groups {
        let runs = |f: fn(&RunOut) -> &Vec<f64>| -> Vec<&[f64]> {
            g.runs.iter().map(|r| f(r).as_slice()).collect()
        };
        let setups: Vec<f64> = g
            .runs
            .iter()
            .chain(&g.traced)
            .map(|r| r.setup_s)
            .chain(g.setup_only.iter().copied())
            .collect();
        setup += median(&setups);
        run += interquartile_mean(&g.runs.iter().map(|r| r.run_s).collect::<Vec<_>>());
        // Configurations run one after another: the largest, not the sum.
        heap_peak = heap_peak
            .max(interquartile_mean(&g.runs.iter().map(|r| r.heap_peak_mb).collect::<Vec<_>>()));
        let what = |m: &str| format!("{} {m}", g.label);
        let steps = runs(|r| &r.step_ms);
        p50 += reported(runs_percentile(&steps, 0.5), what("step_ms"), &mut notes);
        p90 += reported(runs_percentile(&steps, 0.90), what("step_ms p90"), &mut notes);
        solver +=
            reported(runs_percentile(&runs(|r| &r.solver_ms), 0.5), what("solver"), &mut notes);
        insitu +=
            reported(runs_percentile(&runs(|r| &r.insitu_ms), 0.5), what("insitu"), &mut notes);
        run_total += g.runs.iter().map(|r| r.run_s).sum::<f64>();
        let deliver = runs(|r| &r.deliver_ms);
        d50 += reported(runs_percentile(&deliver, 0.5), what("deliver_ms"), &mut notes);
        d90 += reported(runs_percentile(&deliver, 0.90), what("deliver_ms p90"), &mut notes);
        frames += g
            .runs
            .iter()
            .map(|r| match &r.serve {
                Some(s) => s.received as f64,
                None => (r.steps * r.ranks as u64) as f64 * analyses(&g.cfg) as f64,
            })
            .sum::<f64>();
    }
    push(report, "setup_s", "s", setup);
    push(report, "run_s", "s", run);
    push(report, "step_ms_p50", "ms", p50);
    push(report, "solver_ms_p50", "ms", solver);
    push(report, "insitu_ms_p50", "ms", insitu);
    push(report, "cpu_s", "s", cpu_s);
    push(report, "heap_peak_mb", "MiB", heap_peak);
    push(report, "deliver_ms_p50", "ms", d50);
    push(report, "frames_per_s", "1/s", ratio(frames, run_total));
    // The tails are shown but not bounded metrics: they followed the
    // shared machine's load more than the program (README, "Noise").
    notes.push(format!("step_ms_p90 (not bounded): {p90:.6} ms"));
    notes.push(format!("deliver_ms_p90 (not bounded): {d90:.6} ms"));

    let fewest = |f: fn(&RunOut) -> usize| -> usize {
        groups.iter().map(|g| g.runs.iter().map(f).sum::<usize>()).min().unwrap_or(0)
    };
    notes.push(format!(
        "samples per configuration (fewest): {} steps, {} deliveries",
        fewest(|r| r.step_ms.len()),
        fewest(|r| r.deliver_ms.len()),
    ));
    for g in groups {
        if let Some(s) = g.runs.first().and_then(|r| r.serve.as_ref()) {
            let late: Vec<f64> = g
                .runs
                .iter()
                .flat_map(|r| r.serve.as_ref().expect("serving run").churn_late_ms.iter().copied())
                .collect();
            let received: u64 =
                g.runs.iter().map(|r| r.serve.as_ref().expect("serving run").received).sum();
            notes.push(format!(
                "audience: {} fast (block) + {} slow (drop-oldest) sessions, {} churned per run, \
                 {received} frames received; churner lateness against its schedule p50 {:.3} ms, \
                 max {:.3} ms over {} entries",
                s.fast,
                s.slow,
                s.churn_sessions,
                median(&late),
                late.iter().copied().fold(0.0, f64::max),
                late.len()
            ));
        }
    }
    report.notes.extend(notes);
}

fn analyses(cfg: &RunConfig) -> usize {
    if cfg.fused {
        1
    } else {
        cfg.specs.len()
    }
}

/// Span timings of one configuration's traced runs (after warm-up).
#[derive(Default)]
struct Timing {
    step: Vec<f64>,
    newton_wall: Vec<f64>,
    newton_cpu: Vec<f64>,
    newton_wait: Vec<f64>,
    analysis_wall: Vec<f64>,
    analysis_cpu: Vec<f64>,
    /// Analysis spans nested in a `bridge.execute` (lockstep, inline).
    inline_wall: Vec<f64>,
    bridge_self: Vec<f64>,
    handoff: Vec<f64>,
    mesh: Vec<f64>,
    finalize: Vec<f64>,
}

fn timing(g: &Group) -> Timing {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut t = Timing::default();
    for r in &g.traced {
        t.step.extend_from_slice(&r.step_ms);
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &r.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s);
            }
        }
        let mut returns: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        let mut executes = std::collections::BTreeSet::new();
        for s in r.spans.iter().filter(|s| s.name == "bridge.execute") {
            returns.insert((s.rank, s.step), s.end_ns);
            executes.insert(s.id);
        }
        let mut finalize = 0u64;
        for s in &r.spans {
            let warm = s.step > WARMUP_STEPS;
            match s.name {
                // The force loop runs on the device stream's worker thread,
                // so the solver's CPU is every thread's CPU over the step,
                // shared by the ranks that step together.
                "newtonpp.step" if warm => {
                    let cpu = s.process_cpu_ns.unwrap_or(0) as f64 / r.ranks as f64;
                    t.newton_wall.push(ms(s.wall_ns()));
                    t.newton_cpu.push(cpu / 1e6);
                    t.newton_wait.push((s.wall_ns() as f64 - cpu).max(0.0) / 1e6);
                }
                "bridge.execute" if warm => {
                    let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                    t.bridge_self.push(ms(trace::self_ns(s, kids)));
                }
                "analysis.execute" if warm => {
                    t.analysis_wall.push(ms(s.wall_ns()));
                    t.analysis_cpu.push(ms(s.thread_cpu_ns));
                    if s.parent.is_some_and(|p| executes.contains(&p)) {
                        t.inline_wall.push(ms(s.wall_ns()));
                    }
                    // Hand-off: the bridge returned, the analysis started
                    // (0 when it ran inline, before the bridge returned).
                    if let Some(&ret) = returns.get(&(s.rank, s.step)) {
                        t.handoff.push(ms(s.start_ns.saturating_sub(ret)));
                    }
                }
                "hamr.mesh" if warm => t.mesh.push(ms(s.wall_ns())),
                "bridge.finalize" => finalize = finalize.max(s.wall_ns()),
                _ => {}
            }
        }
        t.finalize.push(ms(finalize));
    }
    t
}

/// Per-layer metrics from the traced runs. Times are medians per
/// configuration summed over configurations, as the end-to-end ones;
/// counts are per rank-step unless the unit says otherwise.
fn per_layer(groups: &[Group], report: &mut Report) {
    let timings: Vec<Timing> = groups.iter().map(timing).collect();
    let total = |f: fn(&Timing) -> &Vec<f64>| -> f64 { timings.iter().map(|t| median(f(t))).sum() };
    let mut notes = Vec::new();
    let handoff_p95: f64 = timings
        .iter()
        .map(|t| reported(percentile(&t.handoff, 0.95), "hand-off p95".into(), &mut notes))
        .sum();

    // Accounting: the traced step against newtonpp + inline binning +
    // bridge self time, per configuration.
    let (mut step, mut explained) = (0.0, 0.0);
    for t in &timings {
        let inline_per_step = ratio(t.inline_wall.len() as f64, t.bridge_self.len() as f64);
        step += median(&t.step);
        explained += median(&t.newton_wall)
            + inline_per_step * median(&t.inline_wall)
            + median(&t.bridge_self);
    }

    let traced: Vec<&RunOut> = groups.iter().flat_map(|g| g.traced.iter()).collect();
    let rank_steps: f64 = traced.iter().map(|r| (r.steps * r.ranks as u64) as f64).sum();
    let per = |v: u64| ratio(v as f64, rank_steps);
    let sum = |f: &dyn Fn(&RunOut) -> u64| -> u64 { traced.iter().map(|r| f(r)).sum() };
    let node = |f: fn(&devsim::StatsSnapshot) -> u64| -> f64 { per(sum(&|r: &RunOut| f(&r.node))) };
    let c =
        |f: fn(&sensei::CounterSnapshot) -> u64| -> f64 { per(sum(&|r: &RunOut| f(&r.counters))) };
    let snap_shared = sum(&|r| r.snapshot.arrays_shared);
    let snap_copied = sum(&|r| r.snapshot.arrays_copied);
    let pool_hits = sum(&|r| r.pool.hits);
    let pool_misses = sum(&|r| r.pool.misses);
    let high_water = traced.iter().map(|r| r.pool.high_water_bytes).max().unwrap_or(0);
    let tiers = |r: &RunOut| {
        let mut t = r.world_tiers;
        t.accumulate(&r.analysis_tiers);
        t
    };
    let serve: Vec<&drive::ServeOut> = traced.iter().filter_map(|r| r.serve.as_ref()).collect();
    let served = |f: fn(&drive::ServeOut) -> u64| -> u64 { serve.iter().map(|s| f(s)).sum() };
    let subscribe: Vec<f64> = serve.iter().flat_map(|s| s.subscribe_ms.iter().copied()).collect();
    let overhead = {
        let med = |f: fn(&Group) -> &Vec<RunOut>| -> f64 {
            let run_s = |g: &Group| f(g).iter().map(|r| r.run_s).collect::<Vec<_>>();
            groups.iter().map(|g| interquartile_mean(&run_s(g))).sum()
        };
        ratio(med(|g| &g.traced), med(|g| &g.runs)) - 1.0
    };

    let layer = [
        ("newtonpp.step_ms_p50", "ms", total(|t| &t.newton_wall)),
        ("newtonpp.step_cpu_ms_p50", "ms", total(|t| &t.newton_cpu)),
        ("newtonpp.step_wait_ms_p50", "ms", total(|t| &t.newton_wait)),
        ("binning.execute_ms_p50", "ms", total(|t| &t.analysis_wall)),
        ("binning.execute_cpu_ms_p50", "ms", total(|t| &t.analysis_cpu)),
        ("binning.table_passes", "count/step", c(|c| c.table_passes)),
        ("binning.kernel_launches", "count/step", c(|c| c.kernel_launches)),
        ("binning.downloads", "count/step", c(|c| c.downloads)),
        ("binning.fetches", "count/step", c(|c| c.fetches)),
        ("bridge.execute_self_ms_p50", "ms", total(|t| &t.bridge_self)),
        ("bridge.finalize_ms", "ms", total(|t| &t.finalize)),
        ("snapshot.bytes_copied", "B/step", per(sum(&|r| r.snapshot.bytes_copied))),
        ("snapshot.arrays_copied", "count/step", per(snap_copied)),
        (
            "snapshot.share_ratio",
            "ratio",
            ratio(snap_shared as f64, (snap_shared + snap_copied) as f64),
        ),
        ("snapshot.cow_faults", "count/step", per(sum(&|r| r.snapshot.cow_faults))),
        ("engine.handoff_wait_ms_p50", "ms", total(|t| &t.handoff)),
        ("engine.handoff_wait_ms_p95", "ms", handoff_p95),
        ("hamr.mesh_ms_p50", "ms", total(|t| &t.mesh)),
        ("hamr.relayout_bytes", "B/step", c(|c| c.relayout_bytes)),
        ("devsim.kernels", "count/step", node(|n| n.kernels_launched)),
        ("devsim.host_tasks", "count/step", node(|n| n.host_tasks)),
        ("devsim.h2d_bytes", "B/step", node(|n| n.bytes_h2d)),
        ("devsim.d2h_bytes", "B/step", node(|n| n.bytes_d2h)),
        ("devsim.d2d_bytes", "B/step", node(|n| n.bytes_d2d)),
        ("devsim.stream_syncs", "count/step", node(|n| n.stream_syncs)),
        (
            "devsim.pool_hit_ratio",
            "ratio",
            ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
        ),
        ("devsim.pool_high_water_mb", "MiB", high_water as f64 / (1024.0 * 1024.0)),
        ("minimpi.collectives", "count/step", per(sum(&|r| r.collectives))),
        (
            "minimpi.allreduces",
            "count/step",
            per(sum(&|r| r.counters.allreduces + r.world_allreduces)),
        ),
        (
            "minimpi.messages",
            "count/step",
            per(sum(&|r| tiers(r).intra_messages + tiers(r).inter_messages)),
        ),
        ("minimpi.bytes", "B/step", per(sum(&|r| tiers(r).intra_bytes + tiers(r).inter_bytes))),
        (
            "minimpi.modeled_ms",
            "ms/step",
            per(sum(&|r| tiers(r).intra_modeled_ns + tiers(r).inter_modeled_ns)) / 1e6,
        ),
        ("serve.payload_bytes", "B/step", per(served(|s| s.hub.payload_bytes))),
        ("serve.delivered", "count/step", per(served(|s| s.hub.delivered))),
        (
            "serve.deliver_ratio",
            "ratio",
            ratio(
                served(|s| s.hub.delivered) as f64,
                served(|s| s.hub.delivered + s.hub.dropped) as f64,
            ),
        ),
        ("serve.subscribe_ms_p50", "ms", median(&subscribe)),
        ("recovery.retried", "count", sum(&|r| r.counters.faults.retried) as f64),
        ("recovery.aborted", "count", sum(&|r| r.counters.faults.aborted) as f64),
        ("trace.overhead_frac", "ratio", overhead),
        ("trace.unaccounted_frac", "ratio", ratio(step - explained, step)),
    ];
    for (name, unit, value) in layer {
        report.layers.push(Metric { name, unit, value });
    }
    report.notes.push(format!(
        "accounting: traced step_ms_p50 {step:.3} ms = newtonpp + inline binning + bridge self \
         {explained:.3} ms (+ {:.3} ms unexplained)",
        step - explained
    ));
    report.notes.extend(notes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_decides_the_audience() {
        let cfg = serve_case(5);
        let a = serve_audience(5, &cfg, 2);
        let b = serve_audience(5, &cfg, 2);
        let c = serve_audience(6, &cfg, 2);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.churn.slots, b.churn.slots);
        assert_eq!(a.churn.seed, b.churn.seed);
        assert_ne!(a.sessions, c.sessions);
        assert_eq!(serve_case(5).ic_seed, cfg.ic_seed);
        assert_ne!(serve_case(6).ic_seed, cfg.ic_seed);

        let fast = a.sessions.iter().filter(|(f, _)| *f).count() as f64;
        let all = SERVE_SESSIONS as f64;
        assert!((fast / all - 0.80).abs() < 0.03, "fast share {}", fast / all);
        let slow = (a.sessions.len() as f64 - fast) / all;
        assert!((slow - 0.15).abs() < 0.03, "slow share {slow}");
        assert_eq!(a.sessions.len() + a.churn.slots.len(), SERVE_SESSIONS);
        // Every slot once per entry, at the harness churner's pace.
        let (lo, hi) = a.churn.gap_us;
        let rate = a.churn.slots.len() as f64 * 1e6 / ((lo + hi) as f64 / 2.0);
        assert!((rate / CHURN_SESSIONS_PER_S as f64 - 1.0).abs() < 0.01, "{rate} per second");
        assert_eq!(a.client_threads + 1, 2, "load generator fits nproc");
    }

    #[test]
    fn a_frame_owed_to_a_block_session_and_lost_fails_the_run() {
        let cfg = RunConfig { steps: 4, bodies: 64, ..serve_case(7) };
        let first = drive::run(&cfg.reference(), None, &Recorder::new(false)).checked;
        let gate = |missing_fast: u64| {
            let mut g = Group::new("serve_fanout".into(), cfg.clone(), None);
            g.first_checked = Some(first.clone());
            g.runs.push(RunOut {
                dispatches: 4,
                serve: Some(drive::ServeOut { owed_fast: 8, missing_fast, ..Default::default() }),
                ..Default::default()
            });
            let mut report = Report { correct: true, ..Default::default() };
            check_results(&[g], &mut report);
            report
        };
        let whole = gate(0);
        assert!(whole.correct, "{:?}", whole.notes);
        assert_eq!((whole.attempted, whole.failed), (12, 0));
        let lost = gate(1);
        assert!(!lost.correct, "a lost block-policy frame is a correctness failure");
        assert_eq!((lost.attempted, lost.failed), (12, 1));
    }

    #[test]
    fn paper_cases_leave_enough_samples_for_their_tails() {
        for (_, cfg) in paper_matrix_cases(1) {
            let rank_steps = (cfg.steps - WARMUP_STEPS) * cfg.ranks() as u64;
            assert!(rank_steps >= PAPER_RANK_STEPS, "{rank_steps}");
            // Four passes reach the tail rule of step_ms_p90; three do not.
            assert!(trace::samples_beyond(4 * rank_steps as usize, 0.90) >= 10);
            assert!(trace::samples_beyond(3 * rank_steps as usize, 0.90) < 10);
        }
    }
}
