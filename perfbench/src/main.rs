//! perfbench: the end-to-end and per-layer benchmark of the SENSEI
//! heterogeneous in situ stack.
//!
//! ```text
//! perfbench --workload <paper_matrix|host_real|serve_fanout> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (name, value, unit) and notes, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`. A traced run also writes its spans to
//! `.bench_trace/<workload>-seed<n>.tsv`. See README.md.

mod drive;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

use workloads::{Args, Report, WORKLOADS};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Hard limit on one invocation: a hung rank must not outlive it.
const WATCHDOG: Duration = Duration::from_secs(170);

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value after {flag}"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = Args {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        nproc,
    };
    Ok((workload, args))
}

/// A finite number as JSON (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(report: &Report, trace: bool) -> String {
    let chosen = if trace { &report.layers } else { &report.metrics };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    trace::settle_allocator();
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog: no result after {WATCHDOG:?}, giving up");
        std::process::exit(3);
    });

    let why = WORKLOADS.iter().find(|w| w.name == workload).map_or("", |w| w.why);
    println!(
        "workload {workload} (seed {}, {} s, trace {}): {why}",
        args.seed, args.seconds, args.trace as u8
    );
    let report = workloads::run(&workload, &args).expect("workload name was validated");

    for m in report.metrics.iter().chain(&report.layers) {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &report.notes {
        println!("  {n}");
    }
    if args.trace {
        let path = PathBuf::from(".bench_trace").join(format!("{workload}-seed{}.tsv", args.seed));
        match trace::write_spans(&path, &report.spans) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", result_line(&report, args.trace));
}
