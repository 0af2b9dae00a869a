//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each `--seed` stands for a few model seeds (`workload::MODEL_SEEDS`).
//! An untraced warm-up run comes first. Then rounds repeat until the
//! next one would end after `--seconds`, counted from the start: one
//! untraced run of each model seed (with `--trace 1`, each followed by a
//! traced run; with `--trace 0`, only the first round has one) and
//! batches of timed set-ups. Every run of a model seed must repeat its
//! outcome, allocation count and peak heap exactly, and traced runs the
//! untraced outcome; those and the workload's own checks make the result
//! incorrect and the exit code 1.
//!
//! Host timings are taken in segments of a few milliseconds, each right
//! after a slice of a fixed reference workload, and reported at nominal
//! host speed (`reference.rs`). They are medians per model seed; model
//! metrics are pooled over the model seeds. Every metric is printed by
//! name with its unit; the last line is the JSON result: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`.

// The benchmark times the host: the determinism contract's ban on
// wall-clock reads (clippy.toml) covers simulation code, not this.
#![allow(clippy::disallowed_methods)]

use perfbench::alloc;
use perfbench::ledger::{layer_of, Ledger, SpanCost, Traced, KERNEL, KINDS, LAYERS, N_KINDS};
use perfbench::reference::{Paced, Reference, NOMINAL_SLICE_S};
use perfbench::workload::{bootstrap, build, check, drive, nearest_rank, output, SimOutcome};
use perfbench::workload::{Workload, MODEL_SEEDS};
use std::process::ExitCode;
use std::time::Instant;

/// Timed set-ups after each run.
const SETUPS_PER_RUN: usize = 10;
/// Empty spans timed to calibrate the tracer's own cost.
const CALIBRATION_SPANS: u64 = 4_000_000;
/// `msg.<Kind>.*` metrics are reported for these kinds: every kind that
/// occurs on at least one workload.
const REPORTED_KINDS: [&str; 16] = [
    "Bootstrap",
    "RampTick",
    "MeasureTick",
    "ClientThink",
    "PoolTick",
    "PoolDispatch",
    "TomcatAccept",
    "DbDispatch",
    "CpuComplete",
    "ResponseDelivered",
    "Legacy",
    "SensorTick",
    "DetectorTick",
    "DeployStep",
    "UndeployStop",
    "FailServer",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One untraced run.
struct Plain {
    /// Bootstrap delivery and run, timed in segments.
    paced: Paced,
    /// The bootstrap delivery alone (part of `paced`).
    boot: Paced,
    /// Allocations after set-up.
    allocs: u64,
    /// Peak live heap over set-up and run, bytes.
    peak_bytes: i64,
    outcome: SimOutcome,
    failures: Vec<String>,
}

impl Plain {
    /// Run time after set-up at nominal host speed, s.
    fn run_s(&self) -> f64 {
        self.paced.nominal_s - self.boot.nominal_s
    }
}

fn plain_run(w: Workload, seed: u64, reference: &mut Reference) -> Plain {
    let live = alloc::live_bytes();
    alloc::reset_peak();
    let mut engine = build(w, seed, |app| app);
    let mut paced = Paced::default();
    paced.time(reference, || bootstrap(&mut engine));
    let boot = paced;
    let a0 = alloc::allocations();
    let faults = drive(w, seed, &mut engine, |e, t| {
        paced.time(reference, || e.run_until(t));
    });
    let a1 = alloc::allocations();
    let peak_bytes = alloc::peak_bytes() - live;
    let out = output(engine, |app| app);
    Plain {
        paced,
        boot,
        allocs: a1 - a0,
        peak_bytes,
        outcome: SimOutcome::of(&out, &faults),
        failures: check(w, &out),
    }
}

/// One traced run.
struct TracedRun {
    /// Bootstrap delivery and run, the interval the ledger covers.
    paced: Paced,
    ledger: Ledger,
    /// Allocations over bootstrap plus run.
    allocs_total: u64,
    /// Allocations after bootstrap (compared with the untraced run).
    allocs_run: u64,
    latencies_us: Vec<u64>,
    outcome: SimOutcome,
    failures: Vec<String>,
}

fn traced_run(w: Workload, seed: u64, completions: usize, reference: &mut Reference) -> TracedRun {
    let mut engine = build(w, seed, |app| Traced::new(app, completions));
    let mut paced = Paced::default();
    let a0 = alloc::allocations();
    paced.time(reference, || bootstrap(&mut engine));
    let a1 = alloc::allocations();
    let faults = drive(w, seed, &mut engine, |e, t| {
        paced.time(reference, || e.run_until(t));
    });
    let a2 = alloc::allocations();
    let mut traced = None;
    let out = output(engine, |app| {
        let sys = app.inner;
        traced = Some((app.ledger, app.latencies_us));
        sys
    });
    let (ledger, latencies_us) = traced.expect("unwrapped");
    TracedRun {
        paced,
        ledger,
        allocs_total: a2 - a0,
        allocs_run: a2 - a1,
        latencies_us,
        outcome: SimOutcome::of(&out, &faults),
        failures: check(w, &out),
    }
}

/// Time of one set-up (build plus bootstrap) at nominal host speed, s.
fn setup_only(w: Workload, seed: u64, reference: &mut Reference) -> f64 {
    let mut paced = Paced::default();
    let engine = paced.time(reference, || {
        let mut engine = build(w, seed, |app| app);
        bootstrap(&mut engine);
        engine
    });
    drop(engine);
    paced.nominal_s
}

/// Every run of one model seed.
#[derive(Default)]
struct SeedRuns {
    plains: Vec<Plain>,
    traced: Vec<TracedRun>,
}

impl SeedRuns {
    /// Checks every run against the first untraced one; returns the
    /// failures and the number of runs that had any.
    fn check(&self) -> (Vec<String>, u64) {
        let first = &self.plains[0];
        let mut failures = Vec::new();
        let mut failed_runs = 0;
        for p in &self.plains {
            let mut bad = p.failures.clone();
            if p.outcome != first.outcome {
                bad.push("untraced runs of one seed differ in outcome".into());
            }
            if p.allocs != first.allocs || p.peak_bytes != first.peak_bytes {
                bad.push(format!(
                    "allocation counts differ between runs: {} allocs / {} B peak vs {} / {}",
                    p.allocs, p.peak_bytes, first.allocs, first.peak_bytes
                ));
            }
            failed_runs += u64::from(!bad.is_empty());
            failures.extend(bad);
        }
        for t in &self.traced {
            let mut bad = t.failures.clone();
            if t.outcome != first.outcome {
                bad.push(format!(
                    "traced outcome digest {:016x} differs from untraced {:016x}",
                    t.outcome.digest, first.outcome.digest
                ));
            }
            if t.allocs_run != first.allocs {
                bad.push(format!(
                    "traced run allocated {} times, untraced {}",
                    t.allocs_run, first.allocs
                ));
            }
            if t.latencies_us.len() as u64 != first.outcome.completed {
                bad.push(format!(
                    "{} latencies captured for {} completions",
                    t.latencies_us.len(),
                    first.outcome.completed
                ));
            }
            failed_runs += u64::from(!bad.is_empty());
            failures.extend(bad);
        }
        (failures, failed_runs)
    }
}

/// The median run by `time` (the lower one of an even count).
fn median_run<T>(runs: &[T], time: impl Fn(&T) -> f64) -> &T {
    let mut sorted: Vec<&T> = runs.iter().collect();
    sorted.sort_by(|a, b| time(a).total_cmp(&time(b)));
    sorted[(sorted.len() - 1) / 2]
}

fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let n = MODEL_SEEDS;
    let start = Instant::now();
    let seeds: Vec<u64> = (0..n)
        .map(|i| args.seed.wrapping_mul(n).wrapping_add(i))
        .collect();
    let cost = SpanCost::calibrate(CALIBRATION_SPANS);
    let mut reference = Reference::new();

    // Timed set-ups follow every run, so their median samples the host
    // over the whole invocation.
    let mut setups = Vec::new();
    let mut setup_round = |reference: &mut Reference| {
        for i in 0..SETUPS_PER_RUN {
            setups.push(setup_only(w, seeds[i % seeds.len()], reference));
        }
    };
    // Warm-up: fills caches and initialises the program's lazy statics,
    // so it allocates a few times more than later runs of its seed.
    let warm = plain_run(w, seeds[0], &mut reference);
    setup_round(&mut reference);
    // Whole rounds over the seeds: at least one, then as many more as fit
    // in `--seconds`, counted from the start, at the pace of the last
    // round. The first round also makes one traced run per seed.
    let mut runs: Vec<SeedRuns> = seeds.iter().map(|_| SeedRuns::default()).collect();
    let mut round_s = 0.0;
    while runs[0].plains.is_empty() || start.elapsed().as_secs_f64() + round_s <= args.seconds {
        let round = Instant::now();
        let mut traced_s = 0.0;
        for (r, &seed) in runs.iter_mut().zip(&seeds) {
            r.plains.push(plain_run(w, seed, &mut reference));
            setup_round(&mut reference);
            if args.trace || r.traced.is_empty() {
                let t = Instant::now();
                let completions = r.plains[0].outcome.completed as usize;
                r.traced
                    .push(traced_run(w, seed, completions, &mut reference));
                setup_round(&mut reference);
                if !args.trace {
                    traced_s += t.elapsed().as_secs_f64();
                }
            }
        }
        round_s = round.elapsed().as_secs_f64() - traced_s;
    }

    // An operation is one simulated client request; every operation of a
    // run that fails a check counts as failed.
    let mut failures = warm.failures.clone();
    if warm.outcome != runs[0].plains[0].outcome {
        failures.push("warm-up outcome differs from later runs".into());
    }
    let mut attempted = warm.outcome.completed + warm.outcome.failed;
    let mut failed = if failures.is_empty() { 0 } else { attempted };
    for r in &runs {
        let outcome = &r.plains[0].outcome;
        let ops = outcome.completed + outcome.failed;
        let (bad, failed_runs) = r.check();
        attempted += ops * (r.plains.len() + r.traced.len()) as u64;
        failed += ops * failed_runs;
        failures.extend(bad);
    }
    let correct = failures.is_empty();

    // Model metrics, pooled over the seeds.
    let sims: Vec<&SimOutcome> = runs.iter().map(|r| &r.plains[0].outcome).collect();
    let sum = |f: &dyn Fn(&SimOutcome) -> f64| sims.iter().map(|s| f(s)).sum::<f64>();
    let mean = |f: &dyn Fn(&SimOutcome) -> f64| sum(f) / sims.len() as f64;
    let events = sum(&|s| s.events as f64);
    let completed = sum(&|s| s.completed as f64);
    let mut latencies: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.traced[0].latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let quantile_ms = |q: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            nearest_rank(&latencies, q) as f64 / 1000.0
        }
    };
    let latency_mean_ms = sum(&|s| s.latency_mean_ms * s.completed as f64) / completed;

    // Host timings at nominal host speed: the median of each seed's
    // runs, summed over seeds.
    let median = |f: &dyn Fn(&Plain) -> f64| -> f64 {
        runs.iter().map(|r| f(median_run(&r.plains, f))).sum()
    };
    let run_s = median(&|p| p.run_s());
    let untraced_wall_ns = median(&|p| p.paced.nominal_s) * 1e9;
    let allocs: u64 = runs.iter().map(|r| r.plains[0].allocs).sum();
    let peak_mb: f64 = runs
        .iter()
        .map(|r| r.plains[0].peak_bytes as f64 / (1024.0 * 1024.0))
        .sum::<f64>()
        / runs.len() as f64;

    let e2e: Metrics = vec![
        ("run_s".into(), run_s / runs.len() as f64, "s"),
        ("events_per_s".into(), events / run_s, "events/s"),
        ("setup_s".into(), *median_run(&setups, |&s| s), "s"),
        ("peak_heap_mb".into(), peak_mb, "MB"),
        (
            "allocs_per_kevent".into(),
            allocs as f64 * 1000.0 / events,
            "count",
        ),
        ("sim_latency_p50_ms".into(), quantile_ms(0.5), "ms"),
        ("sim_latency_p99_ms".into(), quantile_ms(0.99), "ms"),
        (
            "sim_completed_frac".into(),
            completed / sum(&|s| (s.completed + s.failed) as f64),
            "ratio",
        ),
        ("sim_node_s".into(), mean(&|s| s.node_s), "node.s"),
    ];

    // Per-layer figures: per seed, the median traced run at nominal host
    // speed; summed over seeds. Counts repeat exactly in every run.
    let mut kind_ns = [0.0; N_KINDS];
    let mut traced_wall_ns = 0.0;
    let mut span_ns = 0.0;
    let mut traced_allocs = 0;
    let mut ledger = Ledger::default();
    for r in &runs {
        let t = median_run(&r.traced, |t| t.paced.nominal_s);
        // The run's own wall-to-nominal scale, applied to its spans.
        let factor = t.paced.work_s / t.paced.nominal_s;
        traced_wall_ns += t.paced.nominal_s * 1e9;
        span_ns += t.ledger.events() as f64 * cost.total_ns / factor;
        traced_allocs += t.allocs_total;
        for (sum, ns) in kind_ns.iter_mut().zip(t.ledger.self_ns(cost)) {
            *sum += ns / factor;
        }
        ledger.add(&t.ledger);
    }
    let traced_events = ledger.events();
    let handler_ns: f64 = kind_ns.iter().sum();
    let handler_allocs: u64 = ledger.allocs.iter().sum();
    // The kernel is the remainder, so handlers + kernel + span cost is
    // the traced wall time by construction; the calibration is checked
    // against the untraced wall time (`trace.residual_frac`).
    let kernel_ns = traced_wall_ns - handler_ns - span_ns;
    // Allocations outside every handler span: the kernel's, plus the few
    // the fault schedule makes on `repair_churn`.
    let mut layers: Vec<(&str, u64, f64, u64)> = vec![(
        KERNEL,
        traced_events,
        kernel_ns,
        traced_allocs - handler_allocs,
    )];
    for (i, (name, _)) in LAYERS.iter().enumerate() {
        let kinds: Vec<usize> = (0..N_KINDS).filter(|&k| layer_of(k) == i).collect();
        layers.push((
            name,
            kinds.iter().map(|&k| ledger.count[k]).sum(),
            kinds.iter().map(|&k| kind_ns[k]).sum(),
            kinds.iter().map(|&k| ledger.allocs[k]).sum(),
        ));
    }
    let mut layer: Metrics = Vec::new();
    for (name, n, ns, allocs) in layers {
        layer.push((format!("{name}.events"), n as f64, "count"));
        layer.push((format!("{name}.ns_per_event"), per(ns, n), "ns"));
        layer.push((format!("{name}.share"), ns / traced_wall_ns, "ratio"));
        layer.push((
            format!("{name}.allocs_per_event"),
            per(allocs as f64, n),
            "count",
        ));
    }
    for kind in REPORTED_KINDS {
        let k = KINDS.iter().position(|&n| n == kind).expect("known kind");
        let n = ledger.count[k];
        layer.push((format!("msg.{kind}.count"), n as f64, "count"));
        layer.push((format!("msg.{kind}.ns_per_event"), per(kind_ns[k], n), "ns"));
        layer.push((
            format!("msg.{kind}.allocs_per_event"),
            per(ledger.allocs[k] as f64, n),
            "count",
        ));
    }
    let restore_events = sum(&|s| s.restore_events as f64);
    layer.extend([
        ("sim.latency_mean_ms".to_string(), latency_mean_ms, "ms"),
        (
            "sim.cpu_app_util".to_string(),
            mean(&|s| s.cpu_app_util),
            "ratio",
        ),
        (
            "sim.cpu_db_util".to_string(),
            mean(&|s| s.cpu_db_util),
            "ratio",
        ),
        (
            "sim.replicas_app_mean".to_string(),
            mean(&|s| s.replicas_app_mean),
            "count",
        ),
        (
            "sim.replicas_db_mean".to_string(),
            mean(&|s| s.replicas_db_mean),
            "count",
        ),
        (
            "sim.reconfigurations".to_string(),
            sum(&|s| s.reconfigurations as f64),
            "count",
        ),
        (
            "sim.scaleup_blocked".to_string(),
            sum(&|s| s.scaleup_blocked as f64),
            "count",
        ),
        (
            "sim.recovery_log_entries".to_string(),
            sum(&|s| s.recovery_log_entries as f64),
            "count",
        ),
        (
            "sim.restore_s".to_string(),
            per(
                sum(&|s| s.restore_s * s.restore_events as f64),
                restore_events as u64,
            ),
            "s",
        ),
        ("sim.restore_events".to_string(), restore_events, "count"),
        (
            "sim.requests_failed".to_string(),
            sum(&|s| s.failed as f64),
            "count",
        ),
        (
            "sim.latency_samples".to_string(),
            latencies.len() as f64,
            "count",
        ),
        (
            "trace.overhead_frac".to_string(),
            traced_wall_ns / untraced_wall_ns - 1.0,
            "ratio",
        ),
        ("trace.span_ns".to_string(), cost.total_ns, "ns"),
        (
            "trace.span_share".to_string(),
            span_ns / traced_wall_ns,
            "ratio",
        ),
        (
            "trace.residual_frac".to_string(),
            (traced_wall_ns - span_ns) / untraced_wall_ns - 1.0,
            "ratio",
        ),
    ]);

    println!(
        "perfbench {} --seed {} | model seeds {:?} | {} untraced + {} traced runs per seed, {} set-ups",
        w.name(),
        args.seed,
        seeds,
        runs[0].plains.len(),
        runs[0].traced.len(),
        setups.len(),
    );
    for (name, value, unit) in e2e.iter().chain(&layer) {
        println!("  {name:<36} {value:>18.6} {unit}");
    }
    println!(
        "  sim_latency_p50_ms and sim_latency_p99_ms are exact nearest-rank quantiles of {} completed requests",
        latencies.len()
    );
    println!(
        "  at nominal host speed, traced wall {:.0} ns = handlers {:.0} + kernel {:.0} + span cost {:.0}; untraced wall {:.0} ns",
        traced_wall_ns, handler_ns, kernel_ns, span_ns, untraced_wall_ns
    );
    let factors: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.plains.iter().map(|p| p.paced.factor()))
        .collect();
    println!(
        "  host timings are at nominal host speed: reference slices of untraced runs took {:.3}x to {:.3}x their nominal {:.0} us",
        factors.iter().copied().fold(f64::INFINITY, f64::min),
        factors.iter().copied().fold(0.0, f64::max),
        NOMINAL_SLICE_S * 1e6
    );
    for (seed, s) in seeds.iter().zip(&sims) {
        println!(
            "  seed {seed}: {} events, {} completed, {} failed, outcome digest {:016x}",
            s.events, s.completed, s.failed, s.digest
        );
    }
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }
    let metrics = if args.trace { &layer } else { &e2e };
    println!("{}", json(correct, attempted, failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
