//! The four workloads, their set-up and fault schedule, the run-level
//! correctness checks and the simulated (model) metrics.
//!
//! All workloads emulate closed-loop clients: each waits for its reply,
//! then thinks. The seed is the only input that varies between runs.

use crate::ledger::SysApp;
use jade::config::SystemConfig;
use jade::experiment::ExperimentOutput;
use jade::system::{J2eeApp, ManagedTier, Msg};
use jade_rubis::WorkloadRamp;
use jade_sim::{Addr, Engine, SimDuration, SimTime};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's fig5 80→500→80 ramp on the bidding mix.
    PaperRamp,
    /// The same ramp on the read-only browsing mix.
    BrowseReadonly,
    /// fig5 rescaled to a million clients on the aggregate client pool.
    MillionClients,
    /// Constant load with a server process killed every minute.
    RepairChurn,
}

/// Model seeds simulated per `--seed`. The model metrics are pooled over
/// them, which narrows their spread from one `--seed` to the next: on
/// `million_clients` a model seed now and then scales out in time and
/// skips the overload transient that sets the p99 latency of the rest.
pub const MODEL_SEEDS: u64 = 4;

/// Virtual time between injected faults on `repair_churn`.
const FAULT_PERIOD: SimDuration = SimDuration::from_secs(60);
/// Replica counts `repair_churn` pins as each tier's minimum.
const PINNED_APP: usize = 2;
const PINNED_DB: usize = 3;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperRamp,
        Workload::BrowseReadonly,
        Workload::MillionClients,
        Workload::RepairChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRamp => "paper_ramp",
            Workload::BrowseReadonly => "browse_readonly",
            Workload::MillionClients => "million_clients",
            Workload::RepairChurn => "repair_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The system configuration for `seed`.
    pub fn config(self, seed: u64) -> SystemConfig {
        let mut cfg = match self {
            Workload::PaperRamp => SystemConfig::paper_managed(),
            Workload::BrowseReadonly => SystemConfig {
                browsing_mix: true,
                ..SystemConfig::paper_managed()
            },
            Workload::MillionClients => SystemConfig::million_clients(),
            Workload::RepairChurn => {
                let mut cfg = SystemConfig::paper_managed();
                cfg.ramp = WorkloadRamp::constant(300);
                cfg.jade.self_repair = true;
                cfg.jade.probe_period = SimDuration::from_millis(250);
                cfg.description.application.replicas = PINNED_APP;
                cfg.description.database.replicas = PINNED_DB;
                cfg.jade.app_loop.min_replicas = PINNED_APP;
                cfg.jade.db_loop.min_replicas = PINNED_DB;
                cfg
            }
        };
        cfg.seed = seed;
        cfg
    }

    /// Virtual time simulated between two host-speed reference slices:
    /// a few milliseconds of host time.
    pub fn segment(self) -> SimDuration {
        match self {
            Workload::MillionClients => SimDuration::from_secs(2),
            _ => SimDuration::from_secs(20),
        }
    }

    /// Virtual time the workload simulates.
    pub fn horizon(self) -> SimTime {
        match self {
            Workload::MillionClients => SimTime::from_secs(800),
            _ => SimTime::from_secs(3000),
        }
    }
}

/// Builds the system for `seed`, wraps it and schedules `Msg::Bootstrap`.
pub fn build<A: SysApp>(w: Workload, seed: u64, wrap: impl FnOnce(J2eeApp) -> A) -> Engine<A> {
    let mut engine = Engine::new(wrap(J2eeApp::new(w.config(seed))), seed);
    engine.schedule(SimTime::ZERO, Addr::ROOT, Msg::Bootstrap);
    engine
}

/// Delivers `Msg::Bootstrap`: deployment and dataset load. With
/// [`build`] this is what `setup_s` times.
pub fn bootstrap<A: SysApp>(engine: &mut Engine<A>) {
    assert!(engine.step(), "bootstrap is delivered");
}

/// One injected fault: when, on which tier, and the tier's running
/// replica count just before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Injection time.
    pub at: SimTime,
    /// Tier of the killed process.
    pub tier: ManagedTier,
    /// Running replicas of the tier before the kill.
    pub before: usize,
}

/// SplitMix64 finaliser over `(seed, k)`: the deterministic draws of the
/// fault schedule.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulates the workload's horizon after set-up, in pieces of at most
/// [`Workload::segment`] virtual time: `segment(engine, t)` must run the
/// engine until `t`. On `repair_churn` the run is cut into 60 s periods.
/// In each, at an instant drawn from the seed, a running MySQL process
/// (in the next period, a Tomcat process) is killed, chosen from the live
/// replicas by the seed. Drawing the instant keeps kills off the probe
/// grid, so detection lag is part of what is measured. The last period
/// before the horizon has no kill, so the last repair can finish.
pub fn drive<A: SysApp>(
    w: Workload,
    seed: u64,
    engine: &mut Engine<A>,
    mut segment: impl FnMut(&mut Engine<A>, SimTime),
) -> Vec<Fault> {
    let horizon = w.horizon();
    let mut now = SimTime::ZERO;
    let mut advance = |engine: &mut Engine<A>, until: SimTime| {
        while now < until {
            now = (now + w.segment()).min(until);
            segment(engine, now);
        }
    };
    let mut faults = Vec::new();
    if w == Workload::RepairChurn {
        let mut period = SimTime::ZERO + FAULT_PERIOD;
        let mut k = 0u64;
        while period + FAULT_PERIOD + FAULT_PERIOD <= horizon {
            let offset = mix(seed, 2 * k) % FAULT_PERIOD.as_micros();
            let at = period + SimDuration::from_micros(offset);
            advance(engine, at);
            let tier = if k.is_multiple_of(2) {
                ManagedTier::Database
            } else {
                ManagedTier::Application
            };
            let running = engine.app().sys().legacy.running_servers_of(tier.tier());
            if !running.is_empty() {
                let victim = running[(mix(seed, 2 * k + 1) % running.len() as u64) as usize];
                faults.push(Fault {
                    at,
                    tier,
                    before: running.len(),
                });
                engine.schedule(at, Addr::ROOT, Msg::FailServer(victim));
            }
            period += FAULT_PERIOD;
            k += 1;
        }
    }
    advance(engine, horizon);
    faults
}

/// Packs a finished engine into the experiment output the repo's digest
/// is defined on.
pub fn output<A: SysApp>(engine: Engine<A>, unwrap: impl FnOnce(A) -> J2eeApp) -> ExperimentOutput {
    let horizon = engine.now();
    let events = engine.events_processed();
    let (app, metrics, tracer) = engine.into_parts_with_trace();
    ExperimentOutput {
        app: unwrap(app),
        metrics,
        tracer,
        horizon,
        events,
    }
}

/// Run-level correctness checks; returns the failures found.
pub fn check(w: Workload, out: &ExperimentOutput) -> Vec<String> {
    let mut failures = Vec::new();
    // Every active MySQL replica holds the same content. A replica still
    // replaying the recovery log is running but not yet active.
    let legacy = &out.app.legacy;
    match out.app.cjdbc.map(|(id, _)| legacy.cjdbc(id)) {
        Some(Ok(ctrl)) => {
            let digests: Vec<u64> = ctrl
                .active_backends()
                .into_iter()
                .filter_map(|s| legacy.mysql(s).ok().map(|m| m.digest()))
                .collect();
            if digests.is_empty() {
                failures.push("no active database replica at the horizon".into());
            } else if digests.iter().any(|&d| d != digests[0]) {
                failures.push(format!("replica digests differ: {digests:x?}"));
            }
        }
        _ => failures.push("no C-JDBC controller".into()),
    }
    if w == Workload::RepairChurn {
        for (tier, pinned) in [
            (ManagedTier::Application, PINNED_APP),
            (ManagedTier::Database, PINNED_DB),
        ] {
            let running = out.app.running_replicas(tier);
            if running < pinned {
                failures.push(format!(
                    "{tier:?} tier has {running} replicas at the horizon, pinned {pinned}"
                ));
            }
        }
    }
    failures
}

/// Simulated (model) outcome of one run. Identical for every run of a
/// given workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The repo's outcome digest.
    pub digest: u64,
    /// Events delivered after set-up.
    pub events: u64,
    /// Completed requests.
    pub completed: u64,
    /// Failed requests, abandoned ones included.
    pub failed: u64,
    /// Mean client latency, ms.
    pub latency_mean_ms: f64,
    /// Time integral of the allocated-node count, node·s.
    pub node_s: f64,
    /// Mean time to repair an injected fault, s (see [`restore_times`]);
    /// 0 when no fault was injected.
    pub restore_s: f64,
    /// Faults `restore_s` averages over.
    pub restore_events: usize,
    /// Time-weighted mean CPU utilisation of the application tier.
    pub cpu_app_util: f64,
    /// Time-weighted mean CPU utilisation of the database tier.
    pub cpu_db_util: f64,
    /// Time-weighted mean application replicas.
    pub replicas_app_mean: f64,
    /// Time-weighted mean database replicas.
    pub replicas_db_mean: f64,
    /// Reconfigurations performed.
    pub reconfigurations: u64,
    /// Scale-up decisions blocked (wasted control decisions).
    pub scaleup_blocked: u64,
    /// Recovery-log entries at the horizon.
    pub recovery_log_entries: u64,
}

fn series_mean(out: &ExperimentOutput, name: &str) -> f64 {
    out.metrics
        .series(name)
        .and_then(|s| s.time_weighted_mean(SimTime::ZERO, out.horizon))
        .unwrap_or(0.0)
}

/// Time to restore each injected fault, s: from the kill until the
/// tier's `replicas.*` series, having dipped below its pre-failure count,
/// is back at it. A fault not repaired by the horizon counts until the
/// horizon.
pub fn restore_times(out: &ExperimentOutput, faults: &[Fault]) -> Vec<f64> {
    faults
        .iter()
        .map(|f| {
            let points = out
                .metrics
                .series(f.tier.replicas_series())
                .map_or(&[][..], |s| s.points());
            let target = f.before as f64;
            let after = &points[points.partition_point(|&(t, _)| t <= f.at)..];
            let restored = after
                .iter()
                .position(|&(_, v)| v < target)
                .and_then(|dip| after[dip..].iter().find(|&&(_, v)| v >= target))
                .map_or(out.horizon, |&(t, _)| t);
            (restored - f.at).as_secs_f64()
        })
        .collect()
}

impl SimOutcome {
    /// Reads the model outcome from a finished run.
    pub fn of(out: &ExperimentOutput, faults: &[Fault]) -> SimOutcome {
        let stats = &out.app.stats;
        let restores = restore_times(out, faults);
        let legacy = &out.app.legacy;
        let recovery_log_entries = out
            .app
            .cjdbc
            .and_then(|(id, _)| legacy.cjdbc(id).ok())
            .map_or(0, |c| c.recovery_log().head());
        SimOutcome {
            digest: out.outcome_digest(),
            // The bootstrap event belongs to set-up.
            events: out.events - 1,
            completed: stats.total_completed(),
            failed: stats.total_failed(),
            latency_mean_ms: stats.overall_mean_latency_ms(),
            node_s: series_mean(out, "nodes.allocated") * out.horizon.as_secs_f64(),
            restore_s: if restores.is_empty() {
                0.0
            } else {
                restores.iter().sum::<f64>() / restores.len() as f64
            },
            restore_events: restores.len(),
            cpu_app_util: series_mean(out, "cpu.app"),
            cpu_db_util: series_mean(out, "cpu.db"),
            replicas_app_mean: series_mean(out, "replicas.app"),
            replicas_db_mean: series_mean(out, "replicas.db"),
            reconfigurations: out.metrics.counter("reconfigurations"),
            scaleup_blocked: out.metrics.counter("scaleup.blocked"),
            recovery_log_entries,
        }
    }
}

/// Nearest-rank quantile of sorted samples.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
