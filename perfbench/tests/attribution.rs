//! Self-tests of the layer ledger: injected time is charged to the layer
//! of the kind it was injected into and nowhere else, and allocation
//! counts repeat exactly.

// The busy wait reads the host clock, which clippy.toml bans for
// simulation code.
#![allow(clippy::disallowed_methods)]

use jade::system::{J2eeApp, Msg};
use jade_sim::{Addr, App, Ctx, SimTime};
use perfbench::ledger::{
    kind_of, layer_of, Ledger, SpanCost, SysApp, Traced, KERNEL, KINDS, LAYERS,
};
use perfbench::workload::{bootstrap, build, Workload};
use std::time::{Duration, Instant};

/// Busy-waits `extra` before every delivery of one kind.
struct Busy {
    inner: J2eeApp,
    kind: usize,
    extra: Duration,
}

impl App for Busy {
    type Msg = Msg;

    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, dst: Addr, msg: Msg) {
        if kind_of(&msg) == self.kind {
            let t0 = Instant::now();
            while t0.elapsed() < self.extra {
                std::hint::spin_loop();
            }
        }
        self.inner.handle(ctx, dst, msg);
    }
}

impl SysApp for Busy {
    fn sys(&self) -> &J2eeApp {
        &self.inner
    }
}

const HORIZON: SimTime = SimTime::from_secs(300);

/// A traced 300 s run of the paper's ramp with `extra` busy time on
/// every delivery of `kind`.
fn traced(kind: usize, extra: Duration) -> Ledger {
    let mut engine = build(Workload::PaperRamp, 7, |inner| {
        Traced::new(Busy { inner, kind, extra }, 0)
    });
    bootstrap(&mut engine);
    engine.run_until(HORIZON);
    let (app, _) = engine.into_parts();
    app.ledger
}

/// Self time per layer, ns.
fn layer_self_ns(l: &Ledger, cost: SpanCost) -> Vec<f64> {
    let mut ns = vec![0.0; LAYERS.len()];
    for (k, kind_ns) in l.self_ns(cost).into_iter().enumerate() {
        ns[layer_of(k)] += kind_ns;
    }
    ns
}

#[test]
fn every_kind_has_exactly_one_layer() {
    for kind in KINDS {
        let owners = LAYERS.iter().filter(|(_, ks)| ks.contains(&kind)).count();
        assert_eq!(owners, 1, "{kind} belongs to {owners} layers");
    }
    let listed: usize = LAYERS.iter().map(|(_, ks)| ks.len()).sum();
    assert_eq!(listed, KINDS.len());
}

/// The string values of every `"key": "..."` pair in `json`, in order.
fn values_of<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\": \"");
    json.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &json[at + pattern.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn layers_json_names_the_ledger_layers_and_benchmark_metrics() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let layers = std::fs::read_to_string(format!("{dir}/layers.json")).unwrap();
    let bench = std::fs::read_to_string(format!("{dir}/../BENCHMARK.json")).unwrap();
    let expected: Vec<&str> = std::iter::once(KERNEL)
        .chain(LAYERS.iter().map(|(name, _)| *name))
        .collect();
    assert_eq!(values_of(&layers, "layer"), expected);
    let names = values_of(&bench, "name");
    for metric in values_of(&layers, "metric") {
        assert!(names.contains(&metric), "{metric} is not in BENCHMARK.json");
    }
    for layer in expected {
        for stat in ["events", "ns_per_event", "share", "allocs_per_event"] {
            let metric = format!("{layer}.{stat}");
            assert!(
                names.contains(&metric.as_str()),
                "{metric} is not in BENCHMARK.json"
            );
        }
    }
}

#[test]
fn busy_wait_lands_in_its_layer_only() {
    let kind = KINDS.iter().position(|&k| k == "MeasureTick").unwrap();
    let extra = Duration::from_millis(2);
    let cost = SpanCost::calibrate(100_000);
    let base = traced(kind, Duration::ZERO);
    let busy = traced(kind, extra);
    assert_eq!(base.count, busy.count, "the busy wait changes no event");
    let added = busy.count[kind] as f64 * extra.as_nanos() as f64;
    assert!(added > 0.0, "the kind occurs in the run");

    let before = layer_self_ns(&base, cost);
    let after = layer_self_ns(&busy, cost);
    let target = layer_of(kind);
    let landed = after[target] - before[target];
    assert!(
        landed >= 0.95 * added && landed <= 2.0 * added,
        "{} gained {landed} ns for {added} ns injected",
        LAYERS[target].0
    );
    for (i, (name, _)) in LAYERS.iter().enumerate() {
        if i != target {
            let moved = after[i] - before[i];
            assert!(
                moved < 0.1 * added,
                "{name} gained {moved} ns of the {added} ns injected into {}",
                LAYERS[target].0
            );
        }
    }
}

#[test]
fn allocation_counts_repeat_exactly() {
    // The first run of a process also initialises lazy statics.
    let _warm = traced(0, Duration::ZERO);
    let a = traced(0, Duration::ZERO);
    let b = traced(0, Duration::ZERO);
    assert_eq!(a.count, b.count);
    assert_eq!(a.allocs, b.allocs);
    assert!(a.allocs.iter().sum::<u64>() > 0, "allocations are counted");
}
