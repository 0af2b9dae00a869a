//! The layer ledger: per-`Msg`-kind handler time and allocations.
//!
//! [`Traced`] wraps any application that handles [`Msg`] and records one
//! span per delivered event: the wall time of the inner `handle` call and
//! the allocations it made, keyed by the message kind. Queue pushes made
//! inside a handler are charged to that handler. Layers are named after
//! the modules that handle each kind (see `layers.json`); whatever the
//! spans do not cover is the event kernel's.

use crate::alloc;
use jade::system::{J2eeApp, Msg};
use jade_sim::{Addr, App, Ctx};
use std::hint::black_box;
use std::time::Instant;

/// Number of `Msg` kinds.
pub const N_KINDS: usize = 22;

/// Every `Msg` kind, in the order of [`kind_of`].
pub const KINDS: [&str; N_KINDS] = [
    "Bootstrap",
    "RampTick",
    "MeasureTick",
    "ClientThink",
    "PoolTick",
    "PoolDispatch",
    "ApacheAccept",
    "TomcatAccept",
    "DbDispatch",
    "CpuComplete",
    "ResponseDelivered",
    "ClientAbandon",
    "Legacy",
    "SensorTick",
    "DetectorTick",
    "DeployStep",
    "UndeployStop",
    "RollingRestart",
    "RollingNext",
    "RollingStop",
    "CrashNode",
    "FailServer",
];

/// Index of the message's kind in [`KINDS`]. The match is exhaustive, so
/// a new `Msg` variant does not compile until it is given a kind.
pub fn kind_of(msg: &Msg) -> usize {
    match msg {
        Msg::Bootstrap => 0,
        Msg::RampTick => 1,
        Msg::MeasureTick => 2,
        Msg::ClientThink(_) => 3,
        Msg::PoolTick => 4,
        Msg::PoolDispatch { .. } => 5,
        Msg::ApacheAccept { .. } => 6,
        Msg::TomcatAccept { .. } => 7,
        Msg::DbDispatch { .. } => 8,
        Msg::CpuComplete(_) => 9,
        Msg::ResponseDelivered { .. } => 10,
        Msg::ClientAbandon { .. } => 11,
        Msg::Legacy(_) => 12,
        Msg::SensorTick(_) => 13,
        Msg::DetectorTick => 14,
        Msg::DeployStep { .. } => 15,
        Msg::UndeployStop { .. } => 16,
        Msg::RollingRestart(_) => 17,
        Msg::RollingNext => 18,
        Msg::RollingStop { .. } => 19,
        Msg::CrashNode(_) => 20,
        Msg::FailServer(_) => 21,
    }
}

/// Index of the kind whose deliveries complete a client request.
pub const RESPONSE: usize = 10;

/// The event kernel: the remainder no handler span covers.
pub const KERNEL: &str = "sim.kernel";

/// Handler layers and the kinds each one handles.
pub const LAYERS: [(&str, &[&str]); 7] = [
    ("sim.cpu", &["CpuComplete"]),
    (
        "rubis.clients",
        &["ClientThink", "PoolTick", "PoolDispatch", "RampTick"],
    ),
    (
        "core.lifecycle",
        &[
            "ApacheAccept",
            "TomcatAccept",
            "ResponseDelivered",
            "ClientAbandon",
        ],
    ),
    ("tiers.db", &["DbDispatch"]),
    ("core.observe", &["MeasureTick", "SensorTick"]),
    (
        "core.control",
        &[
            "DetectorTick",
            "DeployStep",
            "UndeployStop",
            "Legacy",
            "RollingRestart",
            "RollingNext",
            "RollingStop",
            "FailServer",
            "CrashNode",
        ],
    ),
    ("core.setup", &["Bootstrap"]),
];

/// Index in [`LAYERS`] of the layer that handles kind `kind`.
pub fn layer_of(kind: usize) -> usize {
    LAYERS
        .iter()
        .position(|(_, kinds)| kinds.contains(&KINDS[kind]))
        .expect("every kind belongs to a layer")
}

/// Raw span sums per kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Deliveries per kind.
    pub count: [u64; N_KINDS],
    /// Summed span wall time per kind, ns (includes the timer's own
    /// in-span cost, see [`SpanCost`]).
    pub ns: [u64; N_KINDS],
    /// Heap allocations made inside the spans, per kind.
    pub allocs: [u64; N_KINDS],
}

impl Ledger {
    /// Runs `f` as one span of kind `kind`.
    #[inline(always)]
    pub fn span<R>(&mut self, kind: usize, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::allocations();
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let a1 = alloc::allocations();
        self.count[kind] += 1;
        self.ns[kind] += (t1 - t0).as_nanos() as u64;
        self.allocs[kind] += a1 - a0;
        r
    }

    /// Events recorded over every kind.
    pub fn events(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Handler self time per kind, ns: span time minus the timer's own
    /// in-span cost.
    pub fn self_ns(&self, cost: SpanCost) -> [f64; N_KINDS] {
        std::array::from_fn(|k| self.ns[k] as f64 - self.count[k] as f64 * cost.inner_ns)
    }

    /// Adds another ledger's sums to this one.
    pub fn add(&mut self, other: &Ledger) {
        let pairs = [
            (&mut self.count, &other.count),
            (&mut self.ns, &other.ns),
            (&mut self.allocs, &other.allocs),
        ];
        for (sums, more) in pairs {
            sums.iter_mut().zip(more).for_each(|(s, m)| *s += m);
        }
    }
}

/// The measured cost of an empty span.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// What an empty body reads as span time, ns per span. It is
    /// subtracted from every span to give handler self time.
    pub inner_ns: f64,
    /// Whole cost of one empty span, ns: `inner_ns` plus the clock and
    /// counter reads and ledger update outside the timed interval.
    pub total_ns: f64,
}

impl SpanCost {
    /// Times `spans` empty spans through [`Ledger::span`].
    pub fn calibrate(spans: u64) -> SpanCost {
        let mut ledger = Ledger::default();
        let t0 = Instant::now();
        for i in 0..spans {
            ledger.span(black_box(i as usize % N_KINDS), || black_box(()));
        }
        let wall = t0.elapsed().as_nanos() as f64;
        SpanCost {
            inner_ns: ledger.ns.iter().sum::<u64>() as f64 / spans as f64,
            total_ns: wall / spans as f64,
        }
    }
}

/// An application the benchmark can drive: the system itself, or a
/// wrapper around it.
pub trait SysApp: App<Msg = Msg> {
    /// The simulated system.
    fn sys(&self) -> &J2eeApp;
}

impl SysApp for J2eeApp {
    fn sys(&self) -> &J2eeApp {
        self
    }
}

/// Observes an application: spans per event, plus the exact latency of
/// every completed request.
pub struct Traced<A> {
    /// The observed application.
    pub inner: A,
    /// Span sums.
    pub ledger: Ledger,
    /// Simulated latency of each completed request, µs, in completion
    /// order.
    pub latencies_us: Vec<u64>,
}

impl<A> Traced<A> {
    /// Wraps `inner`; `completions` reserves latency slots up front so
    /// the run itself does not allocate for them.
    pub fn new(inner: A, completions: usize) -> Self {
        Traced {
            inner,
            ledger: Ledger::default(),
            latencies_us: Vec::with_capacity(completions),
        }
    }
}

impl<A: SysApp> SysApp for Traced<A> {
    fn sys(&self) -> &J2eeApp {
        self.inner.sys()
    }
}

/// `(completed, latency sum ms)` of statistics window `window`.
fn window_totals(app: &J2eeApp, window: usize) -> (u64, f64) {
    app.stats
        .windows()
        .get(window)
        .map_or((0, 0.0), |w| (w.completed, w.latency_sum_ms))
}

impl<A: SysApp> App for Traced<A> {
    type Msg = Msg;

    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, dst: Addr, msg: Msg) {
        let kind = kind_of(&msg);
        if kind != RESPONSE {
            let inner = &mut self.inner;
            self.ledger.span(kind, || inner.handle(ctx, dst, msg));
            return;
        }
        // A completion adds its latency to the window holding `now`; the
        // window's delta across the handler is that one latency.
        let window = (ctx.now().as_micros() / self.inner.sys().stats.window().as_micros()) as usize;
        let before = window_totals(self.inner.sys(), window);
        let inner = &mut self.inner;
        self.ledger.span(kind, || inner.handle(ctx, dst, msg));
        let after = window_totals(self.inner.sys(), window);
        if after.0 == before.0 + 1 {
            // Latencies are whole µs, so rounding the float delta is exact.
            let us = ((after.1 - before.1) * 1000.0).round() as u64;
            self.latencies_us.push(us);
        }
    }
}
