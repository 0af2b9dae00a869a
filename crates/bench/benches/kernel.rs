//! Micro-benchmarks of the discrete-event kernel: event-queue throughput
//! (slab-backed vs the naive `BinaryHeap` + `HashSet` baseline it
//! replaced), processor-sharing CPU updates, and end-to-end engine
//! stepping. These bound the cost of every simulated experiment in the
//! repository.
//!
//! `cargo bench --bench kernel` writes `BENCH_kernel.json` with the
//! measured rates and the slab-vs-naive speedups.

use jade::config::SystemConfig;
use jade::experiment::run_experiment;
use jade_bench::microbench::{black_box, Runner};
use jade_bench::{
    naive_time_weighted_mean, NaiveDatabase, NaiveLifecycle, NaiveObservation, NaivePsCpu,
    NaiveReplication,
};
use jade_cluster::{ClusterManager, NodeId, NodeSpec};
use jade_rubis::interactions::generate_plan_into;
use jade_rubis::{
    dataset_statements, generate_plan, generate_plan_compiled_into, rubis_schema,
    sample_interaction, DatasetSpec, InteractionMix, KeySpace, WorkloadRamp, INTERACTIONS,
};
use jade_sim::{Addr, App, Ctx, EfficiencyCurve, Engine, EventQueue, JobId, PsCpu, SimRng};
use jade_sim::{MovingAverage, Retention, SeriesCursor, SimDuration, SimTime, TimeSeries};
use jade_tiers::recovery::RecoveryLog;
use jade_tiers::request::{SqlOp, SqlProgram};
use jade_tiers::sql::{Schema, SharedRow, Statement, Value};
use jade_tiers::storage::{Database, WriteDelta};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// The event queue the kernel shipped with before the slab rewrite: a
/// `BinaryHeap` with payloads inline plus a `HashSet` of cancelled
/// sequence numbers. Kept here as the benchmark baseline.
struct NaiveQueue<T> {
    heap: BinaryHeap<Reverse<(SimTime, u64, T)>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
}

impl<T: Ord> NaiveQueue<T> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq, payload)));
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        while let Some(Reverse((time, seq, payload))) = self.heap.pop() {
            if !self.cancelled.remove(&seq) {
                return Some((time, payload));
            }
        }
        None
    }
}

/// What the engine actually schedules: `(Addr, A::Msg)`, 24 bytes for the
/// system-model app. The baseline carried it inline in every heap entry;
/// the slab queue moves only 24-byte `(time, seq, slot)` records and parks
/// the payload.
type Payload = [u64; 3];

const PUSH_POP_N: usize = 10_000;
const CANCEL_N: u64 = 1_000;
const CHURN_Q: usize = 4_096;
const CHURN_OPS: usize = 20_000;

fn bench_queues(r: &mut Runner) {
    // All queue benchmarks reuse one warm queue across iterations, like
    // the engine does across a run: capacity and recycled slots persist,
    // so the allocator is out of the measurement.

    // Reverse-order pushes: worst-case heap churn.
    {
        let mut q = EventQueue::new();
        r.bench(
            &format!("event_queue/slab/push_pop_{PUSH_POP_N}"),
            move || {
                for i in 0..PUSH_POP_N {
                    let v = i as u64;
                    q.push(SimTime::from_micros((PUSH_POP_N - i) as u64), [v, v, v]);
                }
                let mut out = 0u64;
                while let Some((_, v)) = q.pop() {
                    out = out.wrapping_add(v[0]);
                }
                out
            },
        );
    }
    {
        let mut q = NaiveQueue::new();
        r.bench(
            &format!("event_queue/naive/push_pop_{PUSH_POP_N}"),
            move || {
                for i in 0..PUSH_POP_N {
                    let v = i as u64;
                    q.push(
                        SimTime::from_micros((PUSH_POP_N - i) as u64),
                        [v, v, v] as Payload,
                    );
                }
                let mut out = 0u64;
                while let Some((_, v)) = q.pop() {
                    out = out.wrapping_add(v[0]);
                }
                out
            },
        );
    }

    // Cancel every other timer, like the CPU model re-arming.
    {
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        r.bench(
            &format!("event_queue/slab/cancel_heavy_{CANCEL_N}"),
            move || {
                tokens.clear();
                tokens.extend((0..CANCEL_N).map(|i| q.push(SimTime::from_micros(i), [i, i, i])));
                for t in tokens.iter().step_by(2) {
                    q.cancel(*t);
                }
                let mut survivors = 0;
                while q.pop().is_some() {
                    survivors += 1;
                }
                survivors
            },
        );
    }
    {
        let mut q = NaiveQueue::new();
        let mut tokens = Vec::new();
        r.bench(
            &format!("event_queue/naive/cancel_heavy_{CANCEL_N}"),
            move || {
                tokens.clear();
                tokens.extend(
                    (0..CANCEL_N).map(|i| q.push(SimTime::from_micros(i), [i, i, i] as Payload)),
                );
                for t in tokens.iter().step_by(2) {
                    q.cancel(*t);
                }
                let mut survivors = 0;
                while q.pop().is_some() {
                    survivors += 1;
                }
                survivors
            },
        );
    }

    // Steady-state churn: the engine's actual access pattern. A constant
    // population of pending events; every dispatch pops one, schedules a
    // successor, and re-arms a completion timer (cancel + push), exactly
    // like the processor-sharing CPU model does on each arrival. The
    // population persists across iterations (virtual time keeps rising).
    {
        let mut q = EventQueue::new();
        for i in 0..CHURN_Q as u64 {
            q.push(SimTime::from_micros(i), [i, i, i]);
        }
        let mut timer = q.push(SimTime::from_micros(CHURN_Q as u64), [0; 3]);
        r.bench(&format!("event_queue/slab/churn_{CHURN_OPS}"), move || {
            let mut acc = 0u64;
            for i in 0..CHURN_OPS as u64 {
                let (t, v) = q.pop().expect("queue never drains");
                let now = t.as_micros();
                acc = acc.wrapping_add(v[0]);
                q.push(SimTime::from_micros(now + CHURN_Q as u64 + i % 7), v);
                q.cancel(timer);
                timer = q.push(SimTime::from_micros(now + 100), [i, i, i]);
            }
            acc
        });
    }
    {
        let mut q = NaiveQueue::new();
        for i in 0..CHURN_Q as u64 {
            q.push(SimTime::from_micros(i), [i, i, i] as Payload);
        }
        let mut timer = q.push(SimTime::from_micros(CHURN_Q as u64), [0; 3]);
        r.bench(&format!("event_queue/naive/churn_{CHURN_OPS}"), move || {
            let mut acc = 0u64;
            for i in 0..CHURN_OPS as u64 {
                let (t, v) = q.pop().expect("queue never drains");
                let now = t.as_micros();
                acc = acc.wrapping_add(v[0]);
                q.push(SimTime::from_micros(now + CHURN_Q as u64 + i % 7), v);
                q.cancel(timer);
                timer = q.push(SimTime::from_micros(now + 100), [i, i, i]);
            }
            acc
        });
    }
}

/// Driver API shared by the virtual-time model and the naive reference, so
/// one generic benchmark body drives both.
trait CpuModel {
    fn new(speed: f64, curve: EfficiencyCurve) -> Self;
    fn submit(&mut self, now: SimTime, id: JobId, demand: SimDuration);
    fn next_completion(&mut self, now: SimTime) -> Option<SimTime>;
    fn collect_completions(&mut self, now: SimTime) -> Vec<JobId>;
    fn load(&self) -> usize;
}

macro_rules! impl_cpu_model {
    ($ty:ty) => {
        impl CpuModel for $ty {
            fn new(speed: f64, curve: EfficiencyCurve) -> Self {
                <$ty>::new(speed, curve)
            }
            fn submit(&mut self, now: SimTime, id: JobId, demand: SimDuration) {
                <$ty>::submit(self, now, id, demand)
            }
            fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
                <$ty>::next_completion(self, now)
            }
            fn collect_completions(&mut self, now: SimTime) -> Vec<JobId> {
                <$ty>::collect_completions(self, now)
            }
            fn load(&self) -> usize {
                <$ty>::load(self)
            }
        }
    };
}
impl_cpu_model!(PsCpu);
impl_cpu_model!(NaivePsCpu);

/// Submit `jobs` jobs, then drain via the timer loop — the saturated-tier
/// access pattern (Figs. 6 and 8). The workload is unchanged from the
/// pre-rewrite bench so new numbers stay comparable with the committed
/// baseline's.
fn submit_drain<C: CpuModel>(jobs: usize, curve: EfficiencyCurve) -> usize {
    let mut cpu = C::new(1.0, curve);
    let mut t = SimTime::ZERO;
    for i in 0..jobs {
        cpu.submit(t, JobId(i as u64), SimDuration::from_millis(5));
    }
    while let Some(next) = cpu.next_completion(t) {
        t = next;
        black_box(cpu.collect_completions(t).len());
    }
    cpu.load()
}

const THRASH_CURVE: EfficiencyCurve = EfficiencyCurve::Thrashing {
    knee: 64,
    slope: 0.1,
};

fn bench_ps_cpu(r: &mut Runner) {
    for jobs in [2usize, 16, 128, 512, 2048] {
        r.bench(&format!("ps_cpu/submit_drain_{jobs}"), move || {
            submit_drain::<PsCpu>(jobs, EfficiencyCurve::Ideal)
        });
        r.bench(&format!("ps_cpu/naive/submit_drain_{jobs}"), move || {
            submit_drain::<NaivePsCpu>(jobs, EfficiencyCurve::Ideal)
        });
    }
    r.bench("ps_cpu/thrashing_512", || {
        submit_drain::<PsCpu>(512, THRASH_CURVE)
    });
    r.bench("ps_cpu/naive/thrashing_512", || {
        submit_drain::<NaivePsCpu>(512, THRASH_CURVE)
    });
}

// ---------------------------------------------------------------------
// Storage engine: interned + indexed vs the name-keyed scan baseline.
// ---------------------------------------------------------------------

const DB_ROWS: u64 = 10_000;
const DB_HOT_SELECTS: u64 = 1_000;
const DB_WHERE_SELECTS: u64 = 100;
const DB_MIX_INTERACTIONS: usize = 500;

fn db_schema() -> Arc<Schema> {
    Schema::builder()
        .table(
            "items",
            &["name", "seller", "category", "price", "quantity"],
        )
        .index("items", "category")
        .index("items", "seller")
        .build()
}

/// `CREATE TABLE` plus `DB_ROWS` item rows (~10 rows per category value).
fn db_fixture(schema: &Schema) -> Vec<Statement> {
    let mut rng = SimRng::seed_from_u64(0xDB);
    let mut out = vec![schema.create_table("items")];
    for i in 0..DB_ROWS {
        out.push(schema.insert(
            "items",
            &[
                ("name", Value::Text(format!("item{i}"))),
                ("seller", Value::Int(rng.range_u64(0, 499) as i64)),
                ("category", Value::Int(rng.range_u64(0, 999) as i64)),
                ("price", Value::Int(rng.range_u64(1, 1000) as i64)),
                ("quantity", Value::Int(1)),
            ],
        ));
    }
    out
}

fn loaded_interned(schema: &Arc<Schema>, fixture: &[Statement]) -> Database {
    let mut db = Database::new(Arc::clone(schema));
    for s in fixture {
        db.execute(s).unwrap();
    }
    db
}

fn loaded_naive(schema: &Schema, fixture: &[Statement]) -> NaiveDatabase {
    let mut db = NaiveDatabase::new();
    for s in fixture {
        db.execute(schema, s).unwrap();
    }
    db
}

fn bench_db(r: &mut Runner) {
    let schema = db_schema();
    let fixture = db_fixture(&schema);

    // Point lookups on a hot key set (the ViewItem/BuyNow access pattern).
    let hot: Vec<Statement> = {
        let mut rng = SimRng::seed_from_u64(0x407);
        (0..DB_HOT_SELECTS)
            .map(|_| schema.select_by_key("items", rng.range_u64(0, DB_ROWS - 1)))
            .collect()
    };
    {
        let db = loaded_interned(&schema, &fixture);
        let mut scratch: Vec<(u64, SharedRow)> = Vec::new();
        let hot = hot.clone();
        let mut db = db;
        r.bench(
            &format!("db/select_by_key_hot_{DB_HOT_SELECTS}"),
            move || {
                let mut acc = 0usize;
                for s in &hot {
                    let _ = db.execute_into(s, &mut scratch);
                    acc += scratch.len();
                }
                acc
            },
        );
    }
    {
        let mut db = loaded_naive(&schema, &fixture);
        let schema = Arc::clone(&schema);
        let hot = hot.clone();
        r.bench(
            &format!("db/naive/select_by_key_hot_{DB_HOT_SELECTS}"),
            move || {
                let mut acc = 0usize;
                for s in &hot {
                    if let Ok(jade_bench::NaiveQueryResult::Rows(rows)) = db.execute(&schema, s) {
                        acc += rows.len();
                    }
                }
                acc
            },
        );
    }

    // Equality scans over the indexed `category` column
    // (SearchItemsInCategory): O(matches) postings vs a 10k-row full scan.
    let scans: Vec<Statement> = (0..DB_WHERE_SELECTS)
        .map(|i| schema.select_where("items", "category", Value::Int((i * 7 % 1000) as i64), 25))
        .collect();
    {
        let mut db = loaded_interned(&schema, &fixture);
        let mut scratch: Vec<(u64, SharedRow)> = Vec::new();
        let scans = scans.clone();
        r.bench(&format!("db/select_where_{DB_ROWS}"), move || {
            let mut acc = 0usize;
            for s in &scans {
                let _ = db.execute_into(s, &mut scratch);
                acc += scratch.len();
            }
            acc
        });
    }
    {
        let mut db = loaded_naive(&schema, &fixture);
        let schema = Arc::clone(&schema);
        let scans = scans.clone();
        r.bench(&format!("db/naive/select_where_{DB_ROWS}"), move || {
            let mut acc = 0usize;
            for s in &scans {
                if let Ok(jade_bench::NaiveQueryResult::Rows(rows)) = db.execute(&schema, s) {
                    acc += rows.len();
                }
            }
            acc
        });
    }

    // The RUBiS bidding mix end-to-end: the statement stream one emulated
    // client population issues, replayed against each engine. Writes
    // accumulate across iterations identically for both, so the best
    // sample (reported) compares like-for-like states.
    let rubis = rubis_schema();
    let spec = DatasetSpec::small();
    let mut rng = SimRng::seed_from_u64(0x2B1D);
    let dump = dataset_statements(spec, &mut rng);
    let mix: Vec<Arc<Statement>> = {
        let mut ks: KeySpace = spec.into();
        let mut ops = Vec::new();
        for _ in 0..DB_MIX_INTERACTIONS {
            let t = sample_interaction(&mut rng);
            let plan = generate_plan(t, &mut ks, &mut rng);
            ops.extend(plan.sql.into_ops().into_iter().map(|op| op.statement));
        }
        ops
    };
    {
        let mut db = loaded_interned(&rubis, &dump);
        let mut scratch: Vec<(u64, SharedRow)> = Vec::new();
        let mix = mix.clone();
        r.bench(&format!("db/rubis_mix_{DB_MIX_INTERACTIONS}"), move || {
            let mut acc = 0u64;
            for s in &mix {
                if let Ok(summary) = db.execute_into(s, &mut scratch) {
                    acc = acc.wrapping_add(summary.cardinality());
                }
            }
            acc
        });
    }
    {
        let mut db = loaded_naive(&rubis, &dump);
        let rubis = Arc::clone(&rubis);
        let mix = mix.clone();
        r.bench(
            &format!("db/naive/rubis_mix_{DB_MIX_INTERACTIONS}"),
            move || {
                let mut acc = 0u64;
                for s in &mix {
                    if let Ok(res) = db.execute(&rubis, s) {
                        acc = acc.wrapping_add(match res {
                            jade_bench::NaiveQueryResult::Ack { affected, .. } => affected,
                            jade_bench::NaiveQueryResult::Rows(rows) => rows.len() as u64,
                            jade_bench::NaiveQueryResult::Count(n) => n,
                        });
                    }
                }
                acc
            },
        );
    }
}

// ---------------------------------------------------------------------
// Compiled interaction plans: pre-resolved opcode programs vs the
// interpreted prepared-statement engine.
// ---------------------------------------------------------------------

/// Interactions per iteration of the compiled-vs-interpreted mix bench.
const DB_COMPILED_INTERACTIONS: usize = 2_000;

/// The per-request hot path, generation through execution, for a
/// stationary bidding-mix interaction stream: the interpreted side builds
/// `Statement` trees into a recycled `Vec<SqlOp>` and drives the engine's
/// `match` dispatch per statement; the compiled side fills recycled
/// parameter/demand buffers and runs each interaction's pre-resolved
/// program in one fused `execute_plan` call. Both sides replay the
/// identical pre-sampled stream under the same seeds against a pristine
/// copy-on-write clone of the same dataset each iteration, so every
/// sample compares like for like.
fn bench_db_compiled(r: &mut Runner) {
    let rubis = rubis_schema();
    let spec = DatasetSpec::small();
    let mut rng = SimRng::seed_from_u64(0x2B1D);
    let dump = dataset_statements(spec, &mut rng);
    // Pre-sampled stationary stream: neither side pays mix sampling
    // inside the timed region.
    let stream: Vec<usize> = {
        let mix = InteractionMix::bidding();
        let mut rng = SimRng::seed_from_u64(0x51EAD);
        (0..DB_COMPILED_INTERACTIONS)
            .map(|_| mix.sample_index(&mut rng))
            .collect()
    };
    {
        let pristine = loaded_interned(&rubis, &dump);
        let stream = stream.clone();
        r.bench(
            &format!("db/compiled/gen_exec_mix_{DB_COMPILED_INTERACTIONS}"),
            move || {
                let mut db = pristine.clone();
                let mut ks: KeySpace = spec.into();
                let mut rng = SimRng::seed_from_u64(0xF00D);
                let mut scratch: Vec<(u64, SharedRow)> = Vec::new();
                let (mut params, mut demands) = (Vec::new(), Vec::new());
                let mut acc = 0u64;
                for &i in &stream {
                    let plan = generate_plan_compiled_into(i, &mut ks, &mut rng, params, demands);
                    let SqlProgram::Compiled(run) = plan.sql else {
                        unreachable!("compiled generator emits compiled runs")
                    };
                    acc = acc.wrapping_add(db.execute_plan(run.plan, &run.params, &mut scratch));
                    params = run.params;
                    demands = run.demands;
                }
                acc
            },
        );
    }
    {
        let pristine = loaded_interned(&rubis, &dump);
        let stream = stream.clone();
        r.bench(
            &format!("db/interpreted/gen_exec_mix_{DB_COMPILED_INTERACTIONS}"),
            move || {
                let mut db = pristine.clone();
                let mut ks: KeySpace = spec.into();
                let mut rng = SimRng::seed_from_u64(0xF00D);
                let mut scratch: Vec<(u64, SharedRow)> = Vec::new();
                let mut buf: Vec<SqlOp> = Vec::new();
                let mut acc = 0u64;
                for &i in &stream {
                    let plan = generate_plan_into(&INTERACTIONS[i], &mut ks, &mut rng, buf);
                    let SqlProgram::Ops(ops) = plan.sql else {
                        unreachable!("interpreted generator emits statement lists")
                    };
                    for op in &ops {
                        if let Ok(s) = db.execute_into(&op.statement, &mut scratch) {
                            acc = acc.wrapping_add(s.cardinality());
                        }
                    }
                    buf = ops;
                }
                acc
            },
        );
    }
}

// ---------------------------------------------------------------------
// Replication: execute-once delta broadcast vs re-execute-everywhere.
// ---------------------------------------------------------------------

/// RAIDb-1 mirror width for the broadcast bench (fig5's peak DB tier
/// plus one).
const REPL_REPLICAS: usize = 5;
/// Writes in the broadcast mix.
const REPL_MIX_WRITES: usize = 2_000;
/// Recovery-log length ahead of the late joiner.
const REPL_SYNC_WRITES: usize = 100_000;

/// The write statements a RUBiS bidding population issues (reads
/// dropped), `n` of them.
fn rubis_write_mix(n: usize, seed: u64) -> Vec<Arc<Statement>> {
    let spec = DatasetSpec::small();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ks: KeySpace = spec.into();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let t = sample_interaction(&mut rng);
        let plan = generate_plan(t, &mut ks, &mut rng);
        out.extend(
            plan.sql
                .into_ops()
                .into_iter()
                .filter(|op| op.statement.is_write())
                .map(|op| op.statement),
        );
    }
    out.truncate(n);
    out
}

/// The replicated write path in isolation: the delta stack executes each
/// write once on the primary, logs the captured delta (string rendering
/// deferred), and applies the physical delta to the other four mirrors;
/// the naive stack renders the log string eagerly and re-evaluates the
/// statement on all five. Each iteration rebuilds the whole mirror from
/// the same pristine base (an O(#tables) copy-on-write clone), so every
/// sample runs the identical workload against the identical state —
/// without the reset, tables grow with every iteration and the best
/// sample would mostly reflect how much state had accumulated by the
/// time it ran.
fn bench_replication(r: &mut Runner) {
    let rubis = rubis_schema();
    let spec = DatasetSpec::small();
    let mut rng = SimRng::seed_from_u64(0x2B1D);
    let dump = dataset_statements(spec, &mut rng);
    let writes = rubis_write_mix(REPL_MIX_WRITES, 0x5EED);
    {
        let pristine = loaded_interned(&rubis, &dump);
        let schema = Arc::clone(&rubis);
        let writes = writes.clone();
        r.bench(
            &format!("replication/delta/broadcast_write_{REPL_MIX_WRITES}x{REPL_REPLICAS}"),
            move || {
                let mut primary = pristine.clone();
                let mut replicas: Vec<Database> =
                    (1..REPL_REPLICAS).map(|_| pristine.clone()).collect();
                let mut log = RecoveryLog::new(Arc::clone(&schema));
                let mut acc = 0u64;
                for s in &writes {
                    let delta = match primary.execute_capture(s) {
                        Ok((summary, delta)) => {
                            acc = acc.wrapping_add(summary.cardinality());
                            delta
                        }
                        // Failed on the primary, so on every replica too:
                        // a no-effect entry.
                        Err(_) => WriteDelta::Noop,
                    };
                    for db in &mut replicas {
                        let _ = db.apply_delta(&delta);
                    }
                    log.append(delta);
                }
                acc.wrapping_add(log.head())
            },
        );
    }
    {
        let pristine = loaded_interned(&rubis, &dump);
        let schema = Arc::clone(&rubis);
        let writes = writes.clone();
        r.bench(
            &format!("replication/naive/broadcast_write_{REPL_MIX_WRITES}x{REPL_REPLICAS}"),
            move || {
                let mut naive =
                    NaiveReplication::new(Arc::clone(&schema), &pristine, REPL_REPLICAS);
                let mut acc = 0u64;
                for s in &writes {
                    acc = acc.wrapping_add(naive.execute_write(s));
                }
                acc.wrapping_add(naive.head())
            },
        );
    }

    // Late joiner: a fresh replica must catch up on a 100k-write log.
    // The delta stack restores the nearest checkpoint snapshot (O(#tables)
    // `Arc` clones) and applies only the delta tail past it; the naive
    // stack re-executes the whole statement history.
    let sync_writes = rubis_write_mix(REPL_SYNC_WRITES, 0xCA7C);
    {
        let base = loaded_interned(&rubis, &dump);
        let mut primary = base.clone();
        let mut log = RecoveryLog::new(Arc::clone(&rubis));
        for s in &sync_writes {
            let delta = primary
                .execute_capture(s)
                .map_or(WriteDelta::Noop, |(_, d)| d);
            log.append(delta);
            if log.snapshot_due() {
                log.install_snapshot(primary.snapshot());
            }
        }
        r.bench(
            &format!("replication/delta/replica_sync_{REPL_SYNC_WRITES}"),
            move || {
                let plan = log.sync_plan(0);
                let mut joiner = match &plan.snapshot {
                    Some((_, snapshot)) => Database::from_snapshot(snapshot),
                    None => base.clone(),
                };
                for entry in &plan.entries {
                    let _ = joiner.apply_delta(&entry.delta);
                }
                joiner.total_rows()
            },
        );
    }
    {
        let base = loaded_interned(&rubis, &dump);
        let mut naive = NaiveReplication::new(Arc::clone(&rubis), &base, 1);
        for s in &sync_writes {
            naive.execute_write(s);
        }
        r.bench(
            &format!("replication/naive/replica_sync_{REPL_SYNC_WRITES}"),
            move || {
                let joiner = naive.sync_replica(&base, 0);
                joiner.total_rows()
            },
        );
    }
}

// ---------------------------------------------------------------------
// Observation plane: the streamed probe tick vs the map-based baseline.
// ---------------------------------------------------------------------

/// Wide-deployment probe: half the pool in each managed tier.
const SENSOR_NODES: usize = 256;
/// Probe ticks per bench iteration.
const SENSOR_TICKS: u64 = 64;
const SENSOR_PERIOD: SimDuration = SimDuration::from_secs(1);
const SENSOR_APP_WINDOW: SimDuration = SimDuration::from_secs(60);
const SENSOR_DB_WINDOW: SimDuration = SimDuration::from_secs(90);

/// Dense spatial average: direct indexing into the per-node sample array.
fn dense_avg(nodes: &[NodeId], samples: &[f64]) -> f64 {
    if nodes.is_empty() {
        0.0
    } else {
        nodes.iter().map(|&n| samples[n.0 as usize]).sum::<f64>() / nodes.len() as f64
    }
}

/// One observation tick over a 256-node pool, streamed vs naive. Each
/// tick samples every node's CPU, refreshes both tier node lists,
/// computes the three spatial averages, feeds the two moving-average
/// sensors, appends to the all-nodes series, reads a 60 s window mean
/// back from it, and stamps every node's heartbeat.
///
/// The streamed side runs the shapes the probe path now uses: a recycled
/// dense sample array indexed by node id, pre-sized sensor rings, a
/// ring-retained series with a cursor-cached window reader, and a dense
/// heartbeat table. The naive side runs the shapes it replaced: fresh
/// node-id `Vec`s and a fresh `BTreeMap` of samples per tick, `VecDeque`
/// moving averages, a keep-all series scanned from scratch for every
/// window read, and a `BTreeMap` heartbeat store.
fn bench_sensor(r: &mut Runner) {
    {
        let mut cm = ClusterManager::homogeneous(SENSOR_NODES, NodeSpec::default(), 64);
        let mut samples: Vec<f64> = Vec::new();
        let mut app_nodes: Vec<NodeId> = Vec::new();
        let mut db_nodes: Vec<NodeId> = Vec::new();
        let mut ma_app = MovingAverage::with_period(SENSOR_APP_WINDOW, SENSOR_PERIOD);
        let mut ma_db = MovingAverage::with_period(SENSOR_DB_WINDOW, SENSOR_PERIOD);
        let mut ts_all = TimeSeries::with_retention(Retention::Ring(256));
        let mut cursor = SeriesCursor::new();
        let mut heartbeat: Vec<Option<SimTime>> = vec![None; SENSOR_NODES];
        let mut now = SimTime::ZERO;
        r.bench(
            &format!("sensor/probe_tick_{SENSOR_NODES}_nodes"),
            move || {
                let mut acc = 0.0f64;
                for _ in 0..SENSOR_TICKS {
                    now += SENSOR_PERIOD;
                    cm.sample_cpus_into(now, &mut samples);
                    app_nodes.clear();
                    app_nodes.extend((0..SENSOR_NODES as u32 / 2).map(NodeId));
                    db_nodes.clear();
                    db_nodes.extend((SENSOR_NODES as u32 / 2..SENSOR_NODES as u32).map(NodeId));
                    let app_avg = dense_avg(&app_nodes, &samples);
                    let db_avg = dense_avg(&db_nodes, &samples);
                    let all_avg = samples.iter().sum::<f64>() / samples.len() as f64;
                    ma_app.record(now, app_avg.clamp(0.0, 1.0));
                    ma_db.record(now, db_avg.clamp(0.0, 1.0));
                    ts_all.record(now, all_avg);
                    for hb in heartbeat.iter_mut() {
                        *hb = Some(now);
                    }
                    let from = SimTime::from_micros(
                        now.as_micros()
                            .saturating_sub(SENSOR_APP_WINDOW.as_micros()),
                    );
                    acc += ts_all
                        .time_weighted_mean_cached(&mut cursor, from, now)
                        .unwrap_or(0.0);
                    acc += ma_app.value().unwrap_or(0.0) + ma_db.value().unwrap_or(0.0);
                }
                black_box(heartbeat.last().copied());
                acc.to_bits()
            },
        );
    }
    {
        let mut cpus: Vec<NaivePsCpu> = (0..SENSOR_NODES)
            .map(|_| NaivePsCpu::new(1.0, EfficiencyCurve::Ideal))
            .collect();
        let mut obs = NaiveObservation::new(SENSOR_APP_WINDOW, SENSOR_DB_WINDOW);
        let mut now = SimTime::ZERO;
        r.bench(
            &format!("sensor/naive/probe_tick_{SENSOR_NODES}_nodes"),
            move || {
                let mut acc = 0.0f64;
                for _ in 0..SENSOR_TICKS {
                    now += SENSOR_PERIOD;
                    let app_nodes: Vec<usize> = (0..SENSOR_NODES / 2).collect();
                    let db_nodes: Vec<usize> = (SENSOR_NODES / 2..SENSOR_NODES).collect();
                    let all_nodes: Vec<usize> = (0..SENSOR_NODES).collect();
                    let mut samples = std::collections::BTreeMap::new();
                    for &n in &all_nodes {
                        samples.insert(n, cpus[n].sample_utilization(now));
                    }
                    let app_avg = NaiveObservation::spatial_avg(&samples, &app_nodes);
                    let db_avg = NaiveObservation::spatial_avg(&samples, &db_nodes);
                    let all_avg = NaiveObservation::spatial_avg(&samples, &all_nodes);
                    obs.observe(now, app_avg, db_avg, all_avg);
                    for &n in &all_nodes {
                        obs.heartbeat.insert(n, now);
                    }
                    let from = SimTime::from_micros(
                        now.as_micros()
                            .saturating_sub(SENSOR_APP_WINDOW.as_micros()),
                    );
                    acc += naive_time_weighted_mean(&obs.cpu_all, from, now).unwrap_or(0.0);
                    acc += obs.app_sensor.value().unwrap_or(0.0)
                        + obs.db_sensor.value().unwrap_or(0.0);
                }
                black_box(obs.heartbeat.len());
                acc.to_bits()
            },
        );
    }
}

// ---------------------------------------------------------------------
// End-to-end: the slab-backed request lifecycle vs the naive stack.
// ---------------------------------------------------------------------

/// Fig. 5's peak client population.
const E2E_FIG5_CLIENTS: u32 = 500;
const E2E_FIG5_HORIZON: SimDuration = SimDuration::from_secs(30);
/// An order of magnitude beyond the paper's scale.
const E2E_5K_CLIENTS: u32 = 5_000;
const E2E_5K_HORIZON: SimDuration = SimDuration::from_secs(10);
/// The `fig5_1m` scenario's peak, pinned constant for the bench.
const E2E_1M_CLIENTS: u32 = 1_000_000;
const E2E_1M_HORIZON: SimDuration = SimDuration::from_secs(5);
/// Probe-heavy scenario: 4x the paper's probe rate.
const E2E_PROBE_PERIOD: SimDuration = SimDuration::from_millis(250);

fn e2e_cfg(clients: u32) -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(clients);
    cfg.seed = 0xE2E;
    cfg
}

/// The million-client scenario at its peak: `fig5_1m`'s hardware and
/// think time with the ramp pinned at a constant million clients on the
/// peak deployment (four replicas per managed tier), so every benchmark
/// second runs at full aggregate-pool pressure.
/// Observation-dominated variant of the Fig. 5 scenario: the paper's
/// managed system at its peak deployment (four replicas per managed
/// tier, twelve nodes so the probe sweeps unallocated machines too)
/// with the probe period cut from 1 s to 250 ms, so measure ticks —
/// spatial CPU averaging, sensor updates, series appends, heartbeats —
/// dominate the event mix.
fn e2e_probe_heavy_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_managed();
    cfg.ramp = WorkloadRamp::constant(E2E_FIG5_CLIENTS);
    cfg.jade.probe_period = E2E_PROBE_PERIOD;
    cfg.description.application.replicas = 4;
    cfg.description.database.replicas = 4;
    cfg.nodes = 12;
    cfg.seed = 0xE2E;
    cfg
}

fn e2e_1m_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::million_clients();
    cfg.ramp = WorkloadRamp::constant(E2E_1M_CLIENTS);
    cfg.description.application.replicas = 4;
    cfg.description.database.replicas = 4;
    cfg.seed = 0xE2E;
    cfg
}

/// Wall-clock to simulate one scenario (bootstrap included), full system
/// vs the `NaiveLifecycle` pre-optimization stack at the same client
/// count and horizon. The real system simulates strictly more (the web
/// of management loops, probes, and metrics on top of the request path),
/// so the reported speedups understate the lifecycle win.
fn bench_e2e(r: &mut Runner) {
    for (tag, clients, horizon) in [
        ("fig5_500_clients", E2E_FIG5_CLIENTS, E2E_FIG5_HORIZON),
        ("5k_clients", E2E_5K_CLIENTS, E2E_5K_HORIZON),
    ] {
        r.bench(&format!("e2e/system/{tag}"), move || {
            let out = run_experiment(e2e_cfg(clients), horizon);
            (out.events, out.metrics.counter("requests.completed"))
        });
        r.bench(&format!("e2e/naive/{tag}"), move || {
            NaiveLifecycle::new(clients, 0xE2E).run(horizon)
        });
    }

    // Probe-heavy: same client population as fig5, but with the probe
    // period cut to 250 ms on a wide (4+4 replica, 12 node) deployment.
    // The naive side replays the same probe cadence through the
    // `NaiveObservation` stack (fresh node lists and a `BTreeMap` of
    // samples per tick, `VecDeque` sensors, from-scratch window scans).
    {
        let cfg = e2e_probe_heavy_cfg();
        let think = cfg.think_time;
        r.bench("e2e/system/probe_heavy", move || {
            let out = run_experiment(e2e_probe_heavy_cfg(), E2E_FIG5_HORIZON);
            (out.events, out.metrics.counter("requests.completed"))
        });
        r.bench("e2e/naive/probe_heavy", move || {
            NaiveLifecycle::at_scale(E2E_FIG5_CLIENTS, 0xE2E, think, 1.0, 4, 4)
                .run_with_probes(E2E_FIG5_HORIZON, E2E_PROBE_PERIOD)
        });
    }

    // A million clients: the real system runs them as an aggregate pool
    // ticking over the timer wheel; the naive stack materializes a
    // million emulated clients with one pending think timer each in the
    // `NaiveTimers` heap, and pays `log(1M)` per timer on top of the
    // per-client setup. Same hardware scale on both sides (`fig5_1m`'s
    // speed-20 nodes, four replicas per managed tier, 650 s think time).
    {
        let cfg = e2e_1m_cfg();
        let think = cfg.think_time;
        let speed = cfg.node_spec.cpu_speed;
        r.bench("e2e/system/fig5_1m", move || {
            let out = run_experiment(e2e_1m_cfg(), E2E_1M_HORIZON);
            (out.events, out.metrics.counter("requests.completed"))
        });
        r.bench("e2e/naive/fig5_1m", move || {
            NaiveLifecycle::at_scale(E2E_1M_CLIENTS, 0xE2E, think, speed, 4, 4).run(E2E_1M_HORIZON)
        });
    }
}

/// A ping-pong app measuring raw engine dispatch throughput.
struct PingPong {
    remaining: u64,
}
impl App for PingPong {
    type Msg = ();
    fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _dst: Addr, _msg: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_after(SimDuration::from_micros(1), Addr::ROOT, ());
        }
    }
}

fn bench_engine(r: &mut Runner) {
    r.bench("engine/dispatch_100k_events", || {
        let mut eng = Engine::new(PingPong { remaining: 100_000 }, 1);
        eng.schedule(SimTime::ZERO, Addr::ROOT, ());
        eng.run_until(SimTime::MAX);
        eng.events_processed()
    });
}

fn main() {
    let mut r = Runner::new();
    bench_queues(&mut r);
    bench_ps_cpu(&mut r);
    bench_db(&mut r);
    bench_db_compiled(&mut r);
    bench_replication(&mut r);
    bench_sensor(&mut r);
    bench_e2e(&mut r);
    bench_engine(&mut r);

    let ratio = |fast: &str, slow: &str| -> f64 {
        let fast_ns = r.get(fast).map_or(f64::NAN, |c| c.best_ns);
        let slow_ns = r.get(slow).map_or(f64::NAN, |c| c.best_ns);
        slow_ns / fast_ns
    };
    let push_pop = ratio(
        &format!("event_queue/slab/push_pop_{PUSH_POP_N}"),
        &format!("event_queue/naive/push_pop_{PUSH_POP_N}"),
    );
    let cancel = ratio(
        &format!("event_queue/slab/cancel_heavy_{CANCEL_N}"),
        &format!("event_queue/naive/cancel_heavy_{CANCEL_N}"),
    );
    let churn = ratio(
        &format!("event_queue/slab/churn_{CHURN_OPS}"),
        &format!("event_queue/naive/churn_{CHURN_OPS}"),
    );
    let ps_128 = ratio("ps_cpu/submit_drain_128", "ps_cpu/naive/submit_drain_128");
    let ps_512 = ratio("ps_cpu/submit_drain_512", "ps_cpu/naive/submit_drain_512");
    let ps_2048 = ratio("ps_cpu/submit_drain_2048", "ps_cpu/naive/submit_drain_2048");
    let ps_thrash = ratio("ps_cpu/thrashing_512", "ps_cpu/naive/thrashing_512");
    let db_hot = ratio(
        &format!("db/select_by_key_hot_{DB_HOT_SELECTS}"),
        &format!("db/naive/select_by_key_hot_{DB_HOT_SELECTS}"),
    );
    let db_where = ratio(
        &format!("db/select_where_{DB_ROWS}"),
        &format!("db/naive/select_where_{DB_ROWS}"),
    );
    let db_mix = ratio(
        &format!("db/rubis_mix_{DB_MIX_INTERACTIONS}"),
        &format!("db/naive/rubis_mix_{DB_MIX_INTERACTIONS}"),
    );
    let db_compiled = ratio(
        &format!("db/compiled/gen_exec_mix_{DB_COMPILED_INTERACTIONS}"),
        &format!("db/interpreted/gen_exec_mix_{DB_COMPILED_INTERACTIONS}"),
    );
    let repl_bcast = ratio(
        &format!("replication/delta/broadcast_write_{REPL_MIX_WRITES}x{REPL_REPLICAS}"),
        &format!("replication/naive/broadcast_write_{REPL_MIX_WRITES}x{REPL_REPLICAS}"),
    );
    let repl_sync = ratio(
        &format!("replication/delta/replica_sync_{REPL_SYNC_WRITES}"),
        &format!("replication/naive/replica_sync_{REPL_SYNC_WRITES}"),
    );
    let sensor_probe = ratio(
        &format!("sensor/probe_tick_{SENSOR_NODES}_nodes"),
        &format!("sensor/naive/probe_tick_{SENSOR_NODES}_nodes"),
    );
    let e2e_fig5 = ratio("e2e/system/fig5_500_clients", "e2e/naive/fig5_500_clients");
    let e2e_5k = ratio("e2e/system/5k_clients", "e2e/naive/5k_clients");
    let e2e_1m = ratio("e2e/system/fig5_1m", "e2e/naive/fig5_1m");
    let e2e_probe = ratio("e2e/system/probe_heavy", "e2e/naive/probe_heavy");
    println!("\nslab vs naive BinaryHeap+HashSet queue:");
    println!("  push_pop      {push_pop:.2}x");
    println!("  cancel_heavy  {cancel:.2}x");
    println!("  churn         {churn:.2}x");
    println!("virtual-time vs naive scan PS-CPU:");
    println!("  submit_drain_128   {ps_128:.2}x");
    println!("  submit_drain_512   {ps_512:.2}x");
    println!("  submit_drain_2048  {ps_2048:.2}x");
    println!("  thrashing_512      {ps_thrash:.2}x");
    println!("interned+indexed vs naive name-keyed storage engine:");
    println!("  select_by_key_hot  {db_hot:.2}x");
    println!("  select_where       {db_where:.2}x");
    println!("  rubis_mix          {db_mix:.2}x");
    println!("compiled plans vs interpreted prepared statements:");
    println!("  gen_exec_mix       {db_compiled:.2}x");
    println!("execute-once delta broadcast vs re-execute-everywhere mirror:");
    println!("  broadcast_write ({REPL_REPLICAS} replicas)  {repl_bcast:.2}x");
    println!("  replica_sync (late joiner)   {repl_sync:.2}x");
    println!("streamed vs map-based observation plane:");
    println!("  probe_tick_{SENSOR_NODES}_nodes {sensor_probe:.2}x");
    println!("slab lifecycle vs naive end-to-end stack (same scenario):");
    println!("  fig5_500_clients   {e2e_fig5:.2}x");
    println!("  5k_clients         {e2e_5k:.2}x");
    println!("  probe_heavy (250ms probes) {e2e_probe:.2}x");
    println!("aggregate pool + timer wheel vs per-client NaiveTimers stack:");
    println!("  fig5_1m (1M clients) {e2e_1m:.2}x");
    r.write_json_with(
        "kernel",
        "BENCH_kernel.json",
        &[
            ("speedup_push_pop", push_pop),
            ("speedup_cancel_heavy", cancel),
            ("speedup_churn", churn),
            ("speedup_ps_128", ps_128),
            ("speedup_ps_512", ps_512),
            ("speedup_ps_2048", ps_2048),
            ("speedup_ps_thrashing", ps_thrash),
            ("speedup_db_select_hot", db_hot),
            ("speedup_db_select_where", db_where),
            ("speedup_db_rubis_mix", db_mix),
            ("speedup_db_compiled_mix", db_compiled),
            ("speedup_db_broadcast_write", repl_bcast),
            ("speedup_db_replica_sync", repl_sync),
            ("speedup_e2e_fig5", e2e_fig5),
            ("speedup_e2e_5k_clients", e2e_5k),
            ("speedup_e2e_1m_clients", e2e_1m),
            ("speedup_sensor_probe", sensor_probe),
            ("speedup_e2e_probe_heavy", e2e_probe),
        ],
    );
}
