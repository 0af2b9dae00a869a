//! Exact allocation gate for the C-JDBC dispatch path.
//!
//! A std-only counting global allocator counts allocations (and
//! reallocations) per thread, so tests running in parallel do not see
//! each other's counts and every number below repeats exactly. The
//! fixture is a `LegacyLayer` with a C-JDBC controller over three Active
//! MySQL replicas, driven with compiled plan steps exactly as the request
//! dispatcher drives it.
//!
//! * A read routes over the backend map in place and runs as a count-only
//!   probe: 0 allocations, under every read policy.
//! * A write allocates only its new row data: the primary captures a
//!   `WriteDelta` whose row image every replica and the recovery log share
//!   by reference. No statement, no per-write column list, no delta `Arc`.

use jade_cluster::{ClusterManager, Network, NodeSpec, SoftwareInstallationService};
use jade_cluster::{NodeId, SoftwareRepository};
use jade_sim::{SimDuration, SimRng};
use jade_tiers::sql::{Schema, Value};
use jade_tiers::{DbQuery, LegacyEvent, LegacyLayer, Operand, PlanStep, ReadPolicy, ServerId};
use jade_tiers::{SqlOp, StepOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // Const-initialised with no destructor: never allocates, and
    // `try_with` tolerates thread teardown.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping touches only a thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` reallocates: it counts as one allocation.
        bump();
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// `items(name, seller, price)` with a secondary index on `seller`: one
/// text column, so a row image is exactly three allocations (the `Arc`,
/// its `Vec<Value>` and the name's `String`).
fn schema() -> Arc<Schema> {
    Schema::builder()
        .table("items", &["name", "seller", "price"])
        .index("items", "seller")
        .build()
}

fn step(op: StepOp) -> PlanStep {
    PlanStep {
        op,
        demand: SimDuration::from_millis(1),
    }
}

fn query<'a>(step: &'a PlanStep, params: &'a [Value]) -> DbQuery<'a> {
    DbQuery::Step {
        step,
        params,
        demand: step.demand,
    }
}

struct Fixture {
    layer: LegacyLayer,
    cjdbc: ServerId,
    backends: Vec<ServerId>,
    insert: PlanStep,
    update: PlanStep,
    reads: [PlanStep; 3],
    targets: Vec<ServerId>,
}

impl Fixture {
    /// C-JDBC over three Active MySQL replicas, `items` created through
    /// the write path.
    fn new() -> Self {
        let schema = schema();
        let cluster = ClusterManager::homogeneous(8, NodeSpec::default(), 128);
        let sis = SoftwareInstallationService::new(SoftwareRepository::j2ee_catalogue());
        let mut l = LegacyLayer::new(cluster, Network::lan_100mbps(), sis);
        l.set_mysql_dump(Arc::clone(&schema), &[]);
        let boot = |l: &mut LegacyLayer, pkg: &str| -> NodeId {
            let node = l.cluster.allocate().unwrap();
            l.sis.install(&mut l.cluster, node, pkg).unwrap();
            node
        };
        let node = boot(&mut l, "cjdbc");
        let cjdbc = l.create_cjdbc("C-JDBC", node, ReadPolicy::RoundRobin);
        l.start_server(cjdbc).unwrap();
        l.finish_boot(cjdbc).unwrap();
        let mut backends = Vec::new();
        for i in 0..3 {
            let node = boot(&mut l, "mysql");
            let m = l.create_mysql(&format!("MySQL{i}"), node);
            l.start_server(m).unwrap();
            l.finish_boot(m).unwrap();
            l.cjdbc_register_backend(cjdbc, m).unwrap();
            l.cjdbc_enable_backend(cjdbc, m).unwrap();
            // Deliver replay batches until the outbox runs dry (the
            // backend is then Active).
            loop {
                let events = l.drain_outbox();
                if events.is_empty() {
                    break;
                }
                for (_, e) in events {
                    if let LegacyEvent::ReplayBatchDone { cjdbc, backend } = e {
                        l.cjdbc_replay_batch_done(cjdbc, backend).unwrap();
                    }
                }
            }
            backends.push(m);
        }
        let mut targets = Vec::new();
        let create = SqlOp::new(schema.create_table("items"), SimDuration::ZERO);
        l.cjdbc_execute_write_into(cjdbc, DbQuery::Stmt(&create), &mut targets)
            .unwrap();
        assert_eq!(targets.len(), 3, "three Active replicas");
        let t = schema.must_table("items");
        let seller = schema.must_col("items", "seller");
        let price = schema.must_col("items", "price");
        Fixture {
            layer: l,
            cjdbc,
            backends,
            insert: step(StepOp::Insert {
                table: t,
                row: vec![Operand::Param(0), Operand::Param(1), Operand::Param(2)],
            }),
            update: step(StepOp::Update {
                table: t,
                key: Operand::Param(0),
                set: vec![(price, Operand::Param(1))],
            }),
            reads: [
                step(StepOp::ReadKey {
                    table: t,
                    key: Operand::Param(0),
                }),
                step(StepOp::Scan {
                    table: t,
                    column: seller,
                    value: Operand::Param(1),
                    limit: 10,
                }),
                step(StepOp::Count { table: t }),
            ],
            targets,
        }
    }

    /// Broadcasts the insert step; the parameter buffer is the caller's
    /// (a request's recycled buffer on the dispatch path).
    fn insert(&mut self, params: &[Value]) {
        self.layer
            .cjdbc_execute_write_into(self.cjdbc, query(&self.insert, params), &mut self.targets)
            .unwrap();
    }

    fn update(&mut self, params: &[Value]) {
        self.layer
            .cjdbc_execute_write_into(self.cjdbc, query(&self.update, params), &mut self.targets)
            .unwrap();
    }

    fn digests(&self) -> Vec<u64> {
        let l = &self.layer;
        self.backends
            .iter()
            .map(|&b| l.mysql(b).unwrap().digest())
            .collect()
    }
}

#[test]
fn reads_allocate_nothing_under_every_policy() {
    let mut f = Fixture::new();
    for i in 0..4 {
        f.insert(&[Value::from("item"), Value::Int(7), Value::Int(i)]);
    }
    let params = [Value::Int(2), Value::Int(7)];
    let mut rng = SimRng::seed_from_u64(3);
    for policy in [
        ReadPolicy::RoundRobin,
        ReadPolicy::Random,
        ReadPolicy::LeastPending,
    ] {
        f.layer.cjdbc_mut(f.cjdbc).unwrap().set_policy(policy);
        let mut read = |f: &mut Fixture, i: usize| {
            let (backend, _) = f
                .layer
                .cjdbc_execute_read(f.cjdbc, query(&f.reads[i % 3], &params), &mut rng)
                .unwrap();
            f.layer.cjdbc_note_complete(f.cjdbc, backend);
        };
        // Warm up, then gate.
        for i in 0..30 {
            read(&mut f, i);
        }
        let (allocs, ()) = allocations_of(|| {
            for i in 0..1_000 {
                read(&mut f, i);
            }
        });
        assert_eq!(allocs, 0, "1000 reads under {policy:?} allocated");
    }
}

#[test]
fn writes_allocate_only_their_row_image() {
    let mut f = Fixture::new();
    // Warm-up: every replica's `items` table, seller-7 posting list and
    // the broadcast buffer exist, and the log holds 6 entries (create +
    // 5 inserts), so its `Vec` (capacity 8) does not grow for the two
    // gated writes. The row chunk (256 slots) and posting list (capacity
    // 8, length 5) have room too, and no checkpoint snapshot is due.
    for i in 0..5 {
        f.insert(&[Value::from("warm"), Value::Int(7), Value::Int(i)]);
    }
    let head = |f: &Fixture| f.layer.cjdbc(f.cjdbc).unwrap().recovery_log().head();
    assert_eq!(head(&f), 6);

    // Insert: the primary materializes the row image once — the `Arc`,
    // its `Vec<Value>` and the `name` string. The log entry and the two
    // other replicas share that image by reference.
    let params = [Value::from("new"), Value::Int(7), Value::Int(99)];
    let (allocs, ()) = allocations_of(|| f.insert(&params));
    assert_eq!(allocs, 3, "insert: Arc + Vec<Value> + name String");

    // Update of an unindexed column: the row being updated is shared by
    // the three replicas and the log, so the primary copies it on write —
    // again exactly one row image (`Arc`, `Vec<Value>`, `name` string).
    // The replicas install that image by reference.
    let params = [Value::Int(5), Value::Int(100)];
    let (allocs, ()) = allocations_of(|| f.update(&params));
    assert_eq!(allocs, 3, "update: copy-on-write row image");

    assert_eq!(head(&f), 8);
    let d = f.digests();
    assert!(d.windows(2).all(|w| w[0] == w[1]), "replicas diverged");
}
