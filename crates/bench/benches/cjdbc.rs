//! Micro-benchmarks of the C-JDBC substrate: read-scheduling policies,
//! write broadcast, and recovery-log replay scaling (the state
//! reconciliation cost that dominates how long a new database backend
//! takes to join — paper §4.1).

use jade_bench::microbench::{black_box, Runner};
use jade_sim::SimRng;
use jade_tiers::cjdbc::{CjdbcController, ReadPolicy};
use jade_tiers::sql::{Schema, Statement, Value};
use jade_tiers::storage::{Database, WriteDelta};
use jade_tiers::ServerId;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder().table("t", &["a"]).build()
}

fn controller(n: u32, policy: ReadPolicy) -> CjdbcController {
    let mut c = CjdbcController::new(policy, schema());
    for i in 0..n {
        let id = ServerId(i);
        c.register_backend(id);
        c.begin_enable(id).unwrap();
        c.finish_replay(id).unwrap();
    }
    c
}

fn write_stmt(i: i64) -> Statement {
    schema().insert("t", &[("a", Value::Int(i))])
}

/// An insert delta as a primary captures it (the broadcast bench measures
/// routing and logging, not execution).
fn write_delta(i: i64) -> WriteDelta {
    WriteDelta::Insert {
        table: schema().must_table("t"),
        key: i as u64,
        row: Arc::new(vec![Value::Int(i)]),
    }
}

fn bench_read_policies(r: &mut Runner) {
    for policy in [
        ReadPolicy::RoundRobin,
        ReadPolicy::Random,
        ReadPolicy::LeastPending,
    ] {
        let mut ctrl = controller(3, policy);
        let mut rng = SimRng::seed_from_u64(7);
        r.bench(&format!("cjdbc_read_routing/route_1k_{policy:?}"), || {
            let mut last = ServerId(0);
            for _ in 0..1_000 {
                let picked = ctrl.route_read(&mut rng).unwrap();
                ctrl.note_complete(picked);
                last = picked;
            }
            last
        });
    }
}

fn bench_write_broadcast(r: &mut Runner) {
    for backends in [1u32, 3] {
        r.bench(
            &format!("cjdbc_write_broadcast/broadcast_100_{backends}"),
            || {
                let mut ctrl = controller(backends, ReadPolicy::RoundRobin);
                let mut targets = Vec::new();
                for i in 0..100 {
                    ctrl.route_write_into(write_delta(i), &mut targets).unwrap();
                    for &t in &targets {
                        ctrl.note_complete(t);
                    }
                }
                black_box(ctrl.recovery_log().head());
            },
        );
    }
}

fn bench_recovery_replay(r: &mut Runner) {
    // Each iteration builds the backlog on a primary (execute + capture)
    // and replays it into a joining backend; the build is part of the
    // measured time (batch extraction plus delta application).
    for backlog in [100usize, 1_000, 10_000] {
        r.bench(&format!("recovery_log_replay/join_after_{backlog}"), || {
            let mut ctrl = controller(1, ReadPolicy::RoundRobin);
            let mut primary = Database::new(schema());
            let mut targets = Vec::new();
            let create = schema().create_table("t");
            for stmt in std::iter::once(create).chain((0..backlog).map(|i| write_stmt(i as i64))) {
                let (_, delta) = primary.execute_capture(&stmt).unwrap();
                ctrl.route_write_into(delta, &mut targets).unwrap();
            }
            ctrl.register_backend(ServerId(9));
            let mut db = Database::new(schema());
            let plan = ctrl.begin_enable(ServerId(9)).unwrap();
            for entry in &plan.entries {
                let _ = db.apply_delta(&entry.delta);
            }
            assert!(ctrl.finish_replay(ServerId(9)).unwrap().is_none());
            db.total_rows()
        });
    }
}

fn main() {
    let mut r = Runner::new();
    bench_read_policies(&mut r);
    bench_write_broadcast(&mut r);
    bench_recovery_replay(&mut r);
    r.write_json("cjdbc", "results/BENCH_cjdbc.json");
}
