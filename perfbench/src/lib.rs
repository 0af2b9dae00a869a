//! End-to-end and per-layer benchmark of the simulated managed J2EE
//! system.
//!
//! The benchmark drives the simulator only through its public API. Plain
//! runs of `Engine<J2eeApp>` give the end-to-end metrics; a separate run
//! through [`ledger::Traced`] gives per-layer time and allocations keyed
//! by `Msg` kind. `src/main.rs` is the command; `layers.json` records
//! which end-to-end metric each layer metric should move.

// The benchmark times the host: the determinism contract's ban on
// wall-clock reads (clippy.toml) covers simulation code, not this.
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod ledger;
pub mod reference;
pub mod workload;
