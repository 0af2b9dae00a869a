//! Self-tests of the host-speed reference: its slices leave no trace in
//! the allocation counters, and the nominal time scales with them.

use perfbench::alloc;
use perfbench::reference::{Paced, Reference, NOMINAL_SLICE_S};

#[test]
fn slices_leave_the_allocation_counters_alone() {
    let mut reference = Reference::new();
    alloc::reset_peak();
    let before = (
        alloc::allocations(),
        alloc::live_bytes(),
        alloc::peak_bytes(),
    );
    let mut paced = Paced::default();
    for _ in 0..10 {
        paced.time(&mut reference, || ());
    }
    let after = (
        alloc::allocations(),
        alloc::live_bytes(),
        alloc::peak_bytes(),
    );
    assert_eq!(before, after);
}

#[test]
fn nominal_time_is_wall_time_over_the_factor() {
    let mut reference = Reference::new();
    let mut paced = Paced::default();
    for _ in 0..20 {
        paced.time(&mut reference, || {
            std::hint::black_box((0..20_000u64).sum::<u64>());
        });
    }
    assert_eq!(paced.slices, 20);
    assert!(paced.slices_s > 0.0 && paced.work_s > 0.0);
    // Each piece is scaled by its own slice, so the total matches the
    // mean factor only up to how much the slices varied.
    let scaled = paced.work_s / paced.factor();
    assert!(
        (paced.nominal_s / scaled - 1.0).abs() < 0.5,
        "nominal {} s against {} s at the mean factor",
        paced.nominal_s,
        scaled
    );
    assert!(paced.factor() > 0.0 && NOMINAL_SLICE_S > 0.0);
}
