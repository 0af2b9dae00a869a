//! The host-speed reference that host timings are normalised by.
//!
//! On a shared machine the speed of the memory system moves with the
//! load of other tenants. On a 2-vCPU Xeon guest (2.1 GHz, 2 MB L2 per
//! core) the same simulator run took 0.38 s one minute and 0.53 s the
//! next. On-CPU time tracked wall time to 1%, so the process was slowed,
//! not descheduled; a register-only loop kept its pace to 1.4% while a
//! pointer chase through 32 MB varied by 24%.
//!
//! So work is timed in pieces of a few milliseconds, each right after a
//! [`Reference::slice`] of a fixed memory-bound workload (std code only),
//! and each piece's wall time is scaled by [`NOMINAL_SLICE_S`] over the
//! time of the slice before it: the piece's time at nominal host speed.
//! Over six invocations of `paper_ramp` that cut the spread of the run
//! time (interquartile range over median) from 14% to under 2%.

use crate::alloc;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Keys of the reference hash map: 2^17, a table larger than a core's L2.
const MAP_KEYS: u64 = 1 << 17;
/// Hash map reads and writes per slice.
const MAP_OPS: u64 = 1000;
/// Allocating B-tree inserts per slice.
const TREE_OPS: u64 = 400;

/// Nominal wall time of a slice's timed pass, s: about its median on the
/// guest described above. At this slice time [`Paced::factor`] reads 1
/// and a piece's nominal time is its wall time.
pub const NOMINAL_SLICE_S: f64 = 200e-6;

/// The reference workload's state: a hash map filled once, and a
/// xorshift stream of keys.
pub struct Reference {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    x: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Fills the map. Every later write overwrites a key, so slices do
    /// not allocate for it.
    pub fn new() -> Reference {
        let mut map = HashMap::with_capacity_and_hasher(MAP_KEYS as usize, Default::default());
        map.extend((0..MAP_KEYS).map(|k| (k, k)));
        Reference {
            map,
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// One pass of the reference work: random reads and writes of the
    /// map, then a B-tree of small vectors built and dropped. Its
    /// allocations are not counted.
    fn pass(&mut self) {
        alloc::uncounted(|| {
            let mut acc = 0u64;
            for _ in 0..MAP_OPS {
                let k = self.next() % MAP_KEYS;
                acc = acc.wrapping_add(self.map[&k]);
                self.map.insert(k ^ 1, acc);
            }
            let mut tree = BTreeMap::new();
            for i in 0..TREE_OPS {
                let k = self.next() % 4096;
                tree.insert(k, vec![i; 3]);
                if i % 3 == 0 {
                    tree.remove(&(k.wrapping_mul(7) % 4096));
                }
            }
            black_box((acc, tree.len()));
        });
    }

    /// Runs one slice and returns the wall time of its timed pass, s.
    /// An untimed pass comes first: right after other work, the caches
    /// hold that work's lines, and the first pass pays to evict them, an
    /// amount that depends on the other work rather than on the host.
    pub fn slice(&mut self) -> f64 {
        self.pass();
        let t0 = Instant::now();
        self.pass();
        t0.elapsed().as_secs_f64()
    }
}

/// Work timed in pieces, each right after a reference slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paced {
    /// Wall time of the work, s.
    pub work_s: f64,
    /// The work's time at nominal host speed, s: each piece's wall time
    /// scaled by [`NOMINAL_SLICE_S`] over the slice just before it.
    pub nominal_s: f64,
    /// Wall time of the slices' timed passes, s.
    pub slices_s: f64,
    /// Slices run.
    pub slices: u64,
}

impl Paced {
    /// Runs a reference slice, then `work`, timing each.
    pub fn time<R>(&mut self, reference: &mut Reference, work: impl FnOnce() -> R) -> R {
        let slice_s = reference.slice();
        let t0 = Instant::now();
        let r = work();
        let work_s = t0.elapsed().as_secs_f64();
        self.work_s += work_s;
        self.nominal_s += work_s * NOMINAL_SLICE_S / slice_s;
        self.slices_s += slice_s;
        self.slices += 1;
        r
    }

    /// How much slower than nominal the host ran: mean slice time over
    /// [`NOMINAL_SLICE_S`].
    pub fn factor(&self) -> f64 {
        self.slices_s / self.slices.max(1) as f64 / NOMINAL_SLICE_S
    }
}
