//! A fixed memory-bound host probe.
//!
//! On a shared host, the time the simulator takes moves with neighbours'
//! memory traffic. The probe chases pointers through a 16 MiB random cycle
//! before every pass, so a record shows when the machine itself slowed.
//! No metric is scaled by it.

use lunule_util::DetRng;
use std::time::Instant;

/// Entries in the cycle (16 MiB of `u32`).
const ENTRIES: usize = 1 << 22;

/// Pointer hops per probe.
const HOPS: usize = 1 << 18;

/// The probe's cycle, built once per process.
pub struct Probe {
    next: Vec<u32>,
}

impl Probe {
    /// Builds a single random cycle over every entry (Sattolo's shuffle)
    /// from a fixed seed, so every process probes the same walk.
    pub fn new() -> Probe {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut rng = DetRng::seed_from_u64(0x5EED_1E55);
        for i in (1..ENTRIES).rev() {
            let j = rng.gen_range(0..i);
            next.swap(i, j);
        }
        Probe { next }
    }

    /// Milliseconds one walk of [`HOPS`] dependent loads takes.
    pub fn run_ms(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0usize;
        for _ in 0..HOPS {
            at = self.next[at] as usize;
        }
        std::hint::black_box(at);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}
