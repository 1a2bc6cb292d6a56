//! A fixed reference workload for measuring how fast the host is running
//! right now.
//!
//! On a shared machine the speed of a core drifts by ±15% over tens of
//! seconds (neighbours' cache and memory traffic, frequency changes), far
//! more than any single run can average away. The kernel below is the
//! benchmark's own code, so no change to the simulator moves it; timing
//! it all through a run, in between the scenario runs, gives the host's
//! speed over that run.
//! Its shape mimics the engine's hot loop: pop the earliest entry of a
//! binary heap of ~4k timestamps, push a successor, and update state at
//! a scattered index in a table a few MiB large.
//!
//! Each run first streams through a scrub buffer, untimed, so that every
//! timed run starts with its table out of the core's private caches, as
//! it is after a scenario run. Run back to back without it, the kernel
//! ran about a quarter faster and tracked the host less well.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Median host seconds of [`RefKernel::run`] on the reference host (Intel Xeon,
/// 2 vCPUs, the machine the committed figures come from). Times are
/// reported as `measured / kernel × REFERENCE_S`: seconds at the
/// reference host's speed.
pub const REFERENCE_S: f64 = 0.026;

/// Heap population (the engine's pending-event scale on `fattree-32`).
const PENDING: u64 = 4096;
/// Table slots (8 B each: 4 MiB).
const TABLE: usize = 1 << 19;
/// Heap operations per call.
const STEPS: u64 = 200_000;
/// Scrub buffer slots (8 B each: 8 MiB, four times a core's L2).
const SCRUB: usize = 1 << 20;

/// The kernel's state, allocated and touched once so that timing it
/// never allocates and its memory stays a fixed part of the process.
pub struct RefKernel {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    scrub: Vec<u64>,
    x: u64,
}

impl RefKernel {
    /// Allocate and touch the state.
    pub fn new() -> Self {
        RefKernel {
            table: vec![1; TABLE],
            heap: BinaryHeap::with_capacity(PENDING as usize),
            scrub: vec![0; SCRUB],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        self.x ^= self.x >> 12;
        self.x ^= self.x << 25;
        self.x ^= self.x >> 27;
        self.x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Run the kernel once; returns host seconds taken.
    pub fn run(&mut self) -> f64 {
        for (i, w) in self.scrub.iter_mut().enumerate() {
            *w = w.wrapping_add(i as u64);
        }
        black_box(&self.scrub);
        let t0 = Instant::now();
        self.heap.clear();
        for i in 0..PENDING {
            let t = self.next() % 10_000;
            self.heap.push(Reverse((t, i)));
        }
        for _ in 0..STEPS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap never drains");
            let r = self.next();
            let slot = (r as usize ^ id as usize) & (TABLE - 1);
            self.table[slot] = self.table[slot].wrapping_add(t ^ r);
            self.heap.push(Reverse((t + 1 + (r >> 52), id)));
        }
        black_box(&self.table);
        t0.elapsed().as_secs_f64()
    }
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}
