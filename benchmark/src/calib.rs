//! How fast the host runs right now, from a fixed reference workload.
//!
//! On a shared host the speed of the same code drifts by tens of
//! percent over minutes as other tenants come and go, and CPU time
//! drifts with wall time, so neither can tell a slower program from a
//! busier host. The benchmark therefore times, after every call into
//! the program, a small workload of its own that never changes: one
//! ALU-bound and one memory-latency-bound kernel, each on
//! [`THREADS`] threads as the program's batches run. Their geometric
//! mean, against [`NOMINAL_S`], is the repetition's slowdown, and
//! end-to-end times are divided by it.

use crate::trace::{now, secs_since};
use crate::workloads::THREADS;
use std::sync::OnceLock;

/// The reference workload's seconds on an otherwise idle 2-core Intel
/// Xeon (Sapphire Rapids) host: the speed end-to-end times are
/// reported at.
pub const NOMINAL_S: f64 = 0.004;

/// The gather kernel's table: 16 MiB, larger than a core's L2 and about
/// the size of the paper world's dense store.
const WORDS: usize = 4 << 20;
const GATHER_STEPS: usize = 1 << 15;
const COMPUTE_STEPS: usize = 1 << 20;

fn table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..WORDS as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % WORDS as u32)
            .collect()
    })
}

/// Xorshift steps: ALU-bound, no memory traffic.
fn compute(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..COMPUTE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// A dependent random walk through the table: one cache miss per step.
fn gather(table: &[u32], seed: usize) -> u64 {
    let mut i = seed % WORDS;
    let mut acc = 0u64;
    for _ in 0..GATHER_STEPS {
        i = table[i] as usize ^ (acc as usize & 7);
        acc = acc.wrapping_add(i as u64);
    }
    acc
}

/// Seconds for `f` to run once on each of [`THREADS`] threads.
fn on_threads(f: impl Fn(usize) -> u64 + Sync) -> f64 {
    let f = &f;
    let t = now();
    let sum = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS).map(|k| s.spawn(move || f(k))).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference kernel"))
            .fold(0, u64::wrapping_add)
    });
    std::hint::black_box(sum);
    secs_since(t)
}

/// Seconds of the reference workload right now: the geometric mean of
/// the compute and the gather kernel's times.
pub fn reference_s() -> f64 {
    let table = table();
    let c = on_threads(|k| compute(k as u64 + 1));
    let g = on_threads(|k| gather(table, k * 977));
    (c * g).sqrt()
}
