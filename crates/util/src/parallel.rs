//! The workspace's parallel execution engine.
//!
//! The paper's experiments are embarrassingly parallel — thousands of
//! independent queries over a shared read-only latency matrix, repeated
//! across seeds — so the engine is deliberately simple: a scoped thread
//! pool over `std::thread` with dynamic (index-stealing) work
//! assignment, plus the seed-derivation helpers that make parallel runs
//! **bit-for-bit deterministic**.
//!
//! # Determinism contract
//!
//! Every parallel entry point in the workspace promises: *same seed ⇒
//! identical results at any thread count, including 1*. The engine
//! contributes two properties:
//!
//! * [`par_map`] returns results **in item order**, however the items
//!   were scheduled, so reductions run in a fixed order;
//! * [`item_seed`] derives an independent RNG seed per item from
//!   `(seed, tag, index)` alone — never from thread identity or
//!   scheduling — extending [`crate::rng::sub_seed`] to indexed
//!   workloads.
//!
//! Callers keep their side of the contract by (a) seeding each item's
//! RNG with [`item_seed`] and (b) reducing over the ordered output
//! (floating-point addition is not associative, so reduction order must
//! not depend on scheduling).
//!
//! # Thread-count resolution
//!
//! Every library entry point that fans out takes its worker count as
//! an argument and never reads the environment. A binary resolves the
//! count once with [`resolve_threads`]: explicit value (a `--threads`
//! flag) > the `NP_THREADS` environment variable > all available
//! cores. Thread count never affects results, only wall-clock. A
//! count above [`MAX_THREADS`] is an error on the command line and
//! invalid in `NP_THREADS`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Environment variable consulted by [`resolve_threads`] when no
/// explicit thread count is given.
pub const THREADS_ENV: &str = "NP_THREADS";

/// The largest worker count a run may ask for. [`par_map`] starts one
/// OS thread per worker, and a failed spawn panics, so the command
/// line rejects larger `--threads` and `--workers` values and
/// [`resolve_threads`] treats a larger `$NP_THREADS` as invalid.
pub const MAX_THREADS: usize = 1024;

/// Resolve a worker count: `explicit` (e.g. from `--threads`) wins,
/// then an integer from 1 to [`MAX_THREADS`] in `$NP_THREADS`, then all
/// available cores.
/// Always at least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    let env = std::env::var(THREADS_ENV).ok();
    let (n, invalid_env) = resolve_threads_from(explicit, env.as_deref(), available_threads());
    if let Some(v) = invalid_env {
        // A binary may ask more than once (header, run, footer); warn
        // once.
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!("warning: ignoring invalid {THREADS_ENV}={v:?} (want 1 to {MAX_THREADS})");
        });
    }
    n
}

/// The pure precedence rule behind [`resolve_threads`]:
/// `explicit > env > ambient`, result always ≥ 1. Returns the resolved
/// count and, when the env value was present but unusable, that value
/// (so the caller can warn). Split out so the precedence is unit
/// testable without mutating the process environment.
pub fn resolve_threads_from(
    explicit: Option<usize>,
    env: Option<&str>,
    ambient: usize,
) -> (usize, Option<String>) {
    if let Some(n) = explicit {
        return (n.max(1), None);
    }
    if let Some(v) = env {
        match v.trim().parse::<usize>() {
            Ok(n) if (1..=MAX_THREADS).contains(&n) => return (n, None),
            _ => return (ambient.max(1), Some(v.to_string())),
        }
    }
    (ambient.max(1), None)
}

/// The machine's available parallelism (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derive the RNG seed for item `idx` of an indexed workload.
///
/// Extends [`crate::rng::sub_seed`]: the tag separates subsystems, the
/// index separates items. Depends only on the arguments, so any thread
/// may compute any item.
#[inline]
pub fn item_seed(seed: u64, tag: u64, idx: u64) -> u64 {
    crate::rng::sub_seed(
        crate::rng::sub_seed(seed, tag),
        // Distinct stream per index; the multiplier decorrelates
        // consecutive indices before the splitmix avalanche.
        idx.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(1),
    )
}

/// Total busy time accumulated by all parallel regions in this process
/// (nanoseconds). See [`busy_time`].
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Wall time this thread has spent inside *nested* parallel
    /// regions (ns). Keeps busy-time honest under nesting: a sweep
    /// worker blocked on an inner query batch must not bill that span
    /// as its own busy time — the inner region's workers already
    /// account for it, and counting both would inflate the
    /// effective-parallelism figure past the true speedup. Every
    /// region exit credits its wall duration here, and every worker
    /// span records `elapsed - nested` instead of raw `elapsed`.
    static NESTED_WALL_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn record_busy(d: Duration) {
    BUSY_NS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

/// Run `work` as one worker span: record its duration minus the wall
/// time of any parallel regions it entered on this thread.
fn worker_span<R>(work: impl FnOnce() -> R) -> R {
    let nested_before = NESTED_WALL_NS.with(|c| c.get());
    let start = Instant::now();
    let out = work();
    let nested = NESTED_WALL_NS.with(|c| c.get()) - nested_before;
    record_busy(start.elapsed().saturating_sub(Duration::from_nanos(nested)));
    out
}

/// Run `region` as one parallel region: credit its wall duration to
/// the calling thread's nested-time accumulator, so an enclosing
/// [`worker_span`] on this thread excludes it.
fn region_span<R>(region: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = region();
    let wall = start.elapsed().as_nanos() as u64;
    NESTED_WALL_NS.with(|c| c.set(c.get() + wall));
    out
}

/// Sum of worker execution time across all *leaf* [`par_map`] /
/// [`par_for_rows`] regions so far (spans that merely supervised
/// nested regions are excluded — see [`record_busy_leaf`]). The ratio
/// of a busy-time delta to a wall-clock delta is the *effective
/// parallelism* the experiment binaries print in their footers: it is
/// measured, not inferred from the thread count, and equals the true
/// speedup when workers are not oversubscribed on cores.
pub fn busy_time() -> Duration {
    Duration::from_nanos(BUSY_NS.load(Ordering::Relaxed))
}

/// Map `f` over `items` on `threads` workers, returning results in item
/// order.
///
/// Work assignment is dynamic — workers steal the next unclaimed index
/// from a shared atomic counter — so uneven per-item cost balances
/// well. Results are deterministic regardless of assignment because the
/// output vector is ordered by index and `f` receives only
/// `(index, item)`.
///
/// With `threads <= 1` (or one item) this degenerates to a plain serial
/// map on the calling thread — the same code path the determinism tests
/// compare against.
///
/// # Panics
/// Propagates panics from `f` (the whole map panics if any item does).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return region_span(|| worker_span(|| items.iter().enumerate().map(|(i, t)| f(i, t)).collect()));
    }
    region_span(|| {
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        worker_span(|| {
                            let mut local: Vec<(usize, R)> = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= items.len() {
                                    break;
                                }
                                local.push((i, f(i, &items[i])));
                            }
                            local
                        })
                    })
                })
                .collect();
            for handle in handles {
                // Re-raise a worker panic with its original payload
                // (not a synthetic "worker panicked" string), so
                // callers that catch_unwind around a parallel region
                // still see the real message.
                match handle.join() {
                    Ok(rows) => {
                        for (i, r) in rows {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    })
}

/// Run `f(row_index, row_slice)` for every `row_len`-sized row of
/// `data`, on `threads` workers.
///
/// The mutable-slice analogue of [`par_map`] for row-blocked array
/// fills (e.g. latency matrix construction): workers claim row indices
/// off a shared atomic counter and carve disjoint `&mut` row slices
/// out of the raw base pointer. The claim is one `fetch_add` instead
/// of a mutex round-trip over a shared `chunks_mut` iterator, so short
/// rows no longer serialize on the lock.
///
/// Determinism is unaffected: which worker computes a row is racy, but
/// `f(i, row)` writes only to row `i` and every index is claimed
/// exactly once, so the filled buffer is a pure function of `f`.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `row_len`, and
/// propagates worker panics.
pub fn par_for_rows<T, F>(threads: usize, data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert_eq!(data.len() % row_len, 0, "data not a whole number of rows");
    let n_rows = data.len() / row_len;
    let threads = threads.clamp(1, n_rows);
    if threads == 1 {
        region_span(|| {
            worker_span(|| {
                for (i, row) in data.chunks_mut(row_len).enumerate() {
                    f(i, row);
                }
            })
        });
        return;
    }

    /// Raw base pointer of the row buffer, shared by reference across
    /// the scoped workers.
    struct RowBase<T>(*mut T);
    // SAFETY: `RowBase` is only ever used inside `par_for_rows`'s
    // thread scope, where each worker derives row slices at indices it
    // exclusively claimed from the atomic counter; the pointed-to
    // buffer outlives the scope (it is a `&mut` argument of the
    // enclosing call). Sharing the *pointer value* is therefore sound.
    // Through it each worker gets a `&mut [T]` on its own thread (and
    // drops there any value it overwrites), which is what moving a
    // `&mut [T]` to that thread would allow: the elements need
    // `T: Send`, the bound on `par_for_rows`, and not `Sync`, since no
    // two threads ever reach the same element.
    unsafe impl<T: Send> Sync for RowBase<T> {}

    region_span(|| {
        let next = AtomicUsize::new(0);
        let base = RowBase(data.as_mut_ptr());
        // Capture the wrapper, not the bare pointer: 2021 closures
        // capture used *fields*, and `base.0` alone is not `Sync`.
        let base = &base;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    worker_span(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_rows {
                            break;
                        }
                        // SAFETY: `fetch_add` hands index `i` to
                        // exactly one worker, rows are disjoint
                        // `row_len`-sized windows of a buffer whose
                        // length is asserted to be `n_rows * row_len`
                        // above, and `data` is exclusively borrowed by
                        // this call for the whole scope — so this is
                        // the only live reference to those elements.
                        let row = unsafe {
                            std::slice::from_raw_parts_mut(base.0.add(i * row_len), row_len)
                        };
                        f(i, row);
                    })
                });
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from;
    use rand::Rng;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(8, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_is_thread_count_invariant() {
        let items: Vec<u64> = (0..257).collect();
        let run = |threads| {
            par_map(threads, &items, |i, &x| {
                // A seed-dependent stochastic payload, as real workloads are.
                let mut rng = rng_from(item_seed(42, 7, i as u64));
                (0..x % 17).map(|_| rng.gen::<u32>() as u64).sum::<u64>()
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(8));
        assert_eq!(serial, run(64));
    }

    #[test]
    fn par_map_handles_empty_and_oversubscribed() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        let one = [5u32];
        assert_eq!(par_map(99, &one, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn par_for_rows_fills_every_row_once() {
        let n = 37;
        let mut data = vec![0.0f32; n * n];
        par_for_rows(8, &mut data, n, |i, row| {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (i * n + j) as f32;
            }
        });
        for (k, &v) in data.iter().enumerate() {
            assert_eq!(v, k as f32);
        }
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn par_for_rows_rejects_ragged_data() {
        let mut data = vec![0.0f32; 10];
        par_for_rows(2, &mut data, 3, |_, _| {});
    }

    #[test]
    fn item_seed_separates_items_tags_and_seeds() {
        assert_ne!(item_seed(1, 2, 0), item_seed(1, 2, 1));
        assert_ne!(item_seed(1, 2, 3), item_seed(1, 3, 3));
        assert_ne!(item_seed(1, 2, 3), item_seed(2, 2, 3));
        assert_eq!(item_seed(9, 8, 7), item_seed(9, 8, 7));
    }

    #[test]
    fn resolve_threads_precedence() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "explicit 0 clamps to 1");
        // Env-var and fallback paths are covered via the pure helper;
        // mutating the process environment in a threaded test harness
        // is UB-ish.
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn resolve_threads_from_full_precedence() {
        // explicit beats env beats ambient.
        assert_eq!(resolve_threads_from(Some(3), Some("5"), 8), (3, None));
        assert_eq!(resolve_threads_from(None, Some("5"), 8), (5, None));
        assert_eq!(resolve_threads_from(None, None, 8), (8, None));
        // Whitespace tolerated; garbage falls through to ambient with
        // the offending value reported.
        assert_eq!(resolve_threads_from(None, Some(" 2 "), 8), (2, None));
        assert_eq!(
            resolve_threads_from(None, Some("many"), 8),
            (8, Some("many".to_string()))
        );
        assert_eq!(
            resolve_threads_from(None, Some("0"), 8),
            (8, Some("0".to_string()))
        );
        // So does a count above the cap.
        assert_eq!(
            resolve_threads_from(None, Some("1025"), 8),
            (8, Some("1025".to_string()))
        );
        // Everything clamps to at least one worker.
        assert_eq!(resolve_threads_from(None, None, 0), (1, None));
        assert_eq!(resolve_threads_from(Some(0), None, 0), (1, None));
    }

    #[test]
    fn busy_time_accumulates() {
        let before = busy_time();
        let items: Vec<u64> = (0..64).collect();
        let _ = par_map(4, &items, |_, &x| {
            // A tiny but nonzero chunk of work.
            (0..1000).fold(x, |a, b| a.wrapping_add(a.rotate_left(1) ^ b))
        });
        assert!(busy_time() >= before);
    }
}
