//! A loom-lite exhaustive interleaving checker for the hand-rolled
//! concurrency primitives.
//!
//! The workspace's runtime concurrency tests (`queue.rs`'s stress
//! tests, the serve pipeline suites) sample schedules: they run real
//! threads and hope the scheduler produces the bad one. This module
//! *enumerates* schedules instead, at **operation granularity**: a
//! scenario is N scripted threads, each a fixed sequence of operations
//! over shared state `S`, and the explorer runs every interleaving of
//! those operations (depth-first, optionally bounded by preemption
//! count) on a single real thread.
//!
//! Operation granularity is exact — not approximate — for primitives
//! whose public operations are single critical sections, which is true
//! of both intended subjects:
//!
//! * [`crate::queue::BoundedQueue`]: `push`/`pop`/`close` each take
//!   the one mutex once; every observable behaviour of the real
//!   multi-threaded primitive corresponds to some op-level
//!   interleaving.
//! * `HierarchicalWorld`'s block cache: a `get`/`insert` pair under a
//!   shared `rtt` call; op-level orders drive every eviction pattern.
//!
//! # Scenario contract
//!
//! * **Deterministic ops.** Replaying the same op sequence from a
//!   fresh state must reach the same state: the explorer re-executes
//!   schedule prefixes statelessly (state types need not be `Clone`).
//!   An op that blocks during a replay panics the exploration.
//! * **Side-effect-free blocking.** An op returning
//!   [`OpStep::Blocked`] must not have mutated the state — model
//!   blocking calls with their non-blocking probes (`try_push` +
//!   closed-check instead of `push`, …). Blocked threads are
//!   descheduled until another thread runs.
//!
//! A schedule where every non-finished thread is `Blocked` is reported
//! as a [`ViolationKind::Deadlock`]; a completed schedule is passed to
//! the scenario's check function, and the first failing schedule is
//! returned verbatim — the `Vec<usize>` of thread ids is a replayable
//! witness.

/// What one scripted operation did when stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStep {
    /// The operation completed (the thread's program counter advances).
    Ran,
    /// The operation would block; state must be unchanged.
    Blocked,
}

/// One scripted operation over scenario state `S`.
pub type Op<S> = Box<dyn Fn(&mut S) -> OpStep>;

/// Why an exploration failed.
#[derive(Debug)]
pub enum ViolationKind {
    /// Every unfinished thread reported [`OpStep::Blocked`].
    Deadlock {
        /// The threads that were blocked (unfinished) at the point of
        /// deadlock.
        blocked: Vec<usize>,
    },
    /// The scenario's check rejected a completed schedule.
    Check(String),
}

/// A failing schedule: replay `schedule` (thread id per step) from a
/// fresh state to reproduce.
#[derive(Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ViolationKind::Deadlock { blocked } => write!(
                f,
                "deadlock after schedule {:?}: threads {:?} all blocked",
                self.schedule, blocked
            ),
            ViolationKind::Check(msg) => {
                write!(f, "check failed on schedule {:?}: {}", self.schedule, msg)
            }
        }
    }
}

/// Exploration summary for a passing scenario.
#[derive(Debug, Clone, Copy)]
pub struct Explored {
    /// Complete schedules enumerated (and checked).
    pub schedules: usize,
    /// True when [`Interleaver::max_schedules`] stopped the search
    /// early — the space was *not* covered exhaustively.
    pub truncated: bool,
}

/// The explorer configuration.
///
/// `max_preemptions` bounds how many times the search may switch away
/// from a thread that could still run (switches away from a blocked or
/// finished thread are free). `None` explores the full space; small
/// bounds (2–3) retain most bug-finding power at a fraction of the
/// cost — the classic context-bounding result — and are how a scenario
/// too big for full enumeration stays useful.
#[derive(Debug, Clone, Copy)]
pub struct Interleaver {
    pub max_preemptions: Option<usize>,
    /// Safety valve: stop after this many complete schedules rather
    /// than running away; the result is then marked `truncated`.
    pub max_schedules: usize,
}

impl Default for Interleaver {
    fn default() -> Interleaver {
        Interleaver {
            max_preemptions: None,
            max_schedules: 1_000_000,
        }
    }
}

impl Interleaver {
    /// Exhaustively explore every interleaving of `threads` (subject
    /// to the preemption bound) over states built by `mk_state`,
    /// passing each completed schedule's final state to `check`.
    ///
    /// Returns the first violation found (deadlock or check failure),
    /// or a summary of the covered space.
    pub fn explore<S>(
        &self,
        mk_state: impl Fn() -> S,
        threads: Vec<Vec<Op<S>>>,
        check: impl Fn(&S, &[usize]) -> Result<(), String>,
    ) -> Result<Explored, Violation> {
        let mut dfs = Dfs {
            mk_state: &mk_state,
            threads: &threads,
            check: &check,
            max_preemptions: self.max_preemptions,
            max_schedules: self.max_schedules,
            schedules: 0,
            truncated: false,
        };
        let mut prefix = Vec::new();
        dfs.go(&mut prefix, 0, None, None)?;
        Ok(Explored {
            schedules: dfs.schedules,
            truncated: dfs.truncated,
        })
    }
}

/// The check run on each completed schedule's final state.
type Check<'a, S> = dyn Fn(&S, &[usize]) -> Result<(), String> + 'a;

struct Dfs<'a, S> {
    mk_state: &'a dyn Fn() -> S,
    threads: &'a [Vec<Op<S>>],
    check: &'a Check<'a, S>,
    max_preemptions: Option<usize>,
    max_schedules: usize,
    schedules: usize,
    truncated: bool,
}

impl<S> Dfs<'_, S> {
    /// Re-execute `prefix` from a fresh state; returns the state and
    /// per-thread program counters.
    fn replay(&self, prefix: &[usize]) -> (S, Vec<usize>) {
        let mut state = (self.mk_state)();
        let mut pcs = vec![0usize; self.threads.len()];
        for &t in prefix {
            match (self.threads[t][pcs[t]])(&mut state) {
                OpStep::Ran => pcs[t] += 1,
                OpStep::Blocked => panic!(
                    "interleave: op {} of thread {t} blocked during replay — the scenario \
                     violates the deterministic-replay contract",
                    pcs[t]
                ),
            }
        }
        (state, pcs)
    }

    /// Explore all continuations of `prefix`. `carried` is the state
    /// already positioned at the end of `prefix`, when the caller has
    /// one to donate (saves a replay).
    fn go(
        &mut self,
        prefix: &mut Vec<usize>,
        preemptions: usize,
        last: Option<usize>,
        carried: Option<(S, Vec<usize>)>,
    ) -> Result<(), Violation> {
        if self.truncated {
            return Ok(());
        }
        let (state, pcs) = match carried {
            Some(sp) => sp,
            None => self.replay(prefix),
        };
        let n = self.threads.len();
        if (0..n).all(|t| pcs[t] == self.threads[t].len()) {
            self.schedules += 1;
            if self.schedules >= self.max_schedules {
                self.truncated = true;
            }
            return (self.check)(&state, prefix).map_err(|msg| Violation {
                kind: ViolationKind::Check(msg),
                schedule: prefix.clone(),
            });
        }

        // Try the last-run thread first: runs without a preemption, and
        // its probe discovers whether switching elsewhere costs one.
        let order: Vec<usize> = match last {
            Some(l) => std::iter::once(l).chain((0..n).filter(|&t| t != l)).collect(),
            None => (0..n).collect(),
        };
        // A Blocked probe leaves the state untouched (scenario
        // contract), so it is reusable for the next probe; a Ran probe
        // consumes it.
        let mut cached: Option<(S, Vec<usize>)> = Some((state, pcs));
        let mut last_enabled = false;
        let mut any_ran = false;
        let mut blocked: Vec<usize> = Vec::new();

        for t in order {
            let (mut s, mut pc) = match cached.take() {
                Some(sp) => sp,
                None => self.replay(prefix),
            };
            if pc[t] == self.threads[t].len() {
                cached = Some((s, pc));
                continue; // finished
            }
            let cost = usize::from(last.is_some() && Some(t) != last && last_enabled);
            match (self.threads[t][pc[t]])(&mut s) {
                OpStep::Blocked => {
                    blocked.push(t);
                    cached = Some((s, pc)); // unchanged by contract
                }
                OpStep::Ran => {
                    any_ran = true;
                    if t == last.unwrap_or(usize::MAX) {
                        last_enabled = true;
                    }
                    let over_budget = self
                        .max_preemptions
                        .is_some_and(|m| preemptions + cost > m);
                    if !over_budget {
                        pc[t] += 1;
                        prefix.push(t);
                        let r = self.go(prefix, preemptions + cost, Some(t), Some((s, pc)));
                        prefix.pop();
                        r?;
                    }
                    // else: probed only to tell a pruned branch from a
                    // deadlock; the state is stale either way.
                }
            }
            if self.truncated {
                return Ok(());
            }
        }

        if !any_ran {
            return Err(Violation {
                kind: ViolationKind::Deadlock { blocked },
                schedule: prefix.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ops for a counter thread: `n` increments.
    fn incs(n: usize) -> Vec<Op<i64>> {
        (0..n)
            .map(|_| {
                Box::new(|s: &mut i64| {
                    *s += 1;
                    OpStep::Ran
                }) as Op<i64>
            })
            .collect()
    }

    #[test]
    fn counts_interleavings_of_independent_threads() {
        // 2 threads x 2 ops each: C(4,2) = 6 interleavings.
        let r = Interleaver::default()
            .explore(
                || 0i64,
                vec![incs(2), incs(2)],
                |&s, _| {
                    if s == 4 {
                        Ok(())
                    } else {
                        Err(format!("expected 4 increments, saw {s}"))
                    }
                },
            )
            .expect("no violation");
        assert_eq!(r.schedules, 6);
        assert!(!r.truncated);
    }

    #[test]
    fn finds_the_one_bad_schedule() {
        // A lost-update bug distilled: thread 0 reads then writes
        // (non-atomically, as two ops); thread 1 increments in one op.
        // Exactly the schedules where t1 runs between t0's read and
        // write lose the update.
        #[derive(Default)]
        struct St {
            x: i64,
            t0_read: i64,
        }
        let t0: Vec<Op<St>> = vec![
            Box::new(|s: &mut St| {
                s.t0_read = s.x;
                OpStep::Ran
            }),
            Box::new(|s: &mut St| {
                s.x = s.t0_read + 1;
                OpStep::Ran
            }),
        ];
        let t1: Vec<Op<St>> = vec![Box::new(|s: &mut St| {
            s.x += 1;
            OpStep::Ran
        })];
        let v = Interleaver::default()
            .explore(St::default, vec![t0, t1], |s, _| {
                if s.x == 2 {
                    Ok(())
                } else {
                    Err(format!("lost update: x = {}", s.x))
                }
            })
            .expect_err("the torn read/write interleaving must be found");
        // The witness schedule must sandwich t1 between t0's two ops.
        assert_eq!(v.schedule, vec![0, 1, 0]);
        match v.kind {
            ViolationKind::Check(msg) => assert!(msg.contains("lost update")),
            other => panic!("expected check violation, got {other:?}"),
        }
    }

    #[test]
    fn detects_deadlock() {
        // Two threads each wait for the other to set a flag first.
        #[derive(Default)]
        struct St {
            a: bool,
            b: bool,
        }
        let t0: Vec<Op<St>> = vec![
            Box::new(|s: &mut St| {
                if s.b {
                    OpStep::Ran
                } else {
                    OpStep::Blocked
                }
            }),
            Box::new(|s: &mut St| {
                s.a = true;
                OpStep::Ran
            }),
        ];
        let t1: Vec<Op<St>> = vec![
            Box::new(|s: &mut St| {
                if s.a {
                    OpStep::Ran
                } else {
                    OpStep::Blocked
                }
            }),
            Box::new(|s: &mut St| {
                s.b = true;
                OpStep::Ran
            }),
        ];
        let v = Interleaver::default()
            .explore(St::default, vec![t0, t1], |_, _| Ok(()))
            .expect_err("mutual wait must deadlock");
        match v.kind {
            ViolationKind::Deadlock { blocked } => assert_eq!(blocked, vec![0, 1]),
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert!(v.schedule.is_empty(), "deadlocks immediately, before any op");
    }

    #[test]
    fn blocked_threads_are_descheduled_not_spun() {
        // t0 blocks until t1 finishes; exploration must still cover
        // the space and terminate (a naive scheduler would spin).
        #[derive(Default)]
        struct St {
            ready: bool,
            seen: bool,
        }
        let t0: Vec<Op<St>> = vec![Box::new(|s: &mut St| {
            if s.ready {
                s.seen = true;
                OpStep::Ran
            } else {
                OpStep::Blocked
            }
        })];
        let t1: Vec<Op<St>> = vec![Box::new(|s: &mut St| {
            s.ready = true;
            OpStep::Ran
        })];
        let r = Interleaver::default()
            .explore(St::default, vec![t0, t1], |s, _| {
                if s.seen {
                    Ok(())
                } else {
                    Err("t0 never ran".into())
                }
            })
            .expect("single viable schedule");
        assert_eq!(r.schedules, 1, "t1 then t0 is the only schedule");
    }

    #[test]
    fn preemption_bound_prunes_schedules() {
        // 3 threads x 2 ops: full space is 6!/(2!2!2!) = 90 schedules;
        // zero preemptions allows only runs-to-completion orders: 3! = 6.
        let full = Interleaver::default()
            .explore(|| 0i64, vec![incs(2), incs(2), incs(2)], |_, _| Ok(()))
            .unwrap();
        assert_eq!(full.schedules, 90);
        let bounded = Interleaver {
            max_preemptions: Some(0),
            ..Interleaver::default()
        }
        .explore(|| 0i64, vec![incs(2), incs(2), incs(2)], |_, _| Ok(()))
        .unwrap();
        assert_eq!(bounded.schedules, 6);
    }

    #[test]
    fn truncation_is_reported() {
        let r = Interleaver {
            max_schedules: 10,
            ..Interleaver::default()
        }
        .explore(|| 0i64, vec![incs(3), incs(3), incs(3)], |_, _| Ok(()))
        .unwrap();
        assert!(r.truncated);
        assert_eq!(r.schedules, 10);
    }
}
