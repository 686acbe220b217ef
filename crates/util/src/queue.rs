//! A hand-rolled bounded queue for the serving pipeline.
//!
//! The serving daemon (`np-serve`) feeds its worker pool through one
//! bounded ingest queue. The workspace builds without a package
//! registry, so this is its own primitive: a `Mutex<VecDeque>` + two
//! condvars, the textbook bounded channel. Multiple producers and
//! multiple consumers are both allowed (the worker pool pops one shared
//! queue), and closing is explicit: [`BoundedQueue::close`] wakes every
//! waiter, after which pushes fail and pops drain the remaining items
//! before reporting exhaustion — the drain guarantee the daemon's
//! graceful shutdown is built on (no admitted query is lost).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity (the item is handed back — the caller
    /// decides whether to shed it or retry).
    Full(T),
    /// The queue is closed; no further items will ever be accepted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue (see module docs).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> BoundedQueue<T> {
        assert!(cap >= 1, "zero-capacity queue");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(cap.min(1 << 16)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A panicking pipeline thread poisons the mutex; the queue's
        // state is a plain VecDeque that is consistent at every unlock,
        // so recover rather than cascade the panic across threads.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Blocking push: waits while full, fails (handing the item back)
    /// once the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut g = self.lock();
        loop {
            if g.closed {
                return Err(item);
            }
            if g.items.len() < self.cap {
                g.items.push_back(item);
                drop(g);
                self.not_empty.notify_one();
                return Ok(());
            }
            g = self.not_full.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Non-blocking push: `Full` hands the item back immediately (the
    /// shed-policy admission path), `Closed` likewise.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut g = self.lock();
        if g.closed {
            return Err(TryPushError::Closed(item));
        }
        if g.items.len() >= self.cap {
            return Err(TryPushError::Full(item));
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop: waits while empty; `None` only once the queue is
    /// closed **and** drained (items enqueued before `close` are always
    /// delivered).
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Non-blocking pop: `None` when currently empty (closed or not) —
    /// a serving worker uses this to take what is already queued after
    /// its first job, instead of waiting to fill a batch.
    pub fn try_pop(&self) -> Option<T> {
        let mut g = self.lock();
        let item = g.items.pop_front();
        if item.is_some() {
            drop(g);
            self.not_full.notify_one();
        }
        item
    }

    /// Close the queue: wakes every blocked producer and consumer.
    /// Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_within_capacity() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).expect("open");
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_sheds_at_capacity_and_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_drains_buffered_items_then_reports_exhaustion() {
        let q = BoundedQueue::new(4);
        q.push("a").expect("open");
        q.push("b").expect("open");
        q.close();
        assert_eq!(q.push("c"), Err("c"));
        assert_eq!(q.try_push("d"), Err(TryPushError::Closed("d")));
        // The drain guarantee: items enqueued before close still flow.
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // stays exhausted
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().expect("no panic"), None);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).expect("open");
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push(1).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer is parked while full");
        assert_eq!(q.pop(), Some(0));
        assert!(h.join().expect("no panic"), "push completed after pop");
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn multi_producer_multi_consumer_delivers_every_item_once() {
        let q = Arc::new(BoundedQueue::new(4));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        q.push(p * 1000 + i).expect("open");
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer ok");
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer ok"))
            .collect();
        all.sort_unstable();
        let want: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..250u64).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, want, "every item exactly once");
    }
}
