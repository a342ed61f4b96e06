//! A bounded FIFO job queue with blocking consumers and
//! reject-don't-block producers.
//!
//! Producers (connection threads) must never stall a client, so
//! [`JobQueue::push`] fails fast with [`PushError::Full`] — the daemon
//! turns that into a `queue_full` reply with a retry hint. Consumers
//! (worker threads) block in [`JobQueue::pop`] until work arrives or
//! the queue is closed; closing still drains everything already
//! queued, which is what makes shutdown graceful rather than lossy.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; retry later.
    Full,
    /// The queue was closed; no new work is accepted.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded multi-producer / multi-consumer queue.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// An open queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy by nature; for metrics/backpressure
    /// hints only).
    pub fn len(&self) -> usize {
        crate::lock(&self.state).items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an item, without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`JobQueue::close`].
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = crate::lock(&self.state);
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and takes it. Returns `None`
    /// only once the queue is closed *and* drained — consumers use that
    /// as their exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = crate::lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes fail, queued items still drain,
    /// and blocked consumers wake.
    pub fn close(&self) {
        crate::lock(&self.state).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let q = JobQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = JobQueue::new(4);
        q.push('a').unwrap();
        q.push('b').unwrap();
        q.close();
        assert_eq!(q.push('c'), Err(PushError::Closed));
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays closed");
    }

    #[test]
    fn a_poisoned_queue_still_pushes_pops_and_closes() {
        let q = Arc::new(JobQueue::new(4));
        let holder = Arc::clone(&q);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.state.lock().unwrap();
            panic!("a thread dies holding the queue lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(q.state.is_poisoned());
        q.push(7).unwrap();
        assert_eq!(q.len(), 1);
        q.close();
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = Arc::new(JobQueue::new(8));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        for i in 0..30 {
            while q.push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap().len()).sum();
        assert_eq!(total, 30, "every item consumed exactly once");
    }
}
