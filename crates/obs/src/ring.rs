//! The bounded ring behind the flight recorder and the decision journal:
//! a fixed capacity, evict-oldest on overflow, an eviction count, and
//! oldest-first reads, all under one mutex.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

struct State<T> {
    items: VecDeque<T>,
    pushed: u64,
}

/// A mutex-guarded ring of at most `capacity` items. A poisoned lock is
/// taken over, not propagated: the ring is observability data, and a
/// panic elsewhere must not silence it.
pub(crate) struct Ring<T> {
    state: Mutex<State<T>>,
    capacity: usize,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` items (min 1).
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            state: Mutex::new(State {
                items: VecDeque::new(),
                pushed: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append the item `make` builds from this push's ordinal (0 for the
    /// first push), evicting the oldest item when full. Returns the
    /// ordinal.
    pub(crate) fn push(&self, make: impl FnOnce(u64) -> T) -> u64 {
        let mut state = self.lock();
        let ordinal = state.pushed;
        // Built before any update: a panic in `make` leaves the ring whole
        // for the next lock holder.
        let item = make(ordinal);
        if state.items.len() == self.capacity {
            state.items.pop_front();
        }
        state.items.push_back(item);
        state.pushed += 1;
        ordinal
    }

    /// Run `f` over the held items, oldest first, and the number evicted
    /// so far, both read under one lock.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&VecDeque<T>, u64) -> R) -> R {
        let state = self.lock();
        f(&state.items, state.pushed - state.items.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_while_pushing_leaves_the_ring_usable_and_whole() {
        let ring = Ring::new(2);
        ring.push(|n| n);
        let push = std::panic::AssertUnwindSafe(|| ring.push(|_| panic!("make failed")));
        assert!(std::panic::catch_unwind(push).is_err());
        assert_eq!(ring.push(|n| n), 1);
        assert_eq!(ring.push(|n| n), 2);
        let (items, evicted) = ring.read(|items, evicted| (items.clone(), evicted));
        assert_eq!((Vec::from(items), evicted), (vec![1, 2], 1));
    }
}
