//! Monotonic event counters.
//!
//! A [`Counter`] is a single relaxed `AtomicU64` — cheap enough to leave
//! permanently enabled on hot paths. Counters only ever grow; rates and
//! deltas are the reader's job (snapshot twice, subtract).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// All operations use relaxed atomics: counters order nothing, they only
/// accumulate. Cloning the *value* is [`Counter::get`]; the counter itself
/// is shared by reference (the global registry hands out `Arc<Counter>`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub(crate) const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n` (saturating at `u64::MAX` is not attempted: wrapping a u64
    /// event counter takes centuries at any realistic rate).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero_and_accumulates() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
