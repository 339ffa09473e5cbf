//! The registry's in-memory memo: one `RwLock`-guarded map with FIFO
//! eviction at a total capacity, plus hit/miss/eviction counters.
//!
//! `std`-only by design (the CI sandboxes cannot fetch crates). The
//! registry uses three instances — digest → parsed profile, `(digest,
//! query)` → advice and `(digest, space digest, options)` → tuning
//! session — and the serving tests assert on the exposed counters.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// Counter snapshot of one [`Memo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

struct Entries<K, V> {
    map: HashMap<K, V>,
    /// Insertion order for FIFO eviction; holds exactly the map's keys.
    order: VecDeque<K>,
}

/// A concurrent map holding at most `capacity` entries, evicting the
/// oldest insert first.
pub(crate) struct Memo<K, V> {
    entries: RwLock<Entries<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
    /// A memo holding at most `capacity` entries (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: RwLock::new(Entries {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Entries<K, V>> {
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Clone of the cached value, counting a hit or miss.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        let value = self.peek(key);
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Clone of the cached value, counting nothing: for a caller deciding
    /// whether a [`Self::get`] would hit, or reading around the counters.
    pub(crate) fn peek(&self, key: &K) -> Option<V> {
        self.read().map.get(key).cloned()
    }

    /// The value under `key`, computing and inserting it with `f` on a
    /// miss; the bool reports a hit. Counts one hit or one miss. `f` runs
    /// outside the lock, so two racing misses may both compute — the
    /// values are equal, and the later insert replaces the earlier.
    pub(crate) fn get_or_insert_with(&self, key: K, f: impl FnOnce() -> V) -> (V, bool) {
        if let Some(value) = self.get(&key) {
            return (value, true);
        }
        let value = f();
        self.insert(key, value.clone());
        (value, false)
    }

    /// Insert (or replace) a value, evicting the oldest entry if the memo
    /// is full.
    pub(crate) fn insert(&self, key: K, value: V) {
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        if entries.map.insert(key.clone(), value).is_some() {
            return; // replaced in place; key already tracked in `order`
        }
        entries.order.push_back(key);
        if entries.map.len() > self.capacity {
            if let Some(oldest) = entries.order.pop_front() {
                entries.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn len<K: Hash + Eq + Clone, V: Clone>(memo: &Memo<K, V>) -> usize {
        memo.read().map.len()
    }

    #[test]
    fn hit_and_miss_counters() {
        let memo: Memo<String, u32> = Memo::new(16);
        assert_eq!(memo.get(&"a".to_string()), None);
        memo.insert("a".to_string(), 1);
        assert_eq!(memo.get(&"a".to_string()), Some(1));
        assert_eq!(memo.get(&"a".to_string()), Some(1));
        // A peek sees the value and leaves the counters alone.
        assert_eq!(memo.peek(&"a".to_string()), Some(1));
        assert_eq!(memo.peek(&"b".to_string()), None);
        let stats = memo.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(len(&memo), 1);
    }

    #[test]
    fn replacement_does_not_grow_or_evict() {
        let memo: Memo<u32, u32> = Memo::new(2);
        memo.insert(1, 10);
        memo.insert(1, 11);
        memo.insert(1, 12);
        assert_eq!(len(&memo), 1);
        assert_eq!(memo.get(&1), Some(12));
        assert_eq!(memo.stats().evictions, 0);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        // Capacity 2: inserting a third key evicts the oldest.
        let memo: Memo<u32, u32> = Memo::new(2);
        memo.insert(1, 10);
        memo.insert(2, 20);
        memo.insert(3, 30);
        assert_eq!(len(&memo), 2);
        assert_eq!(memo.get(&1), None, "oldest key should be gone");
        assert_eq!(memo.get(&2), Some(20));
        assert_eq!(memo.get(&3), Some(30));
        assert_eq!(memo.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_the_total_entry_count() {
        // The registry's profile memo: 512 digest-shaped keys fit with
        // nothing evicted, and the 513th evicts the oldest.
        let key = |i: u64| format!("{:064x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let memo: Memo<String, u64> = Memo::new(512);
        for i in 0..512 {
            memo.insert(key(i), i);
            assert_eq!(memo.stats().evictions, 0, "evicted at insert {}", i + 1);
        }
        assert!((0..512).all(|i| memo.peek(&key(i)) == Some(i)));
        memo.insert(key(512), 512);
        assert_eq!(memo.stats().evictions, 1);
        assert_eq!(memo.peek(&key(0)), None, "the oldest key goes first");
        assert!((1..=512).all(|i| memo.peek(&key(i)) == Some(i)));
    }

    #[test]
    fn get_or_insert_with_computes_once_per_key() {
        let memo: Memo<&str, u32> = Memo::new(4);
        let mut runs = 0;
        let mut compute = || {
            runs += 1;
            7
        };
        assert_eq!(memo.get_or_insert_with("k", &mut compute), (7, false));
        assert_eq!(memo.get_or_insert_with("k", &mut compute), (7, true));
        assert_eq!(runs, 1, "the hit must not run the closure");
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn concurrent_mixed_load_is_consistent() {
        let memo: Arc<Memo<u64, u64>> = Arc::new(Memo::new(8 * 1024));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let memo = Arc::clone(&memo);
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = t * 1000 + i;
                        memo.insert(k, k * 2);
                        assert_eq!(memo.get(&k), Some(k * 2));
                    }
                });
            }
        });
        assert_eq!(len(&memo), 8 * 500);
        let stats = memo.stats();
        assert_eq!(stats.hits, 8 * 500);
        assert_eq!(stats.evictions, 0);
    }
}
