//! A small, exact LRU cache for repeated user-history embeddings.
//!
//! Production recommendation traffic is heavily skewed: a minority of
//! active users issue most queries, and their histories only change when
//! they buy something. Caching `history → embedding` therefore removes the
//! user-tower forward pass for the hot users while the ANN search (which
//! depends on the *current* model's item index) always runs fresh.
//!
//! The cache is owned by the single batcher thread, so it needs no
//! internal locking; it is invalidated wholesale when the model version
//! changes (embeddings from an old checkpoint must never mix with a new
//! index).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NONE: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map.
///
/// `get` refreshes recency; `insert` evicts the least recently used entry
/// when full. Capacity 0 disables the cache (every `get` misses, `insert`
/// is a no-op).
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    /// Most recently used, or `NONE` when empty.
    head: usize,
    /// Least recently used, or `NONE` when empty.
    tail: usize,
    free: Vec<usize>,
    capacity: usize,
}

impl<K: Clone + Eq + Hash, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            entries: Vec::new(),
            head: NONE,
            tail: NONE,
            free: Vec::new(),
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every entry (model reload: embeddings are stale).
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.free.clear();
        self.head = NONE;
        self.tail = NONE;
    }

    /// Looks up `key` — in any borrowed form of `K`, so a `Vec` key is
    /// found from a slice without allocating — marking it most recently
    /// used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let &slot = self.map.get(key)?;
        self.detach(slot);
        self.attach_front(slot);
        Some(&self.entries[slot].value)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used entry
    /// when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.entries[slot].value = value;
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NONE);
            self.detach(lru);
            self.map.remove(&self.entries[lru].key);
            self.free.push(lru);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.entries[s] = Entry { key: key.clone(), value, prev: NONE, next: NONE };
                s
            }
            None => {
                self.entries.push(Entry { key: key.clone(), value, prev: NONE, next: NONE });
                self.entries.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.attach_front(slot);
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.entries[slot].prev, self.entries[slot].next);
        if prev != NONE {
            self.entries[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NONE {
            self.entries[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.entries[slot].prev = NONE;
        self.entries[slot].next = NONE;
    }

    fn attach_front(&mut self, slot: usize) {
        self.entries[slot].prev = NONE;
        self.entries[slot].next = self.head;
        if self.head != NONE {
            self.entries[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10)); // 1 is now most recent
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replace_refreshes_and_updates() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // replace: 1 becomes most recent
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut c: LruCache<Vec<u32>, Vec<f32>> = LruCache::new(4);
        c.insert(vec![1, 2], vec![0.5]);
        c.insert(vec![3], vec![0.25]);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&vec![1, 2]), None);
        // still usable after clear
        c.insert(vec![9], vec![1.0]);
        assert_eq!(c.get(&vec![9]), Some(&vec![1.0]));
    }

    #[test]
    fn exercises_slot_reuse() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for i in 0..100u32 {
            c.insert(i, i * 2);
            if i >= 3 {
                assert_eq!(c.len(), 3);
                assert_eq!(c.get(&i), Some(&(i * 2)));
                assert_eq!(c.get(&(i - 3)), None);
            }
        }
        // slab never grows past capacity
        assert!(c.entries.len() <= 3);
    }
}
