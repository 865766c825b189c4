//! The prepared-relation store: a keyed, concurrency-safe cache of fully
//! prepared generator bodies.
//!
//! Almost all per-query cost in the engine is re-derivable state —
//! certificates, constraint-matrix detection, rounding transforms, pilot
//! volume estimates, warm fiber-weight tables and stratified alias tables.
//! The store maps a canonical formula key to an [`Arc`]-shared, *immutable*
//! prepared body so overlapping queries pay preprocessing once; callers that
//! need mutable scratch clone the body on attach (`(*arc).clone()`), which
//! is cheap relative to re-preparing and never blocks other users.
//!
//! # Invisibility contract
//!
//! A cache is only shippable here if it cannot change results. The store
//! guarantees this structurally:
//!
//! * bodies are built by a caller-supplied closure that must be a **pure
//!   function of the key** — in particular, any randomness used during
//!   preparation must be derived from the key (see
//!   `SpatialDatabase::prepared_generator` in `cdb-core`), never from a
//!   caller's stream. Two racing builders therefore construct bitwise
//!   identical bodies and it does not matter whose insert wins;
//! * eviction only drops the store's own [`Arc`] reference: a body attached
//!   to an in-flight query stays alive until that query drops it;
//! * a store with capacity `0` is *disabled*: every lookup misses and builds
//!   fresh, which is the baseline the determinism suite compares against.
//!
//! # Locking model
//!
//! The table is split into shards, each behind its own [`RwLock`]. Lookups
//! take a shard read lock and bump the entry's LRU stamp with a relaxed
//! atomic, so concurrent hits never contend on a write lock. Misses build
//! the body **outside** any lock, then take the shard write lock, re-check
//! for a racing insert (first writer wins; both bodies are identical by the
//! purity contract) and evict the least-recently-used entry if the shard is
//! over its share of the capacity.
//!
//! # Poison recovery
//!
//! A panic inside a lock-holding critical section poisons that shard's
//! [`RwLock`]. Because every resident body is re-derivable from its key by
//! the purity contract, the store never needs to propagate that poison: the
//! next lookup discards the poisoned shard's contents, clears the poison
//! flag and rebuilds on demand, bumping
//! [`PreparedStoreStats::shards_rebuilt`]. A poisoned shard therefore costs
//! re-preparation, never correctness — cross-query state cannot be
//! corrupted by a contained worker panic.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default total capacity (prepared bodies, across all shards) of a
/// [`PreparedStore`]. Prepared bodies are per-relation, so this comfortably
/// covers a working set of dozens of distinct relations.
pub const DEFAULT_PREPARED_STORE_CAPACITY: usize = 64;

/// Number of independent lock shards used once the capacity is large enough
/// for sharding to make sense.
const SHARDS: usize = 8;

/// Snapshot of a store's counters, exposed for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreparedStoreStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the body (includes every lookup on a
    /// disabled store).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Prepared bodies currently resident.
    pub len: usize,
    /// Lock shards whose contents were discarded and rebuilt after a panic
    /// poisoned them (see the module docs on poison recovery).
    pub shards_rebuilt: u64,
    /// Worker panics contained by the owning database's batch layer. The
    /// store itself never increments this; `cdb-core` merges its own
    /// containment counter into the snapshot it exposes.
    pub panics_recovered: u64,
}

struct StoreEntry<T> {
    body: Arc<T>,
    /// LRU stamp: the global clock value at the last touch. Relaxed atomics
    /// suffice — the stamp only orders evictions, never data.
    stamp: AtomicU64,
}

/// A keyed, sharded, concurrency-safe cache of prepared bodies. See the
/// module docs for the invisibility and locking contracts.
#[derive(Debug)]
pub struct PreparedStore<K, T> {
    shards: Vec<RwLock<HashMap<K, StoreEntry<T>>>>,
    /// Per-shard entry budget (total capacity divided over the shards).
    shard_capacity: usize,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Poisoned shards discarded and rebuilt (see the module docs).
    rebuilt: AtomicU64,
}

impl<T> std::fmt::Debug for StoreEntry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreEntry")
            .field("stamp", &self.stamp.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, T> PreparedStore<K, T> {
    /// Creates a store holding at most `capacity` prepared bodies in total.
    /// Capacity `0` disables caching: every lookup misses and builds fresh.
    pub fn new(capacity: usize) -> Self {
        let nshards = if capacity >= SHARDS { SHARDS } else { 1 };
        PreparedStore {
            shards: (0..nshards).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_capacity: capacity.div_ceil(nshards),
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rebuilt: AtomicU64::new(0),
        }
    }

    /// Creates a store with [`DEFAULT_PREPARED_STORE_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        PreparedStore::new(DEFAULT_PREPARED_STORE_CAPACITY)
    }

    /// Total capacity in prepared bodies; `0` means the store is disabled.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether lookups can ever be answered from the cache.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Takes a shard's write lock, recovering from poison by discarding the
    /// shard's contents: every body is re-derivable from its key, so an
    /// empty shard is always a correct (if cold) state, while a shard whose
    /// mutation was interrupted mid-panic is not trustworthy.
    fn write_shard<'a>(
        &self,
        shard: &'a RwLock<HashMap<K, StoreEntry<T>>>,
    ) -> RwLockWriteGuard<'a, HashMap<K, StoreEntry<T>>> {
        match shard.write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.clear();
                shard.clear_poison();
                self.rebuilt.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Takes a shard's read lock, recovering from poison by first rebuilding
    /// the shard under the write lock (see [`PreparedStore::write_shard`]).
    fn read_shard<'a>(
        &self,
        shard: &'a RwLock<HashMap<K, StoreEntry<T>>>,
    ) -> RwLockReadGuard<'a, HashMap<K, StoreEntry<T>>> {
        if let Ok(guard) = shard.read() {
            return guard;
        }
        drop(self.write_shard(shard));
        // A racer could re-poison in the re-acquire window; the shard was
        // just cleared, so its (empty) contents are safe to read either way.
        shard
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Number of prepared bodies currently resident.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.read_shard(s).len()).sum()
    }

    /// Whether the store currently holds no bodies.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> PreparedStoreStats {
        PreparedStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            shards_rebuilt: self.rebuilt.load(Ordering::Relaxed),
            panics_recovered: 0,
        }
    }

    /// Drops every resident body (in-flight [`Arc`] handles stay alive) and
    /// leaves the counters untouched.
    pub fn clear(&self) {
        for shard in &self.shards {
            self.write_shard(shard).clear();
        }
    }

    /// Whether a body for `key` is resident (test hook; does not touch the
    /// LRU stamp or the counters).
    pub fn contains(&self, key: &K) -> bool {
        self.read_shard(self.shard_of(key)).contains_key(key)
    }

    /// Deliberately poisons the shard holding `key` by panicking while its
    /// write lock is held (the panic is caught here). Fault-injection hook
    /// for the resilience suite: the next operation touching the shard must
    /// discard it, clear the poison and carry on.
    pub fn poison_shard(&self, key: &K) {
        let shard = self.shard_of(key);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.write().expect("prepared-store lock");
            panic!("injected fault: prepared-store shard poison");
        }));
        debug_assert!(result.is_err());
    }

    /// Returns the shared body for `key`, building it with `build` on a
    /// miss. `build` runs outside every lock and **must be a pure function
    /// of the key** (derive any preparation randomness from the key); a
    /// racing insert keeps the first writer's body, which is bitwise
    /// identical by that contract. Errors from `build` are propagated and
    /// nothing is inserted.
    pub fn get_or_try_prepare<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        if self.is_enabled() {
            let shard = self.shard_of(key);
            if let Some(entry) = self.read_shard(shard).get(key) {
                entry.stamp.store(
                    self.clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.body));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let body = Arc::new(build()?);
        if !self.is_enabled() {
            return Ok(body);
        }
        let shard = self.shard_of(key);
        let mut table = self.write_shard(shard);
        if let Some(entry) = table.get(key) {
            // A racer inserted while we were building: keep theirs so every
            // current and future caller shares one allocation.
            entry.stamp.store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            return Ok(Arc::clone(&entry.body));
        }
        while table.len() >= self.shard_capacity {
            let coldest = table
                .iter()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            match coldest {
                Some(k) => {
                    table.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        table.insert(
            key.clone(),
            StoreEntry {
                body: Arc::clone(&body),
                stamp: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
            },
        );
        Ok(body)
    }

    /// Infallible variant of [`PreparedStore::get_or_try_prepare`].
    pub fn get_or_prepare(&self, key: &K, build: impl FnOnce() -> T) -> Arc<T> {
        match self.get_or_try_prepare::<std::convert::Infallible>(key, || Ok(build())) {
            Ok(body) => body,
        }
    }

    fn shard_of(&self, key: &K) -> &RwLock<HashMap<K, StoreEntry<T>>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }
}

impl<K: Hash + Eq + Clone, T> Default for PreparedStore<K, T> {
    fn default() -> Self {
        PreparedStore::with_default_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss_shares_the_body() {
        let store: PreparedStore<u64, Vec<u32>> = PreparedStore::new(16);
        let a = store.get_or_prepare(&7, || vec![1, 2, 3]);
        let b = store.get_or_prepare(&7, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn disabled_store_always_builds_fresh() {
        let store: PreparedStore<u64, u32> = PreparedStore::new(0);
        assert!(!store.is_enabled());
        let a = store.get_or_prepare(&1, || 10);
        let b = store.get_or_prepare(&1, || 10);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(store.stats().hits, 0);
        assert_eq!(store.stats().misses, 2);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn eviction_drops_least_recently_used() {
        // Capacity below the shard threshold: one shard, LRU is exact.
        let store: PreparedStore<u64, u64> = PreparedStore::new(2);
        store.get_or_prepare(&1, || 100);
        store.get_or_prepare(&2, || 200);
        store.get_or_prepare(&1, || unreachable!("must hit")); // touch 1
        store.get_or_prepare(&3, || 300); // evicts 2
        assert!(store.contains(&1));
        assert!(!store.contains(&2));
        assert!(store.contains(&3));
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn eviction_never_poisons_a_held_body() {
        let store: PreparedStore<u64, Vec<u8>> = PreparedStore::new(1);
        let held = store.get_or_prepare(&1, || vec![42; 64]);
        store.get_or_prepare(&2, || vec![7; 64]); // evicts key 1
        assert!(!store.contains(&1));
        assert_eq!(held[0], 42); // the held Arc is untouched
    }

    #[test]
    fn build_errors_propagate_and_insert_nothing() {
        let store: PreparedStore<u64, u32> = PreparedStore::new(4);
        let r: Result<Arc<u32>, &str> = store.get_or_try_prepare(&9, || Err("nope"));
        assert_eq!(r.unwrap_err(), "nope");
        assert!(!store.contains(&9));
        let ok = store.get_or_try_prepare::<&str>(&9, || Ok(5)).unwrap();
        assert_eq!(*ok, 5);
    }

    #[test]
    fn poisoned_shard_is_discarded_and_rebuilt() {
        let store: PreparedStore<u64, u64> = PreparedStore::new(4);
        store.get_or_prepare(&1, || 100);
        assert!(store.contains(&1));
        store.poison_shard(&1);
        // The next lookup recovers: the shard is discarded (cold miss) and
        // the store keeps serving.
        let body = store.get_or_prepare(&1, || 100);
        assert_eq!(*body, 100);
        let stats = store.stats();
        assert!(stats.shards_rebuilt >= 1, "no shard rebuild recorded");
        assert_eq!(stats.panics_recovered, 0);
        // Steady state afterwards: hits work again.
        let again = store.get_or_prepare(&1, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&body, &again));
    }

    #[test]
    fn concurrent_mixed_traffic_is_consistent() {
        let store: Arc<PreparedStore<u64, u64>> = Arc::new(PreparedStore::new(8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = (t + i) % 12;
                        let body = store.get_or_prepare(&key, || key * 1000);
                        assert_eq!(*body, key * 1000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.hits + stats.misses, 1600);
        assert!(stats.len <= 8 + SHARDS); // per-shard rounding slack
    }
}
