//! Shared content-addressed caches.
//!
//! [`Cache`] is one bounded, thread-safe LRU with counted outcomes. A
//! [`RegionCache`] maps `(program fingerprint, region index, launch
//! dims)` to the immutable [`CompiledRegion`] artifact, so one
//! compilation serves every concurrent session running the same
//! `(source, options)` pair — the artifact layer of the `uhaccd`
//! content-addressed cache; the daemon's program cache (fingerprint →
//! analyzed program) is another, and each of its entries keeps the
//! answers already given for that program in one more `Cache`. The
//! program fingerprint is the caller's responsibility and should come
//! from [`uhacc_core::program_key`]`(source, options)` so that both the
//! source text *and* every codegen knob participate in the key.
//!
//! The cache is `Send + Sync`; entries are `Arc`s of immutable values
//! (kernels are themselves `Arc`s inside [`CompiledRegion`]), so a hit is
//! a pointer bump. Eviction is least-recently-used with a configurable
//! entry capacity, and every outcome is counted: hits, misses, evictions
//! and actual compiles (a miss that lost an insert race still counts the
//! compile it performed — the counters answer "how much front-end or
//! codegen work did we do", not just "how often did lookup fail").

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use uhacc_core::{CompiledRegion, LaunchDims};

/// Key of one compiled-region artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionKey {
    /// Content fingerprint of `(source, CompilerOptions)` — see
    /// [`uhacc_core::program_key`].
    pub program: u64,
    /// Region index within the program.
    pub region: usize,
    /// Launch geometry the region was compiled for.
    pub dims: LaunchDims,
}

/// Monotonic counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Number of times the compile closure actually ran (parse/codegen
    /// work performed; the program cache reports it as `parses`). A warm
    /// path leaves this unchanged.
    pub compiles: u64,
    /// Entries currently resident.
    pub entries: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Arc<V>>,
    /// Keys in least-recently-used-first order.
    lru: Vec<K>,
}

/// A bounded, thread-safe, LRU cache of immutable compile products.
pub struct Cache<K, V> {
    cap: usize,
    inner: Mutex<Inner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    compiles: AtomicU64,
}

/// The cache of compiled region artifacts.
pub type RegionCache = Cache<RegionKey, CompiledRegion>;

impl<K: Copy + Eq + Hash, V> std::fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("Cache")
            .field("cap", &self.cap)
            .field("counters", &c)
            .finish()
    }
}

impl<K: Copy + Eq + Hash, V> Cache<K, V> {
    /// A cache holding at most `cap` entries (`cap == 0` is clamped to
    /// 1: a cache that can hold nothing would turn every lookup into a
    /// miss while still paying the bookkeeping).
    pub fn new(cap: usize) -> Self {
        Cache {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
        }
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Look up `key`, compiling (and inserting) on a miss. The compile
    /// runs *outside* the cache lock so a slow compilation never blocks
    /// other sessions' hits; if two sessions race to fill the same key,
    /// the first insert wins and both get the same artifact (the loser's
    /// compile is still counted in [`CacheCounters::compiles`]).
    pub fn get_or_compile<E>(
        &self,
        key: K,
        compile: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        self.get_or_compile_hit(key, compile).map(|(v, _)| v)
    }

    /// [`Self::get_or_compile`] that also says whether this call was a
    /// hit (`true`) or ran `compile` (`false`) — per-request accounting
    /// for callers that cannot diff the shared counters.
    pub fn get_or_compile_hit<E>(
        &self,
        key: K,
        compile: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        if let Some(hit) = self.lookup(key) {
            return Ok((hit, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(compile()?);
        Ok((self.insert(key, compiled), false))
    }

    /// Plain lookup (counts a hit and refreshes LRU order on success;
    /// does *not* count a miss — `get_or_compile` owns that).
    pub fn lookup(&self, key: K) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(v) = inner.map.get(&key).cloned() {
            if let Some(pos) = inner.lru.iter().position(|k| *k == key) {
                inner.lru.remove(pos);
                inner.lru.push(key);
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        None
    }

    /// Insert `compiled` under `key`, evicting the least-recently-used
    /// entry if over capacity. Returns the resident artifact (the
    /// existing one if another session filled the key first). For
    /// callers whose fill cannot run inside [`Self::get_or_compile`];
    /// counts evictions only.
    pub fn insert(&self, key: K, compiled: Arc<V>) -> Arc<V> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(existing) = inner.map.get(&key).cloned() {
            return existing;
        }
        inner.map.insert(key, compiled.clone());
        inner.lru.push(key);
        while inner.map.len() > self.cap {
            let victim = inner.lru.remove(0);
            inner.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        compiled
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> CacheCounters {
        let entries = self.inner.lock().unwrap().map.len() as u64;
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uhacc_core::CompilerOptions;

    fn compile_fixture(src: &str, dims: LaunchDims) -> CompiledRegion {
        let prog = accparse::compile(src).unwrap();
        uhacc_core::compile_region(&prog, 0, dims, &CompilerOptions::openuh()).unwrap()
    }

    const SRC: &str = "int N; int s;\ns = 0;\n#pragma acc parallel loop gang \
                       reduction(+:s)\nfor (int i = 0; i < N; i++) { s += 1; }\n";

    fn key(program: u64, dims: LaunchDims) -> RegionKey {
        RegionKey {
            program,
            region: 0,
            dims,
        }
    }

    #[test]
    fn hit_skips_compile_and_shares_artifact() {
        let cache = RegionCache::new(8);
        let dims = LaunchDims::paper();
        let a = cache
            .get_or_compile::<()>(key(1, dims), || Ok(compile_fixture(SRC, dims)))
            .unwrap();
        let b = cache
            .get_or_compile::<()>(key(1, dims), || panic!("warm hit must not compile"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit returns the shared artifact");
        assert!(Arc::ptr_eq(&a.main, &b.main), "kernels are shared too");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.compiles, c.entries), (1, 1, 1, 1));
    }

    #[test]
    fn lru_eviction_is_counted() {
        let cache = RegionCache::new(2);
        let dims = LaunchDims::paper();
        for p in 1..=3u64 {
            cache
                .get_or_compile::<()>(key(p, dims), || Ok(compile_fixture(SRC, dims)))
                .unwrap();
        }
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.entries, 2);
        // Key 1 was least recently used and is gone; 2 and 3 remain.
        assert!(cache.lookup(key(1, dims)).is_none());
        assert!(cache.lookup(key(3, dims)).is_some());
        // Touching 2 then inserting 4 evicts 3, not 2.
        assert!(cache.lookup(key(2, dims)).is_some());
        cache
            .get_or_compile::<()>(key(4, dims), || Ok(compile_fixture(SRC, dims)))
            .unwrap();
        assert!(cache.lookup(key(2, dims)).is_some());
        assert!(cache.lookup(key(3, dims)).is_none());
    }

    #[test]
    fn compile_errors_propagate_and_insert_nothing() {
        let cache = RegionCache::new(2);
        let dims = LaunchDims::paper();
        let r = cache.get_or_compile(key(9, dims), || Err("boom"));
        assert_eq!(r.err(), Some("boom"));
        assert_eq!(cache.counters().entries, 0);
        // The failed fill counted as a miss + compile, not a hit.
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.compiles), (0, 1, 1));
    }
}
