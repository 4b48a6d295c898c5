//! The sharded concurrent fragment store.
//!
//! Pages are not the only cacheable unit: the paper's §2 models *page
//! fragments* (result tables, the medal box, headline lists) as first-class
//! ODG objects, and Figure 15 composes pages from them in two levels.
//! This store holds the **inner HTML** of each fragment — the bytes a
//! composed page splices between its skeleton segments — keyed by the
//! fragment's canonical URL (`/fragments/...`), separate from the
//! [`crate::PageCache`] entries that hold finished, servable pages.
//!
//! The machinery mirrors the page cache: shards of `parking_lot::Mutex`
//! maps, immutable [`bytes::Bytes`] bodies (so composing a fragment into
//! fifty pages shares one allocation), and a monotonically bumped version
//! per entry. It is deliberately simpler than [`crate::PageCache`]: no
//! preserialised heads, no stale tombstones, no single-flight (fragment
//! regeneration is driven by the trigger monitor, which already
//! serialises per-batch work).

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use bytes::Bytes;
use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHasher};

/// One cached fragment: immutable inner-HTML bytes plus bookkeeping.
#[derive(Debug, Clone)]
pub struct FragmentEntry {
    /// The fragment's inner HTML (no page chrome, no padding).
    pub body: Bytes,
    /// Bumped on every put; 1 on first insert.
    pub version: u64,
    /// Modelled CPU cost (ms) of regenerating this fragment.
    pub cost_ms: f64,
}

/// Counters for the store (mirrors [`crate::StatsSnapshot`] in spirit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragmentStoreStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups (missing or invalidated fragment).
    pub misses: u64,
    /// Inserts and in-place updates.
    pub puts: u64,
    /// Invalidation calls that removed a live entry.
    pub invalidations: u64,
}

#[derive(Default)]
struct Shard {
    map: FxHashMap<String, FragmentEntry>,
}

/// A sharded map from fragment URL to [`FragmentEntry`].
pub struct FragmentStore {
    shards: Vec<Mutex<Shard>>,
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for FragmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FragmentStore")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl Default for FragmentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl FragmentStore {
    /// A store with the default 16 shards.
    pub fn new() -> Self {
        Self::with_shards(16)
    }

    /// A store with `shards` shards (rounded up to a power of two, min 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        FragmentStore {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            mask: n - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, url: &str) -> &Mutex<Shard> {
        let mut h = FxHasher::default();
        url.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Insert or update the fragment at `url`; returns the new version
    /// (1 on first insert). The body is the fragment's *inner* HTML.
    pub fn put(&self, url: &str, body: Bytes, cost_ms: f64) -> u64 {
        self.puts.fetch_add(1, Relaxed);
        let mut shard = self.shard(url).lock();
        match shard.map.get_mut(url) {
            Some(entry) => {
                entry.body = body;
                entry.version += 1;
                entry.cost_ms = cost_ms;
                entry.version
            }
            None => {
                shard.map.insert(
                    url.to_string(),
                    FragmentEntry {
                        body,
                        version: 1,
                        cost_ms,
                    },
                );
                1
            }
        }
    }

    /// Look up the fragment at `url` — a refcount bump, never a copy.
    pub fn get(&self, url: &str) -> Option<FragmentEntry> {
        let found = self.shard(url).lock().map.get(url).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Relaxed),
            None => self.misses.fetch_add(1, Relaxed),
        };
        found
    }

    /// Look up without touching the hit/miss counters (composition-planning
    /// probes that should not skew the stats).
    pub fn peek(&self, url: &str) -> Option<FragmentEntry> {
        self.shard(url).lock().map.get(url).cloned()
    }

    /// Whether a live fragment exists at `url`.
    pub fn contains(&self, url: &str) -> bool {
        self.shard(url).lock().map.contains_key(url)
    }

    /// Drop the fragment at `url`; returns whether an entry was removed.
    pub fn invalidate(&self, url: &str) -> bool {
        let removed = self.shard(url).lock().map.remove(url).is_some();
        if removed {
            self.invalidations.fetch_add(1, Relaxed);
        }
        removed
    }

    /// Number of live fragments.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Drop every fragment (cold-restart fault injection).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().map.clear();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FragmentStoreStats {
        FragmentStoreStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            puts: self.puts.load(Relaxed),
            invalidations: self.invalidations.load(Relaxed),
        }
    }

    /// Every live `(url, entry)` pair, sorted by URL (deterministic
    /// export for tests and audits).
    pub fn export_entries(&self) -> Vec<(String, FragmentEntry)> {
        let mut out: Vec<(String, FragmentEntry)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .map
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_bumps_versions() {
        let store = FragmentStore::new();
        assert_eq!(
            store.put("/fragments/medals", Bytes::from("<table/>"), 70.0),
            1
        );
        assert_eq!(
            store.put("/fragments/medals", Bytes::from("<table>2</table>"), 70.0),
            2
        );
        let e = store.get("/fragments/medals").unwrap();
        assert_eq!(e.version, 2);
        assert_eq!(&e.body[..], b"<table>2</table>");
        assert_eq!(e.cost_ms, 70.0);
        assert!(store.get("/fragments/results/9").is_none());
        let s = store.stats();
        assert_eq!((s.puts, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn get_is_zero_copy() {
        let store = FragmentStore::new();
        let body = Bytes::from(vec![b'x'; 256]);
        let ptr = body.as_ptr();
        store.put("/fragments/results/1", body, 60.0);
        let a = store.get("/fragments/results/1").unwrap();
        let b = store.get("/fragments/results/1").unwrap();
        assert_eq!(a.body.as_ptr(), ptr);
        assert_eq!(b.body.as_ptr(), ptr);
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let store = FragmentStore::new();
        store.put("/fragments/headlines/3", Bytes::from("<ul/>"), 50.0);
        assert!(store.contains("/fragments/headlines/3"));
        assert!(store.invalidate("/fragments/headlines/3"));
        assert!(!store.invalidate("/fragments/headlines/3"));
        assert!(!store.contains("/fragments/headlines/3"));
        assert_eq!(store.stats().invalidations, 1);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn peek_does_not_skew_stats() {
        let store = FragmentStore::new();
        store.put("/fragments/medals", Bytes::from("m"), 70.0);
        store.peek("/fragments/medals");
        store.peek("/fragments/missing");
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn clear_and_export() {
        let store = FragmentStore::new();
        store.put("/fragments/results/2", Bytes::from("b"), 60.0);
        store.put("/fragments/results/1", Bytes::from("a"), 60.0);
        let urls: Vec<String> = store.export_entries().into_iter().map(|(u, _)| u).collect();
        assert_eq!(urls, vec!["/fragments/results/1", "/fragments/results/2"]);
        store.clear();
        assert!(store.is_empty());
    }
}
