//! Server-wide byte-budgeted LRU of materialized trace buffers.
//!
//! [`TraceLru`] is a process-wide store of materialized access streams
//! keyed by [`TraceKey`] `(workload, seed, len)`, so concurrent sweeps —
//! the `slip serve` daemon's runs — share one buffer per distinct
//! stream no matter which request materialized it. Offline sweeps use
//! no cache: their fused groups stream the trace.
//!
//! Concurrency contract: the map lock is held only to look up or insert
//! an entry; materialization itself runs outside the lock behind a
//! per-entry [`OnceLock`], so two cells racing for the same key block
//! on each other (one builds, both share) without serializing unrelated
//! keys. Eviction removes the least-recently-used entries from the map;
//! in-flight users keep their `Arc` and finish unaffected.
//!
//! Every outcome is counted ([`TraceCacheStats`]): `hits` (buffer was
//! resident, including waits on an in-flight build), `misses` (this
//! call materialized), `evictions`, and `bypasses` (stream larger than
//! the whole budget — the caller streams the trace instead).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use sweep_runner::json::Value;
use workloads::TraceBuffer;

/// Identity of one materialized access stream. Two cells with equal
/// keys consume bit-identical traces, so sharing is always sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Workload name (e.g. `"gcc"`).
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Total accesses materialized (warmup + measured).
    pub len: u64,
}

impl TraceKey {
    /// Convenience constructor.
    pub fn new(workload: impl Into<String>, seed: u64, len: u64) -> TraceKey {
        TraceKey {
            workload: workload.into(),
            seed,
            len,
        }
    }

    /// Packed size of this stream's buffer in bytes.
    pub fn bytes(&self) -> u64 {
        TraceBuffer::bytes_for(self.len)
    }
}

/// One cache slot: reservation bookkeeping plus the lazily-filled
/// buffer. The `OnceLock` lives behind its own `Arc` so waiters can
/// block on an in-flight materialization without holding the map lock.
struct Entry {
    slot: Arc<OnceLock<Arc<TraceBuffer>>>,
    bytes: u64,
    last_use: u64,
}

struct Inner {
    entries: HashMap<TraceKey, Entry>,
    /// Monotonic use counter; larger is more recent.
    tick: u64,
    /// Bytes reserved by resident entries (reserved at insert, released
    /// on eviction — in-flight builds count so the budget cannot
    /// oversubscribe).
    resident_bytes: u64,
}

/// Cumulative counters plus a point-in-time residency snapshot.
///
/// Counter fields are monotonic over the cache's lifetime; use
/// [`TraceCacheStats::delta_since`] to scope them to one sweep of a
/// long-lived (server-wide) cache.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups satisfied by a resident (or in-flight) buffer.
    pub hits: u64,
    /// Lookups that materialized the buffer.
    pub misses: u64,
    /// Entries removed to make room.
    pub evictions: u64,
    /// Lookups refused because the stream exceeds the whole budget.
    pub bypasses: u64,
    /// Bytes currently reserved by resident entries.
    pub resident_bytes: u64,
    /// Resident entry count.
    pub resident_entries: u64,
}

impl TraceCacheStats {
    /// Counter deltas relative to an `earlier` snapshot of the same
    /// cache; residency fields stay absolute (they are gauges, not
    /// counters).
    pub fn delta_since(&self, earlier: &TraceCacheStats) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            bypasses: self.bypasses - earlier.bypasses,
            resident_bytes: self.resident_bytes,
            resident_entries: self.resident_entries,
        }
    }

    /// JSON encoding, used by `SuiteResults` reports and the serve
    /// protocol's `stats` response.
    pub fn to_value(&self) -> Value {
        Value::object()
            .with("hits", Value::u64(self.hits))
            .with("misses", Value::u64(self.misses))
            .with("evictions", Value::u64(self.evictions))
            .with("bypasses", Value::u64(self.bypasses))
            .with("resident_bytes", Value::u64(self.resident_bytes))
            .with("resident_entries", Value::u64(self.resident_entries))
    }
}

/// How a lookup was satisfied; becomes the cell's `trace_source`
/// metric label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Buffer was already resident (or being built by another cell).
    Cached,
    /// This call materialized the buffer.
    Materialized,
}

impl TraceOutcome {
    /// Metric label (`"cached"` / `"materialized"`).
    pub fn label(self) -> &'static str {
        match self {
            TraceOutcome::Cached => "cached",
            TraceOutcome::Materialized => "materialized",
        }
    }
}

/// Byte-budgeted LRU of shared [`TraceBuffer`]s. Cheap to share:
/// wrap in an [`Arc`] and clone the handle per sweep/connection.
pub struct TraceLru {
    inner: Mutex<Inner>,
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
}

impl std::fmt::Debug for TraceLru {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("TraceLru")
            .field("budget", &self.budget)
            .field("stats", &stats)
            .finish()
    }
}

impl TraceLru {
    /// A cache holding at most `budget_mb` MiB of packed trace words.
    /// A zero budget disables sharing: every lookup bypasses.
    pub fn new(budget_mb: u64) -> TraceLru {
        TraceLru {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                resident_bytes: 0,
            }),
            budget: budget_mb.saturating_mul(1 << 20),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The shared buffer for `key`, materializing it via `materialize`
    /// on first use. `None` means the stream cannot fit the budget at
    /// all — the caller must stream the trace instead.
    pub fn get_or_materialize(
        &self,
        key: &TraceKey,
        materialize: impl FnOnce() -> TraceBuffer,
    ) -> Option<(Arc<TraceBuffer>, TraceOutcome)> {
        let bytes = key.bytes();
        if bytes > self.budget {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let slot = {
            let mut inner = self.inner.lock().expect("trace cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(key) {
                entry.last_use = tick;
                Arc::clone(&entry.slot)
            } else {
                self.evict_to_fit(&mut inner, bytes);
                let slot = Arc::new(OnceLock::new());
                inner.entries.insert(
                    key.clone(),
                    Entry {
                        slot: Arc::clone(&slot),
                        bytes,
                        last_use: tick,
                    },
                );
                inner.resident_bytes += bytes;
                slot
            }
        };
        // Build (or wait for the in-flight builder) without the map
        // lock, so unrelated keys proceed concurrently.
        let mut built = false;
        let buffer = Arc::clone(slot.get_or_init(|| {
            built = true;
            Arc::new(materialize())
        }));
        let outcome = if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
            TraceOutcome::Materialized
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            TraceOutcome::Cached
        };
        Some((buffer, outcome))
    }

    /// Evicts least-recently-used entries until `bytes` more fit the
    /// budget. Callers guarantee `bytes <= budget`, so this always
    /// terminates with enough room.
    fn evict_to_fit(&self, inner: &mut Inner, bytes: u64) {
        while inner.resident_bytes + bytes > self.budget {
            let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            let entry = inner.entries.remove(&oldest).expect("key just observed");
            inner.resident_bytes -= entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time statistics snapshot.
    pub fn stats(&self) -> TraceCacheStats {
        let inner = self.inner.lock().expect("trace cache poisoned");
        TraceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            resident_bytes: inner.resident_bytes,
            resident_entries: inner.entries.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::workload;

    fn buffer(name: &str, seed: u64, len: u64) -> TraceBuffer {
        let spec = workload(name).expect("known benchmark");
        TraceBuffer::materialize(spec.trace(len, seed))
    }

    fn key(name: &str, seed: u64, len: u64) -> TraceKey {
        TraceKey::new(name, seed, len)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_buffer() {
        let lru = TraceLru::new(64);
        let k = key("gcc", 7, 1000);
        let (a, first) = lru
            .get_or_materialize(&k, || buffer("gcc", 7, 1000))
            .unwrap();
        let (b, second) = lru
            .get_or_materialize(&k, || panic!("must not rebuild"))
            .unwrap();
        assert_eq!(first, TraceOutcome::Materialized);
        assert_eq!(second, TraceOutcome::Cached);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = lru.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_entries, 1);
        assert_eq!(stats.resident_bytes, k.bytes());
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let lru = TraceLru::new(64);
        let (a, _) = lru
            .get_or_materialize(&key("gcc", 7, 1000), || buffer("gcc", 7, 1000))
            .unwrap();
        let (b, _) = lru
            .get_or_materialize(&key("gcc", 8, 1000), || buffer("gcc", 8, 1000))
            .unwrap();
        let (c, _) = lru
            .get_or_materialize(&key("gcc", 7, 2000), || buffer("gcc", 7, 2000))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(lru.stats().misses, 3);
    }

    #[test]
    fn zero_budget_bypasses_everything() {
        let lru = TraceLru::new(0);
        assert!(lru
            .get_or_materialize(&key("gcc", 7, 1000), || panic!("no materialization"))
            .is_none());
        let stats = lru.stats();
        assert_eq!(stats.bypasses, 1);
        assert_eq!(stats.resident_entries, 0);
    }

    #[test]
    fn lru_eviction_removes_the_least_recently_used() {
        // Budget fits exactly two 1000-access buffers (8 KB each is
        // far under 1 MiB, so craft the budget in bytes via len):
        // use a budget of 1 MiB and lengths that make 3 entries
        // overflow it.
        let lru = TraceLru::new(1); // 1 MiB
        let len = 60_000; // 480 KB each; two fit, three do not.
        let ka = key("gcc", 1, len);
        let kb = key("mcf", 2, len);
        let kc = key("lbm", 3, len);
        lru.get_or_materialize(&ka, || buffer("gcc", 1, len))
            .unwrap();
        lru.get_or_materialize(&kb, || buffer("mcf", 2, len))
            .unwrap();
        // Touch A so B is the LRU victim.
        lru.get_or_materialize(&ka, || panic!("resident")).unwrap();
        lru.get_or_materialize(&kc, || buffer("lbm", 3, len))
            .unwrap();
        let stats = lru.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_entries, 2);
        // A survived (recently used), B was evicted and rebuilds.
        lru.get_or_materialize(&ka, || panic!("A must be resident"))
            .unwrap();
        let (_, outcome) = lru
            .get_or_materialize(&kb, || buffer("mcf", 2, len))
            .unwrap();
        assert_eq!(outcome, TraceOutcome::Materialized);
    }

    #[test]
    fn oversized_stream_bypasses_without_evicting_residents() {
        let lru = TraceLru::new(1); // 1 MiB
        let small = key("gcc", 1, 1000);
        lru.get_or_materialize(&small, || buffer("gcc", 1, 1000))
            .unwrap();
        // 8 B/access: 200k accesses > 1 MiB.
        let huge = key("mcf", 2, 200_000);
        assert!(lru
            .get_or_materialize(&huge, || panic!("over budget"))
            .is_none());
        let stats = lru.stats();
        assert_eq!(stats.bypasses, 1);
        assert_eq!(stats.evictions, 0, "bypass must not evict residents");
        assert_eq!(stats.resident_entries, 1);
    }

    #[test]
    fn concurrent_same_key_lookups_build_once() {
        let lru = Arc::new(TraceLru::new(64));
        let builds = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lru = Arc::clone(&lru);
                let builds = Arc::clone(&builds);
                std::thread::spawn(move || {
                    let (buf, _) = lru
                        .get_or_materialize(&key("gcc", 7, 5000), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            buffer("gcc", 7, 5000)
                        })
                        .unwrap();
                    buf.len()
                })
            })
            .collect();
        let lens: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(lens.iter().all(|&l| l == lens[0]));
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one build");
        let stats = lru.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn stats_delta_scopes_counters_to_one_window() {
        let lru = TraceLru::new(64);
        lru.get_or_materialize(&key("gcc", 1, 1000), || buffer("gcc", 1, 1000))
            .unwrap();
        let before = lru.stats();
        lru.get_or_materialize(&key("gcc", 1, 1000), || panic!("resident"))
            .unwrap();
        lru.get_or_materialize(&key("mcf", 2, 1000), || buffer("mcf", 2, 1000))
            .unwrap();
        let delta = lru.stats().delta_since(&before);
        assert_eq!((delta.hits, delta.misses), (1, 1));
        assert_eq!(delta.resident_entries, 2);
        let json = delta.to_value().to_json();
        assert!(json.contains("\"hits\":1"), "{json}");
    }
}
