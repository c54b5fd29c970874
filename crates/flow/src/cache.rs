//! Shared content-addressed artifact cache for the serve daemon.
//!
//! [`ArtifactCache`] generalizes the on-disk [`crate::CheckpointStore`]
//! into an in-memory, byte-budgeted store keyed by strings that embed the
//! normalized config⊕params fingerprint (see
//! `checkpoint::config_fingerprint` and
//! `checkpoint::front_config_fingerprint`). Deduplication is per
//! front-end and per result, *including in-flight work*:
//! [`ArtifactCache::acquire`] on a key someone else is currently
//! computing blocks on a condvar until the computation publishes or
//! abandons, so two jobs that differ only in back-end parameters share one
//! front-end computation, not just one cached copy.
//!
//! Robustness properties:
//!
//! - **Fail-closed reads.** Every hit re-digests the payload against the
//!   FNV-1a digest recorded at publish; a mismatch (or an injected
//!   `cache_read` fault) evicts the entry and the caller recomputes.
//!   Corrupt bytes are never returned.
//! - **Bounded memory.** A publish that pushes the cache over its byte
//!   budget evicts least-recently-used entries until it fits. The entry
//!   just published is never its own victim (waiters blocked on it must
//!   find it), so the cache can transiently hold one over-budget entry.
//! - **No leaked claims.** A [`ClaimGuard`] dropped without publishing —
//!   the computing job panicked, errored, or was cancelled — removes the
//!   in-flight marker and wakes every waiter, which then race to claim
//!   and recompute. A crash mid-compute can never wedge later requests.
//! - **Poisoning-proof.** Every lock acquisition recovers the inner state
//!   from a poisoned mutex; all state transitions happen after the
//!   payload is fully formed, so a panicking thread leaves the map
//!   consistent.
//!
//! The `cache_read` / `cache_write` / `cache_evict` fault points of
//! [`crate::faultpoint`] cover the three mutation surfaces.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::checkpoint::fnv1a;
use crate::error::FlowError;
use crate::faultpoint;

/// One cache slot: either a finished artifact or a claim somebody is
/// computing under.
enum Entry {
    /// A job claimed this key and is computing; waiters block on the
    /// cache condvar until it flips to `Ready` or disappears.
    InFlight,
    /// A published artifact with its content digest and LRU stamp.
    Ready {
        bytes: Arc<Vec<u8>>,
        digest: u64,
        stamp: u64,
    },
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<String, Entry>,
    /// Total payload bytes across `Ready` entries.
    bytes: usize,
    /// Monotonic LRU clock; bumped on every touch.
    clock: u64,
    hits: u64,
    misses: u64,
    evicted: u64,
    invalid: u64,
    inflight_waits: u64,
}

/// Counters snapshot for `/stats` and test assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Published entries currently resident.
    pub entries: usize,
    /// Keys currently claimed and computing.
    pub in_flight: usize,
    /// Resident payload bytes.
    pub bytes: usize,
    /// Byte budget evictions enforce.
    pub budget: usize,
    /// Validated hits served.
    pub hits: u64,
    /// Misses (claims handed out).
    pub misses: u64,
    /// Entries evicted under byte pressure or by hand.
    pub evicted: u64,
    /// Hits rejected by digest validation (fail-closed reads).
    pub invalid: u64,
    /// Times an acquire blocked on someone else's in-flight compute.
    pub inflight_waits: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "entries={} in_flight={} bytes={}/{} hits={} misses={} evicted={} waits={} invalid={}",
            self.entries,
            self.in_flight,
            self.bytes,
            self.budget,
            self.hits,
            self.misses,
            self.evicted,
            self.inflight_waits,
            self.invalid
        )
    }
}

/// What [`ArtifactCache::acquire`] resolved to.
pub enum CacheOutcome<'c> {
    /// A validated artifact; the bytes are shared, don't mutate.
    Hit(Arc<Vec<u8>>),
    /// The key is yours to compute. Publish the artifact through the
    /// guard, or drop it to abandon the claim (waiters recompute).
    Miss(ClaimGuard<'c>),
}

/// An exclusive claim on a cache key, handed out by a miss. Dropping it
/// without [`ClaimGuard::publish`] abandons the claim and wakes waiters.
pub struct ClaimGuard<'c> {
    cache: &'c ArtifactCache,
    key: String,
    published: bool,
}

/// The in-memory artifact cache. See the module docs.
pub struct ArtifactCache {
    budget: usize,
    state: Mutex<CacheState>,
    cv: Condvar,
}

impl ArtifactCache {
    /// An empty cache that evicts down to `budget_bytes` of payload.
    pub fn new(budget_bytes: usize) -> ArtifactCache {
        ArtifactCache {
            budget: budget_bytes,
            state: Mutex::new(CacheState::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolves `key` to a hit or a claim, blocking while another job
    /// computes the same key. `ctx` feeds the `cache_read` fault point
    /// (and error paths) — pass the job context string.
    ///
    /// An armed `cache_read` *panic* fault propagates to the caller;
    /// error/timeout kinds are treated as failed validation (the entry is
    /// dropped and recomputed), exercising the fail-closed path.
    pub fn acquire(&self, key: &str, ctx: &str) -> CacheOutcome<'_> {
        let mut st = self.lock();
        loop {
            st.clock += 1;
            let now = st.clock;
            enum Step {
                Hit(Arc<Vec<u8>>, u64),
                Wait,
                Claim,
            }
            let step = match st.entries.get_mut(key) {
                Some(Entry::Ready {
                    bytes,
                    digest,
                    stamp,
                }) => {
                    *stamp = now;
                    Step::Hit(Arc::clone(bytes), *digest)
                }
                Some(Entry::InFlight) => Step::Wait,
                None => Step::Claim,
            };
            match step {
                Step::Claim => {
                    st.misses += 1;
                    st.entries.insert(key.to_owned(), Entry::InFlight);
                    return CacheOutcome::Miss(ClaimGuard {
                        cache: self,
                        key: key.to_owned(),
                        published: false,
                    });
                }
                Step::Wait => {
                    st.inflight_waits += 1;
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                Step::Hit(bytes, digest) => {
                    // Validate outside the lock: digesting a multi-MB
                    // payload under the cache mutex would serialize every
                    // client on one reader.
                    drop(st);
                    let valid =
                        faultpoint::fire("cache_read", ctx).is_ok() && fnv1a(&bytes) == digest;
                    st = self.lock();
                    if valid {
                        st.hits += 1;
                        return CacheOutcome::Hit(bytes);
                    }
                    // Fail closed: drop the suspect entry (unless it was
                    // concurrently replaced by a fresh publish) and loop
                    // around to claim a recompute.
                    st.invalid += 1;
                    if let Some(Entry::Ready { bytes: cur, .. }) = st.entries.get(key) {
                        if Arc::ptr_eq(cur, &bytes) {
                            st.bytes = st.bytes.saturating_sub(bytes.len());
                            st.entries.remove(key);
                        }
                    }
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let st = self.lock();
        CacheStats {
            entries: st
                .entries
                .values()
                .filter(|e| matches!(e, Entry::Ready { .. }))
                .count(),
            in_flight: st
                .entries
                .values()
                .filter(|e| matches!(e, Entry::InFlight))
                .count(),
            bytes: st.bytes,
            budget: self.budget,
            hits: st.hits,
            misses: st.misses,
            evicted: st.evicted,
            invalid: st.invalid,
            inflight_waits: st.inflight_waits,
        }
    }

    /// The eviction byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// True if `key` holds a published (not in-flight) artifact.
    pub fn contains(&self, key: &str) -> bool {
        matches!(self.lock().entries.get(key), Some(Entry::Ready { .. }))
    }

    /// The published keys, sorted (tests and `/stats`).
    pub fn keys(&self) -> Vec<String> {
        let st = self.lock();
        let mut keys: Vec<String> = st
            .entries
            .iter()
            .filter(|(_, e)| matches!(e, Entry::Ready { .. }))
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
    }

    /// Force-evicts one published key (eviction property tests; also the
    /// fail-closed path after an undecodable payload). Returns whether an
    /// entry was removed. Never touches in-flight claims.
    pub fn evict_key(&self, key: &str) -> bool {
        let mut st = self.lock();
        if !matches!(st.entries.get(key), Some(Entry::Ready { .. })) {
            return false;
        }
        if let Some(Entry::Ready { bytes, .. }) = st.entries.remove(key) {
            st.bytes = st.bytes.saturating_sub(bytes.len());
            st.evicted += 1;
        }
        true
    }

    /// Corrupts a published entry's recorded digest (tests of the
    /// fail-closed read path). Returns whether a key was poisoned.
    pub fn corrupt_digest(&self, key: &str) -> bool {
        let mut st = self.lock();
        if let Some(Entry::Ready { digest, .. }) = st.entries.get_mut(key) {
            *digest ^= 0xdead_beef;
            return true;
        }
        false
    }

    /// Re-digests every published entry, failing on the first mismatch
    /// (post-chaos invariant check: the cache must stay readable and
    /// valid after panics, drains, and evictions).
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] naming the first invalid key.
    pub fn validate_all(&self) -> Result<usize, FlowError> {
        // Snapshot the payloads, digest outside the lock.
        let snapshot: Vec<(String, Arc<Vec<u8>>, u64)> = {
            let st = self.lock();
            st.entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { bytes, digest, .. } => {
                        Some((k.clone(), Arc::clone(bytes), *digest))
                    }
                    Entry::InFlight => None,
                })
                .collect()
        };
        for (key, bytes, digest) in &snapshot {
            if fnv1a(bytes) != *digest {
                return Err(FlowError::Checkpoint {
                    path: key.clone().into(),
                    offset: 0,
                    detail: "cached artifact digest mismatch".to_owned(),
                });
            }
        }
        Ok(snapshot.len())
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArtifactCache({})", self.stats())
    }
}

impl ClaimGuard<'_> {
    /// The claimed key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Publishes `bytes` under the claimed key, wakes every waiter, and
    /// LRU-evicts other entries until the cache fits its byte budget.
    /// Returns the number of entries evicted.
    ///
    /// # Errors
    ///
    /// An injected `cache_write` fault: the publish is abandoned exactly
    /// as if the guard were dropped — waiters recompute, the job that
    /// computed the artifact still has its in-memory copy and proceeds.
    pub fn publish(mut self, bytes: Vec<u8>, ctx: &str) -> Result<u64, FlowError> {
        faultpoint::fire("cache_write", ctx)?;
        let digest = fnv1a(&bytes);
        let len = bytes.len();
        let mut st = self.cache.lock();
        self.published = true;
        st.clock += 1;
        let stamp = st.clock;
        st.bytes += len;
        st.entries.insert(
            self.key.clone(),
            Entry::Ready {
                bytes: Arc::new(bytes),
                digest,
                stamp,
            },
        );
        let mut evicted = 0u64;
        while st.bytes > self.cache.budget {
            let victim = st
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { stamp, .. } if k != &self.key => Some((*stamp, k.clone())),
                    _ => None,
                })
                .min();
            let Some((_, vkey)) = victim else { break };
            if faultpoint::fire("cache_evict", ctx).is_err() {
                // Injected eviction failure: stop the sweep and run over
                // budget until the next publish retries, rather than
                // evict an entry whose removal just "failed".
                break;
            }
            if let Some(Entry::Ready { bytes, .. }) = st.entries.remove(&vkey) {
                st.bytes = st.bytes.saturating_sub(bytes.len());
                st.evicted += 1;
                evicted += 1;
            }
        }
        drop(st);
        self.cache.cv.notify_all();
        Ok(evicted)
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // Abandoned claim (panic, error, cancellation, or an injected
        // cache_write fault): clear the in-flight marker so waiters can
        // claim a recompute instead of hanging forever.
        let mut st = self.cache.lock();
        if matches!(st.entries.get(&self.key), Some(Entry::InFlight)) {
            st.entries.remove(&self.key);
        }
        drop(st);
        self.cache.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag ^ (i as u8)).collect()
    }

    #[test]
    fn miss_then_publish_then_hit() {
        let cache = ArtifactCache::new(1 << 20);
        let CacheOutcome::Miss(claim) = cache.acquire("k", "t") else {
            panic!("expected miss on empty cache");
        };
        claim.publish(payload(1, 64), "t").unwrap();
        let CacheOutcome::Hit(bytes) = cache.acquire("k", "t") else {
            panic!("expected hit after publish");
        };
        assert_eq!(*bytes, payload(1, 64));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 64));
    }

    #[test]
    fn dropped_claim_unblocks_waiters_to_recompute() {
        let cache = Arc::new(ArtifactCache::new(1 << 20));
        let CacheOutcome::Miss(claim) = cache.acquire("k", "t") else {
            panic!("expected miss");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.acquire("k", "t") {
                CacheOutcome::Hit(_) => panic!("nothing was published"),
                CacheOutcome::Miss(claim) => {
                    claim.publish(payload(2, 8), "t").unwrap();
                }
            })
        };
        // Let the waiter reach the condvar, then abandon the claim.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(claim);
        waiter.join().unwrap();
        assert!(cache.contains("k"));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn inflight_dedup_blocks_second_requester_until_publish() {
        let cache = Arc::new(ArtifactCache::new(1 << 20));
        let CacheOutcome::Miss(claim) = cache.acquire("front/x", "t") else {
            panic!("expected miss");
        };
        let hits = Arc::new(AtomicU64::new(0));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let hits = Arc::clone(&hits);
                std::thread::spawn(move || {
                    if let CacheOutcome::Hit(b) = cache.acquire("front/x", "t") {
                        assert_eq!(*b, payload(7, 32));
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        claim.publish(payload(7, 32), "t").unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        // Every waiter was served the single computed artifact.
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 4);
        assert!(s.inflight_waits >= 4);
    }

    #[test]
    fn lru_eviction_keeps_bytes_at_or_under_budget() {
        let cache = ArtifactCache::new(256);
        for i in 0..8u8 {
            let key = format!("k{i}");
            let CacheOutcome::Miss(claim) = cache.acquire(&key, "t") else {
                panic!("expected miss for fresh key");
            };
            claim.publish(payload(i, 64), "t").unwrap();
        }
        let s = cache.stats();
        assert!(s.bytes <= 256, "bytes {} over budget", s.bytes);
        assert_eq!(s.entries, 4);
        assert_eq!(s.evicted, 4);
        // The oldest keys went first.
        assert_eq!(cache.keys(), ["k4", "k5", "k6", "k7"]);
        assert_eq!(cache.validate_all().unwrap(), 4);
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        let cache = ArtifactCache::new(128);
        for i in 0..2u8 {
            let CacheOutcome::Miss(c) = cache.acquire(&format!("k{i}"), "t") else {
                panic!("miss");
            };
            c.publish(payload(i, 64), "t").unwrap();
        }
        // Touch k0 so k1 becomes the LRU victim.
        assert!(matches!(cache.acquire("k0", "t"), CacheOutcome::Hit(_)));
        let CacheOutcome::Miss(c) = cache.acquire("k2", "t") else {
            panic!("miss");
        };
        c.publish(payload(2, 64), "t").unwrap();
        assert_eq!(cache.keys(), ["k0", "k2"]);
    }

    #[test]
    fn corrupted_entry_fails_closed_into_a_recompute() {
        let cache = ArtifactCache::new(1 << 20);
        let CacheOutcome::Miss(c) = cache.acquire("k", "t") else {
            panic!("miss");
        };
        c.publish(payload(3, 16), "t").unwrap();
        assert!(cache.corrupt_digest("k"));
        assert!(cache.validate_all().is_err());
        // The poisoned entry must never be served: the read validates,
        // drops it, and hands out a fresh claim.
        let CacheOutcome::Miss(c) = cache.acquire("k", "t") else {
            panic!("corrupt entry served as a hit");
        };
        c.publish(payload(4, 16), "t").unwrap();
        let s = cache.stats();
        assert_eq!(s.invalid, 1);
        assert_eq!(s.hits, 0);
        assert!(matches!(cache.acquire("k", "t"), CacheOutcome::Hit(_)));
        assert_eq!(cache.validate_all().unwrap(), 1);
    }

    #[test]
    fn evict_key_removes_exactly_one_entry() {
        let cache = ArtifactCache::new(1 << 20);
        for i in 0..3u8 {
            let CacheOutcome::Miss(c) = cache.acquire(&format!("k{i}"), "t") else {
                panic!("miss");
            };
            c.publish(payload(i, 10), "t").unwrap();
        }
        assert!(cache.evict_key("k1"));
        assert!(!cache.evict_key("k1"));
        assert_eq!(cache.keys(), ["k0", "k2"]);
        assert_eq!(cache.stats().bytes, 20);
    }

    #[test]
    fn zero_budget_cache_retains_only_the_latest_publish() {
        let cache = ArtifactCache::new(0);
        for i in 0..3u8 {
            let CacheOutcome::Miss(c) = cache.acquire(&format!("k{i}"), "t") else {
                panic!("miss");
            };
            c.publish(payload(i, 8), "t").unwrap();
        }
        // Each publish keeps itself (waiters must find it) but evicts
        // everything else.
        assert_eq!(cache.keys(), ["k2"]);
    }
}
