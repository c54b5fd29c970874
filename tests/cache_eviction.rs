//! Cache-eviction properties of the serve daemon's artifact cache.
//!
//! The contract under test: evicting **any** subset of cached stage
//! artifacts never changes a published fingerprint — it only changes
//! how much the next job recomputes. Cache counters live in
//! [`vpga::flow::StageStats`] display fields that the fingerprint fold
//! explicitly excludes, so a hit-served and a recomputed run of the
//! same job are bit-identical.

use proptest::prelude::*;
use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::flow::{ArtifactCache, CacheOutcome, CachedFlow, FlowConfig, FlowVariant, ServiceJob};

fn tiny_job(variant: FlowVariant) -> ServiceJob {
    ServiceJob {
        design: NamedDesign::Alu,
        arch: PlbArchitecture::granular(),
        variant,
        params: DesignParams::tiny(),
        config: FlowConfig::default(),
    }
}

/// Exhaustive over every subset of the three artifact keys a (design,
/// arch) pair produces — shared front-end plus one result per variant:
/// evict the subset, re-run both variants, and the fingerprints must
/// not move. Only the hit/miss pattern may.
#[test]
fn evicting_any_artifact_subset_changes_recomputes_never_fingerprints() {
    let flow = CachedFlow::new(64 << 20);
    let golden_a = flow
        .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
        .unwrap()
        .fingerprint();
    let golden_b = flow
        .run_job(&tiny_job(FlowVariant::B), &mut |_| {})
        .unwrap()
        .fingerprint();
    let keys = flow.cache().keys();
    assert_eq!(keys.len(), 3, "front + two results: {keys:?}");
    let front = keys.iter().position(|k| k.starts_with("front/")).unwrap();
    let result_a = keys.iter().position(|k| k.contains("/a/")).unwrap();
    let result_b = keys.iter().position(|k| k.contains("/b/")).unwrap();

    for mask in 0u32..(1 << keys.len()) {
        // Repopulate (hits where possible), then evict the subset.
        flow.run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        flow.run_job(&tiny_job(FlowVariant::B), &mut |_| {})
            .unwrap();
        assert_eq!(flow.cache().keys(), keys, "population drifted");
        for (i, key) in keys.iter().enumerate() {
            if mask & (1 << i) != 0 {
                assert!(flow.cache().evict_key(key), "mask {mask:03b}: {key}");
            }
        }
        let gone = |i: usize| mask & (1 << i) != 0;
        let a = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        assert_eq!(a.front_cache_hit, !gone(front), "mask {mask:03b}");
        assert_eq!(a.result_cache_hit, !gone(result_a), "mask {mask:03b}");
        assert_eq!(a.fingerprint(), golden_a, "mask {mask:03b}");
        // A's run just republished the front-end, so B always hits it.
        let b = flow
            .run_job(&tiny_job(FlowVariant::B), &mut |_| {})
            .unwrap();
        assert!(b.front_cache_hit, "mask {mask:03b}");
        assert_eq!(b.result_cache_hit, !gone(result_b), "mask {mask:03b}");
        assert_eq!(b.fingerprint(), golden_b, "mask {mask:03b}");
        flow.cache().validate_all().unwrap();
    }
}

/// Fail-closed reads past the digest check: a payload whose digest is
/// valid but whose bytes are wrong for its key — a front-end with one
/// trailing byte, a front-end one byte short, flow b's result under flow
/// a's key — must not serve. The next job misses that leg only,
/// recomputes it to the golden fingerprint, and leaves the cache valid.
#[test]
fn wrong_payloads_under_valid_digests_fail_closed() {
    let flow = CachedFlow::new(64 << 20);
    let golden = flow
        .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
        .unwrap()
        .fingerprint();
    flow.run_job(&tiny_job(FlowVariant::B), &mut |_| {})
        .unwrap();
    let keys = flow.cache().keys();
    let find = |pat: &str| keys.iter().find(|k| k.contains(pat)).unwrap().as_str();
    let (front, result_a, result_b) = (find("front/"), find("/a/"), find("/b/"));
    let bytes = |key: &str| match flow.cache().acquire(key, "test") {
        CacheOutcome::Hit(bytes) => bytes.to_vec(),
        CacheOutcome::Miss(_) => panic!("{key} is not cached"),
    };
    let front_bytes = bytes(front);
    let cases = [
        ("front + 1 byte", front, [&front_bytes[..], &[0]].concat()),
        (
            "front - 1 byte",
            front,
            front_bytes[..front_bytes.len() - 1].to_vec(),
        ),
        ("flow b's result as a's", result_a, bytes(result_b)),
    ];
    for (case, key, payload) in cases {
        assert!(flow.cache().evict_key(key), "{case}");
        let CacheOutcome::Miss(claim) = flow.cache().acquire(key, "test") else {
            panic!("{case}: {key} still cached");
        };
        claim.publish(payload, "test").unwrap();
        let out = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        assert_eq!(out.front_cache_hit, key != front, "{case}");
        assert_eq!(out.result_cache_hit, key == front, "{case}");
        assert_eq!(out.fingerprint(), golden, "{case}");
        flow.cache().validate_all().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The synthetic LRU property: for any interleaving of publishes,
    /// touches, and hand evictions over any byte budget, the cache
    /// never exceeds its budget (beyond the single just-published
    /// entry waiters must find), never serves bytes that fail digest
    /// validation, and never loses count of its resident bytes.
    #[test]
    fn lru_budget_holds_for_any_operation_sequence(
        budget in 0usize..512,
        ops in prop::collection::vec((0u8..12, 1usize..96, 0u8..8), 1..48),
    ) {
        let cache = ArtifactCache::new(budget);
        for (key, len, op) in ops {
            let key = format!("k{key}");
            if op == 0 {
                // Hand eviction must be idempotent-safe on any state.
                cache.evict_key(&key);
            } else {
                match cache.acquire(&key, "prop") {
                    CacheOutcome::Hit(bytes) => prop_assert!(!bytes.is_empty()),
                    CacheOutcome::Miss(claim) => {
                        claim.publish(vec![len as u8; len], "prop").unwrap();
                    }
                }
            }
            let s = cache.stats();
            prop_assert!(
                s.bytes <= budget || s.entries == 1,
                "over budget: {s}"
            );
            let resident: usize = cache
                .keys()
                .iter()
                .map(|k| match cache.acquire(k, "prop") {
                    CacheOutcome::Hit(bytes) => bytes.len(),
                    CacheOutcome::Miss(claim) => {
                        drop(claim);
                        0
                    }
                })
                .sum();
            prop_assert_eq!(resident, cache.stats().bytes, "byte accounting");
        }
        prop_assert!(cache.validate_all().is_ok());
    }
}
