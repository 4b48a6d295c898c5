//! Property-based tests for the page cache against simple reference models.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::HashMap;

use nagano_cache::{CacheConfig, PageCache};

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8), // key, size selector
    Get(u8),
    Invalidate(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..40u8, 1..20u8).prop_map(|(k, s)| Op::Put(k, s)),
        (0..40u8).prop_map(Op::Get),
        (0..40u8).prop_map(Op::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cache behaves exactly like a HashMap.
    #[test]
    fn unbounded_cache_is_a_map(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let cache = PageCache::new(CacheConfig::default().with_shards(4));
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        let mut versions: HashMap<String, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, s) => {
                    let key = format!("/p{k}");
                    let data = vec![k; s as usize];
                    let v = cache.put(&key, Bytes::from(data.clone()), 1.0);
                    model.insert(key.clone(), data);
                    let expect = versions.entry(key).or_insert(0);
                    *expect += 1;
                    prop_assert_eq!(v, *expect);
                }
                Op::Get(k) => {
                    let key = format!("/p{k}");
                    let got = cache.get(&key).map(|p| p.body.to_vec());
                    prop_assert_eq!(got, model.get(&key).cloned());
                }
                Op::Invalidate(k) => {
                    let key = format!("/p{k}");
                    let was = cache.invalidate(&key);
                    prop_assert_eq!(was, model.remove(&key).is_some());
                    versions.remove(&key);
                }
            }
            // Byte accounting invariant holds after every operation.
            let model_bytes: u64 = model.values().map(|v| v.len() as u64).sum();
            prop_assert_eq!(cache.bytes(), model_bytes);
            prop_assert_eq!(cache.len(), model.len());
        }
    }

    /// Stats identity: hits + misses equals the number of gets; the gauge
    /// equals live bytes.
    #[test]
    fn stats_identities(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let cache = PageCache::new(CacheConfig::default().with_shards(2));
        let mut gets = 0u64;
        for op in ops {
            match op {
                Op::Put(k, s) => {
                    cache.put(&format!("/p{k}"), Bytes::from(vec![0u8; s as usize]), 1.0);
                }
                Op::Get(k) => {
                    cache.get(&format!("/p{k}"));
                    gets += 1;
                }
                Op::Invalidate(k) => {
                    cache.invalidate(&format!("/p{k}"));
                }
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, gets);
        prop_assert_eq!(s.bytes_current, cache.bytes());
        prop_assert!(s.bytes_peak >= s.bytes_current);
    }
}
