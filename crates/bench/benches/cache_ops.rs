//! Cache operation latencies: hit, miss and update-in-place, plus the
//! sharding ablation (16 shards vs a single global lock).

use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use nagano_cache::{CacheConfig, PageCache};

fn populated(config: CacheConfig, n: usize) -> PageCache {
    let cache = PageCache::new(config);
    for i in 0..n {
        cache.put(&format!("/page/{i}"), Bytes::from(vec![b'x'; 2048]), 50.0);
    }
    cache
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_ops");
    group
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(30);

    let cache = populated(CacheConfig::default(), 2_000);
    group.bench_function("hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 2_000;
            black_box(cache.get(&format!("/page/{i}")))
        });
    });
    group.bench_function("update_in_place", |b| {
        let body = Bytes::from(vec![b'y'; 2048]);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 2_000;
            black_box(cache.put(&format!("/page/{i}"), body.clone(), 50.0))
        });
    });
    group.bench_function("miss", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            black_box(cache.get(&format!("/absent/{i}")))
        });
    });

    // Sharding ablation.
    for shards in [1usize, 16] {
        let cache = populated(CacheConfig::default().with_shards(shards), 2_000);
        group.bench_function(BenchmarkId::new("hit_shards", shards), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % 2_000;
                black_box(cache.get(&format!("/page/{i}")))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ops);
criterion_main!(benches);
