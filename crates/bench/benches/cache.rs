//! Microbenchmarks of the cache substrate: access paths per replacement
//! policy, victim peeking (STREX's hot path), coherence, and signatures.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use strex_sim::addr::{Addr, BlockAddr};
use strex_sim::cache::{CacheGeometry, SetAssocCache};
use strex_sim::coherence::Directory;
use strex_sim::hierarchy::MemorySystem;
use strex_sim::ids::CoreId;
use strex_sim::replacement::ReplacementKind;
use strex_sim::signature::CacheSignature;
use strex_sim::SystemConfig;

fn bench_cache_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("l1_access");
    for kind in ReplacementKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &kind| {
            let mut cache = SetAssocCache::new(CacheGeometry::new(32 * 1024, 8), kind);
            let mut i = 0u64;
            b.iter(|| {
                // Mix of hits and thrashing misses over a 64 KB span.
                i = (i + 7) % 1024;
                black_box(cache.access(BlockAddr::new(i), (i % 256) as u8))
            });
        });
    }
    group.finish();
}

fn bench_peek_victim(c: &mut Criterion) {
    c.bench_function("peek_victim", |b| {
        let mut cache = SetAssocCache::new(CacheGeometry::new(32 * 1024, 8), ReplacementKind::Lru);
        for i in 0..1024u64 {
            cache.access(BlockAddr::new(i), 0);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 13) % 4096;
            black_box(cache.peek_victim(BlockAddr::new(i + 10_000)))
        });
    });
}

fn bench_coherence(c: &mut Criterion) {
    c.bench_function("mesi_rw_pingpong", |b| {
        let mut dir = Directory::new(16);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let core = CoreId::new((i % 16) as u16);
            let block = BlockAddr::new(i % 64);
            if i.is_multiple_of(3) {
                black_box(dir.on_write(core, block))
            } else {
                black_box(dir.on_read(core, block))
            }
        });
    });
}

fn bench_signature(c: &mut Criterion) {
    c.bench_function("signature_fill_query", |b| {
        // An L1-I-shaped stream: a 64 KB loop through a 32 KB, 8-way LRU
        // L1-I misses on every access, so every fill evicts and the
        // signature passes a rebuild point every 128 fills.
        let mut l1i = SetAssocCache::new(CacheGeometry::new(32 * 1024, 8), ReplacementKind::Lru);
        let mut sig = CacheSignature::new(l1i.geometry().blocks());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let block = BlockAddr::new(i % 1024);
            let probe = l1i.access(block, 0);
            if !probe.hit {
                sig.on_fill(block, probe.evicted.map(|v| v.block));
            }
            black_box(sig.may_contain(BlockAddr::new(i * 7 % 1024)))
        });
    });
}

fn bench_hierarchy(c: &mut Criterion) {
    c.bench_function("hierarchy_fetch_inst", |b| {
        let mut mem = MemorySystem::new(SystemConfig::with_cores(4));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let core = CoreId::new((i % 4) as u16);
            black_box(mem.fetch_inst(core, BlockAddr::new(i % 2048), 0, i))
        });
    });
    c.bench_function("hierarchy_access_data", |b| {
        let mut mem = MemorySystem::new(SystemConfig::with_cores(4));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let core = CoreId::new((i % 4) as u16);
            let addr = Addr::new(0x8000_0000 + (i % 4096) * 64);
            black_box(mem.access_data(core, addr, i.is_multiple_of(5), i))
        });
    });
}

criterion_group!(
    benches,
    bench_cache_access,
    bench_peek_victim,
    bench_coherence,
    bench_signature,
    bench_hierarchy
);
criterion_main!(benches);
