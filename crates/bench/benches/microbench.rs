//! Micro-benchmarks for the core data structures (host-time, not simulated
//! time — these measure the library's own efficiency). Self-contained
//! harness: median-of-runs ns/op printed as a table, no external deps.

use std::hint::black_box;

use utps_bench::bench_loop;
use utps_collections::{
    CountMinSketch, HotSetTracker, LatencyHistogram, SortedCache, SpscRing, TopK,
};
use utps_core::KvStore;
use utps_index::{BplusTree, IndexKind, ItemStore};
use utps_workload::{KeyDist, Mix, Workload, YcsbWorkload};

fn main() {
    let ring = SpscRing::new(1024);
    bench_loop("spsc_push_pop", || {
        ring.try_push(black_box(42u64)).unwrap();
        black_box(ring.try_pop());
    });
    let mut batch = Vec::with_capacity(8);
    let mut out = Vec::with_capacity(8);
    bench_loop("spsc_batch8", || {
        batch.clear();
        batch.extend(0u64..8);
        ring.push_batch(&mut batch);
        out.clear();
        ring.pop_batch(&mut out, 8);
        black_box(&out);
    });

    let mut sketch = CountMinSketch::new(4096, 4);
    let mut k = 0u64;
    bench_loop("cms_increment", || {
        k = k.wrapping_add(0x9e3779b97f4a7c15);
        sketch.increment(k % 100_000);
    });
    bench_loop("cms_estimate", || {
        k = k.wrapping_add(0x9e3779b97f4a7c15);
        black_box(sketch.estimate(k % 100_000));
    });

    let mut topk = TopK::new(1_000);
    let mut i = 0u64;
    bench_loop("topk_offer", || {
        i = i.wrapping_add(0x2545f4914f6cdd1d);
        topk.offer(i % 10_000, (i % 1000) as u32);
    });
    let mut tracker = HotSetTracker::new(4096, 4, 1_000);
    bench_loop("hotset_record", || {
        i = i.wrapping_add(0x2545f4914f6cdd1d);
        tracker.record(i % 10_000);
    });

    let cache = SortedCache::build((0..10_000u64).map(|k| (k * 3, k)).collect());
    bench_loop("sorted_cache_get_10k", || {
        k = k.wrapping_add(0x9e3779b97f4a7c15);
        black_box(cache.get(k % 30_000));
    });

    let mut h = LatencyHistogram::new();
    let mut v = 1u64;
    bench_loop("hist_record", || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        h.record(v % 10_000_000 + 1);
    });

    let pairs: Vec<(u64, u32)> = (0..100_000u64).map(|key| (key, key as u32)).collect();
    let tree = BplusTree::bulk_load(&pairs);
    bench_loop("btree_get_native_100k", || {
        k = k.wrapping_add(0x9e3779b97f4a7c15);
        black_box(tree.get_native(k % 100_000));
    });

    let mut items = ItemStore::new();
    let val = [0xabu8; 64];
    // Alloc then free, so the loop reuses one slab slot.
    bench_loop("item_store_alloc", || {
        let id = items.alloc(black_box(&val));
        items.free(black_box(id));
    });
    bench_loop("populate_100k_hash", || {
        black_box(KvStore::populate(IndexKind::Hash, 100_000, 64));
    });

    let mut wl = YcsbWorkload::new(Mix::A, KeyDist::zipf(10_000_000, 0.99), 64, 50, 1, 0);
    bench_loop("ycsb_zipf_next_op", || {
        black_box(wl.next_op());
    });
}
