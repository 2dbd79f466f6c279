//! Allocation guard for store population.
//!
//! `KvStore::populate` runs before every experiment. Item values live in
//! slab pages and the index loads straight from the item ids, so populating
//! a store costs a handful of page- and chunk-sized allocations, not one per
//! key. A counting global allocator (scoped to this test binary: every
//! integration-test file is its own crate) holds that in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use utps::core::store::KvStore;
use utps::index::IndexKind;

struct Counting;

thread_local! {
    /// Allocations made by this thread; other test-harness threads never
    /// touch the count.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's pointer/layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer/layout contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) made while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

#[test]
fn populate_100k_keys_makes_few_allocations() {
    const KEYS: u64 = 100_000;
    for kind in [IndexKind::Hash, IndexKind::Tree] {
        let (n, store) = allocations(|| KvStore::populate(kind, KEYS, 64));
        assert_eq!(store.len(), KEYS as usize);
        assert_eq!(store.get_native(KEYS - 1), Some(&[0xabu8; 64][..]));
        assert!(
            n < 1_000,
            "{kind:?} populate made {n} allocations for {KEYS} keys"
        );
        eprintln!("{kind:?}: {n} allocations for {KEYS} keys");
    }
}
