//! Value storage with the paper's per-item concurrency control (§3.3).
//!
//! Each item embeds a lock-and-version word ([`OptLock`]): updates of values
//! ≤ 8 bytes are performed with a single atomic instruction; larger updates
//! CAS the lock bits, copy, bump the version and release; reads are lock-free
//! seqlock-style (version before and after, retry on mismatch). Reads and
//! writes charge the simulated cache for both the value bytes and the network
//! buffer they copy to/from — data never flows through the CR-MR queue.
//!
//! Host storage follows memcached's slab classes: value bytes live in
//! fixed-capacity slots carved from 1 MiB pages, one page list and free list
//! per size class, so an item costs its slot plus a 32-byte record instead of
//! a heap allocation of its own. The host layout is free to change: charged
//! addresses come only from the virtual bump layout in [`vaddr::ITEM_VALS`].

use core::num::NonZeroUsize;

use utps_sim::{vaddr, Arena, Ctx, OptLock};

use crate::step::Step;

/// Identifier of a stored item.
pub type ItemId = u32;

/// An item's record: its lock/version word and where its value lives.
struct Item {
    lock: OptLock,
    /// Virtual address of the value bytes; the lock word lives one cache
    /// line below (`val_addr - 64`) until a length change moves the value.
    /// See [`utps_sim::vaddr`]. Non-zero, so the arena slot needs no tag.
    val_addr: NonZeroUsize,
    /// Slot within the size class of `len`.
    slot: u32,
    /// Value length in bytes.
    len: u32,
}

/// Bytes per slab page (memcached's default page size).
const PAGE_BYTES: usize = 1 << 20;

/// Size class of a `len`-byte value: 8-byte steps up to 64 B, then four
/// classes per power of two (80, 96, 112, 128, 160, …). Powers of two fit
/// exactly, and above 64 B a slot is at most a quarter larger than its
/// value.
fn class_of(len: usize) -> usize {
    if len <= 64 {
        return len.max(1).div_ceil(8) - 1;
    }
    // 2^g < len <= 2^(g+1), g >= 6.
    let g = (usize::BITS - 1 - (len - 1).leading_zeros()) as usize;
    8 + (g - 6) * 4 + len.div_ceil(1 << (g - 2)) - 5
}

/// Slot capacity in bytes of size class `class` (inverse of [`class_of`]).
fn class_cap(class: usize) -> usize {
    if class < 8 {
        return (class + 1) * 8;
    }
    let j = class - 8;
    (5 + j % 4) << (4 + j / 4)
}

/// One size class: equal slots in chunked pages, with a LIFO free list.
struct SlabClass {
    /// Slot capacity in bytes.
    cap: usize,
    /// Slots per page.
    per_page: usize,
    pages: Vec<Box<[u8]>>,
    /// Slots ever handed out (the bump cursor over the pages).
    used: u32,
    /// Freed slots, reused before the bump cursor moves.
    free: Vec<u32>,
}

impl SlabClass {
    fn new(cap: usize) -> Self {
        SlabClass {
            cap,
            per_page: (PAGE_BYTES / cap).max(1),
            pages: Vec::new(),
            used: 0,
            free: Vec::new(),
        }
    }

    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.used;
        if slot as usize == self.pages.len() * self.per_page {
            self.pages
                .push(vec![0u8; self.per_page * self.cap].into_boxed_slice());
        }
        self.used += 1;
        slot
    }

    fn range(&self, slot: u32, len: usize) -> (usize, core::ops::Range<usize>) {
        let slot = slot as usize;
        let start = slot % self.per_page * self.cap;
        (slot / self.per_page, start..start + len)
    }
}

/// Value bytes for every size class.
#[derive(Default)]
struct Slabs {
    classes: Vec<SlabClass>,
}

impl Slabs {
    /// Stores `val` in a free slot of its size class; returns the slot.
    fn alloc(&mut self, val: &[u8]) -> u32 {
        let c = class_of(val.len());
        while self.classes.len() <= c {
            self.classes
                .push(SlabClass::new(class_cap(self.classes.len())));
        }
        let slot = self.classes[c].alloc();
        self.get_mut(slot, val.len()).copy_from_slice(val);
        slot
    }

    fn free(&mut self, slot: u32, len: usize) {
        self.classes[class_of(len)].free.push(slot);
    }

    fn get(&self, slot: u32, len: usize) -> &[u8] {
        let class = &self.classes[class_of(len)];
        let (page, range) = class.range(slot, len);
        &class.pages[page][range]
    }

    fn get_mut(&mut self, slot: u32, len: usize) -> &mut [u8] {
        let class = &mut self.classes[class_of(len)];
        let (page, range) = class.range(slot, len);
        &mut class.pages[page][range]
    }
}

/// Stable-address storage for KV item payloads.
pub struct ItemStore {
    items: Arena<Item>,
    slabs: Slabs,
    /// Bump cursor for virtual value blocks in [`vaddr::ITEM_VALS`].
    val_bump: usize,
    /// Total live payload bytes (for footprint reporting).
    bytes: usize,
    /// Items logically deleted but not yet reclaimed (epoch-deferred: an
    /// in-flight cached read may still touch the bytes; see §3.2.2's
    /// epoch-based cache switching).
    retired: Vec<ItemId>,
}

/// Cost constants (picoseconds) for the pure-compute part of a copy loop.
const COPY_SETUP: u64 = 2_000;

impl ItemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ItemStore {
            items: Arena::with_virt_base(vaddr::ITEM_SLOTS),
            slabs: Slabs::default(),
            val_bump: vaddr::ITEM_VALS,
            bytes: 0,
            retired: Vec::new(),
        }
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total live payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Allocates an item holding `val` (uncharged — used by bulk load and by
    /// the insert path, which charges separately).
    ///
    /// # Panics
    ///
    /// Panics if `val` is 4 GiB or longer.
    pub fn alloc(&mut self, val: &[u8]) -> ItemId {
        self.bytes += val.len();
        let val_addr = self.bump_value_block(val.len());
        self.items.insert(Item {
            lock: OptLock::at(val_addr.get() - 64),
            val_addr,
            slot: self.slabs.alloc(val),
            len: value_len_u32(val),
        })
    }

    /// Reserves a virtual block for a value of `len` bytes: one line for the
    /// lock word, then the value, rounded up to whole lines (a real slab
    /// allocator would do the same). Returns the value address.
    fn bump_value_block(&mut self, len: usize) -> NonZeroUsize {
        let block = self.val_bump;
        self.val_bump += 64 + len.div_ceil(64).max(1) * 64;
        NonZeroUsize::new(block + 64).expect("value block above zero")
    }

    /// Moves item `id`'s value to a fresh slot and virtual block holding
    /// `val` (a length change). The lock word stays put.
    fn relocate(&mut self, id: ItemId, val: &[u8]) -> usize {
        let item = &self.items[id];
        let (old_slot, old_len) = (item.slot, item.len as usize);
        self.slabs.free(old_slot, old_len);
        self.bytes = self.bytes - old_len + val.len();
        let new_addr = self.bump_value_block(val.len());
        let slot = self.slabs.alloc(val);
        let item = &mut self.items[id];
        item.val_addr = new_addr;
        item.slot = slot;
        item.len = value_len_u32(val);
        new_addr.get()
    }

    /// Frees an item immediately.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn free(&mut self, id: ItemId) {
        let item = self.items.remove(id);
        self.slabs.free(item.slot, item.len as usize);
        self.bytes -= item.len as usize;
    }

    /// Logically deletes an item, deferring reclamation: the bytes stay
    /// readable until [`ItemStore::reclaim_retired`] runs at a quiescent
    /// point, so a reader racing with the delete sees the old value rather
    /// than freed memory (the paper's epoch discipline).
    pub fn retire(&mut self, id: ItemId) {
        self.retired.push(id);
    }

    /// Number of retired-but-unreclaimed items.
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Frees all retired items. Call only when no operation can still hold
    /// an [`ItemId`] for them (between epochs / after a drain).
    pub fn reclaim_retired(&mut self) {
        for id in core::mem::take(&mut self.retired) {
            self.free(id);
        }
    }

    /// The address of the value bytes (for cache charging).
    pub fn value_addr(&self, id: ItemId) -> usize {
        self.items[id].val_addr.get()
    }

    /// The length of the value in bytes.
    pub fn value_len(&self, id: ItemId) -> usize {
        self.items[id].len as usize
    }

    /// Raw value bytes (uncharged; for verification in tests).
    pub fn value(&self, id: ItemId) -> &[u8] {
        let item = &self.items[id];
        self.slabs.get(item.slot, item.len as usize)
    }

    /// Lock-free read: copies the value into the buffer at `dst_addr`
    /// (a network response buffer), returning the bytes read.
    ///
    /// Seqlock protocol: version before → copy → version after. A torn read
    /// retries; an in-progress writer blocks the caller until its next step.
    pub fn read_into(
        &self,
        ctx: &mut Ctx<'_>,
        id: ItemId,
        dst_addr: usize,
        out: &mut Vec<u8>,
    ) -> Step<usize> {
        let item = &self.items[id];
        let v1 = match item.lock.read_version(ctx) {
            Some(v) => v,
            None => return Step::Blocked,
        };
        let len = item.len as usize;
        ctx.compute_ps(COPY_SETUP);
        ctx.read(item.val_addr.get(), len);
        ctx.write(dst_addr, len);
        if item.lock.validate(ctx, v1) {
            out.clear();
            out.extend_from_slice(self.slabs.get(item.slot, len));
            Step::Done(len)
        } else {
            // Torn read: retry on the next poll.
            Step::Ready
        }
    }

    /// Writes `src` over the item's value, reading the bytes from the buffer
    /// at `src_addr` (a network receive buffer).
    ///
    /// Values ≤ 8 bytes are updated with one atomic store; larger values take
    /// the item lock (blocking the caller's FSM if a writer holds it).
    /// The value length must match the stored length for in-place updates;
    /// a different length reallocates (uncommon in the paper's workloads).
    pub fn write_from(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: ItemId,
        src_addr: usize,
        src: &[u8],
    ) -> Step<()> {
        // Charge reading the request payload from the receive buffer.
        ctx.read(src_addr, src.len());
        let item = &mut self.items[id];
        let (slot, old_len) = (item.slot, item.len as usize);
        if src.len() <= 8 && old_len == src.len() {
            // Single atomic store: no locking required (§3.3).
            ctx.atomic(item.val_addr.get());
            self.slabs.get_mut(slot, old_len).copy_from_slice(src);
            return Step::Done(());
        }
        // The lock line stays hot for the duration of the protected copy.
        let hold = 4_000 + src.len() as u64 * 150;
        if !item.lock.try_lock_hold(ctx, hold) {
            return Step::Blocked;
        }
        ctx.compute_ps(COPY_SETUP);
        if old_len == src.len() {
            ctx.write(item.val_addr.get(), src.len());
            self.slabs.get_mut(slot, old_len).copy_from_slice(src);
        } else {
            // Length change: reallocate (charged as a write of the new
            // payload plus a constant for the allocator). The value moves to
            // a fresh virtual block; the lock word stays put.
            ctx.compute_ns(40);
            let new_addr = self.relocate(id, src);
            ctx.write(new_addr, src.len());
        }
        self.items[id].lock.unlock(ctx);
        Step::Done(())
    }

    /// Uncharged in-place value install, used by the cluster migration and
    /// replica-refresh controllers: the transfer cost is charged at the
    /// controller (link serialization + copy compute), not per byte here.
    /// Must only be called at a quiescent point for the item (the caller
    /// drains in-flight ops first), so no lock/version traffic is modeled.
    pub fn set_value_native(&mut self, id: ItemId, val: &[u8]) {
        let item = &self.items[id];
        if item.len as usize == val.len() {
            self.slabs
                .get_mut(item.slot, val.len())
                .copy_from_slice(val);
        } else {
            self.relocate(id, val);
        }
    }

    /// Whether the item's writer lock is currently held (diagnostics).
    pub fn is_locked(&self, id: ItemId) -> bool {
        self.items[id].lock.is_locked()
    }
}

/// A value's length as stored in its 32-bit record field.
fn value_len_u32(val: &[u8]) -> u32 {
    u32::try_from(val.len()).expect("item values are shorter than 4 GiB")
}

impl Default for ItemStore {
    fn default() -> Self {
        ItemStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_sim::time::SimTime;
    use utps_sim::{Engine, MachineConfig, Process, StatClass, StepOutcome};

    /// Runs `f` once inside a one-step simulated process.
    fn with_ctx<R: 'static>(f: impl FnOnce(&mut Ctx<'_>, &mut ItemStore) -> R + 'static) -> R {
        struct Once<F, R> {
            f: Option<F>,
            out: std::rc::Rc<std::cell::RefCell<Option<R>>>,
        }
        impl<F: FnOnce(&mut Ctx<'_>, &mut ItemStore) -> R, R> Process<ItemStore> for Once<F, R> {
            fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut ItemStore) -> StepOutcome {
                if let Some(f) = self.f.take() {
                    let r = f(ctx, world);
                    *self.out.borrow_mut() = Some(r);
                }
                ctx.halt();
                StepOutcome::Idle
            }
        }
        let out = std::rc::Rc::new(std::cell::RefCell::new(None));
        let mut eng = Engine::new(MachineConfig::tiny(), 1, ItemStore::new());
        eng.spawn(
            Some(0),
            StatClass::Other,
            Box::new(Once {
                f: Some(f),
                out: std::rc::Rc::clone(&out),
            }),
        );
        eng.run_until(SimTime::from_millis(1));
        let r = out.borrow_mut().take();
        r.expect("process did not run")
    }

    #[test]
    fn size_classes_are_contiguous_and_tight() {
        assert_eq!(class_of(0), 0);
        assert_eq!(class_cap(0), 8);
        for len in 1..=70_000usize {
            let c = class_of(len);
            let cap = class_cap(c);
            assert!(cap >= len, "len {len} in class {c} of {cap} B");
            assert!(
                c == 0 || class_cap(c - 1) < len,
                "len {len} fits class {}",
                c - 1
            );
            assert!(len <= 64 || cap <= len + len / 4, "len {len}: {cap} B slot");
        }
        for pow in 3..=20 {
            assert_eq!(class_cap(class_of(1 << pow)), 1 << pow);
        }
    }

    #[test]
    fn item_record_is_32_bytes() {
        // `Option` stands in for the arena's slot enum: the non-zero value
        // address is the niche, so free and occupied slots share 32 bytes.
        assert_eq!(core::mem::size_of::<Item>(), 32);
        assert_eq!(core::mem::size_of::<Option<Item>>(), 32);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut store = ItemStore::new();
        let a = store.alloc(&[1u8; 64]);
        let slot = store.items[a].slot;
        store.free(a);
        let b = store.alloc(&[2u8; 60]);
        assert_eq!(store.items[b].slot, slot, "same class reuses the slot");
        assert_eq!(store.value(b), &[2u8; 60][..]);
        // A new virtual block all the same: host reuse never moves vaddrs.
        assert_eq!(store.value_addr(b), vaddr::ITEM_VALS + 128 + 64);
    }

    #[test]
    fn values_span_pages_and_large_classes() {
        let mut store = ItemStore::new();
        let per_page = PAGE_BYTES / 64;
        let ids: Vec<ItemId> = (0..per_page + 3)
            .map(|i| store.alloc(&(i as u64).to_le_bytes().repeat(8)))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(store.value(id), &(i as u64).to_le_bytes().repeat(8)[..]);
        }
        let big = vec![7u8; PAGE_BYTES + 1];
        let id = store.alloc(&big);
        assert_eq!(store.value(id), &big[..]);
        assert_eq!(store.bytes(), (per_page + 3) * 64 + big.len());
    }

    #[test]
    fn alloc_read_roundtrip() {
        with_ctx(|ctx, store| {
            let id = store.alloc(b"hello world!");
            let mut out = Vec::new();
            let dst = out.as_ptr() as usize;
            match store.read_into(ctx, id, dst, &mut out) {
                Step::Done(n) => {
                    assert_eq!(n, 12);
                    assert_eq!(&out, b"hello world!");
                }
                other => panic!("unexpected {other:?}"),
            }
        });
    }

    #[test]
    fn small_value_updates_atomically() {
        with_ctx(|ctx, store| {
            let id = store.alloc(&7u64.to_le_bytes());
            let step = store.write_from(ctx, id, 0x9000, &9u64.to_le_bytes());
            assert!(step.is_done());
            assert_eq!(store.value(id), 9u64.to_le_bytes());
            assert!(!store.is_locked(id), "atomic path must not lock");
        });
    }

    #[test]
    fn large_value_locks_and_updates() {
        with_ctx(|ctx, store| {
            let id = store.alloc(&[1u8; 256]);
            let step = store.write_from(ctx, id, 0x9000, &[2u8; 256]);
            assert!(step.is_done());
            assert_eq!(store.value(id), &[2u8; 256][..]);
            assert!(!store.is_locked(id), "lock must be released");
        });
    }

    #[test]
    fn length_change_reallocates() {
        with_ctx(|ctx, store| {
            let id = store.alloc(&[1u8; 16]);
            let before = store.bytes();
            assert!(store.write_from(ctx, id, 0x9000, &[3u8; 64]).is_done());
            assert_eq!(store.value_len(id), 64);
            assert_eq!(store.bytes(), before + 48);
        });
    }

    #[test]
    fn read_blocked_by_held_writer_lock() {
        with_ctx(|ctx, store| {
            let id = store.alloc(&[0u8; 32]);
            // Simulate another thread holding the write lock.
            assert!(store.items[id].lock.try_lock(ctx));
            let mut out = Vec::new();
            let dst = out.as_ptr() as usize;
            assert!(store.read_into(ctx, id, dst, &mut out).is_blocked());
            store.items[id].lock.unlock(ctx);
            assert!(store.read_into(ctx, id, dst, &mut out).is_done());
        });
    }

    #[test]
    fn free_reclaims_bytes() {
        with_ctx(|_ctx, store| {
            let id = store.alloc(&[0u8; 100]);
            assert_eq!(store.bytes(), 100);
            store.free(id);
            assert_eq!(store.bytes(), 0);
            assert!(store.is_empty());
        });
    }

    #[test]
    fn retire_defers_reclamation() {
        with_ctx(|ctx, store| {
            let id = store.alloc(b"still here");
            store.retire(id);
            assert_eq!(store.retired_len(), 1);
            // The bytes remain readable until reclamation.
            let mut out = Vec::new();
            let dst = out.as_ptr() as usize;
            assert!(store.read_into(ctx, id, dst, &mut out).is_done());
            assert_eq!(&out, b"still here");
            store.reclaim_retired();
            assert_eq!(store.retired_len(), 0);
            assert!(store.is_empty());
        });
    }
}
