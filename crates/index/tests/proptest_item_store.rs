//! Property tests: the slab-backed `ItemStore` against a plain model.
//!
//! The model is a `Vec<Option<Vec<u8>>>` indexed by item id, plus the
//! virtual address each live value must report. Random sequences of
//! `alloc` / `free` / `retire` / `reclaim_retired` / `write_from` /
//! `set_value_native` cover the ≤ 8 B atomic path, equal-length updates,
//! length changes across size classes and slot reuse. After every step the
//! store's `value`, `value_len`, `value_addr` and `bytes()` must match.
//!
//! The virtual layout is pinned separately: value addresses come from one
//! bump cursor over `vaddr::ITEM_VALS` (a lock line, then the value rounded
//! up to whole lines), and a length change moves the value to a fresh block.
//! Host storage may change freely; these addresses may not, because every
//! charged cache line — and so every simulated statistic — derives from them.

use proptest::collection::vec;
use proptest::prelude::*;
use utps_index::{ItemId, ItemStore, Step};
use utps_sim::time::SimTime;
use utps_sim::{vaddr, Ctx, Engine, MachineConfig, Process, StatClass, StepOutcome};

/// Lengths straddling the size-class edges (8 B steps to 64 B, then four
/// classes per power of two) and the 8-byte atomic-update limit.
const LENS: [usize; 18] = [
    0, 1, 7, 8, 9, 16, 24, 63, 64, 65, 80, 81, 128, 129, 256, 257, 1000, 5000,
];

/// The value length an op asks for.
#[derive(Clone, Copy, Debug)]
enum Len {
    /// The item's current length (in-place update; atomic when ≤ 8 B).
    Same,
    /// `LENS[i]`.
    Pick(usize),
}

#[derive(Clone, Debug)]
enum Op {
    Alloc(usize, u8),
    /// Targets are picked among the live, unretired items by index.
    Free(usize),
    Retire(usize),
    Reclaim,
    Write(usize, Len, u8),
    SetNative(usize, Len, u8),
}

fn len_strategy() -> impl Strategy<Value = Len> {
    prop_oneof![Just(Len::Same), (0..LENS.len()).prop_map(Len::Pick)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..LENS.len(), any::<u8>()).prop_map(|(l, b)| Op::Alloc(l, b)),
        (0..LENS.len(), any::<u8>()).prop_map(|(l, b)| Op::Alloc(l, b)),
        any::<usize>().prop_map(Op::Free),
        any::<usize>().prop_map(Op::Retire),
        Just(Op::Reclaim),
        (any::<usize>(), len_strategy(), any::<u8>()).prop_map(|(i, l, b)| Op::Write(i, l, b)),
        (any::<usize>(), len_strategy(), any::<u8>()).prop_map(|(i, l, b)| Op::SetNative(i, l, b)),
    ]
}

/// The bump layout of value blocks: one 64-byte line for the lock word,
/// then the value rounded up to whole lines (at least one).
struct Layout {
    bump: usize,
}

impl Layout {
    fn new() -> Self {
        Layout {
            bump: vaddr::ITEM_VALS,
        }
    }

    fn next(&mut self, len: usize) -> usize {
        let addr = self.bump + 64;
        self.bump += 64 + len.div_ceil(64).max(1) * 64;
        addr
    }
}

/// Model state: value and expected virtual address per item id.
#[derive(Default)]
struct Model {
    values: Vec<Option<Vec<u8>>>,
    addrs: Vec<usize>,
    retired: Vec<ItemId>,
}

impl Model {
    /// Live items that are not retired, in id order.
    fn targets(&self) -> Vec<ItemId> {
        (0..self.values.len() as ItemId)
            .filter(|id| self.values[*id as usize].is_some() && !self.retired.contains(id))
            .collect()
    }

    fn pick(&self, i: usize) -> Option<ItemId> {
        let t = self.targets();
        (!t.is_empty()).then(|| t[i % t.len()])
    }

    fn set(&mut self, id: ItemId, val: Vec<u8>, addr: usize) {
        let i = id as usize;
        if self.values.len() <= i {
            self.values.resize(i + 1, None);
            self.addrs.resize(i + 1, 0);
        }
        self.values[i] = Some(val);
        self.addrs[i] = addr;
    }

    fn check(&self, ctx: &mut Ctx<'_>, store: &ItemStore) {
        let mut bytes = 0;
        let mut live = 0;
        let mut out = Vec::new();
        for (id, v) in self.values.iter().enumerate() {
            let Some(v) = v else { continue };
            let id = id as ItemId;
            live += 1;
            bytes += v.len();
            assert_eq!(store.value(id), &v[..], "value of item {id}");
            assert_eq!(store.value_len(id), v.len(), "length of item {id}");
            assert_eq!(
                store.value_addr(id),
                self.addrs[id as usize],
                "vaddr of item {id}"
            );
            assert!(!store.is_locked(id), "item {id} left locked");
            match store.read_into(ctx, id, 0x9000, &mut out) {
                Step::Done(n) => assert_eq!((n, &out[..]), (v.len(), &v[..])),
                other => panic!("read of item {id}: {other:?}"),
            }
        }
        assert_eq!(store.len(), live);
        assert_eq!(store.bytes(), bytes);
        assert_eq!(store.retired_len(), self.retired.len());
    }
}

fn new_len(len: Len, old: usize) -> usize {
    match len {
        Len::Same => old,
        Len::Pick(i) => LENS[i],
    }
}

/// Runs `f` inside a one-shot simulated process over a fresh store.
fn with_store(f: impl FnOnce(&mut Ctx<'_>, &mut ItemStore) + 'static) {
    struct Once<F> {
        f: Option<F>,
    }
    impl<F: FnOnce(&mut Ctx<'_>, &mut ItemStore)> Process<ItemStore> for Once<F> {
        fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut ItemStore) -> StepOutcome {
            if let Some(f) = self.f.take() {
                f(ctx, world);
            }
            ctx.halt();
            StepOutcome::Idle
        }
    }
    let mut eng = Engine::new(MachineConfig::tiny(), 1, ItemStore::new());
    eng.spawn(Some(0), StatClass::Other, Box::new(Once { f: Some(f) }));
    eng.run_until(SimTime::from_millis(1_000));
}

fn check_against_model(ops: Vec<Op>) {
    with_store(move |ctx, store| {
        let mut model = Model::default();
        let mut layout = Layout::new();
        for op in ops {
            match op {
                Op::Alloc(l, b) => {
                    let val = vec![b; LENS[l]];
                    let id = store.alloc(&val);
                    let i = id as usize;
                    assert!(
                        model.values.get(i).is_none_or(Option::is_none),
                        "id {id} reused while live"
                    );
                    model.set(id, val, layout.next(LENS[l]));
                }
                Op::Free(i) => {
                    if let Some(id) = model.pick(i) {
                        store.free(id);
                        model.values[id as usize] = None;
                    }
                }
                Op::Retire(i) => {
                    if let Some(id) = model.pick(i) {
                        store.retire(id);
                        model.retired.push(id);
                    }
                }
                Op::Reclaim => {
                    store.reclaim_retired();
                    for id in std::mem::take(&mut model.retired) {
                        model.values[id as usize] = None;
                    }
                }
                Op::Write(i, l, b) | Op::SetNative(i, l, b) => {
                    let Some(id) = model.pick(i) else { continue };
                    let old = model.values[id as usize].as_ref().expect("live").len();
                    let val = vec![b; new_len(l, old)];
                    if matches!(op, Op::Write(..)) {
                        let step = store.write_from(ctx, id, 0x8000, &val);
                        assert!(step.is_done(), "single writer never blocks");
                    } else {
                        store.set_value_native(id, &val);
                    }
                    let addr = if val.len() == old {
                        model.addrs[id as usize]
                    } else {
                        layout.next(val.len())
                    };
                    model.set(id, val, addr);
                }
            }
            model.check(ctx, store);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn item_store_matches_model(ops in vec(op_strategy(), 1..200)) {
        check_against_model(ops);
    }
}

/// The exact address sequence of the bump layout, written out by hand: a
/// lock line plus whole value lines per block, and a fresh block for a value
/// whose length changes (its lock word stays behind).
#[test]
fn value_addresses_follow_the_bump_layout() {
    with_store(|ctx, store| {
        let ids: Vec<ItemId> = [8usize, 64, 65, 256, 0]
            .iter()
            .map(|&len| store.alloc(&vec![1u8; len]))
            .collect();
        let addrs: Vec<usize> = ids
            .iter()
            .map(|&id| store.value_addr(id) - vaddr::ITEM_VALS)
            .collect();
        assert_eq!(addrs, [64, 192, 320, 512, 832]);
        // Equal-length updates stay in place, atomic or locked.
        assert!(store.write_from(ctx, ids[0], 0x8000, &[2u8; 8]).is_done());
        assert!(store.write_from(ctx, ids[3], 0x8000, &[2u8; 256]).is_done());
        assert_eq!(store.value_addr(ids[0]) - vaddr::ITEM_VALS, 64);
        assert_eq!(store.value_addr(ids[3]) - vaddr::ITEM_VALS, 512);
        // A length change takes the next block, through either write path.
        assert!(store.write_from(ctx, ids[0], 0x8000, &[3u8; 100]).is_done());
        assert_eq!(store.value_addr(ids[0]) - vaddr::ITEM_VALS, 960);
        store.set_value_native(ids[1], &[4u8; 8]);
        assert_eq!(store.value_addr(ids[1]) - vaddr::ITEM_VALS, 1152);
        // Freeing returns a host slot, never a virtual block.
        store.free(ids[2]);
        let id = store.alloc(&[5u8; 65]);
        assert_eq!(store.value_addr(id) - vaddr::ITEM_VALS, 1280);
        assert_eq!(store.value(id), &[5u8; 65][..]);
    });
}
