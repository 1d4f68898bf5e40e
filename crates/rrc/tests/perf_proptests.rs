//! Differential property tests for the allocation-avoiding primitives in
//! `onoff_rrc::perf`: `InlineVec` must behave exactly like `Vec` through
//! every operation sequence (including across the inline→heap spill
//! boundary), the interner must round-trip arbitrary strings, and `FxMap`
//! must agree with `BTreeMap` on any insert sequence.

use std::collections::BTreeMap;

use onoff_rrc::perf::{FxMap, InlineVec, StrInterner};
use proptest::prelude::*;

/// One mutation step of the differential `InlineVec` ≡ `Vec` test.
#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
    /// Index is taken modulo the current length.
    Remove(usize),
    /// Index is taken modulo the current length + 1.
    Insert(usize, u32),
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u32>().prop_map(Op::Push),
        any::<u32>().prop_map(Op::Push),
        any::<u32>().prop_map(Op::Push),
        Just(Op::Pop),
        (any::<usize>(), any::<u32>()).prop_map(|(i, v)| Op::Insert(i, v)),
        any::<usize>().prop_map(Op::Remove),
        Just(Op::Clear),
    ]
}

proptest! {
    /// `InlineVec<_, 4>` stays element-for-element identical to `Vec`
    /// through arbitrary op sequences long enough to spill (N = 4, up to
    /// 24 ops) and back down through pops and clears, whether it starts
    /// inline or presized onto the heap.
    #[test]
    fn inline_vec_matches_vec(ops in prop::collection::vec(arb_op(), 0..24), cap in 0usize..10) {
        let mut iv: InlineVec<u32, 4> = InlineVec::with_capacity(cap);
        prop_assert_eq!(iv.spilled(), cap > 4);
        let mut v: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                Op::Push(x) => {
                    iv.push(x);
                    v.push(x);
                }
                Op::Pop => {
                    prop_assert_eq!(iv.pop(), v.pop());
                }
                Op::Remove(i) => {
                    if !v.is_empty() {
                        let i = i % v.len();
                        prop_assert_eq!(iv.remove(i), v.remove(i));
                    }
                }
                Op::Insert(i, x) => {
                    let i = i % (v.len() + 1);
                    iv.insert(i, x);
                    v.insert(i, x);
                }
                Op::Clear => {
                    iv.clear();
                    v.clear();
                }
            }
            prop_assert_eq!(iv.as_slice(), v.as_slice());
            prop_assert_eq!(iv.len(), v.len());
            // Iteration agrees in both directions of the comparison.
            prop_assert!(iv.iter().eq(v.iter()));
            prop_assert_eq!(&iv, &v);
        }
        // Round-trips through the owning conversions.
        prop_assert_eq!(iv.clone().into_vec(), v.clone());
        let back = InlineVec::<u32, 4>::from(v.clone());
        prop_assert_eq!(back.as_slice(), v.as_slice());
    }

    /// The spill boundary itself: exactly N, N+1, and 2N+1 pushes.
    #[test]
    fn inline_vec_spills_losslessly(extra in 0usize..9) {
        let n = 4 + extra;
        let mut iv: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..n {
            iv.push(i as u32);
        }
        prop_assert_eq!(iv.spilled(), n > 4);
        let expect: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(iv.as_slice(), expect.as_slice());
    }

    /// Interning any set of strings resolves each symbol back to its
    /// exact source text, and re-interning is stable and allocation-free
    /// in symbol terms (same symbol both times).
    #[test]
    fn interner_round_trips(strings in prop::collection::vec(".{0,24}", 0..32)) {
        let mut interner = StrInterner::new();
        let syms: Vec<_> = strings.iter().map(|s| interner.intern(s)).collect();
        for (s, &sym) in strings.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(sym), s.as_str());
            prop_assert_eq!(interner.intern(s), sym);
            prop_assert_eq!(interner.lookup(s), Some(sym));
        }
        // Distinct strings get distinct symbols; duplicates share one.
        let distinct: std::collections::BTreeSet<_> = strings.iter().collect();
        prop_assert_eq!(interner.len(), distinct.len());
    }

    /// `FxMap` agrees with `BTreeMap` on any insert/overwrite sequence.
    #[test]
    fn fxmap_matches_btreemap(pairs in prop::collection::vec((0u16..64, any::<u32>()), 0..64)) {
        let mut fx: FxMap<u16, u32> = FxMap::new();
        let mut bt: BTreeMap<u16, u32> = BTreeMap::new();
        for (k, v) in pairs {
            prop_assert_eq!(fx.insert(k, v), bt.insert(k, v));
            prop_assert_eq!(fx.len(), bt.len());
        }
        for (k, v) in &bt {
            prop_assert_eq!(fx.get(k), Some(v));
        }
        let mut flat: Vec<(u16, u32)> = fx.iter().map(|(&k, &v)| (k, v)).collect();
        flat.sort_unstable();
        let expect: Vec<(u16, u32)> = bt.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(flat, expect);
    }
}
