//! Property test for the dominator tree: on random CFGs — with unreachable
//! blocks, self-loops and irreducible (multi-entry) cycles — the
//! Cooper–Harvey–Kennedy [`Dominators`] must agree with a naive set-based
//! reference on `dominates` for every pair of blocks and on `is_reachable`,
//! and `children(b)` must list exactly the blocks `b` immediately
//! dominates, in ascending order.

use std::collections::BTreeSet;

use confllvm_ir::{dominators, BlockId, Function, FunctionBuilder, Terminator};
use confllvm_minic::Span;
use proptest::prelude::*;

/// One block's terminator: kind 0 is `Ret`, 1 `Br(t)`, anything else
/// `CondBr(t, e)` (three blocks in four branch two ways, which makes
/// multi-entry cycles common); targets are
/// reduced modulo the block count.
type TermSpec = (u8, usize, usize);

fn build(spec: &[TermSpec]) -> Function {
    let n = spec.len();
    let mut b = FunctionBuilder::new("cfg", 1);
    let ids: Vec<BlockId> = std::iter::once(b.current_block())
        .chain((1..n).map(|_| b.new_block()))
        .collect();
    let cond = b.param(0);
    for (i, &(kind, t, e)) in spec.iter().enumerate() {
        b.switch_to(ids[i]);
        b.terminate(match kind {
            0 => Terminator::Ret {
                value: None,
                span: Span::default(),
            },
            1 => Terminator::Br(ids[t % n]),
            _ => Terminator::CondBr {
                cond: cond.into(),
                then_bb: ids[t % n],
                else_bb: ids[e % n],
                span: Span::default(),
            },
        });
    }
    b.finish()
}

/// The reference: reachability by DFS, then dominator *sets* iterated to the
/// maximal fixpoint `dom(b) = {b} ∪ ⋂ dom(p)` over reachable predecessors.
fn naive(f: &Function) -> (Vec<bool>, Vec<BTreeSet<usize>>) {
    let n = f.blocks.len();
    let succs = |b: usize| -> Vec<usize> {
        f.blocks[b]
            .term
            .successors()
            .iter()
            .map(|s| s.0 as usize)
            .collect()
    };
    let mut reachable = vec![false; n];
    let mut stack = vec![0];
    while let Some(b) = stack.pop() {
        if !reachable[b] {
            reachable[b] = true;
            stack.extend(succs(b));
        }
    }
    let all: BTreeSet<usize> = (0..n).filter(|&b| reachable[b]).collect();
    let mut doms: Vec<BTreeSet<usize>> = (0..n)
        .map(|b| match b {
            0 => BTreeSet::from([0]),
            _ if reachable[b] => all.clone(),
            _ => BTreeSet::new(),
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for b in (1..n).filter(|&b| reachable[b]) {
            let mut new: Option<BTreeSet<usize>> = None;
            for p in (0..n).filter(|&p| reachable[p] && succs(p).contains(&b)) {
                new = Some(match new {
                    None => doms[p].clone(),
                    Some(acc) => acc.intersection(&doms[p]).copied().collect(),
                });
            }
            let mut new = new.unwrap_or_default();
            new.insert(b);
            if new != doms[b] {
                doms[b] = new;
                changed = true;
            }
        }
    }
    (reachable, doms)
}

/// Immediate dominator from the reference sets: the strict dominator that
/// every other strict dominator dominates (the one with the largest set).
fn naive_idom(doms: &[BTreeSet<usize>], b: usize) -> Option<usize> {
    doms[b]
        .iter()
        .copied()
        .filter(|&d| d != b)
        .max_by_key(|&d| doms[d].len())
}

/// Does the reachable CFG have a cycle that is not a natural loop?  (A CFG is
/// reducible iff it is acyclic once every edge into a dominator is removed.)
fn irreducible(f: &Function, reachable: &[bool], doms: &[BTreeSet<usize>]) -> bool {
    let n = f.blocks.len();
    let mut indeg = vec![0usize; n];
    let mut forward: Vec<Vec<usize>> = vec![Vec::new(); n];
    for u in (0..n).filter(|&u| reachable[u]) {
        for v in f.blocks[u].term.successors().iter().map(|s| s.0 as usize) {
            if !doms[u].contains(&v) {
                forward[u].push(v);
                indeg[v] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&u| reachable[u] && indeg[u] == 0).collect();
    let mut seen = 0;
    while let Some(u) = ready.pop() {
        seen += 1;
        for &v in &forward[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                ready.push(v);
            }
        }
    }
    seen < reachable.iter().filter(|&&r| r).count()
}

fn cfg_strategy() -> impl Strategy<Value = Vec<TermSpec>> {
    prop::collection::vec((0u8..8, 0usize..16, 0usize..16), 1..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dominator_tree_matches_the_set_reference(spec in cfg_strategy()) {
        let f = build(&spec);
        let n = f.blocks.len();
        let doms = dominators(&f);
        let (reachable, sets) = naive(&f);
        for b in 0..n {
            let bid = BlockId(b as u32);
            prop_assert_eq!(doms.is_reachable(bid), reachable[b], "reachability of {}", b);
            for a in 0..n {
                let expected = reachable[a] && reachable[b] && sets[b].contains(&a);
                prop_assert_eq!(
                    doms.dominates(BlockId(a as u32), bid),
                    expected,
                    "dominates({}, {}) on {:?}",
                    a,
                    b,
                    spec
                );
            }
            let children: Vec<usize> = doms.children(bid).iter().map(|c| c.0 as usize).collect();
            prop_assert!(children.windows(2).all(|w| w[0] < w[1]), "children of {} sorted", b);
            let expected: Vec<usize> = (0..n)
                .filter(|&c| reachable[c] && naive_idom(&sets, c) == Some(b))
                .collect();
            prop_assert_eq!(children, expected, "children of {} on {:?}", b, spec);
        }
        // Ids past the last block are neither reachable nor related.
        let past = BlockId(n as u32);
        prop_assert!(!doms.is_reachable(past));
        prop_assert!(!doms.dominates(BlockId(0), past) && !doms.dominates(past, past));
        prop_assert!(doms.children(past).is_empty());
    }
}

/// The generator must actually reach the shapes the property is about.
#[test]
fn generator_covers_unreachable_self_loop_and_irreducible_cfgs() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::seed_from_u64(14);
    let (mut unreachable, mut self_loop, mut irreducible_cfgs) = (0, 0, 0);
    for _ in 0..512 {
        let f = build(&cfg_strategy().generate(&mut rng));
        let (reachable, sets) = naive(&f);
        unreachable += usize::from(reachable.iter().any(|r| !r));
        self_loop += usize::from(f.blocks.iter().any(|b| b.term.successors().contains(&b.id)));
        irreducible_cfgs += usize::from(irreducible(&f, &reachable, &sets));
    }
    assert!(
        unreachable > 200,
        "{unreachable} CFGs with unreachable blocks"
    );
    assert!(self_loop > 200, "{self_loop} CFGs with self-loops");
    assert!(irreducible_cfgs > 40, "{irreducible_cfgs} irreducible CFGs");
}

/// The textbook irreducible loop: `0 -> {1, 2}`, `1 <-> 2`, plus an
/// unreachable block 3 jumping into it.  Neither loop block dominates the
/// other, so both hang directly off the entry.
#[test]
fn two_entry_cycle_hangs_both_blocks_off_the_entry() {
    let f = build(&[(2, 1, 2), (1, 2, 0), (2, 1, 0), (1, 1, 0)]);
    let (reachable, sets) = naive(&f);
    assert!(irreducible(&f, &reachable, &sets));
    let doms = dominators(&f);
    let [b0, b1, b2, b3] = [0, 1, 2, 3].map(BlockId);
    assert_eq!(doms.children(b0), &[b1, b2]);
    assert!(!doms.dominates(b1, b2) && !doms.dominates(b2, b1));
    assert!(!doms.is_reachable(b3) && doms.children(b3).is_empty());
    assert!(!doms.dominates(b3, b1) && !doms.dominates(b0, b3));
}
