//! A small generic forward-dataflow framework over IR CFGs, plus the CFG
//! analyses built on it:
//!
//! * [`liveness`] / [`live_across_calls`] — backwards may-liveness, used by
//!   the register allocator in `confllvm-codegen`,
//! * [`MustSet`] — an intersection (must) lattice for forward analyses such
//!   as the available-bounds-checks analysis behind the cross-block
//!   redundant-check elimination in `confllvm-codegen`,
//! * [`dominators`] — the dominator tree (near-linear construction, O(1)
//!   dominance queries, children in `BlockId` order) walked by `cse`,
//! * [`natural_loops`] — the loop structure needed by the loop-invariant
//!   check-hoisting machine pass.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::inst::{BlockId, Operand, ValueId};
use crate::module::Function;

/// A join-semilattice of dataflow facts.
pub trait Lattice: Clone + PartialEq {
    /// Least element.
    fn bottom() -> Self;
    /// Least upper bound; returns `true` if `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// A forward transfer function over basic blocks.
pub trait ForwardTransfer {
    type Fact: Lattice;
    /// Apply the block's effect to the incoming fact.
    fn transfer(&self, f: &Function, block: BlockId, fact: &Self::Fact) -> Self::Fact;
}

/// Solve a forward dataflow problem to a fixpoint using a worklist.
/// Returns the fact holding *at entry* of each block.
pub fn solve_forward<T: ForwardTransfer>(
    f: &Function,
    transfer: &T,
    entry_fact: T::Fact,
) -> HashMap<BlockId, T::Fact> {
    let mut in_facts: HashMap<BlockId, T::Fact> = HashMap::new();
    for b in &f.blocks {
        in_facts.insert(b.id, T::Fact::bottom());
    }
    in_facts.insert(f.entry(), entry_fact);
    let mut worklist: Vec<BlockId> = f.blocks.iter().map(|b| b.id).collect();
    // `queued[b]` mirrors "b is on the worklist" (blocks are dense ids).
    let mut queued = vec![true; f.blocks.len()];
    let mut iterations = 0usize;
    while let Some(b) = worklist.pop() {
        queued[b.0 as usize] = false;
        iterations += 1;
        if iterations > f.blocks.len() * 64 + 1024 {
            // Defensive bound; lattices used here all have finite height.
            break;
        }
        let in_fact = in_facts[&b].clone();
        let out = transfer.transfer(f, b, &in_fact);
        for succ in f.block(b).term.successors() {
            let entry = in_facts.get_mut(&succ).expect("all blocks have facts");
            if entry.join(&out) && !queued[succ.0 as usize] {
                queued[succ.0 as usize] = true;
                worklist.push(succ);
            }
        }
    }
    in_facts
}

/// The set of values live at some program point (a simple powerset lattice,
/// used backwards for liveness).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LiveSet(pub HashSet<ValueId>);

impl Lattice for LiveSet {
    fn bottom() -> Self {
        LiveSet::default()
    }

    fn join(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.extend(other.0.iter().copied());
        self.0.len() != before
    }
}

/// Per-function liveness: for every block, the set of values live at block
/// entry (classic backwards may-analysis).
pub fn liveness(f: &Function) -> HashMap<BlockId, LiveSet> {
    let preds = f.predecessors();
    let mut live_in: HashMap<BlockId, LiveSet> = f
        .blocks
        .iter()
        .map(|b| (b.id, LiveSet::default()))
        .collect();
    let mut worklist: Vec<BlockId> = f.blocks.iter().map(|b| b.id).collect();
    let mut queued = vec![true; f.blocks.len()];
    while let Some(bid) = worklist.pop() {
        queued[bid.0 as usize] = false;
        let block = f.block(bid);
        // live-out = union of successors' live-in.
        let mut live: HashSet<ValueId> = HashSet::new();
        for s in block.term.successors() {
            live.extend(live_in[&s].0.iter().copied());
        }
        // Terminator uses.
        for op in block.term.uses() {
            if let Operand::Value(v) = op {
                live.insert(v);
            }
        }
        // Walk instructions backwards.
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.def() {
                live.remove(&d);
            }
            for op in inst.uses() {
                if let Operand::Value(v) = op {
                    live.insert(v);
                }
            }
        }
        let entry = live_in.get_mut(&bid).expect("all blocks present");
        let before = entry.0.len();
        entry.0.extend(live.iter().copied());
        if entry.0.len() != before {
            for p in preds.get(&bid).into_iter().flatten() {
                if !queued[p.0 as usize] {
                    queued[p.0 as usize] = true;
                    worklist.push(*p);
                }
            }
        }
    }
    live_in
}

/// An intersection ("must") lattice over an arbitrary fact type, for forward
/// analyses such as available expressions or available bounds checks.
///
/// `bottom()` is the *universal* set (`All`): in a must-analysis the
/// optimistic starting point for a not-yet-visited block is "everything is
/// available", and `join` (set intersection) only ever shrinks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MustSet<K: Eq + Hash + Clone> {
    /// The universal set (top of the subset order, bottom of the join order).
    All,
    /// A concrete set of facts.
    Only(HashSet<K>),
}

impl<K: Eq + Hash + Clone> MustSet<K> {
    /// The empty set of facts.
    pub fn empty() -> Self {
        MustSet::Only(HashSet::new())
    }

    pub fn contains(&self, k: &K) -> bool {
        match self {
            MustSet::All => true,
            MustSet::Only(s) => s.contains(k),
        }
    }

    /// Add a fact (no-op on `All`, which already contains everything).
    pub fn insert(&mut self, k: K) {
        if let MustSet::Only(s) = self {
            s.insert(k);
        }
    }

    /// Remove every fact rejected by `keep`.  `All` is left unchanged: it is
    /// the identity of the must-join and only arises for blocks no concrete
    /// fact has reached yet (unreachable, or not yet visited mid-fixpoint),
    /// where it must keep acting as the join identity.  Consumers that *act*
    /// on facts must go through [`MustSet::as_concrete`], which treats `All`
    /// as empty — the conservative direction.
    pub fn retain(&mut self, keep: impl Fn(&K) -> bool) {
        match self {
            MustSet::All => {}
            MustSet::Only(s) => s.retain(|k| keep(k)),
        }
    }

    /// The concrete facts, treating the universal set as empty (conservative
    /// for consumers that *use* availability to justify eliminations).
    pub fn as_concrete(&self) -> HashSet<K> {
        match self {
            MustSet::All => HashSet::new(),
            MustSet::Only(s) => s.clone(),
        }
    }
}

impl<K: Eq + Hash + Clone> Lattice for MustSet<K> {
    fn bottom() -> Self {
        MustSet::All
    }

    fn join(&mut self, other: &Self) -> bool {
        match (&mut *self, other) {
            (_, MustSet::All) => false,
            (MustSet::All, MustSet::Only(o)) => {
                *self = MustSet::Only(o.clone());
                true
            }
            (MustSet::Only(s), MustSet::Only(o)) => {
                let before = s.len();
                s.retain(|k| o.contains(k));
                s.len() != before
            }
        }
    }
}

/// The dominator tree of a function's reachable blocks, built with the
/// Cooper–Harvey–Kennedy algorithm ("A Simple, Fast Dominance Algorithm",
/// 2001): immediate dominators are iterated to a fixpoint over reverse
/// postorder, then the tree is numbered once with DFS pre/post numbers so
/// [`Dominators::dominates`] is O(1).  All tables are dense `Vec`s indexed by
/// `BlockId` (`f.block(id) == f.blocks[id.0]`).
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Dominator-tree children of each block, in ascending `BlockId` order.
    children: Vec<Vec<BlockId>>,
    /// `(pre, post)` DFS numbers in the dominator tree; `None` for blocks
    /// unreachable from the entry.
    order: Vec<Option<(u32, u32)>>,
}

impl Dominators {
    /// Does `a` dominate `b`?  Unreachable blocks dominate nothing and are
    /// dominated by nothing (callers should filter them out first).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        match (self.number(a), self.number(b)) {
            (Some((pre_a, post_a)), Some((pre_b, post_b))) => pre_a <= pre_b && post_b <= post_a,
            _ => false,
        }
    }

    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.number(b).is_some()
    }

    /// The blocks `b` immediately dominates, in ascending `BlockId` order
    /// (empty for unreachable blocks).
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        self.children.get(b.0 as usize).map_or(&[], Vec::as_slice)
    }

    fn number(&self, b: BlockId) -> Option<(u32, u32)> {
        self.order.get(b.0 as usize).copied().flatten()
    }
}

/// Compute the dominator tree of a function's CFG.
pub fn dominators(f: &Function) -> Dominators {
    const NONE: usize = usize::MAX;
    let n = f.blocks.len();
    let entry = f.entry().0 as usize;
    let succs: Vec<Vec<BlockId>> = f.blocks.iter().map(|b| b.term.successors()).collect();

    // Postorder of the reachable blocks (iterative DFS from the entry).
    let mut po_num = vec![NONE; n];
    let mut postorder: Vec<usize> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
    visited[entry] = true;
    while let Some((b, next)) = stack.last_mut() {
        let (b, succ) = (*b, succs[*b].get(*next).map(|s| s.0 as usize));
        *next += 1;
        match succ {
            Some(s) if !visited[s] => {
                visited[s] = true;
                stack.push((s, 0));
            }
            Some(_) => {}
            None => {
                po_num[b] = postorder.len();
                postorder.push(b);
                stack.pop();
            }
        }
    }

    // Reachable predecessors of every reachable block.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &b in &postorder {
        for s in &succs[b] {
            preds[s.0 as usize].push(b);
        }
    }

    // Immediate dominators, iterated over reverse postorder.
    let mut idom = vec![NONE; n];
    idom[entry] = entry;
    let intersect = |idom: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while po_num[a] < po_num[b] {
                a = idom[a];
            }
            while po_num[b] < po_num[a] {
                b = idom[b];
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in postorder.iter().rev().filter(|&&b| b != entry) {
            let mut new_idom = NONE;
            for &p in &preds[b] {
                if idom[p] != NONE {
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        intersect(&idom, p, new_idom)
                    };
                }
            }
            if idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }

    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for (b, &d) in idom.iter().enumerate() {
        if d != NONE && b != entry {
            children[d].push(BlockId(b as u32));
        }
    }

    // Pre/post numbering of the dominator tree.
    let mut order: Vec<Option<(u32, u32)>> = vec![None; n];
    let (mut pre, mut post) = (0u32, 0u32);
    let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
    order[entry] = Some((pre, 0));
    while let Some((b, next)) = stack.last_mut() {
        let b = *b;
        match children[b].get(*next) {
            Some(c) => {
                *next += 1;
                pre += 1;
                order[c.0 as usize] = Some((pre, 0));
                stack.push((c.0 as usize, 0));
            }
            None => {
                if let Some((_, p)) = &mut order[b] {
                    *p = post;
                }
                post += 1;
                stack.pop();
            }
        }
    }
    Dominators { children, order }
}

/// A natural loop: a header, the blocks that jump back to it (latches), and
/// the body (header included).  `preheader` is the unique out-of-loop
/// predecessor of the header, present only when it unconditionally branches
/// to the header (the safe insertion point for hoisted code).
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    pub header: BlockId,
    pub latches: Vec<BlockId>,
    pub body: HashSet<BlockId>,
    pub preheader: Option<BlockId>,
}

/// Find the natural loops of a function (back edges `latch -> header` where
/// the header dominates the latch); loops sharing a header are merged.
pub fn natural_loops(f: &Function, doms: &Dominators) -> Vec<NaturalLoop> {
    let preds = f.predecessors();
    let mut by_header: HashMap<BlockId, NaturalLoop> = HashMap::new();
    for b in &f.blocks {
        if !doms.is_reachable(b.id) {
            continue;
        }
        for succ in b.term.successors() {
            if !doms.dominates(succ, b.id) {
                continue;
            }
            // Back edge b -> succ: the body is everything that reaches the
            // latch without passing through the header.
            let header = succ;
            let entry = by_header.entry(header).or_insert_with(|| NaturalLoop {
                header,
                latches: Vec::new(),
                body: std::iter::once(header).collect(),
                preheader: None,
            });
            entry.latches.push(b.id);
            let mut stack = vec![b.id];
            while let Some(n) = stack.pop() {
                if entry.body.insert(n) {
                    stack.extend(preds.get(&n).into_iter().flatten().copied());
                }
            }
        }
    }
    let mut loops: Vec<NaturalLoop> = by_header.into_values().collect();
    for l in &mut loops {
        let outside: Vec<BlockId> = preds
            .get(&l.header)
            .into_iter()
            .flatten()
            .copied()
            .filter(|p| !l.body.contains(p) && doms.is_reachable(*p))
            .collect();
        if let [p] = outside[..] {
            if matches!(f.block(p).term, crate::inst::Terminator::Br(t) if t == l.header) {
                l.preheader = Some(p);
            }
        }
    }
    loops.sort_by_key(|l| std::cmp::Reverse(l.body.len()));
    loops
}

/// Values live across at least one call instruction — these must go to
/// callee-saved registers or stack slots in the register allocator.
pub fn live_across_calls(f: &Function) -> HashSet<ValueId> {
    let live_in = liveness(f);
    let mut result = HashSet::new();
    for block in &f.blocks {
        // Recompute liveness backwards through the block, noting call sites.
        let mut live: HashSet<ValueId> = HashSet::new();
        for s in block.term.successors() {
            live.extend(live_in[&s].0.iter().copied());
        }
        for op in block.term.uses() {
            if let Operand::Value(v) = op {
                live.insert(v);
            }
        }
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.def() {
                live.remove(&d);
            }
            if inst.is_call() {
                result.extend(live.iter().copied());
            }
            for op in inst.uses() {
                if let Operand::Value(v) = op {
                    live.insert(v);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use confllvm_minic::{parse, Sema};

    fn lower_fn(src: &str, name: &str) -> Function {
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        let m = lower(&prog, &sema, "t").unwrap();
        m.function(name).unwrap().clone()
    }

    #[test]
    fn liveness_in_loop() {
        let f = lower_fn(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
            "f",
        );
        let live = liveness(&f);
        // The allocas for s and i must be live at the loop-head block.
        let any_nonempty = live.values().any(|l| !l.0.is_empty());
        assert!(any_nonempty);
    }

    #[test]
    fn values_live_across_calls_detected() {
        let f = lower_fn(
            "int g(int x) { return x; }\n\
             int f(int a) { int t = a + 1; g(a); return t; }",
            "f",
        );
        let across = live_across_calls(&f);
        assert!(!across.is_empty());
    }

    #[test]
    fn straight_line_has_no_call_crossing_values() {
        let f = lower_fn("int f(int a) { return a + 1; }", "f");
        assert!(live_across_calls(&f).is_empty());
    }

    #[test]
    fn mustset_join_is_intersection() {
        let mut a: MustSet<u32> = MustSet::bottom();
        let mut b = MustSet::empty();
        b.insert(1);
        b.insert(2);
        assert!(
            a.join(&b),
            "bottom (All) must collapse to the first operand"
        );
        let mut c = MustSet::empty();
        c.insert(2);
        c.insert(3);
        assert!(a.join(&c));
        assert!(a.contains(&2));
        assert!(!a.contains(&1));
        assert!(!a.join(&b), "already the intersection");
    }

    #[test]
    fn dominators_of_loop() {
        let f = lower_fn(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
            "f",
        );
        let doms = dominators(&f);
        let entry = f.entry();
        for b in &f.blocks {
            if doms.is_reachable(b.id) {
                assert!(doms.dominates(entry, b.id), "entry dominates {}", b.id);
            }
        }
        let loops = natural_loops(&f, &doms);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert!(!l.latches.is_empty());
        assert!(l.body.len() >= 3, "header, body and step blocks");
        let ph = l.preheader.expect("for-loops have a preheader");
        assert!(!l.body.contains(&ph));
        // Every body block is dominated by the header.
        for b in &l.body {
            assert!(doms.dominates(l.header, *b));
        }
    }

    #[test]
    fn nested_loops_are_both_found() {
        let f = lower_fn(
            "int f(int n) { int s = 0; int i; int j;
               for (i = 0; i < n; i = i + 1) {
                 for (j = 0; j < n; j = j + 1) { s = s + j; }
               }
               return s; }",
            "f",
        );
        let doms = dominators(&f);
        let loops = natural_loops(&f, &doms);
        assert_eq!(loops.len(), 2);
        // Outermost first (larger body).
        assert!(loops[0].body.len() > loops[1].body.len());
        assert!(loops[0].body.contains(&loops[1].header));
    }

    #[test]
    fn liveset_join() {
        let mut a = LiveSet::default();
        a.0.insert(ValueId(1));
        let mut b = LiveSet::default();
        b.0.insert(ValueId(2));
        assert!(a.join(&b));
        assert!(!a.join(&b));
        assert_eq!(a.0.len(), 2);
    }
}
