//! Independent verification of the strategy-space counts: enumerate *every*
//! binary expression tree over *every* permutation of the leaves,
//! canonicalize under Observations 1–3, and count distinct results.
//!
//! This is a from-first-principles cross-check of both the streaming
//! enumeration and the counting recurrence — and the evidence behind the
//! Table I reproduction finding (the paper's 207 at M = 4 counts
//! commutative duplicates; the semantic count is 195).

use std::collections::BTreeSet;

use qce_strategy::enumerate::count_full;
use qce_strategy::{IdSet, MsId, Node, Strategy, StrategyIter};

/// All binary strategy trees over an ordered leaf sequence.
fn binary_trees(leaves: &[usize]) -> Vec<Node> {
    if leaves.len() == 1 {
        return vec![Node::Leaf(MsId(leaves[0]))];
    }
    let mut out = Vec::new();
    for split in 1..leaves.len() {
        for left in binary_trees(&leaves[..split]) {
            for right in binary_trees(&leaves[split..]) {
                out.push(Node::Seq(vec![left.clone(), right.clone()]));
                out.push(Node::Par(vec![left.clone(), right]));
            }
        }
    }
    out
}

fn permutations(items: Vec<usize>) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.clone();
        let head = rest.remove(i);
        for mut tail in permutations(rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// Counts semantically distinct strategies over `m` microservices by brute
/// force (canonicalization happens inside `Strategy::from_node`).
/// `F(M)` over `ids`, as the enumerator yields it.
fn all(ids: &[MsId]) -> Vec<Strategy> {
    IdSet::new(ids)
        .and_then(StrategyIter::over)
        .unwrap()
        .collect()
}

fn brute_force_count(m: usize) -> usize {
    let mut distinct: BTreeSet<Strategy> = BTreeSet::new();
    for perm in permutations((0..m).collect()) {
        for tree in binary_trees(&perm) {
            distinct.insert(Strategy::from_node(tree).expect("valid tree"));
        }
    }
    distinct.len()
}

#[test]
fn brute_force_matches_recurrence_and_enumeration() {
    for m in 1..=4 {
        let brute = brute_force_count(m);
        assert_eq!(Some(brute as u128), count_full(m), "recurrence at M={m}");
        let ids: Vec<MsId> = (0..m).map(MsId).collect();
        assert_eq!(brute, all(&ids).len(), "enumeration at M={m}");
    }
}

#[test]
fn m4_semantic_count_is_195_not_207() {
    // The heart of the Table I finding.
    assert_eq!(brute_force_count(4), 195);
}

#[test]
fn commutative_duplicates_collapse() {
    // (a-b)*(c-d) and (c-d)*(a-b) are one strategy.
    let lhs = Strategy::parse("(a-b)*(c-d)").unwrap();
    let rhs = Strategy::parse("(c-d)*(a-b)").unwrap();
    assert_eq!(lhs, rhs);
    // …but (a-b)*(c-d) and (b-a)*(c-d) are different (Seq order matters).
    let other = Strategy::parse("(b-a)*(c-d)").unwrap();
    assert_ne!(lhs, other);
}

#[test]
fn brute_force_set_equals_enumerated_set_at_m3() {
    // Not just the same *count* — the same *set*.
    let mut brute: BTreeSet<Strategy> = BTreeSet::new();
    for perm in permutations(vec![0, 1, 2]) {
        for tree in binary_trees(&perm) {
            brute.insert(Strategy::from_node(tree).unwrap());
        }
    }
    let ids: Vec<MsId> = (0..3).map(MsId).collect();
    let enumerated: BTreeSet<Strategy> = all(&ids).into_iter().collect();
    assert_eq!(brute, enumerated);
}
