//! Enumeration, counting, and uniform sampling of execution strategies
//! (paper Section III.B, Table I).
//!
//! Given `M` equivalent microservices, the set of distinct execution
//! strategies that use *all* of them is denoted `F(M)`; allowing strategies
//! over any non-empty subset gives `F'(M)`.
//!
//! ## A note on Table I (reproduction finding)
//!
//! The paper reports `F(M)` = 3, 19, 207, 3211, 64743 for M = 2..6. Under
//! the paper's *own* equivalences (Observations 1–3: `*` commutative, both
//! operators associative), the number of semantically distinct strategies
//! is smaller:
//!
//! | M | 2 | 3 | 4 | 5 | 6 |
//! |---|---|---|---|---|---|
//! | semantically distinct (this module) | 3 | 19 | 195 | 2791 | 51303 |
//! | paper's Table I                     | 3 | 19 | 207 | 3211 | 64743 |
//!
//! The gap is explained by commutative duplicates the paper's
//! duplication-removal misses when **both** operands of `*` are
//! parenthesized sub-expressions: at M = 4 the 12 extra entries are exactly
//! the ordered pairs `(w-x)*(y-z)` vs `(y-z)*(w-x)`, which Observation 1
//! says are the same strategy. Re-running the enumeration with a dedup that
//! sorts only *leaf* operands of `*` (keeping parenthesized operands in
//! encounter order) reproduces the paper's 3, 19, 207, 3211 exactly
//! (64383 vs 64743 at M = 6); see [`paper`]. Both brute-force
//! binary-expression enumeration and an independent counting recurrence
//! confirm the semantic counts used here.
//!
//! This module reproduces the semantic numbers three independent ways:
//! explicit enumeration ([`StrategyIter`]), a closed counting recurrence
//! ([`count_full`]), and uniform random sampling ([`StrategySampler`])
//! driven by the same recurrence. The enumerator and the sampler take an
//! [`IdSet`], and refuse one longer than [`MAX_COUNT_M`] with
//! [`GenerateError::TooManyMicroservices`].
//!
//! The enumeration works directly on the canonical form (see
//! [`crate::expr::ast`]): a strategy tree alternates `Seq` and `Par` levels,
//! so we recursively enumerate
//!
//! * *seq-rooted* trees: a first block holding a non-seq tree, followed by
//!   the remainder as either a single non-seq tree or another seq-rooted
//!   tree (right-spine recursion guarantees each flattened `Seq` is produced
//!   exactly once);
//! * *par-rooted* trees: the child block containing the smallest leaf is
//!   the distinguished *anchor* (exploiting commutativity), the remainder is
//!   a single non-par tree or another par-rooted tree.

use crate::error::{BuildError, GenerateError};
use crate::expr::{Node, Strategy};
use crate::{IdSet, MsId};

/// The most microservices the counting recurrences, the enumerators and
/// the exhaustive search accept.
///
/// Enumeration is practical only far below this.
pub const MAX_COUNT_M: usize = 20;

/// Bitmask over positions of a microservice slice.
pub(crate) type Mask = u64;

/// Iterates over all submasks of `mask`, including `0` and `mask` itself.
pub(crate) fn submasks(mask: Mask) -> impl Iterator<Item = Mask> {
    let mut sub = mask;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let current = sub;
        if sub == 0 {
            done = true;
        } else {
            sub = (sub - 1) & mask;
        }
        Some(current)
    })
}

// ---------------------------------------------------------------------------
// Streaming iterator (unranking)
// ---------------------------------------------------------------------------

/// The streaming enumerator over `F(M)`: yields every strategy that uses
/// all of the ids, in a deterministic canonical order, with `O(depth)`
/// memory — so it can walk spaces too large to collect (`F(7)` =
/// 1 152 019 strategies). Collect it where a `Vec` is wanted; that is
/// practical for `M ≤ 6` (51 303 strategies).
///
/// Internally the iterator *unranks*: it inverts the counting recurrence of
/// [`count_full`] to map an index `k ∈ [0, F(M))` directly to the `k`-th
/// strategy of the enumeration order.
///
/// # Examples
///
/// ```
/// use qce_strategy::{IdSet, MsId, Strategy, StrategyIter};
///
/// let ids = [MsId(0), MsId(1)];
/// let mut seen: Vec<String> = StrategyIter::over(IdSet::new(&ids)?)?
///     .map(|s| s.to_string())
///     .collect();
/// seen.sort();
/// assert_eq!(seen, ["a*b", "a-b", "b-a"]);
///
/// let ids: Vec<MsId> = (0..4).map(MsId).collect();
/// let iter = StrategyIter::over(IdSet::new(&ids)?)?;
/// assert_eq!(iter.remaining(), 195);
/// // 195 semantically distinct strategies (the paper's Table I reports 207,
/// // counting some commutative duplicates — see the module docs).
/// let all: Vec<Strategy> = iter.collect();
/// assert_eq!(all.len(), 195);
/// # Ok::<(), qce_strategy::GenerateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StrategyIter {
    ids: Vec<MsId>,
    counts: Counts,
    next: u128,
    end: u128,
}

impl StrategyIter {
    /// Iterates over `F(M)`: every strategy using **all** of `ids`.
    ///
    /// # Errors
    ///
    /// [`GenerateError::TooManyMicroservices`] past [`MAX_COUNT_M`] ids.
    pub fn over(ids: IdSet<'_>) -> Result<Self, GenerateError> {
        let counts = Counts::over(ids)?;
        let end = counts.all(ids.len());
        Ok(StrategyIter {
            ids: ids.to_vec(),
            counts,
            next: 0,
            end,
        })
    }

    /// [`StrategyIter::over`] an unvetted list, yielding nothing for an
    /// empty one. It outlives the move to [`IdSet`] only because the
    /// wall-clock benchmark (`benchmark/src/probes.rs`) calls it and a
    /// non-benchmark change may not touch `benchmark/`; the next
    /// `benchmark/`-only change moves that probe to `over` and drops this.
    ///
    /// # Panics
    ///
    /// Panics if `ids` repeats an id or holds more than [`MAX_COUNT_M`].
    #[must_use]
    pub fn full(ids: &[MsId]) -> Self {
        match IdSet::new(ids) {
            Err(GenerateError::NoMicroservices) => StrategyIter {
                ids: Vec::new(),
                counts: Counts::default(),
                next: 0,
                end: 0,
            },
            set => set.and_then(Self::over).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Number of strategies left to yield.
    #[must_use]
    pub fn remaining(&self) -> u128 {
        self.end - self.next
    }
}

impl Iterator for StrategyIter {
    type Item = Strategy;

    fn next(&mut self) -> Option<Strategy> {
        if self.next >= self.end {
            return None;
        }
        let full: Mask = (1 << self.ids.len()) - 1;
        let node = Unrank {
            ids: &self.ids,
            counts: &self.counts,
        }
        .all(full, self.next);
        self.next += 1;
        Some(Strategy::from_node(node).expect("unranking produces valid strategies"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining()).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

/// Inverse of the [`EnumCtx`] recursion: maps `(mask, index)` to the node
/// that recursion produces at that position. The index decomposition
/// mirrors `stream_*` exactly — outer loops become quotient digits, inner
/// loops remainders — so iteration order is identical.
struct Unrank<'a> {
    ids: &'a [MsId],
    counts: &'a Counts,
}

impl Unrank<'_> {
    fn all(&self, mask: Mask, k: u128) -> Node {
        let n = mask.count_ones() as usize;
        let w_non_seq = self.counts.non_seq[n];
        if k < w_non_seq {
            self.non_seq(mask, k)
        } else {
            self.seq(mask, k - w_non_seq)
        }
    }

    fn non_seq(&self, mask: Mask, k: u128) -> Node {
        if mask.count_ones() == 1 {
            debug_assert_eq!(k, 0);
            Node::Leaf(self.ids[mask.trailing_zeros() as usize])
        } else {
            self.par(mask, k)
        }
    }

    fn non_par(&self, mask: Mask, k: u128) -> Node {
        if mask.count_ones() == 1 {
            debug_assert_eq!(k, 0);
            Node::Leaf(self.ids[mask.trailing_zeros() as usize])
        } else {
            self.seq(mask, k)
        }
    }

    fn seq(&self, mask: Mask, mut k: u128) -> Node {
        let n = mask.count_ones() as usize;
        debug_assert!(n >= 2);
        for first_mask in submasks(mask) {
            if first_mask == 0 || first_mask == mask {
                continue;
            }
            let rest_mask = mask & !first_mask;
            let b = first_mask.count_ones() as usize;
            let r = n - b;
            let tails = self.counts.non_seq[r] + self.counts.seq[r];
            let block = self.counts.non_seq[b] * tails;
            if k >= block {
                k -= block;
                continue;
            }
            let first = self.non_seq(first_mask, k / tails);
            let tail_idx = k % tails;
            return if tail_idx < self.counts.non_seq[r] {
                Node::Seq(vec![first, self.non_seq(rest_mask, tail_idx)])
            } else {
                let Node::Seq(tail) = self.seq(rest_mask, tail_idx - self.counts.non_seq[r]) else {
                    unreachable!("seq unranking yields Seq nodes only")
                };
                let mut children = Vec::with_capacity(tail.len() + 1);
                children.push(first);
                children.extend(tail);
                Node::Seq(children)
            };
        }
        unreachable!("seq index out of range")
    }

    fn par(&self, mask: Mask, mut k: u128) -> Node {
        let n = mask.count_ones() as usize;
        debug_assert!(n >= 2);
        let low: Mask = mask & mask.wrapping_neg();
        let others = mask ^ low;
        for extra in submasks(others) {
            if extra == others {
                continue;
            }
            let anchor_mask = low | extra;
            let rest_mask = others ^ extra;
            let b = anchor_mask.count_ones() as usize;
            let r = n - b;
            let tails = self.counts.non_par[r] + self.counts.par[r];
            let block = self.counts.non_par[b] * tails;
            if k >= block {
                k -= block;
                continue;
            }
            let anchor = self.non_par(anchor_mask, k / tails);
            let tail_idx = k % tails;
            let mut children = if tail_idx < self.counts.non_par[r] {
                vec![anchor, self.non_par(rest_mask, tail_idx)]
            } else {
                let Node::Par(tail) = self.par(rest_mask, tail_idx - self.counts.non_par[r]) else {
                    unreachable!("par unranking yields Par nodes only")
                };
                let mut children = Vec::with_capacity(tail.len() + 1);
                children.push(anchor);
                children.extend(tail);
                children
            };
            children.sort();
            return Node::Par(children);
        }
        unreachable!("par index out of range")
    }
}

/// The push recursion over the canonical form: calls a visitor once per
/// tree of a class (non-seq-rooted, seq-rooted, par-rooted) over a leaf
/// mask. Not public — [`StrategyIter`] is the one public enumerator — and
/// kept as the synthesis engine's family builder: `synth` compiles (or,
/// for a family too large to cache, streams) every non-seq tree over a
/// mask from it, where a whole family is wanted at once and a visitor
/// builds it without an index per tree. A test pins its order to
/// [`Unrank`]'s node for node.
#[derive(Clone, Copy)]
pub(crate) struct EnumCtx<'a> {
    ids: IdSet<'a>,
}

impl<'a> EnumCtx<'a> {
    pub(crate) fn new(ids: IdSet<'a>) -> Self {
        EnumCtx { ids }
    }

    /// Trees whose root is not `Seq` (a leaf or a `Par`).
    pub(crate) fn stream_non_seq(&self, mask: Mask, f: &mut dyn FnMut(Node)) {
        if mask.count_ones() == 1 {
            let idx = mask.trailing_zeros() as usize;
            f(Node::Leaf(self.ids[idx]));
        } else {
            self.stream_par(mask, f);
        }
    }

    /// Trees whose root is not `Par` (a leaf or a `Seq`).
    fn stream_non_par(&self, mask: Mask, f: &mut dyn FnMut(Node)) {
        if mask.count_ones() == 1 {
            let idx = mask.trailing_zeros() as usize;
            f(Node::Leaf(self.ids[idx]));
        } else {
            self.stream_seq(mask, f);
        }
    }

    /// `Seq`-rooted trees over `mask` (requires ≥ 2 leaves).
    ///
    /// Right-spine recursion: choose the first child's leaf block `B`, then
    /// emit `Seq[first, rest…]` for `rest` either a single non-seq tree or
    /// the children of a seq-rooted tree over the remainder.
    fn stream_seq(&self, mask: Mask, f: &mut dyn FnMut(Node)) {
        if mask.count_ones() < 2 {
            return;
        }
        for first_mask in submasks(mask) {
            if first_mask == 0 || first_mask == mask {
                continue;
            }
            let rest_mask = mask & !first_mask;
            self.stream_non_seq(first_mask, &mut |first| {
                // rest as a single non-seq child: Seq of exactly 2 children
                self.stream_non_seq(rest_mask, &mut |rest| {
                    f(Node::Seq(vec![first.clone(), rest]));
                });
                // rest as a longer sequential tail: splice its children
                self.stream_seq(rest_mask, &mut |rest_seq| {
                    let Node::Seq(tail) = rest_seq else {
                        unreachable!("stream_seq yields Seq nodes only")
                    };
                    let mut children = Vec::with_capacity(tail.len() + 1);
                    children.push(first.clone());
                    children.extend(tail);
                    f(Node::Seq(children));
                });
            });
        }
    }

    /// `Par`-rooted trees over `mask` (requires ≥ 2 leaves).
    ///
    /// The child block containing the lowest-indexed leaf is the anchor —
    /// fixing it exploits `*`'s commutativity so each unordered set of
    /// children is produced exactly once.
    pub(crate) fn stream_par(&self, mask: Mask, f: &mut dyn FnMut(Node)) {
        if mask.count_ones() < 2 {
            return;
        }
        let low: Mask = mask & mask.wrapping_neg();
        let others = mask ^ low;
        for extra in submasks(others) {
            if extra == others {
                continue; // anchor block must leave at least one leaf over
            }
            let anchor_mask = low | extra;
            let rest_mask = others ^ extra;
            self.stream_non_par(anchor_mask, &mut |anchor| {
                // remainder is a single non-par child: Par of 2 children
                self.stream_non_par(rest_mask, &mut |rest| {
                    let mut children = vec![anchor.clone(), rest];
                    children.sort();
                    f(Node::Par(children));
                });
                // remainder is itself a Par: splice its children in
                self.stream_par(rest_mask, &mut |rest_par| {
                    let Node::Par(tail) = rest_par else {
                        unreachable!("stream_par yields Par nodes only")
                    };
                    let mut children = Vec::with_capacity(tail.len() + 1);
                    children.push(anchor.clone());
                    children.extend(tail);
                    children.sort();
                    f(Node::Par(children));
                });
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Counting recurrences
// ---------------------------------------------------------------------------

/// Size-indexed counts of the enumeration classes above, exact in `u128`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counts {
    /// `non_seq[n]`: trees over `n` labeled leaves whose root is not `Seq`.
    pub(crate) non_seq: Vec<u128>,
    /// `non_par[n]`: trees whose root is not `Par`.
    pub(crate) non_par: Vec<u128>,
    /// `seq[n]`: `Seq`-rooted trees.
    pub(crate) seq: Vec<u128>,
    /// `par[n]`: `Par`-rooted trees.
    pub(crate) par: Vec<u128>,
    /// `binom[n][k]`.
    pub(crate) binom: Vec<Vec<u128>>,
}

impl Counts {
    /// The counts for up to `m` leaves; `None` past [`MAX_COUNT_M`], which
    /// is how every count, the enumerator, the sampler and the engine learn
    /// of that limit.
    pub(crate) fn up_to(m: usize) -> Option<Self> {
        if m > MAX_COUNT_M {
            return None;
        }
        let mut binom = vec![vec![0u128; m + 1]; m + 1];
        for row in binom.iter_mut() {
            row[0] = 1;
        }
        for n in 1..=m {
            for k in 1..=n {
                let left = if k < n { binom[n - 1][k] } else { 0 };
                binom[n][k] = binom[n - 1][k - 1] + left;
            }
        }

        let mut non_seq = vec![0u128; m + 1];
        let mut non_par = vec![0u128; m + 1];
        let mut seq = vec![0u128; m + 1];
        let mut par = vec![0u128; m + 1];
        // forest[n]: unordered partitions of n labeled leaves into ≥ 1
        // blocks, each block carrying a non-par tree (the children multiset
        // of a Par, allowing the degenerate single-block case).
        let mut forest = vec![0u128; m + 1];
        if m >= 1 {
            non_seq[1] = 1;
            non_par[1] = 1;
            forest[0] = 1;
        }
        for n in 1..=m {
            if n >= 2 {
                // Seq: first block of size j carrying a non-seq tree,
                // remainder either one more non-seq block or a longer tail.
                seq[n] = (1..n)
                    .map(|j| binom[n][j] * non_seq[j] * (non_seq[n - j] + seq[n - j]))
                    .sum();
                non_par[n] = seq[n];
            }
            // forest[n]: the block containing the lowest leaf has size j.
            forest[n] = (1..=n)
                .map(|j| binom[n - 1][j - 1] * non_par[j] * forest[n - j])
                .sum();
            if n >= 2 {
                par[n] = forest[n] - non_par[n];
                non_seq[n] = par[n];
            }
        }
        Some(Counts {
            non_seq,
            non_par,
            seq,
            par,
            binom,
        })
    }

    /// The counts over `ids`, or [`GenerateError::TooManyMicroservices`].
    pub(crate) fn over(ids: IdSet<'_>) -> Result<Self, GenerateError> {
        Counts::up_to(ids.len()).ok_or(GenerateError::TooManyMicroservices {
            got: ids.len(),
            max: MAX_COUNT_M,
        })
    }

    pub(crate) fn all(&self, n: usize) -> u128 {
        self.non_seq[n] + self.seq[n]
    }
}

/// Number of semantically distinct strategies using all of `m`
/// microservices — the corrected `F(M)` (see the module docs for how this
/// relates to the paper's Table I; [`paper::count_table1`] reproduces the
/// published numbers); `Some(0)` for no microservices, `None` past
/// [`MAX_COUNT_M`].
///
/// # Examples
///
/// ```
/// use qce_strategy::enumerate::count_full;
///
/// assert_eq!(count_full(2), Some(3));
/// assert_eq!(count_full(5), Some(2791));
/// assert_eq!(count_full(6), Some(51303));
/// assert_eq!(count_full(0), Some(0));
/// assert_eq!(count_full(21), None);
/// ```
#[must_use]
pub fn count_full(m: usize) -> Option<u128> {
    Counts::up_to(m).map(|counts| counts.all(m))
}

/// Number of semantically distinct strategies using between 1 and `m` of
/// the microservices — the corrected `F'(M)` (the paper's Table I values
/// are reproduced by [`paper::count_table1_subsets`]); `Some(0)` for no
/// microservices, `None` past [`MAX_COUNT_M`].
///
/// # Examples
///
/// ```
/// use qce_strategy::enumerate::count_with_subsets;
///
/// assert_eq!(count_with_subsets(2), Some(5));
/// assert_eq!(count_with_subsets(3), Some(31));
/// assert_eq!(count_with_subsets(6), Some(71405));
/// ```
#[must_use]
pub fn count_with_subsets(m: usize) -> Option<u128> {
    let counts = Counts::up_to(m)?;
    Some((1..=m).map(|j| counts.binom[m][j] * counts.all(j)).sum())
}

// ---------------------------------------------------------------------------
// Uniform sampling
// ---------------------------------------------------------------------------

/// Draws strategies uniformly at random from `F(M)` over a fixed id set.
///
/// The sampler inverts the counting recurrence, so every one of the
/// `F(M)` distinct strategies is equally likely. Used by the paper's
/// estimation-correctness experiment, which "randomly select\[s\] 100
/// execution strategies".
///
/// # Examples
///
/// ```
/// use qce_strategy::enumerate::StrategySampler;
/// use qce_strategy::{IdSet, MsId};
/// use rand::SeedableRng;
///
/// let ids: Vec<MsId> = (0..5).map(MsId).collect();
/// let sampler = StrategySampler::new(IdSet::new(&ids)?)?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let s = sampler.sample(&mut rng);
/// assert_eq!(s.len(), 5);
/// # Ok::<(), qce_strategy::GenerateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StrategySampler {
    ids: Vec<MsId>,
    counts: Counts,
}

impl StrategySampler {
    /// Creates a sampler over `ids`.
    ///
    /// # Errors
    ///
    /// [`GenerateError::TooManyMicroservices`] past [`MAX_COUNT_M`] ids.
    pub fn new(ids: IdSet<'_>) -> Result<Self, GenerateError> {
        Ok(StrategySampler {
            ids: ids.to_vec(),
            counts: Counts::over(ids)?,
        })
    }

    /// Draws one strategy uniformly at random.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Strategy {
        let mut pool: Vec<MsId> = self.ids.clone();
        let node = self.sample_all(&mut pool, rng);
        debug_assert!(pool.is_empty());
        Strategy::from_node(node).expect("sampler produces valid strategies")
    }

    /// Samples any tree consuming all ids in `pool`.
    fn sample_all<R: rand::Rng + ?Sized>(&self, pool: &mut Vec<MsId>, rng: &mut R) -> Node {
        let n = pool.len();
        let w_non_seq = self.counts.non_seq[n];
        let total = w_non_seq + self.counts.seq[n];
        if rng.gen_range(0..total) < w_non_seq {
            self.sample_non_seq(pool, rng)
        } else {
            self.sample_seq(pool, rng)
        }
    }

    fn sample_non_seq<R: rand::Rng + ?Sized>(&self, pool: &mut Vec<MsId>, rng: &mut R) -> Node {
        if pool.len() == 1 {
            Node::Leaf(pool.pop().expect("pool non-empty"))
        } else {
            self.sample_par(pool, rng)
        }
    }

    fn sample_non_par<R: rand::Rng + ?Sized>(&self, pool: &mut Vec<MsId>, rng: &mut R) -> Node {
        if pool.len() == 1 {
            Node::Leaf(pool.pop().expect("pool non-empty"))
        } else {
            self.sample_seq(pool, rng)
        }
    }

    fn sample_seq<R: rand::Rng + ?Sized>(&self, pool: &mut Vec<MsId>, rng: &mut R) -> Node {
        let n = pool.len();
        debug_assert!(n >= 2);
        // Choose the size j of the first block, weighted by how many trees
        // have a first block of that size.
        let weight = |j: usize| {
            self.counts.binom[n][j]
                * self.counts.non_seq[j]
                * (self.counts.non_seq[n - j] + self.counts.seq[n - j])
        };
        let total: u128 = (1..n).map(weight).sum();
        let mut pick = rng.gen_range(0..total);
        let mut size = 1;
        for j in 1..n {
            let w = weight(j);
            if pick < w {
                size = j;
                break;
            }
            pick -= w;
        }
        let mut block = draw_subset(pool, size, rng);
        let first = self.sample_non_seq(&mut block, rng);
        // Tail: one more non-seq child, or a longer seq-rooted tail.
        let rest = pool.len();
        let w_single = self.counts.non_seq[rest];
        let w_tail = self.counts.seq[rest];
        let mut children = vec![first];
        if rng.gen_range(0..w_single + w_tail) < w_single {
            children.push(self.sample_non_seq(pool, rng));
        } else {
            match self.sample_seq(pool, rng) {
                Node::Seq(tail) => children.extend(tail),
                other => children.push(other),
            }
        }
        Node::Seq(children)
    }

    fn sample_par<R: rand::Rng + ?Sized>(&self, pool: &mut Vec<MsId>, rng: &mut R) -> Node {
        let n = pool.len();
        debug_assert!(n >= 2);
        // The anchor block contains the smallest id in the pool; choose its
        // size j weighted by the number of trees with that anchor size.
        let weight = |j: usize| {
            let rest = n - j;
            self.counts.binom[n - 1][j - 1]
                * self.counts.non_par[j]
                * (self.counts.non_par[rest] + self.counts.par[rest])
        };
        let total: u128 = (1..n).map(weight).sum();
        let mut pick = rng.gen_range(0..total);
        let mut size = 1;
        for j in 1..n {
            let w = weight(j);
            if pick < w {
                size = j;
                break;
            }
            pick -= w;
        }
        // Remove the smallest id, then draw j-1 companions for the anchor.
        let min_pos = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, id)| **id)
            .map(|(i, _)| i)
            .expect("pool non-empty");
        let lowest = pool.swap_remove(min_pos);
        let mut block = draw_subset(pool, size - 1, rng);
        block.push(lowest);
        let anchor = self.sample_non_par(&mut block, rng);
        let rest = pool.len();
        let w_single = self.counts.non_par[rest];
        let w_more = self.counts.par[rest];
        let mut children = vec![anchor];
        if rng.gen_range(0..w_single + w_more) < w_single {
            children.push(self.sample_non_par(pool, rng));
        } else {
            match self.sample_par(pool, rng) {
                Node::Par(tail) => children.extend(tail),
                other => children.push(other),
            }
        }
        children.sort();
        Node::Par(children)
    }
}

/// Removes and returns `count` uniformly random elements from `pool`.
fn draw_subset<R: rand::Rng + ?Sized>(
    pool: &mut Vec<MsId>,
    count: usize,
    rng: &mut R,
) -> Vec<MsId> {
    debug_assert!(count <= pool.len());
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out
}

/// Reconstruction of the counting procedure behind the paper's Table I.
///
/// The published `F(M)` numbers (3, 19, 207, 3211, 64743) count strategies
/// under a duplication removal that sorts only the *single-microservice*
/// operands of `*`, leaving parenthesized operands in encounter order —
/// so `(a-b)*(c-d)` and `(c-d)*(a-b)` are counted twice even though
/// Observation 1 makes them the same strategy. The recurrences below model
/// exactly that: a parallel node owns an unordered set of leaf children
/// plus an **ordered** sequence of sequential children.
///
/// They reproduce Table I exactly for `M ≤ 5` and come within 0.56% at
/// `M = 6` (64 383 vs the published 64 743; the residual is attributable to
/// the paper's incompletely specified dedup procedure). Use
/// [`count_full`] for the semantically correct counts.
pub mod paper {
    /// `F(M)` as counted by the paper's procedure; `Some(0)` for no
    /// microservices, `None` past [`MAX_COUNT_M`](super::MAX_COUNT_M).
    ///
    /// # Examples
    ///
    /// ```
    /// use qce_strategy::enumerate::paper::count_table1;
    ///
    /// assert_eq!(count_table1(4), Some(207));  // Table I
    /// assert_eq!(count_table1(5), Some(3211)); // Table I
    /// ```
    #[must_use]
    pub fn count_table1(m: usize) -> Option<u128> {
        Tables::up_to(m).map(|t| t.all(m))
    }

    /// `F'(M)` as counted by the paper's procedure; `Some(0)` for no
    /// microservices, `None` past [`MAX_COUNT_M`](super::MAX_COUNT_M).
    ///
    /// ```
    /// use qce_strategy::enumerate::paper::count_table1_subsets;
    ///
    /// assert_eq!(count_table1_subsets(4), Some(305));  // Table I
    /// assert_eq!(count_table1_subsets(5), Some(4471)); // Table I
    /// ```
    #[must_use]
    pub fn count_table1_subsets(m: usize) -> Option<u128> {
        let t = Tables::up_to(m)?;
        Some((1..=m).map(|j| t.binom[m][j] * t.all(j)).sum())
    }

    struct Tables {
        /// `seq[n]`: Seq-rooted trees (identical to the semantic count at
        /// fixed child classes, but over paper-style children).
        seq: Vec<u128>,
        /// `par[n]`: paper-style Par-rooted trees.
        par: Vec<u128>,
        binom: Vec<Vec<u128>>,
    }

    impl Tables {
        /// `None` past [`MAX_COUNT_M`](super::MAX_COUNT_M).
        #[allow(clippy::needless_range_loop)]
        fn up_to(m: usize) -> Option<Self> {
            let binom = super::Counts::up_to(m)?.binom;
            // `non_seq[n]`: leaf (n = 1) or paper-style Par.
            let mut non_seq = vec![0u128; m + 1];
            let mut seq = vec![0u128; m + 1];
            let mut par = vec![0u128; m + 1];
            // ordered[n]: ordered sequences of ≥ 1 sequential blocks (each of
            // size ≥ 2, carrying a Seq-rooted tree) covering n leaves.
            let mut ordered = vec![0u128; m + 1];
            if m >= 1 {
                non_seq[1] = 1;
            }
            for n in 1..=m {
                if n >= 2 {
                    let mut s: u128 = 0;
                    for j in 1..n {
                        let tails = non_seq[n - j] + seq[n - j];
                        s += binom[n][j] * non_seq[j] * tails;
                    }
                    seq[n] = s;

                    let mut o: u128 = 0;
                    for j in 2..=n {
                        let rest = n - j;
                        let tail = if rest == 0 { 1 } else { ordered[rest] };
                        o += binom[n][j] * seq[j] * tail;
                    }
                    ordered[n] = o;

                    // Par: t unordered leaf children + an ordered sequence of
                    // k sequential children, t + k ≥ 2.
                    let mut p: u128 = 1; // t = n: all children are leaves
                    for t in 1..=n.saturating_sub(2) {
                        p += binom[n][t] * ordered[n - t];
                    }
                    // t = 0 requires k ≥ 2: exclude the single-block case.
                    p += ordered[n] - seq[n];
                    par[n] = p;
                    non_seq[n] = par[n];
                }
            }
            Some(Tables { seq, par, binom })
        }

        fn all(&self, n: usize) -> u128 {
            if n == 1 {
                1
            } else {
                self.seq[n] + self.par[n]
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::MAX_COUNT_M;
        use super::*;

        #[test]
        fn table1_published_full_counts() {
            // Published from M = 2 on; the value at M = 6 is 64 743, the
            // reconstructed dedup yields 64 383 (0.56% below) — see the
            // module docs.
            let counts: Vec<u128> = (0..=6).filter_map(count_table1).collect();
            assert_eq!(counts, [0, 1, 3, 19, 207, 3211, 64383]);
            assert_eq!(count_table1(MAX_COUNT_M + 1), None);
        }

        #[test]
        fn table1_published_subset_counts() {
            // Published value at M = 6 is 87 545; reconstruction gives 87 185.
            let counts: Vec<u128> = (0..=6).filter_map(count_table1_subsets).collect();
            assert_eq!(counts, [0, 1, 5, 31, 305, 4471, 87185]);
            assert_eq!(count_table1_subsets(MAX_COUNT_M + 1), None);
        }

        #[test]
        fn paper_counts_never_below_semantic_counts() {
            for m in 0..=MAX_COUNT_M {
                assert!(
                    count_table1(m) >= super::super::count_full(m),
                    "paper dedup keeps duplicates, so its count can't be smaller (m={m})"
                );
            }
        }
    }
}

/// Builds the fail-over strategy `ids[0] - ids[1] - …` (MOLE's sequential
/// pattern) over the given order.
///
/// # Errors
///
/// Returns [`BuildError::TooFewOperands`] for an empty slice (a single id
/// yields the leaf strategy) or [`BuildError::DuplicateMicroservice`] on
/// duplicates.
///
/// ```
/// use qce_strategy::enumerate::failover;
/// use qce_strategy::MsId;
///
/// let s = failover(&[MsId(2), MsId(0), MsId(1)])?;
/// assert_eq!(s.to_string(), "c-a-b");
/// # Ok::<(), qce_strategy::BuildError>(())
/// ```
pub fn failover(ids: &[MsId]) -> Result<Strategy, BuildError> {
    match ids {
        [] => Err(BuildError::TooFewOperands { got: 0 }),
        [only] => Ok(Strategy::leaf(*only)),
        _ => Strategy::seq(ids.iter().copied().map(Strategy::leaf)),
    }
}

/// Builds the speculative-parallel strategy `ids[0] * ids[1] * …` (MOLE's
/// parallel pattern).
///
/// # Errors
///
/// Same conditions as [`failover`].
///
/// ```
/// use qce_strategy::enumerate::speculative_parallel;
/// use qce_strategy::MsId;
///
/// let s = speculative_parallel(&[MsId(0), MsId(1), MsId(2)])?;
/// assert_eq!(s.to_string(), "a*b*c");
/// # Ok::<(), qce_strategy::BuildError>(())
/// ```
pub fn speculative_parallel(ids: &[MsId]) -> Result<Strategy, BuildError> {
    match ids {
        [] => Err(BuildError::TooFewOperands { got: 0 }),
        [only] => Ok(Strategy::leaf(*only)),
        _ => Strategy::par(ids.iter().copied().map(Strategy::leaf)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;

    fn ids(m: usize) -> Vec<MsId> {
        (0..m).map(MsId).collect()
    }

    /// `F(M)` over `ids`, collected.
    fn all(ids: &[MsId]) -> Vec<Strategy> {
        IdSet::new(ids)
            .and_then(StrategyIter::over)
            .unwrap()
            .collect()
    }

    fn sampler(ids: &[MsId]) -> StrategySampler {
        IdSet::new(ids).and_then(StrategySampler::new).unwrap()
    }

    #[test]
    fn semantic_full_counts_by_enumeration() {
        // Semantically distinct counts; see module docs for the relation to
        // the paper's Table I. Verified independently by brute-force
        // enumeration of all binary expression trees.
        let expected = [(2usize, 3usize), (3, 19), (4, 195), (5, 2791)];
        for (m, count) in expected {
            assert_eq!(all(&ids(m)).len(), count, "F({m})");
        }
    }

    #[test]
    fn semantic_subset_counts_by_enumeration() {
        // F'(M) is F over every non-empty sub-list: enumerate each.
        let expected = [(2usize, 5usize), (3, 31), (4, 293), (5, 3991)];
        for (m, count) in expected {
            let every = ids(m);
            let enumerated: usize = (1..1u32 << m)
                .map(|sub| {
                    let picked: Vec<MsId> = (0..m)
                        .filter(|&i| sub & (1 << i) != 0)
                        .map(|i| every[i])
                        .collect();
                    all(&picked).len()
                })
                .sum();
            assert_eq!(enumerated, count, "F'({m})");
        }
    }

    #[test]
    fn semantic_counting_recurrence() {
        let full: Vec<u128> = (0..=6).filter_map(count_full).collect();
        assert_eq!(full, [0, 1, 3, 19, 195, 2791, 51303]);
        let subsets: Vec<u128> = (0..=6).filter_map(count_with_subsets).collect();
        assert_eq!(subsets, [0, 1, 5, 31, 293, 3991, 71405]);
    }

    #[test]
    fn counts_strictly_grow() {
        let mut prev = 0u128;
        for m in 1..=MAX_COUNT_M {
            let c = count_full(m).unwrap();
            assert!(c > prev, "F({m}) should exceed F({})", m - 1);
            prev = c;
        }
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        for m in 1..=5 {
            let all = all(&ids(m));
            let unique: HashSet<_> = all.iter().cloned().collect();
            assert_eq!(unique.len(), all.len(), "duplicates at M={m}");
        }
    }

    #[test]
    fn enumerated_strategies_use_all_ids() {
        for m in 1..=5 {
            for s in all(&ids(m)) {
                let mut leaves = s.leaves();
                leaves.sort_unstable();
                assert_eq!(leaves, ids(m), "strategy {s} misses ids");
            }
        }
    }

    #[test]
    fn enumeration_round_trips_through_text() {
        for s in all(&ids(4)) {
            let reparsed = Strategy::parse(&s.to_string()).unwrap();
            assert_eq!(s, reparsed);
        }
    }

    #[test]
    fn m3_strategies_match_hand_enumeration() {
        // The 19 strategies over {a, b, c}: 6 pure fail-over orderings,
        // 1 pure parallel, 6 of shape x-(y*z) / (y*z)-x, and 6 of shape
        // (x-y)*z with ordered (x,y).
        let mut rendered: Vec<String> = all(&ids(3)).iter().map(Strategy::to_string).collect();
        rendered.sort();
        let mut expected = vec![
            "a-b-c", "a-c-b", "b-a-c", "b-c-a", "c-a-b", "c-b-a", // fail-over
            "a*b*c", // parallel
            "a-b*c", "b-a*c", "c-a*b", "a*b-c", "a*c-b",
            "b*c-a", // seq of 2 with one par block
            "(a-b)*c", "(b-a)*c", "(a-c)*b", "(c-a)*b", "(b-c)*a",
            "(c-b)*a", // par with seq block
        ];
        // Render expectations through the parser so Par-child ordering is canonical.
        let mut expected: Vec<String> = expected
            .drain(..)
            .map(|t| Strategy::parse(t).unwrap().to_string())
            .collect();
        expected.sort();
        expected.dedup();
        assert_eq!(expected.len(), 19);
        assert_eq!(rendered, expected);
    }

    #[test]
    fn enumeration_with_arbitrary_ids() {
        let custom = [MsId(7), MsId(3), MsId(11)];
        let all = all(&custom);
        assert_eq!(all.len(), 19);
        for s in &all {
            let mut leaves = s.leaves();
            leaves.sort_unstable();
            assert_eq!(leaves, vec![MsId(3), MsId(7), MsId(11)]);
        }
    }

    /// A repeated id never reaches the enumerator: the list is refused where
    /// it becomes an [`IdSet`]. An over-long one is refused by the
    /// enumerator and the sampler.
    #[test]
    fn enumeration_rejects_duplicate_ids() {
        assert_eq!(
            IdSet::new(&[MsId(0), MsId(0)])
                .and_then(StrategyIter::over)
                .err(),
            Some(GenerateError::DuplicateMicroservice(MsId(0)))
        );
        let long = ids(MAX_COUNT_M + 1);
        let too_many = Some(GenerateError::TooManyMicroservices {
            got: MAX_COUNT_M + 1,
            max: MAX_COUNT_M,
        });
        let set = IdSet::new(&long).unwrap();
        assert_eq!(StrategyIter::over(set).err(), too_many);
        assert_eq!(StrategySampler::new(set).err(), too_many);
    }

    #[test]
    fn streaming_matches_collected() {
        let over = |m| IdSet::new(&ids(m)).and_then(StrategyIter::over).unwrap();
        assert_eq!(over(5).count(), 2791);
        assert_eq!(all(&ids(5)).len(), 2791);
        // Past what is practical to collect, the stream still counts out.
        assert_eq!(over(6).count(), 51303);
        // The benchmark's unvetted entry point walks the same order.
        assert!(StrategyIter::full(&ids(4)).eq(over(4)));
    }

    /// The engine builds its families with the [`EnumCtx`] push recursion
    /// and the public iterator unranks: two recursions, one order. Node
    /// for node over the full mask, so neither can drift from the other.
    #[test]
    fn iterator_matches_streaming_order_exactly() {
        for m in 1..=5 {
            let ids = ids(m);
            let ctx = EnumCtx::new(IdSet::new(&ids).unwrap());
            let full: Mask = (1 << m) - 1;
            let mut streamed = Vec::new();
            ctx.stream_non_seq(full, &mut |node| streamed.push(node));
            ctx.stream_seq(full, &mut |node| streamed.push(node));
            assert_eq!(Some(streamed.len() as u128), count_full(m), "M={m}");
            let unranked: Vec<Node> = all(&ids).iter().map(|s| s.node().clone()).collect();
            assert_eq!(unranked, streamed, "full order diverges at M={m}");
        }
    }

    #[test]
    fn iterator_remaining_matches_counts() {
        for m in 1..=6 {
            assert_eq!(Some(StrategyIter::full(&ids(m)).remaining()), count_full(m));
        }
        assert_eq!(StrategyIter::full(&[]).remaining(), 0);
    }

    #[test]
    fn iterator_size_hint_is_exact() {
        let mut iter = IdSet::new(&ids(3)).and_then(StrategyIter::over).unwrap();
        assert_eq!(iter.size_hint(), (19, Some(19)));
        iter.next();
        assert_eq!(iter.size_hint(), (18, Some(18)));
    }

    #[test]
    fn empty_id_list_enumerates_nothing() {
        assert_eq!(StrategyIter::full(&[]).next(), None);
        assert_eq!(IdSet::new(&[]), Err(GenerateError::NoMicroservices));
    }

    #[test]
    fn sampler_space_size_matches_counts() {
        for m in 1..=8 {
            assert_eq!(Some(sampler(&ids(m)).counts.all(m)), count_full(m));
        }
    }

    #[test]
    fn sampler_produces_valid_full_strategies() {
        let sampler = sampler(&ids(6));
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..200 {
            let s = sampler.sample(&mut rng);
            let mut leaves = s.leaves();
            leaves.sort_unstable();
            assert_eq!(leaves, ids(6));
        }
    }

    #[test]
    fn sampler_is_close_to_uniform_on_m2() {
        // F(2) = {a-b, b-a, a*b}; with 3000 draws each should get ~1000.
        let sampler = sampler(&ids(2));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..3000 {
            *counts
                .entry(sampler.sample(&mut rng).to_string())
                .or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 3);
        for (_, c) in counts {
            assert!((800..1200).contains(&c), "non-uniform draw count {c}");
        }
    }

    #[test]
    fn sampler_covers_all_m3_strategies() {
        let sampler = sampler(&ids(3));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            seen.insert(sampler.sample(&mut rng));
        }
        assert_eq!(seen.len(), 19, "sampler should reach every F(3) strategy");
    }

    #[test]
    fn default_pattern_builders() {
        assert!(failover(&[]).is_err());
        assert_eq!(failover(&[MsId(4)]).unwrap().to_string(), "e");
        assert_eq!(speculative_parallel(&[MsId(4)]).unwrap().to_string(), "e");
        let fo = failover(&ids(3)).unwrap();
        assert!(fo.is_failover());
        let sp = speculative_parallel(&ids(3)).unwrap();
        assert!(sp.is_parallel());
    }

    #[test]
    fn count_beyond_limit_is_none() {
        assert_eq!(count_full(MAX_COUNT_M + 1), None);
        assert_eq!(count_with_subsets(MAX_COUNT_M + 1), None);
        assert!(count_with_subsets(MAX_COUNT_M).is_some());
    }
}
