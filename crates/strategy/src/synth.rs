//! Parallel branch-and-bound search engine behind
//! [`Generator`](crate::Generator)'s exhaustive paths.
//!
//! The generic exhaustive scan streams every candidate of `F(M)`,
//! materializes it as a [`Strategy`], re-walks its timelines from
//! scratch, and estimates it with Algorithm 1. This engine keeps the result
//! **bit-for-bit identical** (same winning strategy, same `Qos`, same
//! utility) while doing strictly less work — and without building a tree,
//! a `Strategy` or a `String` per candidate; the one `Strategy` of a search
//! is parsed from the winner's rendering after the workers are merged:
//!
//! * **Flat family rows** — the candidate blocks of a leaf subset are kept
//!   (per id list, shared by every search) not as trees but as rows: a
//!   *schedule* that reproduces the block's
//!   [`timelines`](crate::estimate::timelines) with a loop of `max` and one
//!   addition per leaf, and the block's *rendering*, which is all the
//!   tie-break needs (see `Family`).
//! * **Shared chain prefixes** — sequential candidates are explored as a
//!   chain recursion; the timelines of the already-fixed blocks are walked
//!   once and reused for every extension, with the same absolute-offset
//!   arithmetic as [`timelines`](crate::estimate::timelines), so the final
//!   per-candidate QoS (via
//!   [`estimate_from_timelines`](crate::estimate::estimate_from_timelines))
//!   is bit-identical to the sequential path.
//! * **Utility-bound pruning** — before descending into a family of
//!   candidates, an *admissible* upper bound on the utility any member can
//!   reach is compared against the best utility found so far (shared
//!   across workers through an atomic). See `DESIGN.md` ("Synthesis
//!   engine") for the bound derivation; the one-line summary:
//!   reliability is exact per leaf set (`1 − Π(1−rᵢ)`), the latency bound
//!   applies Algorithm 1's latency formula to pointwise-earliest virtual
//!   end times, and the cost bound charges each not-yet-placed leaf only
//!   with the failure product of the leaves that *must* gate it. Pruning
//!   uses a `1e-9` safety margin, so candidates tying the optimum are
//!   never pruned and the chosen strategy stays deterministic under any
//!   thread interleaving. A family that bound does not discard whole is
//!   then screened a group of rows at a time — the par-rooted job, a
//!   chain's final block and a block that more blocks follow alike (see
//!   `Screen`): a leaf a block starts at its offset is gated by nothing in
//!   the block, so a row costs at least those leaves in full behind the
//!   fixed prefix, and the cached rows are grouped by that leaf set. Every
//!   other block leaf starts after one of those has ended, so a group also
//!   has a latency floor of its own, tighter than the family's.
//! * **Sure-prefix collapse** — once the fixed blocks of a chain hold a
//!   leaf that never fails, every later cost, failure and latency term is
//!   multiplied by an exact `0.0`, so all `F(|rest|)` completions share one
//!   QoS, bit for bit. The engine estimates that class once, counts every
//!   member as seen, and offers the tie-break the member that renders
//!   least: the prefix, then the least rendering of any strategy over the
//!   rest (memoized per mask beside the family rows).
//! * **Work-stealing jobs** — the search space is cut into jobs (one job
//!   per first-block choice, then the par-rooted family, last so that its
//!   rows meet a bar the chains have raised); workers claim jobs off an
//!   atomic counter. The per-candidate
//!   order (utility, then cost, then latency — `generate::outranks`, which
//!   every search shares — then the rendering's bytes, compared only on a
//!   full tie, in a reused buffer) is a strict
//!   total order, so the merged winner is independent of worker count and
//!   scheduling, and of the order rows are visited in.
//!
//! Pruning is disabled (the engine still runs, unpruned) when any leaf has
//! a non-positive average latency: the cost bound's admissibility argument
//! requires every already-fixed leaf to *strictly* precede the leaves of
//! later blocks.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::enumerate::{submasks, Counts, EnumCtx, Mask, MAX_COUNT_M};
use crate::error::GenerateError;
use crate::estimate::{estimate_from_timelines, timelines, walk, Timeline};
use crate::expr::{render_into, Node, Strategy};
use crate::generate::{outranks, IdSet};
use crate::qos::{EnvQos, MsId, Qos, Reliability, Requirements};
use crate::utility::UtilityIndex;

/// Pruning safety margin: a family is skipped only when its utility upper
/// bound is below the incumbent by more than this. Absorbs ulp-level
/// differences between the bound arithmetic and the exact per-candidate
/// arithmetic, and keeps exact-utility ties alive so the tie-break sees
/// every maximal candidate.
const PRUNE_MARGIN: f64 = 1e-9;

/// Minimum number of candidates a family must contain before the engine
/// bounds it — whole, and then a group of rows at a time. Evaluating a
/// bound costs about as much as estimating one candidate, and bounds are
/// recomputed per concrete chain prefix — for tiny families (deep in the chain
/// recursion, where most contexts live) enumerating is cheaper than
/// bounding. Pure performance knob: gated families are enumerated
/// normally, so the search result is unaffected.
const MIN_PRUNE_COUNT: u128 = 32;

/// Largest non-seq family (tree count) a worker will materialize into its
/// node cache. The chain recursion revisits the same remainder mask once
/// per concrete prefix, and rebuilding the candidate trees each time
/// dominated the engine's profile; caching replays the family from a
/// slice instead. Families above this limit (reachable only far beyond
/// the paper's exhaustive threshold) fall back to streaming, keeping
/// worker memory bounded.
const NODE_CACHE_MAX: u128 = 1 << 17;

/// Masks wider than this are never cached (the cache is a dense
/// mask-indexed table of `2^M` slots).
const NODE_CACHE_MAX_M: usize = 14;

/// Bit of a schedule mask that names the block's own offset; the bits
/// below it name the block's leaves by walk index.
const OFFSET_BIT: u32 = 1 << MAX_COUNT_M;

/// A schedule word keeps a leaf's position in `ids` above its start mask.
const POS_SHIFT: u32 = MAX_COUNT_M as u32 + 1;

/// Every tree of one non-seq family (a leaf, or the par-rooted trees over
/// one leaf subset) as flat **rows**: what the evaluator and the tie-break
/// need of a tree, with nothing to chase.
///
/// A row is a *schedule* and a *rendering*.
///
/// The schedule is one word per leaf in walk order — the leaf's position
/// in `ids`, above the mask of what its start time is the maximum of:
/// earlier leaves' ends by walk index and/or, under [`OFFSET_BIT`], the
/// offset the block is scheduled at — then one word with the same kind of
/// mask for the block's makespan. It is [`walk`] unrolled: `walk` hands
/// every start down as an offset (the block's own, or the makespan of the
/// previous child of a `Seq`) and folds every makespan with `max` over an
/// offset and child makespans, a leaf's makespan being its end. So each
/// start, and the block's makespan, is the maximum of a *set* of leaf ends
/// and possibly the offset. `f64::max` returns one of its arguments and is
/// commutative and associative on non-NaN values, so folding the set in
/// any order gives `walk`'s bits, and each end is still the single
/// addition `start + latency` — whatever the sign of a latency.
///
/// The rendering is what `Display` prints for the block. Blocks are
/// `Leaf`- or `Par`-rooted, so a chain renders as its blocks' renderings
/// joined by `-`, and rendering is injective on canonical strategies: the
/// search orders and finally rebuilds candidates from these bytes alone.
///
/// Rows come in **groups**: runs of rows that start the same leaves at the
/// block's offset (see [`Family::at_offset`]), which is all a row's cost
/// floor depends on, so the search screens a group at a time. A cached
/// family is [`grouped`](Family::grouped) once, one group per such set of
/// leaves; the order rows are visited in never decides a winner, because
/// the tie-break is a strict total order.
#[derive(Debug)]
struct Family {
    /// Leaves per tree (every tree of the family covers the same subset).
    leaves: usize,
    /// `leaves + 1` words per row.
    sched: Vec<u32>,
    /// Every row's rendering, back to back.
    text: String,
    /// Where each row's rendering ends in `text`.
    text_ends: Vec<u32>,
    /// Per group, in row order: the `ids`-position mask of the leaves its
    /// rows start at the offset, and the index one past its last row.
    groups: Vec<(Mask, u32)>,
}

/// One tree of a [`Family`].
#[derive(Clone, Copy)]
struct Row<'f> {
    sched: &'f [u32],
    text: &'f str,
}

impl Family {
    fn with_capacity(leaves: usize, rows: usize) -> Family {
        Family {
            leaves,
            sched: Vec::with_capacity(rows * (leaves + 1)),
            text: String::new(),
            text_ends: Vec::with_capacity(rows),
            groups: Vec::new(),
        }
    }

    /// Makes this the one-row family of `node` — how the trees of a family
    /// too large to cache reach the evaluator.
    fn set_single(&mut self, ids: &[MsId], node: &Node) {
        self.sched.clear();
        self.text.clear();
        self.text_ends.clear();
        self.push(ids, node);
        self.groups.clear();
        self.groups.push((self.at_offset(0), 1));
    }

    /// Appends the row of `node`, a canonical non-seq tree over `leaves`
    /// of `ids`, outside any group until the family is
    /// [`grouped`](Family::grouped).
    fn push(&mut self, ids: &[MsId], node: &Node) {
        let first = self.sched.len();
        let makespan = compile(node, OFFSET_BIT, ids, first, &mut self.sched);
        assert_eq!(self.sched.len() - first, self.leaves, "{node:?}");
        self.sched.push(makespan);
        render_into(node, &mut self.text);
        self.text_ends
            .push(u32::try_from(self.text.len()).expect("a family renders into under 4 GiB"));
    }

    /// The `ids`-position mask of the leaves row `row` starts at the
    /// block's offset: its schedule words whose start mask names
    /// [`OFFSET_BIT`] and no leaf. With positive latencies every leaf of
    /// the block ends after the offset, so nothing in the block gates
    /// these leaves.
    fn at_offset(&self, row: usize) -> Mask {
        let first = row * (self.leaves + 1);
        self.sched[first..first + self.leaves]
            .iter()
            .filter(|&&step| step & ((1 << POS_SHIFT) - 1) == OFFSET_BIT)
            .fold(0, |mask, &step| mask | 1 << (step >> POS_SHIFT))
    }

    /// Reorders the rows in place, stably, so that each group holds every
    /// row that starts the same leaves at the offset, groups in mask order.
    /// Only the renderings are copied; the schedules move by swaps.
    fn grouped(mut self) -> Family {
        let rows = self.text_ends.len();
        // Per group: its mask, and its row and byte counts, which then
        // become where its next row and rendering go.
        let mut groups: Vec<(Mask, usize, usize)> = Vec::new();
        for row in 0..rows {
            let mask = self.at_offset(row);
            let len = self.text_ends[row] as usize - self.text_start(row);
            match groups.binary_search_by_key(&mask, |&(mask, ..)| mask) {
                Ok(g) => {
                    groups[g].1 += 1;
                    groups[g].2 += len;
                }
                Err(g) => groups.insert(g, (mask, 1, len)),
            }
        }
        let (mut row_at, mut byte_at) = (0, 0);
        for (mask, rows, bytes) in &mut groups {
            self.groups.push((*mask, (row_at + *rows) as u32));
            (*rows, *bytes, row_at, byte_at) = (row_at, byte_at, row_at + *rows, byte_at + *bytes);
        }
        // Each row's place, its rendering copied there; its end replaced
        // by its length until the rows are in place.
        let mut text = vec![0u8; self.text.len()];
        let mut place = Vec::with_capacity(rows);
        for row in 0..rows {
            let g = groups
                .binary_search_by_key(&self.at_offset(row), |&(mask, ..)| mask)
                .expect("every row's mask was tallied");
            let (from, to) = (self.text_start(row), self.text_ends[row] as usize);
            let (at, bytes) = (groups[g].1, groups[g].2);
            text[bytes..bytes + to - from].copy_from_slice(&self.text.as_bytes()[from..to]);
            (groups[g].1, groups[g].2) = (at + 1, bytes + to - from);
            place.push(at as u32);
        }
        for row in (1..rows).rev() {
            self.text_ends[row] -= self.text_ends[row - 1];
        }
        let width = self.leaves + 1;
        for row in 0..rows {
            while place[row] as usize != row {
                // Every place below `row` is settled, so `to` is above it.
                let to = place[row] as usize;
                let (low, high) = self.sched.split_at_mut(to * width);
                low[row * width..(row + 1) * width].swap_with_slice(&mut high[..width]);
                self.text_ends.swap(row, to);
                place.swap(row, to);
            }
        }
        for row in 1..rows {
            self.text_ends[row] += self.text_ends[row - 1];
        }
        self.text = String::from_utf8(text).expect("whole renderings, moved whole");
        self
    }

    /// Where row `row`'s rendering starts in `text` — where the last one
    /// ends, for one past the last row.
    fn text_start(&self, row: usize) -> usize {
        row.checked_sub(1)
            .map_or(0, |before| self.text_ends[before] as usize)
    }

    fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.rows_in(0..self.text_ends.len())
    }

    fn rows_in(&self, rows: Range<usize>) -> impl Iterator<Item = Row<'_>> {
        let width = self.leaves + 1;
        let mut from = self.text_start(rows.start);
        self.sched[rows.start * width..rows.end * width]
            .chunks_exact(width)
            .zip(&self.text_ends[rows])
            .map(move |(sched, &to)| {
                let text = &self.text[from..to as usize];
                from = to as usize;
                Row { sched, text }
            })
    }

    /// Each group's start-at-offset mask, with the indices of its rows.
    fn groups(&self) -> impl Iterator<Item = (Mask, Range<usize>)> + '_ {
        let mut from = 0;
        self.groups.iter().map(move |&(mask, to)| {
            let rows = from..to as usize;
            from = to as usize;
            (mask, rows)
        })
    }
}

/// Appends one schedule word per leaf of `node` to `sched` (whose current
/// row began at `first`) and returns the mask of `node`'s makespan; `after`
/// is the mask of the offset `node` is scheduled at. Mirrors [`walk`] arm
/// for arm, on masks instead of times.
fn compile(node: &Node, after: u32, ids: &[MsId], first: usize, sched: &mut Vec<u32>) -> u32 {
    match node {
        Node::Leaf(id) => {
            let index = sched.len() - first;
            assert!(
                index < MAX_COUNT_M,
                "a block has at most {MAX_COUNT_M} leaves"
            );
            let pos = ids
                .iter()
                .position(|x| x == id)
                .expect("the enumeration draws leaves from `ids`");
            sched.push((pos as u32) << POS_SHIFT | after);
            1 << index
        }
        Node::Seq(children) => children.iter().fold(after, |cursor, child| {
            compile(child, cursor, ids, first, sched)
        }),
        Node::Par(children) => children.iter().fold(after, |makespan, child| {
            makespan | compile(child, after, ids, first, sched)
        }),
    }
}

/// The maximum of the values `mask` names: `block[i].end` for each leaf bit
/// `i`, and `offset` under [`OFFSET_BIT`] (bits above it are ignored).
fn max_named(mask: u32, offset: f64, block: &[Timeline]) -> f64 {
    let mut value = if mask & OFFSET_BIT != 0 {
        offset
    } else {
        f64::NEG_INFINITY
    };
    let mut bits = mask & (OFFSET_BIT - 1);
    while bits != 0 {
        value = value.max(block[bits.trailing_zeros() as usize].end);
        bits &= bits - 1;
    }
    value
}

/// Schedules `row` at `offset`: appends its timelines to `scratch` (and
/// each leaf's QoS to `meta`) exactly as [`walk`] would for the row's tree,
/// and returns the block's makespan.
fn schedule(
    row: Row<'_>,
    offset: f64,
    ids: &[MsId],
    tables: &Tables,
    scratch: &mut Vec<Timeline>,
    meta: &mut Vec<Meta>,
) -> f64 {
    let mark = scratch.len();
    let (&makespan, steps) = row.sched.split_last().expect("a row is never empty");
    for &step in steps {
        let pos = (step >> POS_SHIFT) as usize;
        let start = max_named(step, offset, &scratch[mark..]);
        scratch.push(Timeline {
            ms: ids[pos],
            start,
            end: start + tables.lat[pos],
        });
        meta.push(tables.meta[pos]);
    }
    max_named(makespan, offset, &scratch[mark..])
}

/// Environment-independent candidate families shared by every worker of
/// every search over the same `ids` slice (the
/// [`Generator`](crate::Generator) keeps one per id list): `slots[mask]`
/// lazily compiles every non-seq-rooted tree over `mask` into a
/// [`Family`], grouped by the leaves each tree starts at the block's
/// offset, and memoizes the least rendering of any strategy over `mask`. The candidate *trees* depend only on the id
/// list, so rebuilding them per environment — which dominated the engine's
/// profile — is pure waste; and once compiled the trees themselves are
/// dropped: nothing here holds a [`Node`].
#[derive(Debug)]
pub(crate) struct NodeCache {
    slots: Vec<Slot>,
}

/// What [`NodeCache`] keeps of one mask.
#[derive(Debug, Default)]
struct Slot {
    family: OnceLock<Family>,
    least: OnceLock<Box<str>>,
}

impl NodeCache {
    pub(crate) fn new(m: usize) -> Self {
        NodeCache {
            slots: (0..1usize << m.min(NODE_CACHE_MAX_M))
                .map(|_| Slot::default())
                .collect(),
        }
    }

    /// The non-seq family over `mask`, compiled on first use; `None` when
    /// the family is too large to cache (see [`NODE_CACHE_MAX`]) and the
    /// caller must stream instead.
    fn family(
        &self,
        ctx: EnumCtx<'_>,
        ids: &[MsId],
        counts: &Counts,
        mask: Mask,
    ) -> Option<&Family> {
        let slot = self.slots.get(mask as usize)?;
        let n = mask.count_ones() as usize;
        if counts.non_seq[n] > NODE_CACHE_MAX {
            return None;
        }
        Some(slot.family.get_or_init(|| {
            let mut family = Family::with_capacity(n, to_u64(counts.non_seq[n]) as usize);
            ctx.stream_non_seq(mask, &mut |node| family.push(ids, &node));
            family.grouped()
        }))
    }

    /// The least rendering, byte for byte, of any strategy over `mask`,
    /// computed on first use; `None` where the family over `mask` is not
    /// cached. A strategy over `mask` is one non-seq block over it, or a
    /// first block over a proper submask followed by any strategy over the
    /// rest, rendered as the two joined by `-` — so behind a given first
    /// block the rest's least rendering is the least continuation.
    fn least(&self, ctx: EnumCtx<'_>, ids: &[MsId], counts: &Counts, mask: Mask) -> Option<&str> {
        let family = self.family(ctx, ids, counts, mask)?;
        let least = self.slots[mask as usize].least.get_or_init(|| {
            let rows = family.rows().map(|row| row.text);
            let mut least = rows.min().unwrap_or_default().to_owned();
            let mut chain = String::new();
            for first in submasks(mask).filter(|&first| first != 0 && first != mask) {
                // Every submask of a cached mask is cached: its slot index
                // is smaller and its family no larger.
                let rest = self.least(ctx, ids, counts, mask & !first);
                let head = self.family(ctx, ids, counts, first);
                let (Some(rest), Some(head)) = (rest, head) else {
                    unreachable!("a submask of a cached mask is cached");
                };
                for row in head.rows() {
                    chain.clear();
                    chain.push_str(row.text);
                    chain.push('-');
                    chain.push_str(rest);
                    if chain < least {
                        least.clone_from(&chain);
                    }
                }
            }
            least.into_boxed_str()
        });
        Some(least)
    }
}

/// Input to the engine. `env` must cover `ids`; `parallelism` must
/// already be resolved to a concrete worker count (≥ 1).
pub(crate) struct SearchSpec<'a> {
    pub env: &'a EnvQos,
    pub ids: IdSet<'a>,
    pub req: &'a Requirements,
    pub utility: UtilityIndex,
    pub pruning: bool,
    pub parallelism: usize,
    /// Utility of the best *member of the search space* known before the
    /// search (the seed candidates), or `f64::NEG_INFINITY`. Used only to
    /// tighten the initial pruning bar — the winner is always re-derived
    /// from the search itself.
    pub initial_bound: f64,
    /// Shared environment-independent candidate-family cache for this `ids`
    /// slice (must have been created with `NodeCache::new(ids.len())`).
    pub cache: &'a NodeCache,
}

/// What the engine found.
pub(crate) struct SearchOutcome {
    pub strategy: Strategy,
    pub qos: Qos,
    pub utility: f64,
    /// Candidates whose QoS an estimate established (a collapsed class
    /// counts every member).
    pub seen: u64,
    /// Candidates skipped by pruning. `seen + pruned` always equals the
    /// full space size `F(M)`.
    pub pruned: u64,
}

/// One unit of work-stealing: a slice of the strategy family over `mask`
/// (the search's full leaf set).
enum Job {
    /// All non-seq-rooted trees over `mask` (the single leaf, or every
    /// par-rooted tree).
    NonSeq { mask: Mask },
    /// All seq-rooted trees over `mask` whose first block is exactly
    /// `first`.
    SeqPartition { mask: Mask, first: Mask },
}

/// Per-leaf and per-mask precomputation shared by every worker.
struct Tables {
    /// Per leaf position: average latency, and what else a candidate's
    /// evaluation reads of the leaf.
    lat: Vec<f64>,
    meta: Vec<Meta>,
    /// Per mask: product of failure probabilities.
    fail: Vec<f64>,
    /// Per mask: maximum and minimum leaf latency (`+∞` for the empty
    /// mask's minimum).
    maxl: Vec<f64>,
    minl: Vec<f64>,
    /// Per mask: `Σ_{i∈mask} cᵢ · fail[mask∖i]` — a lower bound on the
    /// total expected cost of the mask's leaves when each can only be
    /// gated by the mask's other leaves.
    costlb1: Vec<f64>,
    /// Per mask: `Σ_{i∈mask} cᵢ`, what the mask's leaves cost when nothing
    /// gates them (see [`Screen`]).
    cost_sum: Vec<f64>,
}

impl Tables {
    fn build(env: &EnvQos, ids: &[MsId]) -> Tables {
        let m = ids.len();
        let per: Vec<Qos> = ids
            .iter()
            .map(|&id| *env.get(id).expect("caller validated coverage"))
            .collect();
        let lat: Vec<f64> = per.iter().map(|q| q.latency).collect();
        let meta: Vec<Meta> = per
            .iter()
            .map(|q| Meta {
                rel: q.reliability.value(),
                fail: q.reliability.failure_probability(),
                cost: q.cost,
            })
            .collect();
        let size = 1usize << m;
        let mut fail = vec![1.0f64; size];
        let mut maxl = vec![0.0f64; size];
        let mut minl = vec![f64::INFINITY; size];
        let mut cost_sum = vec![0.0f64; size];
        for mask in 1..size {
            let i = mask.trailing_zeros() as usize;
            let rest = mask & (mask - 1);
            fail[mask] = fail[rest] * (1.0 - meta[i].rel);
            maxl[mask] = maxl[rest].max(lat[i]);
            minl[mask] = minl[rest].min(lat[i]);
            cost_sum[mask] = cost_sum[rest] + meta[i].cost;
        }
        let mut costlb1 = vec![0.0f64; size];
        for (mask, slot) in costlb1.iter_mut().enumerate().skip(1) {
            let mut sum = 0.0;
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                sum += meta[i].cost * fail[mask & !(1 << i)];
            }
            *slot = sum;
        }
        Tables {
            lat,
            meta,
            fail,
            maxl,
            minl,
            costlb1,
            cost_sum,
        }
    }

    fn fail_of(&self, mask: Mask) -> f64 {
        self.fail[mask as usize]
    }

    fn maxl_of(&self, mask: Mask) -> f64 {
        self.maxl[mask as usize]
    }

    fn minl_of(&self, mask: Mask) -> f64 {
        self.minl[mask as usize]
    }

    fn costlb1_of(&self, mask: Mask) -> f64 {
        self.costlb1[mask as usize]
    }

    fn cost_sum_of(&self, mask: Mask) -> f64 {
        self.cost_sum[mask as usize]
    }

    /// Pushes the pointwise-earliest virtual `(end, reliability)` of
    /// `mask`'s leaves onto `entries`, all relaxed to start at `offset`.
    fn push_virtual_entries(&self, mask: Mask, offset: f64, entries: &mut Vec<(f64, f64)>) {
        let mut bits = mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            entries.push((offset + self.lat[i], self.meta[i].rel));
        }
    }

    /// A floor on the expected latency of every candidate that continues
    /// fixed blocks ending by `t0`, whose latency accumulators are
    /// `prefix` ([`Fixed::lat_partial`], [`Fixed::pf`]), with a block over
    /// `block` at `t0` that starts the leaves `at_offset` there, then
    /// covers `tail`: [`expected_latency`] over the fixed ends and these
    /// virtual ones, whose `(end, reliability)` go into the empty
    /// `entries`. Every virtual end comes after every fixed one, so the
    /// sort of them all is the fixed entries' sort followed by that of the
    /// virtual ones, and continuing `prefix` over the latter is the same
    /// float operation sequence.
    ///
    /// * A leaf of `at_offset` ends at `t0 + lᵢ`.
    /// * Any other block leaf starts at the end of some block leaf, so, by
    ///   induction in walk order, after `t0 + min l` over `at_offset`, and
    ///   ends no earlier than that plus `lᵢ`. Rounding is monotone, so the
    ///   computed ends obey the same inequalities.
    /// * The tail starts at the block's makespan, which is at least the
    ///   largest of those ends, and a tail leaf ends no earlier than that
    ///   plus `lᵢ`.
    ///
    /// With `at_offset = block` this is the family's bound.
    fn latency_floor(
        &self,
        entries: &mut Vec<(f64, f64)>,
        prefix: (f64, f64),
        t0: f64,
        block: Mask,
        at_offset: Mask,
        tail: Mask,
    ) -> f64 {
        self.push_virtual_entries(at_offset, t0, entries);
        let later = block & !at_offset;
        let first_end = t0 + self.minl_of(at_offset);
        self.push_virtual_entries(later, first_end, entries);
        let tail_offset = (t0 + self.maxl_of(at_offset)).max(first_end + self.maxl_of(later));
        self.push_virtual_entries(tail, tail_offset, entries);
        expected_latency(entries, prefix)
    }
}

/// The bound a family of candidates is screened by: whole, and then a
/// group of rows at a time. Every candidate of the family continues a
/// chain of fixed blocks with one non-seq block over `block`, then covers
/// `tail` — nothing, when the block is the last; the par-rooted job is
/// that with nothing fixed.
///
/// With positive latencies every fixed leaf ends by the block's offset and
/// gates every later leaf, and every block leaf ends after the offset and
/// by the tail's start. So the fixed leaves cost exactly `cost`; a leaf the
/// block starts at its offset is gated by the fixed leaves alone and costs
/// `fail · cᵢ`; any other block leaf costs at least `fail · cᵢ` times the
/// failure product of the other block leaves; and each tail leaf, gated by
/// every fixed and block leaf and at most by the other tail leaves, costs
/// at least `fail · fail(block) · cᵢ` times the failure product of the
/// other tail leaves.
///
/// A group is screened by its latency too (see [`Tables::latency_floor`]):
/// its rows start its leaves at the offset, and every other block leaf
/// after one of them has ended.
#[derive(Clone, Copy)]
struct Screen {
    /// Exact cost contribution and failure product of the fixed leaves.
    cost: f64,
    fail: f64,
    /// The block's offset: the fixed blocks' makespan.
    t0: f64,
    /// Latency accumulators over the fixed leaves' sorted ends.
    prefix: (f64, f64),
    block: Mask,
    tail: Mask,
    /// The family's latency bound: the latency floor of a group that
    /// started every block leaf at the offset.
    lat_lb: f64,
    /// Candidates each row of `block` begins.
    weight: u64,
}

impl Screen {
    /// A floor on the expected cost of every candidate of the family.
    fn family_floor(&self, tables: &Tables) -> f64 {
        self.floor(tables, tables.costlb1_of(self.block))
    }

    /// A floor on the expected cost of every candidate whose block starts
    /// the leaves `at_offset` at its offset.
    fn row_floor(&self, tables: &Tables, at_offset: Mask) -> f64 {
        self.floor(tables, tables.cost_sum_of(at_offset))
    }

    /// `cost + fail · (block_cost + fail(block) · costlb1(tail))`.
    fn floor(&self, tables: &Tables, block_cost: f64) -> f64 {
        let tail_cost = tables.fail_of(self.block) * tables.costlb1_of(self.tail);
        self.cost + self.fail * (block_cost + tail_cost)
    }
}

/// Read-only state shared by all workers.
struct Shared<'a> {
    env: &'a EnvQos,
    ids: IdSet<'a>,
    req: &'a Requirements,
    utility: UtilityIndex,
    tables: Tables,
    counts: Counts,
    prune: bool,
    /// Use the incremental per-candidate evaluator (prefix reliability and
    /// cost contributions accumulated once, in the exact floating-point
    /// operation order of [`estimate_from_timelines`]). Requires strictly
    /// positive latencies — with a zero-latency leaf, a later chain block
    /// could finish at (hence gate) an earlier leaf's start time, and
    /// prefix cost contributions would no longer be final.
    fast_eval: bool,
    /// Best utility found so far across all workers, in the ordered-bits
    /// `f64` encoding (see [`to_ordered`]). Monotonically raised with
    /// `fetch_max`; always the utility of some actual candidate.
    bar: AtomicU64,
    /// Shared candidate-tree cache (see [`NodeCache`]).
    cache: &'a NodeCache,
}

/// Order-preserving `f64 → u64` encoding: `a < b ⇔ enc(a) < enc(b)`, so
/// `AtomicU64::fetch_max` implements a lock-free floating-point maximum.
fn to_ordered(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

fn from_ordered(enc: u64) -> f64 {
    if enc >> 63 == 1 {
        f64::from_bits(enc & !(1 << 63))
    } else {
        f64::from_bits(!enc)
    }
}

/// A worker-local incumbent: its rendering stands in for the tree.
struct Cand {
    text: String,
    qos: Qos,
    utility: f64,
}

/// Runs the search and returns the utility-maximal strategy under the
/// deterministic tie-break of the sequential exhaustive path.
///
/// # Errors
///
/// [`GenerateError::TooManyMicroservices`] past [`MAX_COUNT_M`] ids.
pub(crate) fn search(spec: &SearchSpec<'_>) -> Result<SearchOutcome, GenerateError> {
    let m = spec.ids.len();
    let counts = Counts::over(spec.ids)?;
    let tables = Tables::build(spec.env, &spec.ids);
    // The cost bound's admissibility argument and the incremental
    // evaluator both need strictly positive latencies (later chain blocks
    // must end strictly after earlier leaves start); fall back to the
    // unpruned, full-reestimation scan otherwise.
    let positive_latencies = tables.lat.iter().all(|&l| l > 0.0);
    let prune = spec.pruning && positive_latencies;
    let shared = Shared {
        env: spec.env,
        ids: spec.ids,
        req: spec.req,
        utility: spec.utility,
        tables,
        counts,
        prune,
        fast_eval: positive_latencies,
        bar: AtomicU64::new(to_ordered(spec.initial_bound)),
        cache: spec.cache,
    };

    let mask: Mask = (1 << m) - 1;
    let mut jobs: Vec<Job> = submasks(mask)
        .filter(|&first| first != 0 && first != mask)
        .map(|first| Job::SeqPartition { mask, first })
        .collect();
    // Last, so that its rows are screened against a bar the chains raised.
    jobs.push(Job::NonSeq { mask });

    let workers = spec.parallelism.clamp(1, jobs.len());
    let next = AtomicUsize::new(0);
    let run_all = |runner: &mut JobRunner<'_>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else { break };
        runner.run_job(job);
    };

    let mut results: Vec<(Option<Cand>, u64, u64)> = Vec::new();
    if workers <= 1 {
        let mut runner = JobRunner::new(&shared);
        run_all(&mut runner);
        results.push(runner.finish());
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut runner = JobRunner::new(&shared);
                        run_all(&mut runner);
                        runner.finish()
                    })
                })
                .collect();
            for handle in handles {
                results.push(handle.join().expect("search worker panicked"));
            }
        });
    }

    let mut best: Option<Cand> = None;
    let mut seen = 0u64;
    let mut pruned = 0u64;
    // `outranks` plus the rendering is a strict total order over
    // candidates, so folding worker maxima in any order yields the same
    // winner as the sequential scan.
    for (cand, job_seen, job_pruned) in results {
        seen += job_seen;
        pruned += job_pruned;
        if let Some(c) = cand {
            let replace = best.as_ref().is_none_or(|cur| {
                outranks(c.utility, &c.qos, cur.utility, &cur.qos)
                    .unwrap_or_else(|| c.text < cur.text)
            });
            if replace {
                best = Some(c);
            }
        }
    }
    let best = best.expect("the utility-maximal family is never pruned");
    Ok(SearchOutcome {
        // The one tree this search builds.
        strategy: Strategy::parse(&best.text).expect("the engine renders canonical strategies"),
        qos: best.qos,
        utility: best.utility,
        seen,
        pruned,
    })
}

/// Per-leaf QoS values a candidate's evaluation reads (one per `ids`
/// position in [`Tables`], one per timeline in `JobRunner::meta`), so
/// per-candidate evaluation never goes back to the environment table.
#[derive(Clone, Copy)]
struct Meta {
    rel: f64,
    fail: f64,
    cost: f64,
}

/// What the chain recursion hands down about the blocks fixed so far
/// (their timelines are the `JobRunner::scratch` a callee is entered
/// with): their renderings as a stack-linked list, and the estimator's
/// accumulators over them, each in the exact floating-point operation
/// sequence of [`estimate_from_timelines`] so that the fast evaluator can
/// extend it bit-exactly.
#[derive(Clone, Copy)]
struct Fixed<'p> {
    /// The last fixed block's rendering and the blocks before it; `None`
    /// while nothing is fixed.
    blocks: Option<(&'p str, &'p Fixed<'p>)>,
    /// Makespan of the fixed blocks: where the next block starts.
    t0: f64,
    /// Walk-order failure product of every fixed leaf.
    fail: f64,
    /// Exact expected-cost contribution of the fixed leaves (later blocks
    /// can never gate them, so this term is final).
    cost: f64,
    /// Latency accumulators over the sorted fixed entries (see
    /// [`JobRunner::push_sorted_level`]).
    lat_partial: f64,
    pf: f64,
}

impl Fixed<'_> {
    /// Nothing fixed: a candidate or a chain that starts at time 0.
    const NONE: Fixed<'static> = Fixed {
        blocks: None,
        t0: 0.0,
        fail: 1.0,
        cost: 0.0,
        lat_partial: 0.0,
        pf: 1.0,
    };

    /// Appends the fixed blocks' renderings in chain order, each followed
    /// by the `-` that joins it to the next block.
    fn push_blocks(&self, out: &mut String) {
        if let Some((text, before)) = self.blocks {
            before.push_blocks(out);
            out.push_str(text);
            out.push('-');
        }
    }

    /// Overwrites `out` with the rendering of the candidate that ends these
    /// blocks with the block rendering as `last`.
    fn render(&self, last: &str, out: &mut String) {
        out.clear();
        self.push_blocks(out);
        out.push_str(last);
    }
}

/// Per-worker mutable state.
struct JobRunner<'a> {
    shared: &'a Shared<'a>,
    ctx: EnumCtx<'a>,
    /// Timelines of the fixed chain prefix plus the block currently being
    /// evaluated, in canonical walk order.
    scratch: Vec<Timeline>,
    /// Reliability/failure/cost of each `scratch` entry, same order.
    meta: Vec<Meta>,
    /// `(end, reliability)` scratch for a latency floor's virtual ends.
    bentries: Vec<(f64, f64)>,
    /// `(end, reliability)` of the fixed chain prefix, stable-sorted by
    /// end time. Because every block's entries end strictly after every
    /// earlier block's (positive latencies), the full estimator's stable
    /// end-sort factorizes into per-level stable sorts concatenated in
    /// chain order — so this list, plus a per-candidate sort of just the
    /// final block, reproduces the full sort's exact permutation.
    lsorted: Vec<(f64, f64)>,
    /// Where a candidate that ties the incumbent on utility, cost and
    /// latency is rendered to be compared with it.
    rendering: String,
    /// `1 − fail[mask]` of the family currently being searched.
    family_rel: f64,
    best: Option<Cand>,
    seen: u64,
    pruned: u64,
}

impl<'a> JobRunner<'a> {
    fn new(shared: &'a Shared<'a>) -> Self {
        JobRunner {
            shared,
            ctx: EnumCtx::new(shared.ids),
            scratch: Vec::new(),
            meta: Vec::new(),
            bentries: Vec::new(),
            lsorted: Vec::new(),
            rendering: String::new(),
            family_rel: 0.0,
            best: None,
            seen: 0,
            pruned: 0,
        }
    }

    fn finish(self) -> (Option<Cand>, u64, u64) {
        (self.best, self.seen, self.pruned)
    }

    fn run_job(&mut self, job: &Job) {
        let mask = match job {
            Job::NonSeq { mask } | Job::SeqPartition { mask, .. } => *mask,
        };
        self.family_rel = 1.0 - self.shared.tables.fail_of(mask);
        self.scratch.clear();
        self.meta.clear();
        self.lsorted.clear();
        match job {
            Job::NonSeq { mask } => self.run_final(&Fixed::NONE, *mask),
            Job::SeqPartition { mask, first } => {
                self.run_partition(&Fixed::NONE, *first, mask & !first);
            }
        }
    }

    /// Every candidate that ends the chain `fixed` with one non-seq block
    /// over `rem` — with nothing fixed, the whole [`Job::NonSeq`].
    fn run_final(&mut self, fixed: &Fixed<'_>, rem: Mask) {
        self.for_each_screened(fixed, rem, 0, &mut |runner, row| {
            runner.eval_final(fixed, row);
        });
    }

    /// Runs `f` once per row of the non-seq family over `block` that may
    /// begin a candidate at the bar, where a candidate continues the chain
    /// `fixed` with the row and then covers `tail` (nothing, when it is
    /// empty). Every candidate it skips is counted as pruned.
    ///
    /// Past the pruning gate the family is bounded whole, and, unless that
    /// discards it, its rows a group at a time (see [`Screen`]).
    ///
    /// Small families are compiled into the shared [`NodeCache`] on first
    /// use and replayed from the cached rows afterwards — the chain
    /// recursion revisits the same remainder mask once per concrete
    /// prefix, and rebuilding the trees each time dominated the engine's
    /// profile. The cache only depends on `ids`, so it is shared across
    /// environments, searches, and workers. Oversized families stream as
    /// trees, each compiled into a one-row family of its own and screened
    /// alone, so `f` — and everything below it — only ever sees rows.
    fn for_each_screened(
        &mut self,
        fixed: &Fixed<'_>,
        block: Mask,
        tail: Mask,
        f: &mut impl FnMut(&mut Self, Row<'_>),
    ) {
        let shared = self.shared;
        let counts = &shared.counts;
        let per_row = if tail == 0 {
            1
        } else {
            counts.all(tail.count_ones() as usize)
        };
        let count = counts.non_seq[block.count_ones() as usize] * per_row;
        let mut screen = None;
        if shared.prune && count >= MIN_PRUNE_COUNT {
            let bound = Screen {
                cost: fixed.cost,
                fail: fixed.fail,
                t0: fixed.t0,
                prefix: (fixed.lat_partial, fixed.pf),
                block,
                tail,
                lat_lb: self.latency_floor(
                    (fixed.lat_partial, fixed.pf),
                    fixed.t0,
                    block,
                    block,
                    tail,
                ),
                weight: to_u64(per_row),
            };
            if self.below_bar(bound.family_floor(&shared.tables), bound.lat_lb) {
                self.pruned += to_u64(count);
                return;
            }
            screen = Some(bound);
        }
        match shared.cache.family(self.ctx, &shared.ids, counts, block) {
            Some(family) => self.visit(family, screen.as_ref(), f),
            None => {
                let ctx = self.ctx;
                let mut one = Family::with_capacity(block.count_ones() as usize, 1);
                ctx.stream_non_seq(block, &mut |node| {
                    one.set_single(&shared.ids, &node);
                    self.visit(&one, screen.as_ref(), f);
                });
            }
        }
    }

    /// Runs `f` on the rows of `family`, but for each group `screen` puts
    /// below the bar, whose candidates it counts as pruned.
    fn visit(
        &mut self,
        family: &Family,
        screen: Option<&Screen>,
        f: &mut impl FnMut(&mut Self, Row<'_>),
    ) {
        for (at_offset, rows) in family.groups() {
            if let Some(screen) = screen {
                let candidates = screen.weight * rows.len() as u64;
                if self.group_below_bar(screen, at_offset, candidates) {
                    self.pruned += candidates;
                    continue;
                }
            }
            for row in family.rows_in(rows) {
                f(self, row);
            }
        }
    }

    /// Whether `screen` puts the `candidates` of the group whose rows
    /// start the leaves `at_offset` at the block's offset below the bar:
    /// by the group's cost floor at the family's latency bound, and then,
    /// past the pruning gate and unless the group starts the whole block
    /// there (its floor is then the family's), at its own latency floor.
    fn group_below_bar(&mut self, screen: &Screen, at_offset: Mask, candidates: u64) -> bool {
        let floor = screen.row_floor(&self.shared.tables, at_offset);
        if self.below_bar(floor, screen.lat_lb) {
            return true;
        }
        at_offset != screen.block && u128::from(candidates) >= MIN_PRUNE_COUNT && {
            let (prefix, t0, block, tail) = (screen.prefix, screen.t0, screen.block, screen.tail);
            let lat_lb = self.latency_floor(prefix, t0, block, at_offset, tail);
            self.below_bar(floor, lat_lb)
        }
    }

    /// [`Tables::latency_floor`] behind the fixed blocks in `scratch`.
    fn latency_floor(
        &mut self,
        prefix: (f64, f64),
        t0: f64,
        block: Mask,
        at_offset: Mask,
        tail: Mask,
    ) -> f64 {
        self.bentries.clear();
        let tables = &self.shared.tables;
        tables.latency_floor(&mut self.bentries, prefix, t0, block, at_offset, tail)
    }

    /// Schedules `row` at `offset` onto `scratch`, with per-leaf QoS into
    /// `meta`, and returns its makespan.
    fn walk_tracked(&mut self, row: Row<'_>, offset: f64) -> f64 {
        let shared = self.shared;
        let mark = self.scratch.len();
        let end = schedule(
            row,
            offset,
            &shared.ids,
            &shared.tables,
            &mut self.scratch,
            &mut self.meta,
        );
        debug_assert!(self.block_matches_walk(row, mark, offset, end));
        end
    }

    /// The per-block reference check of debug builds: `scratch[mark..]`
    /// and `end` are what [`walk`] computes for the tree `row` renders.
    fn block_matches_walk(&self, row: Row<'_>, mark: usize, offset: f64, end: f64) -> bool {
        let tree = Strategy::parse(row.text).expect("rows render canonical strategies");
        let mut timelines = Vec::new();
        let makespan = walk(tree.node(), offset, self.shared.env, &mut timelines)
            .expect("caller validated coverage");
        (&self.scratch[mark..], end) == (&timelines[..], makespan)
    }

    fn truncate_to(&mut self, mark: usize) {
        self.scratch.truncate(mark);
        self.meta.truncate(mark);
    }

    /// QoS of the complete candidate currently in `scratch`, whose final
    /// block is `scratch[mark..]` and whose earlier blocks `fixed`
    /// accumulated.
    ///
    /// The fast path extends `fixed`'s reliability product, expected cost
    /// and latency accumulators over the final block only — same multiply
    /// order for the failure product, same left-to-right accumulation for
    /// cost and latency, same stable end-sorted permutation as
    /// [`estimate_from_timelines`] — so the result is bit-identical.
    fn qos_of_final(&mut self, mark: usize, fixed: &Fixed<'_>) -> Qos {
        if !self.shared.fast_eval {
            return estimate_from_timelines(&self.scratch, self.shared.env);
        }
        let all_fail = self.mul_fails_onto(mark, fixed.fail);
        let cost = self.added_cost_block(mark, fixed.cost, fixed.fail);
        let latency = self.latency_with_final(mark, fixed.lat_partial, fixed.pf);
        let qos = Qos {
            cost,
            latency,
            reliability: Reliability::clamped(1.0 - all_fail),
        };
        debug_assert_eq!(qos, estimate_from_timelines(&self.scratch, self.shared.env));
        qos
    }

    /// Failure product of `scratch[mark..]` accumulated onto `base`,
    /// multiplying in walk order (matching `Iterator::product` over the
    /// full timeline list when chained from the prefix's own product).
    fn mul_fails_onto(&self, mark: usize, base: f64) -> f64 {
        let mut p = base;
        for meta in &self.meta[mark..] {
            p *= meta.fail;
        }
        p
    }

    /// Appends the stable-sorted `(end, reliability)` entries of
    /// `scratch[mark..]` to `lsorted` as one chain level and extends the
    /// latency accumulators over them, returning the updated
    /// `(lat_partial, pf)`. Every entry is r-weighted — correct because
    /// the chain always continues past a non-final level, so none of these
    /// entries can be the overall-last of any completed candidate.
    fn push_sorted_level(&mut self, mark: usize, lat_partial: f64, pf: f64) -> (f64, f64) {
        let lmark = self.lsorted.len();
        for (t, meta) in self.scratch[mark..].iter().zip(&self.meta[mark..]) {
            self.lsorted.push((t.end, meta.rel));
        }
        self.lsorted[lmark..]
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("latency must not be NaN"));
        let mut lp = lat_partial;
        let mut p = pf;
        for &(end, r) in &self.lsorted[lmark..] {
            lp += p * r * end;
            p *= 1.0 - r;
        }
        (lp, p)
    }

    /// Exact expected latency of the complete candidate in `scratch`:
    /// Algorithm 1 lines 3–7. Only the final block `scratch[mark..]` is
    /// sorted and accumulated here; the prefix's contribution arrives
    /// pre-reduced as `lat_partial`/`pf` (see [`Self::push_sorted_level`]
    /// and the factorization note on [`Self::lsorted`]).
    fn latency_with_final(&mut self, mark: usize, lat_partial: f64, mut pf: f64) -> f64 {
        let lmark = self.lsorted.len();
        for (t, meta) in self.scratch[mark..].iter().zip(&self.meta[mark..]) {
            self.lsorted.push((t.end, meta.rel));
        }
        self.lsorted[lmark..]
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("latency must not be NaN"));
        let mut latency = lat_partial;
        let n = self.lsorted.len();
        for i in lmark..n {
            let (end, r) = self.lsorted[i];
            if i + 1 == n {
                latency += pf * end;
            } else {
                latency += pf * r * end;
                pf *= 1.0 - r;
            }
        }
        self.lsorted.truncate(lmark);
        latency
    }

    /// Evaluates one complete candidate: the blocks of `fixed` (already in
    /// `scratch`; none for a non-seq candidate) plus `row` as the final
    /// block.
    fn eval_final(&mut self, fixed: &Fixed<'_>, row: Row<'_>) {
        let mark = self.scratch.len();
        self.walk_tracked(row, fixed.t0);
        let qos = self.qos_of_final(mark, fixed);
        self.seen += 1;
        self.consider(qos, fixed, row.text);
        self.truncate_to(mark);
    }

    /// All chains that continue `fixed` with a block over exactly `block`
    /// and then cover `tail` — a whole [`Job::SeqPartition`] when nothing
    /// is fixed yet.
    fn run_partition(&mut self, fixed: &Fixed<'_>, block: Mask, tail: Mask) {
        self.for_each_screened(fixed, block, tail, &mut |runner, row| {
            let mark = runner.scratch.len();
            let lmark = runner.lsorted.len();
            let t0 = runner.walk_tracked(row, fixed.t0);
            let cost = runner.added_cost_block(mark, fixed.cost, fixed.fail);
            let fail = runner.mul_fails_onto(mark, fixed.fail);
            let (lat_partial, pf) = runner.push_sorted_level(mark, fixed.lat_partial, fixed.pf);
            let fixed = Fixed {
                blocks: Some((row.text, fixed)),
                t0,
                fail,
                cost,
                lat_partial,
                pf,
            };
            runner.chain_rest(&fixed, tail);
            runner.lsorted.truncate(lmark);
            runner.truncate_to(mark);
        });
    }

    /// Extends the chain `fixed` (timelines in `scratch`) over the
    /// remaining leaves `rem`.
    fn chain_rest(&mut self, fixed: &Fixed<'_>, rem: Mask) {
        if self.collapse(fixed, rem) {
            return;
        }
        // Option A — finish the chain with `rem` as one non-seq block.
        self.run_final(fixed, rem);
        // Option B — place a proper sub-block next and keep chaining.
        if rem.count_ones() < 2 {
            return;
        }
        for next_block in submasks(rem) {
            if next_block != 0 && next_block != rem {
                self.run_partition(fixed, next_block, rem & !next_block);
            }
        }
    }

    /// Settles every completion of the chain `fixed` over `rem` with one
    /// estimate when the fixed blocks are sure to succeed, and returns
    /// whether it did.
    ///
    /// A leaf that never fails leaves the failure product and the latency
    /// accumulator's prefix product at exactly `0.0` (an underflow can
    /// too), and the fast evaluator multiplies every later cost, failure
    /// and latency term by one of them. So each of the `F(|rem|)`
    /// completions estimates to `fixed`'s cost, its latency partial sum and
    /// reliability 1, bit for bit; they tie on everything but their
    /// renderings, and the one that renders least — the fixed blocks, then
    /// the least rendering of any strategy over `rem` — stands for them all.
    fn collapse(&mut self, fixed: &Fixed<'_>, rem: Mask) -> bool {
        let shared = self.shared;
        if !shared.fast_eval || fixed.fail != 0.0 || fixed.pf != 0.0 {
            return false;
        }
        let Some(least) = shared
            .cache
            .least(self.ctx, &shared.ids, &shared.counts, rem)
        else {
            return false;
        };
        let qos = Qos {
            cost: fixed.cost,
            latency: fixed.lat_partial,
            reliability: Reliability::ALWAYS,
        };
        debug_assert_eq!(qos, self.estimate_rendered(fixed, least));
        self.seen += to_u64(shared.counts.all(rem.count_ones() as usize));
        self.consider(qos, fixed, least);
        true
    }

    /// Algorithm 1 from scratch on the candidate that ends `fixed`'s blocks
    /// with the rendering `last`: the reference a debug build checks a
    /// collapsed class against.
    fn estimate_rendered(&mut self, fixed: &Fixed<'_>, last: &str) -> Qos {
        fixed.render(last, &mut self.rendering);
        let tree =
            Strategy::parse(&self.rendering).expect("the engine renders canonical strategies");
        let timelines = timelines(&tree, self.shared.env).expect("caller validated coverage");
        estimate_from_timelines(&timelines, self.shared.env)
    }

    /// Records an estimated candidate, or a class of them that tie on
    /// their estimate: the blocks of `fixed`, then the block (or, for a
    /// class, the least rest) that renders as `last`. Nothing is rendered
    /// unless the candidate ties the worker-local incumbent on utility,
    /// cost and latency, or replaces it.
    fn consider(&mut self, qos: Qos, fixed: &Fixed<'_>, last: &str) {
        let u = self.shared.utility.utility(&qos, self.shared.req);
        // Global screen: a candidate strictly below the shared bar can be
        // neither the maximum nor one of its ties (the bar is always some
        // candidate's exact utility, hence ≤ the maximum).
        if u < from_ordered(self.shared.bar.load(Ordering::Relaxed)) {
            return;
        }
        if let Some(cur) = &self.best {
            let wins = outranks(u, &qos, cur.utility, &cur.qos).unwrap_or_else(|| {
                fixed.render(last, &mut self.rendering);
                self.rendering < cur.text
            });
            if !wins {
                return;
            }
        }
        // (A second time after a won tie: idempotent, and rare.)
        fixed.render(last, &mut self.rendering);
        let best = self.best.get_or_insert_with(|| Cand {
            text: String::new(),
            qos,
            utility: u,
        });
        best.text.clone_from(&self.rendering);
        best.qos = qos;
        best.utility = u;
        self.shared.bar.fetch_max(to_ordered(u), Ordering::Relaxed);
    }

    /// Whether no candidate of the current family that costs at least
    /// `cost_lb` and takes at least `lat_lb` can reach the shared bar.
    fn below_bar(&self, cost_lb: f64, lat_lb: f64) -> bool {
        let shared = self.shared;
        let ub = utility_bound(shared.utility, shared.req, cost_lb, lat_lb, self.family_rel);
        ub < from_ordered(shared.bar.load(Ordering::Relaxed)) - PRUNE_MARGIN
    }

    /// Exact expected-cost contribution of `scratch[mark..]` accumulated
    /// onto `base`, each entry gated per Algorithm 1's `e ≤ s` rule.
    ///
    /// Every prefix entry ends at or before the current block's offset and
    /// every block entry starts at or after it (positive latencies), so
    /// the prefix *always* gates the block — and its walk-order gating
    /// product is exactly `fail_pre`, the same multiply sequence from
    /// `1.0` the full estimator performs. Only gating *within* the block
    /// still needs the pairwise check. Accumulating onto the prefix total
    /// — rather than summing separately and adding — preserves the full
    /// estimator's left-to-right addition order, hence its exact bits.
    fn added_cost_block(&self, mark: usize, base: f64, fail_pre: f64) -> f64 {
        let mut cost = base;
        let block = &self.scratch[mark..];
        let meta = &self.meta[mark..];
        for (idx, t) in block.iter().enumerate() {
            let mut p = fail_pre;
            for (jdx, u) in block.iter().enumerate() {
                if jdx != idx && u.end <= t.start {
                    p *= meta[jdx].fail;
                }
            }
            cost += p * meta[idx].cost;
        }
        cost
    }
}

/// Algorithm 1's latency formula applied to `(end, reliability)` pairs:
/// the expected value of "the earliest successful end, or the last end if
/// everything fails". Monotone in every end time, so applying it to
/// pointwise-earliest virtual ends lower-bounds the latency of any
/// concrete schedule over the same leaves. It continues `prefix`, the
/// `(latency, failure product)` accumulators over entries that all end no
/// later than these and none of which is the last (`(0.0, 1.0)` for none).
fn expected_latency(entries: &mut [(f64, f64)], prefix: (f64, f64)) -> f64 {
    entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("latency must not be NaN"));
    let (mut latency, mut prefix_fail) = prefix;
    for (i, &(end, r)) in entries.iter().enumerate() {
        if i + 1 == entries.len() {
            latency += prefix_fail * end;
        } else {
            latency += prefix_fail * r * end;
            prefix_fail *= 1.0 - r;
        }
    }
    latency
}

/// The utility no candidate of reliability `rel` that costs at least
/// `cost_lb` and takes at least `lat_lb` can exceed: utility is antitone in
/// cost and latency.
fn utility_bound(
    utility: UtilityIndex,
    req: &Requirements,
    cost_lb: f64,
    lat_lb: f64,
    rel: f64,
) -> f64 {
    let bound = Qos {
        cost: cost_lb,
        latency: lat_lb,
        reliability: Reliability::clamped(rel),
    };
    utility.utility(&bound, req)
}

fn to_u64(x: u128) -> u64 {
    u64::try_from(x).expect("pruned-family count exceeds u64")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::StrategyIter;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cell::Cell;
    use std::collections::HashMap;

    /// Thirty leaves with distinct, inexact latencies; leaf `a` has none.
    fn env30() -> EnvQos {
        (0..30)
            .map(|i| {
                let latency = if i == 0 {
                    0.0
                } else {
                    7.3 + 1.9 * f64::from(i)
                };
                Qos::new(10.0 + f64::from(i), latency, 0.5 + 0.01 * f64::from(i)).unwrap()
            })
            .collect()
    }

    /// What the families over `ids` are built and read with.
    fn context(ids: &[MsId]) -> (EnumCtx<'_>, Counts, NodeCache) {
        let set = IdSet::new(ids).unwrap();
        (
            EnumCtx::new(set),
            Counts::over(set).unwrap(),
            NodeCache::new(ids.len()),
        )
    }

    /// `row` is `node`: it renders as the canonical strategy does, and at
    /// every offset its schedule gives [`walk`]'s timelines and makespan,
    /// bit for bit.
    fn assert_row_is(row: Row<'_>, node: &Node, ids: &[MsId], env: &EnvQos) {
        let tree = Strategy::from_node(node.clone()).unwrap();
        assert_eq!(row.text, tree.to_string());
        let tables = Tables::build(env, ids);
        for offset in [0.0, 3.7, 1e6 + 0.1] {
            let mut expect = Vec::new();
            let makespan = walk(node, offset, env, &mut expect).unwrap();
            let (mut got, mut meta) = (Vec::new(), Vec::new());
            let end = schedule(row, offset, ids, &tables, &mut got, &mut meta);
            let bits = |timelines: &[Timeline]| -> Vec<(MsId, u64, u64)> {
                timelines
                    .iter()
                    .map(|t| (t.ms, t.start.to_bits(), t.end.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&got), bits(&expect), "{tree} at {offset}");
            assert_eq!(end.to_bits(), makespan.to_bits(), "{tree} at {offset}");
            for (t, leaf) in got.iter().zip(&meta) {
                let qos = env.get(t.ms).unwrap();
                assert_eq!(
                    (leaf.rel, leaf.fail, leaf.cost),
                    (
                        qos.reliability.value(),
                        qos.reliability.failure_probability(),
                        qos.cost
                    )
                );
            }
            assert_eq!(meta.len(), got.len());
        }
    }

    /// Rows are grouped, not in streaming order, so each tree is looked up
    /// by its rendering, which no other tree of the family shares.
    #[test]
    fn every_cached_row_is_its_tree() {
        let env = env30();
        let all = [MsId(3), MsId(27), MsId(0), MsId(12), MsId(5)];
        for m in 1..=all.len() {
            let ids = &all[..m];
            let (ctx, counts, cache) = context(ids);
            for mask in 1..1u64 << m {
                let mut nodes = Vec::new();
                ctx.stream_non_seq(mask, &mut |node| nodes.push(node));
                let family = cache.family(ctx, ids, &counts, mask).unwrap();
                let rows: HashMap<&str, Row<'_>> =
                    family.rows().map(|row| (row.text, row)).collect();
                assert_eq!(family.rows().count(), nodes.len());
                assert_eq!(rows.len(), nodes.len());
                assert_eq!(
                    nodes.len() as u128,
                    counts.non_seq[mask.count_ones() as usize]
                );
                for node in &nodes {
                    let text = Strategy::from_node(node.clone()).unwrap().to_string();
                    assert_row_is(rows[text.as_str()], node, ids, &env);
                }
            }
        }
    }

    /// Each cached family's groups partition its rows, in mask order and
    /// one group per mask; every tree of the family is in exactly one;
    /// and a group's mask names exactly the leaves each of its trees
    /// starts at the block's offset, read off [`walk`]'s timelines.
    #[test]
    fn a_familys_groups_partition_its_rows() {
        let env = env30();
        // Every leaf has a positive latency (`a`, which has none, is out),
        // so only those leaves start at the offset itself.
        let all = [MsId(3), MsId(27), MsId(1), MsId(12), MsId(5)];
        let offset = 2.5;
        for m in 1..=all.len() {
            let ids = &all[..m];
            let (ctx, counts, cache) = context(ids);
            for mask in 1..1u64 << m {
                let family = cache.family(ctx, ids, &counts, mask).unwrap();
                let (mut next, mut last) = (0, None);
                let mut texts = Vec::new();
                for (at, rows) in family.groups() {
                    assert!(rows.start == next && rows.end > next, "{mask:b}");
                    assert!(last < Some(at), "{mask:b}: groups out of mask order");
                    (next, last) = (rows.end, Some(at));
                    for row in family.rows_in(rows) {
                        let tree = Strategy::parse(row.text).unwrap();
                        let mut timelines = Vec::new();
                        walk(tree.node(), offset, &env, &mut timelines).unwrap();
                        let starts =
                            timelines
                                .iter()
                                .filter(|t| t.start == offset)
                                .fold(0, |starts, t| {
                                    starts | 1 << ids.iter().position(|&id| id == t.ms).unwrap()
                                });
                        assert_eq!(at, starts, "{}", row.text);
                        texts.push(row.text.to_owned());
                    }
                }
                assert_eq!(next, family.rows().count());
                assert_eq!(next as u128, counts.non_seq[mask.count_ones() as usize]);
                let mut trees = Vec::new();
                ctx.stream_non_seq(mask, &mut |node| {
                    trees.push(Strategy::from_node(node).unwrap().to_string());
                });
                texts.sort();
                trees.sort();
                assert_eq!(texts, trees, "{mask:b}");
            }
        }
    }

    /// What a collapsed chain ends with: for every mask up to M = 5, the
    /// memoized least rendering is the least `to_string()` of any strategy
    /// over the mask's ids. The names include `m` and `ms27`, one a prefix
    /// of the other.
    #[test]
    fn the_least_rendering_is_the_least_over_the_space() {
        let all = [MsId(3), MsId(27), MsId(0), MsId(12), MsId(5)];
        for m in 1..=all.len() {
            let ids = &all[..m];
            let (ctx, counts, cache) = context(ids);
            for mask in 1..1u64 << m {
                let members: Vec<MsId> = (0..m)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| ids[i])
                    .collect();
                let least = IdSet::new(&members)
                    .and_then(StrategyIter::over)
                    .unwrap()
                    .map(|s| s.to_string())
                    .min();
                assert_eq!(
                    cache.least(ctx, ids, &counts, mask),
                    least.as_deref(),
                    "{members:?}"
                );
            }
        }
        // A mask past the dense table has no memo, so chains over it are
        // enumerated.
        let ids: Vec<MsId> = (0..=NODE_CACHE_MAX_M).map(MsId).collect();
        let (ctx, counts, cache) = context(&ids);
        assert_eq!(cache.least(ctx, &ids, &counts, 1 << NODE_CACHE_MAX_M), None);
    }

    /// The screens are admissible. On seeded tables with and without legs
    /// of reliability exactly 1.0, for every chain over all of M = 1..=5
    /// ids and every block it is screened by — the first, at time 0 behind
    /// nothing, and each later one at the makespan of a fixed prefix; the
    /// final one and each that more blocks follow: the cost floor and the
    /// latency floor of the group the chain's row is in are at most the
    /// chain's exact cost and latency, and their bound utility is below
    /// its exact utility by no more than the margin.
    #[test]
    fn a_rows_bound_never_undercuts_its_utility() {
        let utility = UtilityIndex::default();
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let (mut chains_seen, mut tighter) = (0, 0);
        for m in 1..=5 {
            for draw in 0..8 {
                let sure_legs = draw % 2 == 1;
                let env: EnvQos = (0..m)
                    .map(|_| {
                        let r = if sure_legs && rng.gen_bool(0.5) {
                            1.0
                        } else {
                            rng.gen_range(0.05..0.99)
                        };
                        let (cost, latency) =
                            (rng.gen_range(10.0..300.0), rng.gen_range(1.0..300.0));
                        Qos::new(cost, latency, r).unwrap()
                    })
                    .collect();
                let (cost, latency) = (rng.gen_range(50.0..900.0), rng.gen_range(20.0..400.0));
                let req = Requirements::new(cost, latency, 0.95).unwrap();
                let ids = env.ids();
                let tables = Tables::build(&env, &ids);
                let (ctx, counts, cache) = context(&ids);
                let full = (1 << m) - 1;
                let chains = Chains {
                    env: &env,
                    ids: &ids,
                    tables: &tables,
                    ctx,
                    counts: &counts,
                    cache: &cache,
                    req: &req,
                    utility,
                    rel: 1.0 - tables.fail_of(full),
                    tighter: Cell::new(0),
                };
                let every = chains.estimates("", &[], 0.0, 0.0, 1.0, full);
                assert_eq!(every.len() as u128, counts.all(m));
                chains_seen += every.len();
                tighter += chains.tighter.get();
            }
        }
        assert_eq!(chains_seen, 8 * (1 + 3 + 19 + 195 + 2_791));
        // Groups whose latency floor is above their family's.
        assert!(tighter > 1_000, "{tighter}");
    }

    /// What the chain floor checks read.
    struct Chains<'a> {
        env: &'a EnvQos,
        ids: &'a [MsId],
        tables: &'a Tables,
        ctx: EnumCtx<'a>,
        counts: &'a Counts,
        cache: &'a NodeCache,
        req: &'a Requirements,
        utility: UtilityIndex,
        /// The reliability every chain over all of the ids has.
        rel: f64,
        /// Groups whose latency floor is above their family's.
        tighter: Cell<usize>,
    }

    impl Chains<'_> {
        /// Algorithm 1's estimate of the candidate rendered as `text`, with
        /// its timelines and makespan.
        fn estimate(&self, text: &str) -> (Qos, Vec<Timeline>, f64) {
            let tree = Strategy::parse(text).unwrap();
            let mut timelines = Vec::new();
            let makespan = walk(tree.node(), 0.0, self.env, &mut timelines).unwrap();
            (
                estimate_from_timelines(&timelines, self.env),
                timelines,
                makespan,
            )
        }

        /// The exact estimates of every candidate that continues the blocks
        /// rendered as `prefix` (each followed by its `-`; timelines
        /// `fixed`, makespan `t0`, exact cost `cost`, failure product
        /// `fail`) over `rem`, after checking each against the floors of
        /// its next block's group: as a final block when it covers `rem`,
        /// and as one that more blocks follow otherwise.
        fn estimates(
            &self,
            prefix: &str,
            fixed: &[Timeline],
            t0: f64,
            cost: f64,
            fail: f64,
            rem: Mask,
        ) -> Vec<Qos> {
            let mut fixed_entries: Vec<(f64, f64)> = fixed
                .iter()
                .map(|t| (t.end, self.env.get(t.ms).unwrap().reliability.value()))
                .collect();
            fixed_entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let fixed_latency = fixed_entries
                .iter()
                .fold((0.0, 1.0), |(lat, pf), &(end, r)| {
                    (lat + pf * r * end, pf * (1.0 - r))
                });
            let latency_floor = |at_offset, block, tail| {
                self.tables.latency_floor(
                    &mut Vec::new(),
                    fixed_latency,
                    t0,
                    block,
                    at_offset,
                    tail,
                )
            };
            let mut estimates = Vec::new();
            for block in submasks(rem).filter(|&block| block != 0) {
                let tail = rem & !block;
                let screen = Screen {
                    cost,
                    fail,
                    t0,
                    prefix: fixed_latency,
                    block,
                    tail,
                    lat_lb: latency_floor(block, block, tail),
                    weight: 1,
                };
                let family = self
                    .cache
                    .family(self.ctx, self.ids, self.counts, block)
                    .unwrap();
                for (at_offset, rows) in family.groups() {
                    let floor = screen.row_floor(self.tables, at_offset);
                    let lat_lb = latency_floor(at_offset, block, tail);
                    assert!(
                        floor > 0.0 && lat_lb >= screen.lat_lb,
                        "{prefix}, {block:b}"
                    );
                    if lat_lb > screen.lat_lb {
                        self.tighter.set(self.tighter.get() + 1);
                    }
                    let bound = utility_bound(self.utility, self.req, floor, lat_lb, self.rel);
                    for row in family.rows_in(rows) {
                        let text = format!("{prefix}{}", row.text);
                        let (qos, timelines, makespan) = self.estimate(&text);
                        let done = if tail == 0 {
                            vec![qos]
                        } else {
                            let fail = fail * self.tables.fail_of(block);
                            let prefix = format!("{text}-");
                            self.estimates(&prefix, &timelines, makespan, qos.cost, fail, tail)
                        };
                        for exact in &done {
                            // Summed in another order than the estimate's.
                            assert!(
                                floor <= exact.cost + 1e-9 && lat_lb <= exact.latency + 1e-9,
                                "{text}, then {tail:b}: floors ({floor}, {lat_lb}) > {exact:?}"
                            );
                            let exact = self.utility.utility(exact, self.req);
                            assert!(
                                bound >= exact - PRUNE_MARGIN,
                                "{text}, then {tail:b}: bound {bound} < utility {exact}"
                            );
                        }
                        estimates.extend(done);
                    }
                }
            }
            estimates
        }
    }

    #[test]
    fn a_streamed_row_is_its_tree() {
        let env = env30();
        let ids = [MsId(3), MsId(27), MsId(0), MsId(12), MsId(5)];
        let mut one = Family::with_capacity(ids.len(), 1);
        // The second call must leave nothing of the first behind.
        for text in ["a*(f-d*ms27-m)", "d*(m-a)*(ms27-f)"] {
            let tree = Strategy::parse(text).unwrap();
            one.set_single(&ids, tree.node());
            let mut rows = one.rows();
            assert_row_is(rows.next().unwrap(), tree.node(), &ids, &env);
            assert!(rows.next().is_none());
            assert_eq!(one.groups().count(), 1);
        }
    }

    /// `t*(a-b-…-s)`: the makespan names walk index 19, one bit below
    /// [`OFFSET_BIT`], and `s` starts at the end of walk index 18.
    #[test]
    fn a_twenty_leaf_block_fits_the_masks() {
        let env = env30();
        let ids: Vec<MsId> = (0..MAX_COUNT_M).map(MsId).collect();
        let chain: Vec<String> = ids[..19].iter().map(MsId::to_string).collect();
        let tree = Strategy::parse(&format!("t*({})", chain.join("-"))).unwrap();
        let mut one = Family::with_capacity(ids.len(), 1);
        one.set_single(&ids, tree.node());
        let row = one.rows().next().unwrap();
        assert_eq!(row.sched[20], OFFSET_BIT | 1 << 19 | 1);
        assert_eq!(row.sched[19], 18 << POS_SHIFT | 1 << 18);
        assert_row_is(row, tree.node(), &ids, &env);
    }

    #[test]
    fn ordered_f64_encoding_is_monotone() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e308,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            1.0e308,
            f64::INFINITY,
        ];
        for pair in values.windows(2) {
            assert!(
                to_ordered(pair[0]) <= to_ordered(pair[1]),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
        for v in values {
            assert_eq!(from_ordered(to_ordered(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn expected_latency_matches_algorithm1_on_parallel() {
        // a*b*c with l=(10,90,70), r=(10%,90%,70%) — Section III.C.3.
        let mut entries = vec![(10.0, 0.1), (90.0, 0.9), (70.0, 0.7)];
        let lat = expected_latency(&mut entries, (0.0, 1.0));
        assert!((lat - 69.4).abs() < 1e-9, "got {lat}");
    }
}
