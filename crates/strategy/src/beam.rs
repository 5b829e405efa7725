//! Width-`W` beam search over execution strategies.
//!
//! The beam backend interpolates between the paper's two generation
//! algorithms. At width 1 it *is* Algorithm 2's greedy approximation: it
//! inserts one microservice per step, in descending individual-utility
//! order, and keeps the better of the root-level `es - m` and `(es) * m`.
//! Wider, it keeps a *beam* of `W` partial strategies per step and
//! considers inserting the next microservice at **every** subtree position
//! of every beam member (as a sequential predecessor, sequential
//! successor, or parallel sibling), not just at the root.
//!
//! ## Tiered slots
//!
//! The beam's slots are built in tiers so that slot `i` depends only on
//! slots `≤ i` of the previous step:
//!
//! * **slot 1** is the greedy trajectory: its two candidates are the
//!   root-level `es - m` / `(es) * m` continuations of the previous slot 1,
//!   selected with Algorithm 2's tie rule (strict `>` — ties go parallel).
//!   At width 1 that is all a step does: two estimates, and no pool.
//! * **slot `i ≥ 2`** is the best candidate — under the exhaustive
//!   search's total order (utility, then cost, latency, rendering) — of a
//!   pool that grows with the tier: tier 2 adds all whole-tree insertions
//!   into the previous slots 1 and 2, tier `i ≥ 3` adds the insertions
//!   into the previous slot `i`, and every tier excludes the candidates
//!   already slotted.
//!
//! Because slot `i` never looks at slots `> i`, two beams of widths
//! `W < W'` agree on their first `W` slots at every step; the final
//! candidate pool of the wider beam is a superset, so the winning utility
//! is **monotone non-decreasing in the width**.
//!
//! ## Width ∞ is exhaustive
//!
//! Removing the step-`k` microservice from any canonical strategy over
//! the first `k` microservices yields a canonical strategy over the first
//! `k-1` — and the whole-tree insertion set regenerates the original from
//! it (canonicalization flattens the nested `Seq`/`Par` the insertion
//! creates). By induction an unbounded beam's pool at the final step is
//! exactly `F(M)`, ranked by the exhaustive search's total order, so the
//! winner is bit-identical to [`Generator::exhaustive`]'s (pinned by the
//! property tests below at `M ≤ 5`).

use std::cmp::Ordering;
use std::collections::HashSet;

use crate::error::GenerateError;
use crate::expr::{Node, Strategy};
use crate::generate::{Found, Generator, Scored, Via};
use crate::qos::{EnvQos, MsId, Qos, Requirements};

/// Appends every way of inserting leaf `x` into `node` to `out`. Three
/// rewrite families, applied at each subtree position `p` (the root and,
/// recursively, every child):
///
/// 1. **whole-subtree**: `Seq[p, x]`, `Seq[x, p]`, `Par[p, x]` —
///    canonicalization (in [`Strategy::from_node`]) flattens the nesting,
///    so e.g. appending `x` after a child of a `Seq` reaches every
///    interior chain position;
/// 2. **`Par` subset grouping**: for every proper subset `S` (|S| ≥ 2) of
///    a `Par`'s children, replace `S` with the single child
///    `Seq[Par[S], x]` / `Seq[x, Par[S]]`;
/// 3. **`Seq` run grouping**: for every proper contiguous run `R`
///    (|R| ≥ 2) of a `Seq`'s children, replace `R` with the single child
///    `Par[Seq[R], x]`.
///
/// The grouped families are what make the set *complete*: removing `x`
/// from a canonical tree can collapse `x`'s two-child parent and flatten
/// the surviving sibling into the grandparent (e.g. `a*(x-b*c)` minus `x`
/// is `a*b*c`), so re-inserting `x` must be able to re-bundle those
/// flattened children. Every insertion adds exactly one `x` and removal
/// inverts it, so by induction over the insertion order the unbounded
/// beam's pool covers all of `F(M)`.
fn insertions(node: &Node, x: MsId, out: &mut Vec<Node>) {
    out.push(Node::Seq(vec![node.clone(), Node::Leaf(x)]));
    out.push(Node::Seq(vec![Node::Leaf(x), node.clone()]));
    out.push(Node::Par(vec![node.clone(), Node::Leaf(x)]));
    match node {
        Node::Leaf(_) => {}
        Node::Seq(children) => {
            // Family 3: group a proper run `R` into `Par[Seq[R], x]`.
            for i in 0..children.len() {
                for j in (i + 1)..children.len() {
                    if i == 0 && j == children.len() - 1 {
                        continue; // whole-node run: same as `Par[p, x]`
                    }
                    let run = Node::Seq(children[i..=j].to_vec());
                    let grouped = Node::Par(vec![run, Node::Leaf(x)]);
                    let mut rebuilt = children[..i].to_vec();
                    rebuilt.push(grouped);
                    rebuilt.extend_from_slice(&children[j + 1..]);
                    out.push(Node::Seq(rebuilt));
                }
            }
        }
        Node::Par(children) => {
            // Family 2: group a proper subset `S` into `Seq[Par[S], x]`
            // and `Seq[x, Par[S]]`.
            let n = children.len();
            for mask in 1u32..(1 << n) {
                if mask.count_ones() < 2 || mask == (1 << n) - 1 {
                    continue; // singletons are family 1, whole-node too
                }
                let (mut subset, mut rest) = (Vec::new(), Vec::new());
                for (i, child) in children.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        subset.push(child.clone());
                    } else {
                        rest.push(child.clone());
                    }
                }
                let bundle = Node::Par(subset);
                for grouped in [
                    Node::Seq(vec![bundle.clone(), Node::Leaf(x)]),
                    Node::Seq(vec![Node::Leaf(x), bundle]),
                ] {
                    let mut rebuilt = rest.clone();
                    rebuilt.push(grouped);
                    out.push(Node::Par(rebuilt));
                }
            }
        }
    }
    if let Node::Seq(children) | Node::Par(children) = node {
        for (i, child) in children.iter().enumerate() {
            let mut inner = Vec::new();
            insertions(child, x, &mut inner);
            for variant in inner {
                let mut rebuilt = children.clone();
                rebuilt[i] = variant;
                out.push(match node {
                    Node::Seq(_) => Node::Seq(rebuilt),
                    Node::Par(_) => Node::Par(rebuilt),
                    Node::Leaf(_) => unreachable!("leaves have no children"),
                });
            }
        }
    }
}

impl Generator {
    /// The beam search at `width ≥ 1` over `order`, the ids ranked by
    /// individual utility (best first), estimating the way `via` says;
    /// `best` is the first leaf's estimate, as [`Generator::ranked`] made
    /// it. Width 1 is Algorithm 2's approximation, lines 4–13.
    pub(crate) fn beam_search(
        &self,
        via: Via,
        order: &[MsId],
        best: Qos,
        env: &EnvQos,
        req: &Requirements,
        width: usize,
    ) -> Result<Found, GenerateError> {
        let score = |s: Strategy| -> Result<Scored, GenerateError> {
            let qos = self.est(via, &s, env)?;
            Ok(Scored::new(s, qos, self.utility_index().utility(&qos, req)))
        };

        // Unified effort accounting: the best-leaf incumbent counts as one
        // candidate; the per-leaf sorting estimates are auxiliary and do
        // not count (see `SynthesisReport`).
        let mut evaluated: u64 = 1;
        // The best leaf's estimate is the one `ranked` sorted it by.
        let first = Scored::new(
            Strategy::leaf(order[0]),
            best,
            self.utility_index().utility(&best, req),
        );
        let mut slots: Vec<Scored> = vec![first];
        for &x in &order[1..] {
            // Tier 1: Algorithm 2's two root-level continuations of slot 1.
            let es = &slots[0].strategy;
            let seq = es.clone().then(Strategy::leaf(x));
            let par = es.clone().race(Strategy::leaf(x));
            let seq = score(seq.expect("an IdSet's ids are distinct"))?;
            let par = score(par.expect("an IdSet's ids are distinct"))?;
            evaluated += 2;
            // Paper, Algorithm 2 line 8: strict '>' — ties go parallel.
            let (kept, other) = if seq.utility > par.utility {
                (seq, par)
            } else {
                (par, seq)
            };
            if width == 1 {
                slots[0] = kept;
                continue;
            }

            // Tiers 2..=W: widen the pool of unslotted candidates with
            // whole-tree insertions into the previous slots, then slot its
            // best. Tier i only reads previous slots ≤ i, which is what
            // makes the slot prefix — and hence the result — width-monotone.
            let mut pooled: HashSet<Strategy> =
                HashSet::from([kept.strategy.clone(), other.strategy.clone()]);
            let mut pool: Vec<Scored> = vec![other];
            let mut next: Vec<Scored> = vec![kept];
            for tier in 1..width {
                if tier > 1 && tier >= slots.len() {
                    // No insertion source remains for this or any later
                    // tier, so the pool is final: slot the rest in rank
                    // order with one sort instead of O(pool²) repeated
                    // scans. Selection order is unchanged — the candidate
                    // order is strict and total on distinct candidates.
                    // This is the width → ∞ fast path.
                    pool.sort_by(|a, b| {
                        if a.outranks(b) {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        }
                    });
                    next.extend(pool.drain(..).take(width - next.len()));
                    break;
                }
                let sources: &[usize] = if tier == 1 { &[0, 1] } else { &[tier] };
                for &si in sources {
                    let Some(seed) = slots.get(si) else { continue };
                    let mut nodes = Vec::new();
                    insertions(seed.strategy.node(), x, &mut nodes);
                    for node in nodes {
                        let s = Strategy::from_node(node)
                            .expect("inserted microservice is not in the seed");
                        if pooled.insert(s.clone()) {
                            pool.push(score(s)?);
                            evaluated += 1;
                        }
                    }
                }
                let Some(best) = best_of(&pool) else { break };
                next.push(pool.swap_remove(best));
            }
            slots = next;
        }

        // The answer is the best slot under the exhaustive total order; at
        // width 1 the only slot is the greedy trajectory's endpoint.
        let winner = slots.swap_remove(best_of(&slots).expect("a beam keeps one slot"));
        Ok((winner.strategy, winner.qos, winner.utility, evaluated, 0))
    }
}

/// The index of the best candidate of `cands` under the candidate order.
fn best_of(cands: &[Scored]) -> Option<usize> {
    (0..cands.len()).reduce(|b, i| if cands[i].outranks(&cands[b]) { i } else { b })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendChoice;
    use crate::generate::{Generated, Method};
    use crate::plan_cache::{PlanCache, PlanCacheConfig, PlanSource};
    use crate::qos::Qos;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn req() -> Requirements {
        Requirements::new(100.0, 100.0, 0.97).unwrap()
    }

    fn random_env(rng: &mut ChaCha8Rng, m: usize) -> EnvQos {
        (0..m)
            .map(|_| {
                Qos::new(
                    rng.gen_range(10.0..300.0),
                    rng.gen_range(10.0..300.0),
                    rng.gen_range(0.05..0.99),
                )
                .unwrap()
            })
            .collect()
    }

    fn assert_same_plan(a: &Generated, b: &Generated, what: &str) {
        assert_eq!(a.strategy, b.strategy, "{what}: strategy");
        assert_eq!(a.qos.cost.to_bits(), b.qos.cost.to_bits(), "{what}: cost");
        assert_eq!(
            a.qos.latency.to_bits(),
            b.qos.latency.to_bits(),
            "{what}: latency"
        );
        assert_eq!(
            a.qos.reliability.value().to_bits(),
            b.qos.reliability.value().to_bits(),
            "{what}: reliability"
        );
        assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{what}: utility");
    }

    /// Algorithm 2's approximation (lines 4–13) transcribed line for line
    /// onto Algorithm 1 and Equation 1, independent of the beam: sort the
    /// leaves by individual utility (ties on the id), start from the best,
    /// and at each next microservice `m` keep `es - m` only if its utility
    /// is strictly greater than `(es) * m`'s. Returns the strategy, its
    /// estimate and utility, the estimates made past the sort, and how many
    /// steps tied on utility.
    fn algorithm2(env: &EnvQos, req: &Requirements) -> (Strategy, Qos, f64, usize, usize) {
        let ui = crate::UtilityIndex::default();
        let judge = |s: &Strategy| {
            let qos = crate::estimate::estimate(s, env).unwrap();
            (qos, ui.utility(&qos, req))
        };
        let leaf_u = |id: MsId| judge(&Strategy::leaf(id)).1;
        let mut sorted = env.ids();
        sorted.sort_by(|&a, &b| leaf_u(b).total_cmp(&leaf_u(a)).then(a.cmp(&b)));
        let mut es = Strategy::leaf(sorted[0]);
        let (mut qos, mut utility) = judge(&es);
        let (mut estimates, mut ties) = (1, 0);
        for &m in &sorted[1..] {
            let seq = es.clone().then(Strategy::leaf(m)).unwrap();
            let par = es.clone().race(Strategy::leaf(m)).unwrap();
            let (seq_qos, seq_u) = judge(&seq);
            let (par_qos, par_u) = judge(&par);
            estimates += 2;
            ties += usize::from(seq_u == par_u);
            // Line 8: strict '>' — ties go parallel.
            (es, qos, utility) = if seq_u > par_u {
                (seq, seq_qos, seq_u)
            } else {
                (par, par_qos, par_u)
            };
        }
        (es, qos, utility, estimates, ties)
    }

    /// Satellite property test: beam(width = 1) and the approximation are
    /// Algorithm 2 bit for bit — strategy, QoS bits, utility, and (under
    /// the unified accounting) the evaluated count — on random tables and
    /// on two tables whose first step ties on utility: once with the
    /// sequential append cheaper and slower, once on every attribute.
    #[test]
    fn width_one_is_the_greedy_approximation() {
        let gen = Generator::default();
        let requirements = Requirements::new(150.0, 150.0, 0.95).unwrap();
        let mut tables = Vec::new();
        for m in 1..=7usize {
            for seed in 0..8u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 53 + m as u64);
                tables.push((random_env(&mut rng, m), requirements));
            }
        }
        let tied = Requirements::new(40.0, 80.0, 0.9).unwrap();
        for triples in [
            [(10.0, 40.0, 1.0), (5.0, 20.0, 0.5)],
            [(10.0, 40.0, 1.0), (0.0, 50.0, 0.5)],
        ] {
            tables.push((EnvQos::from_triples(&triples).unwrap(), tied));
        }
        let mut ties = 0;
        for (n, (env, req)) in tables.iter().enumerate() {
            let (strategy, qos, utility, evaluated, tied_steps) = algorithm2(env, req);
            ties += tied_steps;
            let paper = Generated {
                strategy,
                qos,
                utility,
                evaluated,
                method: Method::Approximation,
                report: crate::generate::SynthesisReport::default(),
                source: PlanSource::Cold,
            };
            let ids = env.ids();
            let greedy = gen.approximation(env, &ids, req).unwrap();
            let beam = gen
                .generate_with(BackendChoice::Beam(1), env, &ids, req)
                .unwrap();
            for (out, method) in [(&greedy, Method::Approximation), (&beam, Method::Beam)] {
                let what = format!("table {n} via {method}");
                assert_same_plan(&paper, out, &what);
                assert_eq!(out.evaluated, evaluated, "{what}: evaluated");
                assert_eq!(out.method, method);
            }
        }
        assert_eq!(ties, 2, "only the two tied tables tie");
    }

    /// Satellite property test: an unbounded beam covers the full search
    /// space, so its winner is bit-identical to the exhaustive engine's at
    /// every seeded environment with M ≤ 5.
    #[test]
    fn unbounded_width_matches_exhaustive_bit_for_bit() {
        let gen = Generator::builder().parallelism(1).build();
        let requirements = Requirements::new(150.0, 150.0, 0.95).unwrap();
        for m in 1..=5usize {
            for seed in 0..6u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 71 + m as u64);
                let env = random_env(&mut rng, m);
                let ids = env.ids();
                let exact = gen.exhaustive(&env, &ids, &requirements).unwrap();
                let beam = gen
                    .generate_with(BackendChoice::Beam(usize::MAX), &env, &ids, &requirements)
                    .unwrap();
                let what = format!("m={m} seed={seed}");
                assert_same_plan(&exact, &beam, &what);
                // The unbounded beam re-derives the full space at every
                // step, so its effort is 1 (the seed leaf) plus F(k) fresh
                // estimates for each prefix length k — pinning this proves
                // the insertion set covers F(k) exactly, with no gaps and
                // no over-count past canonical dedup.
                let expected: u128 = 1
                    + (2..=m)
                        .filter_map(crate::enumerate::count_full)
                        .sum::<u128>();
                assert_eq!(
                    beam.evaluated as u128, expected,
                    "{what}: each step's pool must cover exactly F(k)"
                );
            }
        }
    }

    /// Satellite property test: widening the beam never loses utility,
    /// and the extremes tie the greedy / exhaustive backends.
    #[test]
    fn utility_is_monotone_non_decreasing_in_width() {
        let gen = Generator::default();
        let requirements = Requirements::new(150.0, 150.0, 0.95).unwrap();
        for seed in 0..10u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed * 17 + 3);
            let env = random_env(&mut rng, 6);
            let ids = env.ids();
            let mut last = f64::NEG_INFINITY;
            for width in [1usize, 2, 3, 4, 6, 8, 16, usize::MAX] {
                let out = gen
                    .generate_with(BackendChoice::Beam(width), &env, &ids, &requirements)
                    .unwrap();
                assert!(
                    out.utility >= last,
                    "seed={seed} width={width}: {} < {last}",
                    out.utility
                );
                last = out.utility;
            }
            let greedy = gen.approximation(&env, &ids, &requirements).unwrap();
            let exact = gen.exhaustive(&env, &ids, &requirements).unwrap();
            let w1 = gen
                .generate_with(BackendChoice::Beam(1), &env, &ids, &requirements)
                .unwrap();
            assert_eq!(w1.utility.to_bits(), greedy.utility.to_bits());
            assert_eq!(last.to_bits(), exact.utility.to_bits());
        }
    }

    /// The tiered construction is prefix-stable: at M = 6 some seeded
    /// environment must show a *strict* improvement from width 1 to a
    /// moderate width, or the beam adds nothing over greedy.
    #[test]
    fn wider_beams_strictly_improve_somewhere() {
        let gen = Generator::default();
        let requirements = Requirements::new(400.0, 90.0, 0.95).unwrap();
        let mut improved = 0usize;
        for seed in 0..20u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let env = random_env(&mut rng, 6);
            let ids = env.ids();
            let narrow = gen
                .generate_with(BackendChoice::Beam(1), &env, &ids, &requirements)
                .unwrap();
            let wide = gen
                .generate_with(BackendChoice::Beam(4), &env, &ids, &requirements)
                .unwrap();
            if wide.utility > narrow.utility + 1e-9 {
                improved += 1;
            }
        }
        assert!(improved > 0, "beam(4) never beat beam(1) in 20 trials");
    }

    /// Beam scales past the exhaustive ceiling: it must return a plan over
    /// all M = 10 microservices in one call, at least as good as greedy.
    #[test]
    fn large_m_beats_or_ties_greedy() {
        let gen = Generator::default();
        let requirements = Requirements::new(300.0, 200.0, 0.95).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let env = random_env(&mut rng, 10);
        let ids = env.ids();
        let greedy = gen.approximation(&env, &ids, &requirements).unwrap();
        let beam = gen
            .generate_with(BackendChoice::Beam(4), &env, &ids, &requirements)
            .unwrap();
        assert_eq!(beam.strategy.len(), 10);
        assert!(beam.utility >= greedy.utility - 1e-12);
    }

    /// Beam results are plan-cached under a width-specific backend id:
    /// repeats hit, a different width misses.
    #[test]
    fn plan_cache_keys_on_beam_width() {
        let cache = Arc::new(PlanCache::new(PlanCacheConfig::default()));
        let gen = Generator::builder().plan_cache(Arc::clone(&cache)).build();
        let requirements = req();
        let env = EnvQos::from_triples(&[
            (50.0, 50.0, 0.6),
            (100.0, 100.0, 0.6),
            (150.0, 150.0, 0.7),
            (200.0, 200.0, 0.7),
        ])
        .unwrap();
        let ids = env.ids();
        let first = gen
            .generate_with(BackendChoice::Beam(2), &env, &ids, &requirements)
            .unwrap();
        assert_eq!(first.source, PlanSource::Cold);
        let repeat = gen
            .generate_with(BackendChoice::Beam(2), &env, &ids, &requirements)
            .unwrap();
        assert_eq!(repeat.source, PlanSource::Cached);
        assert_eq!(repeat.report.candidates_seen, 0);
        assert_same_plan(&first, &repeat, "cached repeat");
        let wider = gen
            .generate_with(BackendChoice::Beam(3), &env, &ids, &requirements)
            .unwrap();
        assert_eq!(wider.source, PlanSource::Cold, "other width must miss");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    /// Zero width is clamped to 1 rather than erroring; degenerate inputs
    /// are rejected like every other entry point.
    #[test]
    fn zero_width_clamps_and_bad_inputs_error() {
        let gen = Generator::default();
        let env = EnvQos::from_triples(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.7)]).unwrap();
        let ids = env.ids();
        let clamped = gen
            .generate_with(BackendChoice::Beam(0), &env, &ids, &req())
            .unwrap();
        let one = gen
            .generate_with(BackendChoice::Beam(1), &env, &ids, &req())
            .unwrap();
        assert_same_plan(&clamped, &one, "width 0 behaves as width 1");
        assert!(matches!(
            gen.generate_with(BackendChoice::Beam(4), &env, &[], &req()),
            Err(GenerateError::NoMicroservices)
        ));
        assert!(gen
            .generate_with(BackendChoice::Beam(4), &env, &[MsId(0), MsId(9)], &req())
            .is_err());
    }
}
