//! Property-based tests for the strategy algebra, enumeration, estimation,
//! utility, and generation.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_strategy::enumerate::{count_full, StrategySampler};
use qce_strategy::estimate::{estimate, estimate_folding, timelines};
use qce_strategy::pareto::pareto_indices;
use qce_strategy::utility::dominates;
use qce_strategy::{
    EnvQos, Generator, IdSet, MsId, Node, Qos, Requirements, Strategy, StrategyIter, UtilityIndex,
};

/// Draws a uniformly random strategy over `m` microservices from a seed.
fn sampled_strategy(m: usize, seed: u64) -> Strategy {
    let ids: Vec<MsId> = (0..m).map(MsId).collect();
    let sampler = IdSet::new(&ids).and_then(StrategySampler::new).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    sampler.sample(&mut rng)
}

/// Random environment with `m` microservices; QoS drawn from a seed.
fn random_env(m: usize, seed: u64) -> EnvQos {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            Qos::new(
                rng.gen_range(1.0..300.0),
                rng.gen_range(1.0..300.0),
                rng.gen_range(0.05..0.99),
            )
            .expect("values in domain")
        })
        .collect()
}

proptest! {
    /// Rendering a strategy and re-parsing it yields the same strategy.
    #[test]
    fn display_parse_round_trip(m in 1usize..8, seed in any::<u64>()) {
        let s = sampled_strategy(m, seed);
        let text = s.to_string();
        let reparsed = Strategy::parse(&text).expect("rendered text parses");
        prop_assert_eq!(s, reparsed);
    }

    /// Serde serialization round-trips through the expression string.
    #[test]
    fn serde_round_trip(m in 1usize..7, seed in any::<u64>()) {
        let s = sampled_strategy(m, seed);
        let json = serde_json::to_string(&s).expect("serializes");
        let back: Strategy = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(s, back);
    }

    /// Permuting the children of any parallel node leaves the strategy equal
    /// (Observation 1: `*` is commutative).
    #[test]
    fn par_permutation_invariance(m in 2usize..7, seed in any::<u64>(), swap_seed in any::<u64>()) {
        let s = sampled_strategy(m, seed);
        // Rebuild with reversed Par children everywhere.
        fn reverse_pars(node: &Node) -> Node {
            match node {
                Node::Leaf(id) => Node::Leaf(*id),
                Node::Seq(ch) => Node::Seq(ch.iter().map(reverse_pars).collect()),
                Node::Par(ch) => {
                    let mut rev: Vec<Node> = ch.iter().map(reverse_pars).collect();
                    rev.reverse();
                    Node::Par(rev)
                }
            }
        }
        let _ = swap_seed;
        let rebuilt = Strategy::from_node(reverse_pars(s.node())).expect("still valid");
        prop_assert_eq!(s, rebuilt);
    }

    /// The strategy's leaf set is preserved by canonicalization.
    #[test]
    fn leaves_are_all_distinct_and_complete(m in 1usize..8, seed in any::<u64>()) {
        let s = sampled_strategy(m, seed);
        let mut leaves = s.leaves();
        leaves.sort_unstable();
        let expected: Vec<MsId> = (0..m).map(MsId).collect();
        prop_assert_eq!(leaves, expected);
    }

    /// Estimated reliability always equals `1 − Π(1 − r_m)` regardless of
    /// strategy shape.
    #[test]
    fn reliability_depends_only_on_the_set(m in 1usize..7, seed in any::<u64>(), env_seed in any::<u64>()) {
        let s = sampled_strategy(m, seed);
        let env = random_env(m, env_seed);
        let qos = estimate(&s, &env).expect("all ids present");
        let expected: f64 = 1.0
            - (0..m)
                .map(|i| env.get(MsId(i)).unwrap().reliability.failure_probability())
                .product::<f64>();
        prop_assert!((qos.reliability.value() - expected).abs() < 1e-9);
    }

    /// Estimated cost never exceeds the sum of all costs, and latency never
    /// exceeds the sequential sum of all latencies.
    #[test]
    fn estimates_are_bounded(m in 1usize..7, seed in any::<u64>(), env_seed in any::<u64>()) {
        let s = sampled_strategy(m, seed);
        let env = random_env(m, env_seed);
        let qos = estimate(&s, &env).expect("all ids present");
        let total_cost: f64 = (0..m).map(|i| env.get(MsId(i)).unwrap().cost).sum();
        let total_latency: f64 = (0..m).map(|i| env.get(MsId(i)).unwrap().latency).sum();
        let min_cost = (0..m).map(|i| env.get(MsId(i)).unwrap().cost).fold(f64::MAX, f64::min);
        let min_latency = (0..m)
            .map(|i| env.get(MsId(i)).unwrap().latency)
            .fold(f64::MAX, f64::min);
        prop_assert!(qos.cost <= total_cost + 1e-9);
        prop_assert!(qos.latency <= total_latency + 1e-9);
        prop_assert!(qos.cost >= min_cost - 1e-9, "at least one ms always runs");
        prop_assert!(qos.latency >= min_latency - 1e-9);
    }

    /// The timeline start of every microservice is the makespan of what must
    /// fail before it, so starts are always ≥ 0 and ends = start + latency.
    #[test]
    fn timelines_are_consistent(m in 1usize..7, seed in any::<u64>(), env_seed in any::<u64>()) {
        let s = sampled_strategy(m, seed);
        let env = random_env(m, env_seed);
        let tl = timelines(&s, &env).expect("all ids present");
        prop_assert_eq!(tl.len(), m);
        for t in &tl {
            let latency = env.get(t.ms).unwrap().latency;
            prop_assert!(t.start >= 0.0);
            prop_assert!((t.end - t.start - latency).abs() < 1e-9);
        }
    }

    /// Folding matches Algorithm 1 exactly on pure fail-over chains (no
    /// parallel short-circuiting to mis-model).
    #[test]
    fn folding_exact_on_failover(m in 1usize..7, env_seed in any::<u64>()) {
        let env = random_env(m, env_seed);
        let ids: Vec<MsId> = (0..m).map(MsId).collect();
        let s = qce_strategy::enumerate::failover(&ids).unwrap();
        let folded = estimate_folding(&s, &env).unwrap();
        let exact = estimate(&s, &env).unwrap();
        prop_assert!((folded.cost - exact.cost).abs() < 1e-6);
        prop_assert!((folded.latency - exact.latency).abs() < 1e-6);
    }

    /// No member of the Pareto front is dominated by any candidate.
    #[test]
    fn pareto_front_members_are_undominated(env_seed in any::<u64>(), n in 1usize..40) {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(env_seed);
        let candidates: Vec<Qos> = (0..n)
            .map(|_| {
                Qos::new(
                    rng.gen_range(1.0..100.0),
                    rng.gen_range(1.0..100.0),
                    rng.gen_range(0.1..0.99),
                )
                .unwrap()
            })
            .collect();
        let front = pareto_indices(&candidates);
        prop_assert!(!front.is_empty(), "front is never empty for non-empty input");
        for &i in &front {
            for (j, other) in candidates.iter().enumerate() {
                if i != j {
                    prop_assert!(!dominates(other, &candidates[i]));
                }
            }
        }
    }

    /// Utility is monotone under Pareto dominance.
    #[test]
    fn utility_monotone_under_dominance(env_seed in any::<u64>(), k in 1.1f64..10.0) {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(env_seed);
        let req = Requirements::new(100.0, 100.0, 0.9).unwrap();
        let ui = UtilityIndex::new(k).unwrap();
        let base = Qos::new(
            rng.gen_range(10.0..200.0),
            rng.gen_range(10.0..200.0),
            rng.gen_range(0.1..0.95),
        )
        .unwrap();
        let better = Qos::new(base.cost * 0.9, base.latency * 0.9, (base.reliability.value() + 0.01).min(1.0)).unwrap();
        prop_assert!(dominates(&better, &base));
        prop_assert!(ui.utility(&better, &req) > ui.utility(&base, &req));
    }

    /// The exhaustive search over all strategies is at least as good as the
    /// approximation, which is at least as good as the worse predefined
    /// pattern.
    #[test]
    fn generation_quality_ordering(m in 2usize..5, env_seed in any::<u64>()) {
        let env = random_env(m, env_seed);
        let ids: Vec<MsId> = (0..m).map(MsId).collect();
        let req = Requirements::new(100.0, 100.0, 0.97).unwrap();
        let gen = Generator::default();
        let exact = gen.exhaustive(&env, &ids, &req).unwrap();
        let approx = gen.approximation(&env, &ids, &req).unwrap();
        let fo = gen.failover(&env, &ids, &req).unwrap();
        let sp = gen.speculative_parallel(&env, &ids, &req).unwrap();
        prop_assert!(exact.utility >= approx.utility - 1e-9);
        prop_assert!(exact.utility >= fo.utility - 1e-9);
        prop_assert!(exact.utility >= sp.utility - 1e-9);
    }

    /// Every enumerated strategy for small M estimates without error and
    /// yields finite QoS.
    #[test]
    fn every_enumerated_strategy_estimates(env_seed in any::<u64>()) {
        let m = 4;
        let env = random_env(m, env_seed);
        let ids: Vec<MsId> = (0..m).map(MsId).collect();
        for s in IdSet::new(&ids).and_then(StrategyIter::over).unwrap() {
            let qos = estimate(&s, &env).expect("estimates");
            prop_assert!(qos.cost.is_finite());
            prop_assert!(qos.latency.is_finite());
        }
    }

    /// `map_ids` with a bijection preserves structure and round-trips.
    #[test]
    fn map_ids_bijection_round_trip(m in 1usize..7, seed in any::<u64>(), offset in 1usize..50) {
        let s = sampled_strategy(m, seed);
        let mapped = s.map_ids(|id| MsId(id.index() + offset)).unwrap();
        prop_assert_eq!(mapped.len(), s.len());
        prop_assert_eq!(mapped.depth(), s.depth());
        let back = mapped.map_ids(|id| MsId(id.index() - offset)).unwrap();
        prop_assert_eq!(back, s);
    }
}

/// Uniform sampling hits every strategy of a small space within a
/// reasonable number of draws (coupon-collector bound).
#[test]
fn sampler_eventually_covers_f3() {
    let ids: Vec<MsId> = (0..3).map(MsId).collect();
    let sampler = IdSet::new(&ids).and_then(StrategySampler::new).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..5000 {
        seen.insert(sampler.sample(&mut rng));
        if seen.len() == 19 {
            break;
        }
    }
    assert_eq!(seen.len(), 19);
}

/// Exhaustive enumeration at M = 6 produces exactly the count predicted by
/// the recurrence, with no duplicates (memory-light streaming check).
#[test]
fn enumeration_count_m6_matches_recurrence() {
    let ids: Vec<MsId> = (0..6).map(MsId).collect();
    let count = IdSet::new(&ids)
        .and_then(StrategyIter::over)
        .unwrap()
        .count();
    assert_eq!(Some(count as u128), count_full(6));
}
