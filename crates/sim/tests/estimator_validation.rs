//! Integration test reproducing the paper's estimation-correctness
//! experiment (Section V.A.2) at test scale: random strategies, executed
//! repeatedly in virtual time, must measure to within a small relative
//! error of the Algorithm 1 estimate.
//!
//! The paper runs 100 strategies × 300 executions and reports < 1% error;
//! here we run fewer strategies with more executions per strategy (virtual
//! time is free) and a tolerance that accounts for Monte-Carlo noise. The
//! full-scale run lives in the `qce-bench` repro harness.

use std::num::NonZeroU32;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_sim::{relative_error_pct, simulate, Environment, RandomEnvConfig};
use qce_strategy::enumerate::StrategySampler;
use qce_strategy::estimate::{estimate, estimate_folding};
use qce_strategy::{IdSet, MsId, Strategy, StrategyIter};

fn random_strategy(m: usize, seed: u64) -> Strategy {
    let ids: Vec<MsId> = (0..m).map(MsId).collect();
    IdSet::new(&ids)
        .and_then(StrategySampler::new)
        .unwrap()
        .sample(&mut ChaCha8Rng::seed_from_u64(seed))
}

fn random_environment(m: usize, seed: u64) -> Environment {
    RandomEnvConfig {
        microservices: m,
        avg_cost: 70.0,
        avg_latency: 70.0,
        avg_reliability_pct: 70.0,
        delta: 50.0,
    }
    .generate(&mut ChaCha8Rng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Algorithm 1's cost and latency estimates match the virtual-time
    /// measurement within Monte-Carlo tolerance for random strategies over
    /// random environments.
    #[test]
    fn estimates_match_measurement(m in 2usize..6, s_seed in any::<u64>(), e_seed in any::<u64>()) {
        let strategy = random_strategy(m, s_seed);
        let env = random_environment(m, e_seed);
        let est = estimate(&strategy, &env.mean_qos_table()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(s_seed ^ e_seed);
        let stats = simulate(&strategy, &env, NonZeroU32::new(20_000).unwrap(), &mut rng).unwrap();
        prop_assert!(
            relative_error_pct(stats.mean_latency, est.latency) < 3.0,
            "{strategy}: measured latency {} vs estimated {}",
            stats.mean_latency,
            est.latency
        );
        prop_assert!(
            relative_error_pct(stats.mean_cost, est.cost) < 3.0,
            "{strategy}: measured cost {} vs estimated {}",
            stats.mean_cost,
            est.cost
        );
        prop_assert!(
            (stats.success_rate - est.reliability.value()).abs() < 0.02,
            "{strategy}: measured reliability {} vs estimated {}",
            stats.success_rate,
            est.reliability.value()
        );
    }
}

/// The paper's own Section III.C.3 example, at the paper's scale (300
/// executions averaged over many batches): `a*b*c` measures ≈ 69.4, not
/// the folding method's 73.6.
#[test]
fn section_3c3_example_at_scale() {
    let env =
        Environment::from_triples(&[(1.0, 10.0, 0.1), (1.0, 90.0, 0.9), (1.0, 70.0, 0.7)]).unwrap();
    let s = Strategy::parse("a*b*c").unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(2020);
    let stats = simulate(&s, &env, NonZeroU32::new(60_000).unwrap(), &mut rng).unwrap();
    assert!(
        (stats.mean_latency - 69.4).abs() < 0.7,
        "measured {}",
        stats.mean_latency
    );
    // The folding baseline is measurably wrong on this example.
    let folded = estimate_folding(&s, &env.mean_qos_table()).unwrap();
    assert!((folded.latency - 73.6).abs() < 1e-9);
    assert!(
        (stats.mean_latency - folded.latency).abs() > 2.0,
        "folding should disagree with the measurement"
    );
}

/// Every one of the 19 strategies over 3 microservices measures to its
/// estimate — exhaustive version of the property test above.
#[test]
fn all_f3_strategies_validate() {
    let env =
        Environment::from_triples(&[(50.0, 40.0, 0.3), (80.0, 90.0, 0.8), (20.0, 25.0, 0.55)])
            .unwrap();
    let table = env.mean_qos_table();
    let ids: Vec<MsId> = (0..3).map(MsId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for strategy in IdSet::new(&ids).and_then(StrategyIter::over).unwrap() {
        let est = estimate(&strategy, &table).unwrap();
        let stats = simulate(&strategy, &env, NonZeroU32::new(20_000).unwrap(), &mut rng).unwrap();
        assert!(
            relative_error_pct(stats.mean_latency, est.latency) < 3.0,
            "{strategy}: latency {} vs {}",
            stats.mean_latency,
            est.latency
        );
        assert!(
            relative_error_pct(stats.mean_cost, est.cost) < 3.0,
            "{strategy}: cost {} vs {}",
            stats.mean_cost,
            est.cost
        );
    }
}

/// With non-constant latency distributions, Algorithm 1 (which consumes
/// means) remains close for parallel-free strategies and bounded for
/// parallel ones — documents the mean-latency approximation explicitly.
#[test]
fn variable_latency_failover_still_matches() {
    use qce_sim::LatencyDistribution;
    use qce_sim::MsModel;
    let env = Environment::new(vec![
        MsModel::new(
            MsId(0),
            0.5,
            LatencyDistribution::Uniform {
                min: 20.0,
                max: 60.0,
            },
            10.0,
        )
        .unwrap(),
        MsModel::new(
            MsId(1),
            0.7,
            LatencyDistribution::Normal {
                mean: 50.0,
                std_dev: 5.0,
            },
            20.0,
        )
        .unwrap(),
    ])
    .unwrap();
    let s = Strategy::parse("a-b").unwrap();
    let est = estimate(&s, &env.mean_qos_table()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let stats = simulate(&s, &env, NonZeroU32::new(40_000).unwrap(), &mut rng).unwrap();
    // Fail-over latency is linear in the per-ms latencies, so the estimate
    // from means is exact up to sampling noise.
    assert!(relative_error_pct(stats.mean_latency, est.latency) < 2.0);
    assert!(relative_error_pct(stats.mean_cost, est.cost) < 2.0);
}
