//! Property-based tests for the runtime: the estimator's reliability
//! invariant, and reproducibility of seeded fault injection.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_runtime::engine::{execute_scoped, Budget, Completion, CompletionPolicy};
use qce_runtime::{
    Clock, FaultPlan, FaultProfile, FaultyProvider, Invocation, Provider, SimulatedProvider,
    VirtualClock,
};
use qce_strategy::enumerate::StrategySampler;
use qce_strategy::estimate::estimate;
use qce_strategy::{EnvQos, IdSet, MsId, Qos, Strategy};

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

/// Executes a fail-over pair — a seeded-faulty primary and a healthy
/// backup — over 30 virtual time steps, returning the full observable
/// trace.
fn faulty_failover_trace(seed: u64) -> Vec<(Completion, Duration)> {
    let clock = Arc::new(VirtualClock::new());
    let primary = FaultyProvider::new(
        SimulatedProvider::builder("a", "cap")
            .latency(Duration::from_millis(2))
            .response(vec![1])
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        FaultPlan::seeded(seed, Duration::from_millis(300), &FaultProfile::default()),
    );
    let backup = SimulatedProvider::builder("b", "cap")
        .latency(Duration::from_millis(4))
        .response(vec![2])
        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .build();
    let providers: Vec<Arc<dyn Provider>> = vec![primary, backup];
    let strategy = Strategy::parse("a-b").expect("valid strategy");
    (0..30)
        .map(|i| {
            let out = execute_scoped(
                &strategy,
                &providers,
                &Invocation::new(i, "svc", vec![]),
                None,
                &*clock,
                None,
                &Budget::unlimited(),
                CompletionPolicy::FirstSuccess,
            )
            .expect("providers resolve");
            clock.advance(Duration::from_millis(10));
            (out.completion, out.latency)
        })
        .collect()
}

proptest! {
    /// Algorithm 1's reliability estimate for *any* strategy shape is
    /// `1 - Π(1 - r_m)` over its leaf set: every microservice gets tried
    /// before the strategy fails, whatever the mix of `-` and `*`.
    #[test]
    fn estimated_reliability_is_one_minus_product_of_leaf_failures(
        m in 1usize..7,
        seed in any::<u64>(),
        env_seed in any::<u64>(),
    ) {
        let strategy = sampled_strategy(m, seed);
        let env = random_env(m, env_seed);
        let estimated = estimate(&strategy, &env).expect("env covers the leaves");
        let expected = 1.0
            - strategy
                .leaves()
                .iter()
                .map(|id| env.get(*id).expect("env entry").reliability.failure_probability())
                .product::<f64>();
        prop_assert!(
            (estimated.reliability.value() - expected).abs() < 1e-9,
            "estimated {} vs leaf product {expected}",
            estimated.reliability.value(),
        );
    }

    /// The same `(seed, horizon, profile)` always draws the same fault
    /// schedule, and its windows never overlap.
    #[test]
    fn same_seed_draws_the_same_fault_plan(seed in any::<u64>(), horizon_ms in 1u64..3000) {
        let profile = FaultProfile::default();
        let horizon = Duration::from_millis(horizon_ms);
        let a = FaultPlan::seeded(seed, horizon, &profile);
        let b = FaultPlan::seeded(seed, horizon, &profile);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// Twin rigs under the same seeded misfortune produce identical
    /// executor traces — success, latency, and payload all match step for
    /// step, so any failure reproduces from its seed alone.
    #[test]
    fn same_seed_yields_identical_executor_outcomes(seed in any::<u64>()) {
        prop_assert_eq!(faulty_failover_trace(seed), faulty_failover_trace(seed));
    }
}
