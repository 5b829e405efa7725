//! Property-based tests over execution traces: every trace the virtual
//! executor produces must satisfy the structural invariants of the
//! execution model, for any strategy and any stochastic environment.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_sim::{Environment, LatencyDistribution, MsModel, VirtualExecutor};
use qce_strategy::enumerate::StrategySampler;
use qce_strategy::{IdSet, MsId, Strategy};

fn sampled_strategy(m: usize, seed: u64) -> Strategy {
    let ids: Vec<MsId> = (0..m).map(MsId).collect();
    IdSet::new(&ids)
        .and_then(StrategySampler::new)
        .unwrap()
        .sample(&mut ChaCha8Rng::seed_from_u64(seed))
}

fn random_env(m: usize, seed: u64, variable_latency: bool) -> Environment {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Environment::new(
        (0..m)
            .map(|i| {
                let mean = rng.gen_range(5.0..200.0);
                let latency = if variable_latency {
                    LatencyDistribution::Uniform {
                        min: mean * 0.5,
                        max: mean * 1.5,
                    }
                } else {
                    LatencyDistribution::Constant(mean)
                };
                MsModel::new(
                    MsId(i),
                    rng.gen_range(0.0..=1.0),
                    latency,
                    rng.gen_range(1.0..100.0),
                )
                .expect("valid")
            })
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Core trace invariants, checked on every execution:
    /// * success ⇔ some started record succeeded;
    /// * latency = earliest success end (on success) / last end (on failure);
    /// * cost = Σ costs of started records;
    /// * records respect `start + sampled latency = end` ordering;
    /// * cancelled ⇒ started and still running at the finish time.
    #[test]
    fn trace_invariants(
        m in 1usize..6,
        s_seed in any::<u64>(),
        e_seed in any::<u64>(),
        x_seed in any::<u64>(),
        variable in any::<bool>(),
    ) {
        let strategy = sampled_strategy(m, s_seed);
        let env = random_env(m, e_seed, variable);
        let exec = VirtualExecutor::new();
        let mut rng = ChaCha8Rng::seed_from_u64(x_seed);
        let trace = exec.execute(&strategy, &env, &mut rng).unwrap();

        // 1. Success consistency.
        let any_success = trace.records.iter().any(|r| r.succeeded);
        prop_assert_eq!(trace.success, any_success);

        // 2. Latency consistency.
        if trace.success {
            let earliest_success = trace
                .records
                .iter()
                .filter(|r| r.succeeded)
                .map(|r| r.end)
                .fold(f64::INFINITY, f64::min);
            prop_assert!((trace.latency - earliest_success).abs() < 1e-9);
        } else {
            let last_end = trace
                .records
                .iter()
                .map(|r| r.end)
                .fold(0.0f64, f64::max);
            prop_assert!((trace.latency - last_end).abs() < 1e-9);
        }

        // 3. Cost = sum of started costs.
        let expected_cost: f64 = trace
            .records
            .iter()
            .filter(|r| r.started)
            .map(|r| env.get(r.ms).unwrap().cost)
            .sum();
        prop_assert!((trace.cost - expected_cost).abs() < 1e-9);

        // 4. Structural record sanity.
        for r in &trace.records {
            prop_assert!(r.start >= 0.0);
            prop_assert!(r.end >= r.start);
            if r.succeeded {
                prop_assert!(r.started, "success implies started");
                prop_assert!(r.end <= trace.latency + 1e-9);
            }
            if r.cancelled {
                prop_assert!(r.started);
                prop_assert!(trace.success, "cancellation implies a winner");
                prop_assert!(r.end > trace.latency - 1e-9);
            }
            if !r.started {
                prop_assert!(trace.success, "everything starts unless someone won");
                prop_assert!(r.start >= trace.latency - 1e-9);
                prop_assert!(!r.succeeded && !r.cancelled);
            }
        }

        // 5. No duplicate microservices in the schedule.
        let mut ids: Vec<usize> = trace.records.iter().map(|r| r.ms.index()).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), n);
    }

    /// With every reliability at 1.0, the fastest path always wins and
    /// nothing is cancelled in a pure fail-over chain.
    #[test]
    fn perfect_reliability_failover_runs_one_ms(m in 1usize..6, seed in any::<u64>()) {
        let env = Environment::from_triples(
            &(0..m).map(|i| (1.0, 10.0 * (i + 1) as f64, 1.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let ids: Vec<MsId> = (0..m).map(MsId).collect();
        let strategy = qce_strategy::enumerate::failover(&ids).unwrap();
        let exec = VirtualExecutor::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = exec.execute(&strategy, &env, &mut rng).unwrap();
        prop_assert!(trace.success);
        prop_assert_eq!(trace.records.len(), 1, "head succeeds, tail never scheduled");
        prop_assert!((trace.cost - 1.0).abs() < 1e-9);
    }

    /// With every reliability at 0.0, everything runs, everything is
    /// charged, nothing is cancelled.
    #[test]
    fn zero_reliability_runs_everything(m in 1usize..6, s_seed in any::<u64>(), x_seed in any::<u64>()) {
        let env = Environment::from_triples(
            &(0..m).map(|i| (2.0, 10.0 * (i + 1) as f64, 0.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let strategy = sampled_strategy(m, s_seed);
        let exec = VirtualExecutor::new();
        let mut rng = ChaCha8Rng::seed_from_u64(x_seed);
        let trace = exec.execute(&strategy, &env, &mut rng).unwrap();
        prop_assert!(!trace.success);
        prop_assert_eq!(trace.records.len(), m);
        prop_assert!((trace.cost - 2.0 * m as f64).abs() < 1e-9);
        prop_assert!(trace.records.iter().all(|r| r.started && !r.cancelled));
    }

    /// The free-preemption ablation never charges more than Assumption 2.
    #[test]
    fn free_preemption_is_never_dearer(
        m in 1usize..6,
        s_seed in any::<u64>(),
        e_seed in any::<u64>(),
        x_seed in any::<u64>(),
    ) {
        let strategy = sampled_strategy(m, s_seed);
        let env = random_env(m, e_seed, false);
        let mut rng_a = ChaCha8Rng::seed_from_u64(x_seed);
        let mut rng_b = ChaCha8Rng::seed_from_u64(x_seed);
        let charged = VirtualExecutor::new().execute(&strategy, &env, &mut rng_a).unwrap();
        let free = VirtualExecutor::without_cancellation_charges()
            .execute(&strategy, &env, &mut rng_b)
            .unwrap();
        prop_assert!(free.cost <= charged.cost + 1e-9);
        // Same RNG stream ⇒ identical outcomes apart from the cost rule.
        prop_assert_eq!(free.success, charged.success);
        prop_assert!((free.latency - charged.latency).abs() < 1e-9);
    }
}
