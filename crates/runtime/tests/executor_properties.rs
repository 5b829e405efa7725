//! Property-based tests for `engine::execute_scoped` on a wall clock: for
//! random strategies and deterministic provider behaviours, the
//! executor's success/cost accounting must match the analytic semantics
//! exactly.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_runtime::engine::{execute_scoped, Budget, Completion, CompletionPolicy, EngineOutcome};
use qce_runtime::{Invocation, Provider, SimulatedProvider, WallClock};
use qce_strategy::enumerate::StrategySampler;
use qce_strategy::{EnvQos, IdSet, MsId, Qos, Strategy};

/// Builds deterministic providers (reliability 0 or 1) with tiny latencies.
fn deterministic_providers(outcomes: &[bool]) -> Vec<Arc<dyn Provider>> {
    outcomes
        .iter()
        .enumerate()
        .map(|(i, &ok)| {
            SimulatedProvider::builder(format!("p{i}"), format!("cap{i}"))
                .cost(1.0)
                .latency(Duration::from_micros(200 * (i as u64 + 1)))
                .reliability(if ok { 1.0 } else { 0.0 })
                .build() as Arc<dyn Provider>
        })
        .collect()
}

fn sampled_strategy(m: usize, seed: u64) -> Strategy {
    let ids: Vec<MsId> = (0..m).map(MsId).collect();
    IdSet::new(&ids)
        .and_then(StrategySampler::new)
        .unwrap()
        .sample(&mut ChaCha8Rng::seed_from_u64(seed))
}

/// The door with its fixed arguments filled in.
fn run(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    policy: CompletionPolicy,
) -> EngineOutcome {
    execute_scoped(
        strategy,
        providers,
        &Invocation::new(1, "", vec![]),
        None,
        &WallClock::new(),
        None,
        &Budget::unlimited(),
        policy,
    )
    .unwrap()
}

fn votes_cast(outcome: &EngineOutcome) -> usize {
    match outcome.completion {
        Completion::Agreement { votes_cast, .. } => votes_cast,
        Completion::First { .. } => panic!("quorum run returned first-success"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The executor succeeds iff at least one microservice would succeed —
    /// strategy shape cannot change reachability of success when failures
    /// are deterministic.
    #[test]
    fn success_iff_any_reliable(m in 1usize..5, seed in any::<u64>(), mask in any::<u8>()) {
        let outcomes: Vec<bool> = (0..m).map(|i| mask & (1 << i) != 0).collect();
        let strategy = sampled_strategy(m, seed);
        let providers = deterministic_providers(&outcomes);
        let outcome = run(&strategy, &providers, CompletionPolicy::FirstSuccess);
        prop_assert_eq!(outcome.completion.is_success(), outcomes.iter().any(|&b| b));
    }

    /// With deterministic outcomes, the threaded executor's cost matches
    /// Algorithm 1's estimate (reliabilities 0/1 make the estimate exact,
    /// up to races between equal-length branches — avoided by distinct
    /// latencies).
    #[test]
    fn cost_matches_estimate_when_deterministic(m in 1usize..5, seed in any::<u64>(), mask in any::<u8>()) {
        let outcomes: Vec<bool> = (0..m).map(|i| mask & (1 << i) != 0).collect();
        let strategy = sampled_strategy(m, seed);
        let providers = deterministic_providers(&outcomes);
        // Analytic estimate with the same deterministic reliabilities and
        // the same latency ordering.
        let env: EnvQos = (0..m)
            .map(|i| {
                Qos::new(
                    1.0,
                    0.2 * (i as f64 + 1.0),
                    if outcomes[i] { 1.0 } else { 0.0 },
                )
                .unwrap()
            })
            .collect();
        let estimated = qce_strategy::estimate::estimate(&strategy, &env).unwrap();
        let outcome = run(&strategy, &providers, CompletionPolicy::FirstSuccess);
        // Deterministic outcomes make expected cost an exact invocation
        // count; scheduling jitter can only flip *simultaneity* cases,
        // which distinct latencies rule out analytically. Allow one
        // invocation of slack for cancel-timing races on loaded machines.
        prop_assert!(
            (outcome.cost - estimated.cost).abs() <= 1.0 + 1e-9,
            "strategy {}: threaded cost {} vs estimate {}",
            strategy,
            outcome.cost,
            estimated.cost
        );
    }

    /// Quorum 1 and plain execution agree on success and payload presence.
    #[test]
    fn quorum_one_equals_first_success(m in 1usize..4, seed in any::<u64>(), mask in any::<u8>()) {
        let outcomes: Vec<bool> = (0..m).map(|i| mask & (1 << i) != 0).collect();
        let strategy = sampled_strategy(m, seed);
        let providers = deterministic_providers(&outcomes);
        let plain = run(&strategy, &providers, CompletionPolicy::FirstSuccess);
        let quorum = run(&strategy, &providers, CompletionPolicy::Quorum { quorum: 1 });
        prop_assert_eq!(plain.completion.is_success(), quorum.completion.is_success());
    }

    /// Raising the quorum never decreases the cost.
    #[test]
    fn higher_quorum_costs_at_least_as_much(m in 2usize..5, seed in any::<u64>()) {
        let outcomes: Vec<bool> = vec![true; m];
        let strategy = sampled_strategy(m, seed);
        let providers = deterministic_providers(&outcomes);
        let q1 = run(&strategy, &providers, CompletionPolicy::Quorum { quorum: 1 });
        let q2 = run(&strategy, &providers, CompletionPolicy::Quorum { quorum: 2 });
        prop_assert!(q2.cost >= q1.cost - 1e-9, "q1 {} vs q2 {}", q1.cost, q2.cost);
        prop_assert!(votes_cast(&q2) >= votes_cast(&q1));
    }

    /// Every reported invocation belongs to the strategy and is charged at
    /// its provider's advertised cost.
    #[test]
    fn invocation_accounting_is_consistent(m in 1usize..5, seed in any::<u64>(), mask in any::<u8>()) {
        let outcomes: Vec<bool> = (0..m).map(|i| mask & (1 << i) != 0).collect();
        let strategy = sampled_strategy(m, seed);
        let providers = deterministic_providers(&outcomes);
        let outcome = run(&strategy, &providers, CompletionPolicy::FirstSuccess);
        let total: f64 = outcome.invocations.iter().map(|i| i.cost).sum();
        prop_assert!((total - outcome.cost).abs() < 1e-9);
        prop_assert!(outcome.invocations.len() <= m, "each ms invoked at most once");
        // No provider is invoked twice.
        let mut ids: Vec<&str> = outcome
            .invocations
            .iter()
            .map(|i| i.provider_id.as_str())
            .collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before);
    }
}
