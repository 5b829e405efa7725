//! The runtime engine, the simulator and Algorithm 1 agree bit for bit
//! when legs finish at the same instant.
//!
//! Every microservice is up or down for sure (reliability 1 or 0), so
//! Algorithm 1's estimate is the exact outcome. Costs are 1, 10, 100, …,
//! so every started leg shows in the total. Latencies come from {2, 4} ms,
//! so failures and successes often land at one instant. The run covers
//! every strategy of `StrategyIter::over`, every up/down vector and every
//! latency vector. At one instant, Algorithm 1 (`e ≤ s`) and the simulator
//! ("completions before activations") deliver every completion before
//! anything a failure releases starts. The engine must do the same, or it
//! charges a leg the other two never start.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use qce::runtime::engine::{execute_scoped, Budget, CompletionPolicy};
use qce::runtime::{Clock, Invocation, Provider, SimulatedProvider, VirtualClock};
use qce::sim::{Environment, VirtualExecutor};
use qce::strategy::estimate::estimate;
use qce::strategy::{EnvQos, IdSet, MsId, Strategy, StrategyIter};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs every strategy over `m` microservices against every up/down vector
/// and every latency vector drawn from `latencies_ms`, and returns the
/// number of runs.
fn agree_on_every_case(m: usize, latencies_ms: &[u32]) -> usize {
    let ids: Vec<MsId> = (0..m).map(MsId).collect();
    let strategies: Vec<Strategy> = IdSet::new(&ids)
        .and_then(StrategyIter::over)
        .unwrap()
        .collect();
    let clock = Arc::new(VirtualClock::new());
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let mut runs = 0;
    let draws = latencies_ms.len().pow(m as u32);
    for draw in 0..draws {
        let latency: Vec<u32> = (0..m)
            .map(|i| latencies_ms[draw / latencies_ms.len().pow(i as u32) % latencies_ms.len()])
            .collect();
        for up in 0..1u32 << m {
            let triples: Vec<(f64, f64, f64)> = (0..m)
                .map(|i| {
                    let cost = 10f64.powi(i as i32);
                    (cost, f64::from(latency[i]), f64::from(up >> i & 1))
                })
                .collect();
            let env = EnvQos::from_triples(&triples).unwrap();
            let sim_env = Environment::from_triples(&triples).unwrap();
            let providers: Vec<Arc<dyn Provider>> = triples
                .iter()
                .enumerate()
                .map(|(i, &(cost, _, reliability))| {
                    SimulatedProvider::builder(i.to_string(), "cap")
                        .cost(cost)
                        .latency(Duration::from_millis(u64::from(latency[i])))
                        .reliability(reliability)
                        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                        .build() as Arc<dyn Provider>
                })
                .collect();
            for strategy in &strategies {
                let ctx =
                    format!("{strategy}: latencies {latency:?} ms, up {up:0m$b} (ms i is bit i from the right)");
                let estimated = estimate(strategy, &env).unwrap();
                let trace = VirtualExecutor::new()
                    .execute(strategy, &sim_env, &mut rng)
                    .unwrap();
                let outcome = execute_scoped(
                    strategy,
                    &providers,
                    &Invocation::new(1, "", vec![]),
                    None,
                    &*clock,
                    None,
                    &Budget::unlimited(),
                    CompletionPolicy::FirstSuccess,
                )
                .unwrap();

                assert_eq!(
                    trace.cost.to_bits(),
                    estimated.cost.to_bits(),
                    "sim cost, {ctx}"
                );
                assert_eq!(
                    outcome.cost.to_bits(),
                    estimated.cost.to_bits(),
                    "engine cost {} against Algorithm 1's {}, {ctx}",
                    outcome.cost,
                    estimated.cost
                );
                assert_eq!(
                    trace.latency.to_bits(),
                    estimated.latency.to_bits(),
                    "sim latency, {ctx}"
                );
                assert_eq!(
                    outcome.latency.as_secs_f64() * 1e3,
                    estimated.latency,
                    "engine latency, {ctx}"
                );
                assert_eq!(trace.success, outcome.completion.is_success(), "{ctx}");
                let started: BTreeSet<MsId> = trace.started().into_iter().collect();
                let invoked: BTreeSet<MsId> = outcome
                    .invocations
                    .iter()
                    .map(|i| MsId(i.provider_id.parse().unwrap()))
                    .collect();
                assert_eq!(started, invoked, "started legs, {ctx}");
                runs += 1;
            }
        }
    }
    runs
}

#[test]
fn engine_sim_and_algorithm_1_agree_on_every_tie_up_to_four_services() {
    let runs: usize = (1..=4).map(|m| agree_on_every_case(m, &[2, 4])).sum();
    // 195 strategies × 16 up/down × 16 latency vectors at M = 4, plus the
    // smaller M.
    assert_eq!(runs, 4 + 48 + 1_216 + 49_920);
}

#[test]
#[ignore = "about 2.9 million runs; CI runs it optimised"]
fn engine_sim_and_algorithm_1_agree_on_every_tie_at_five_services() {
    assert_eq!(agree_on_every_case(5, &[2, 4]), 2_857_984);
}
