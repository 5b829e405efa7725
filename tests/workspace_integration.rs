//! Cross-crate integration tests exercising the full pipeline through the
//! `qce` façade: strategy algebra → simulation → runtime.

use std::collections::BTreeSet;
use std::num::NonZeroU32;
use std::sync::Arc;
use std::time::Duration;

use qce::runtime::engine::{execute_scoped, Budget, CompletionPolicy};
use qce::runtime::{
    Client, Clock, Gateway, GatewayConfig, InMemoryMarket, Invocation, MsSpec, Provider,
    ServiceScript, SimulatedProvider, VirtualClock, WallClock,
};
use qce::sim::{simulate, Environment, VirtualExecutor};
use qce::strategy::enumerate::StrategySampler;
use qce::strategy::estimate::estimate;
use qce::strategy::{EnvQos, Generator, IdSet, MsId, Qos, Requirements, Strategy, StrategyIter};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The complete analytical pipeline: parse → estimate → generate → verify
/// by simulation, on the paper's fire-detection example.
#[test]
fn analytic_pipeline_end_to_end() {
    let triples = [
        (50.0, 50.0, 0.6),
        (100.0, 100.0, 0.6),
        (150.0, 150.0, 0.7),
        (200.0, 200.0, 0.7),
        (250.0, 250.0, 0.8),
    ];
    let env = EnvQos::from_triples(&triples).unwrap();
    let sim_env = Environment::from_triples(&triples).unwrap();
    let requirements = Requirements::new(100.0, 100.0, 0.97).unwrap();

    let generated = Generator::default()
        .generate(&env, &env.ids(), &requirements)
        .unwrap();

    // The generated strategy's estimate is confirmed by simulation.
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let measured = simulate(
        &generated.strategy,
        &sim_env,
        NonZeroU32::new(30_000).unwrap(),
        &mut rng,
    )
    .unwrap();
    assert!((measured.mean_cost - generated.qos.cost).abs() / generated.qos.cost < 0.03);
    assert!((measured.mean_latency - generated.qos.latency).abs() / generated.qos.latency < 0.03);

    // And it beats both predefined patterns on utility by construction.
    let generator = Generator::default();
    let fo = generator
        .failover_in_order(&env, &env.ids(), &requirements)
        .unwrap();
    let sp = generator
        .speculative_parallel(&env, &env.ids(), &requirements)
        .unwrap();
    assert!(generated.utility >= fo.utility);
    assert!(generated.utility >= sp.utility);
}

/// A strategy estimated by the analytic estimator, measured by the
/// virtual-time simulator, and measured again by the *threaded* runtime
/// executor all agree.
#[test]
fn three_executors_agree() {
    let triples = [(10.0, 4.0, 0.8), (20.0, 8.0, 0.9)];
    let env = EnvQos::from_triples(&triples).unwrap();
    let strategy = Strategy::parse("a-b").unwrap();
    let estimated = estimate(&strategy, &env).unwrap();

    // Virtual time.
    let sim_env = Environment::from_triples(&triples).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let virtual_measured = simulate(
        &strategy,
        &sim_env,
        NonZeroU32::new(40_000).unwrap(),
        &mut rng,
    )
    .unwrap();
    assert!((virtual_measured.mean_cost - estimated.cost).abs() / estimated.cost < 0.03);

    // Real threads (latencies in ms).
    let providers: Vec<Arc<dyn Provider>> = vec![
        SimulatedProvider::builder("d/a", "a")
            .cost(10.0)
            .latency(Duration::from_millis(4))
            .reliability(0.8)
            .seed(1)
            .build(),
        SimulatedProvider::builder("d/b", "b")
            .cost(20.0)
            .latency(Duration::from_millis(8))
            .reliability(0.9)
            .seed(2)
            .build(),
    ];
    let runs: u64 = 300;
    let mut cost_sum = 0.0;
    let mut ok = 0u32;
    for i in 0..runs {
        let outcome = execute_scoped(
            &strategy,
            &providers,
            &Invocation::new(i, "", vec![]),
            None,
            &WallClock::new(),
            None,
            &Budget::unlimited(),
            CompletionPolicy::FirstSuccess,
        )
        .unwrap();
        cost_sum += outcome.cost;
        if outcome.completion.is_success() {
            ok += 1;
        }
    }
    let mean_cost = cost_sum / runs as f64;
    assert!(
        (mean_cost - estimated.cost).abs() / estimated.cost < 0.15,
        "threaded cost {mean_cost} vs estimate {}",
        estimated.cost
    );
    let reliability = f64::from(ok) / runs as f64;
    assert!((reliability - estimated.reliability.value()).abs() < 0.06);
}

/// The two strategy walkers that remain — the simulator's Monte-Carlo
/// reference (`VirtualExecutor::execute`) and the runtime's event core
/// behind `engine::execute_scoped` — agree case by case, not just on
/// average: same success, same latency, same cost, same set of started
/// microservices. Every microservice is up or down for sure and latencies
/// are distinct powers of two, so every instant is a distinct subset sum
/// and no tie can be broken two ways.
#[test]
fn sim_walker_and_event_core_agree_case_by_case() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    let clock = Arc::new(VirtualClock::new());
    for m in 1..=5usize {
        let ids: Vec<MsId> = (0..m).map(MsId).collect();
        let sampler = IdSet::new(&ids).and_then(StrategySampler::new).unwrap();
        for _ in 0..60 {
            let strategy = sampler.sample(&mut rng);
            let up: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.5)).collect();
            let ctx = format!("strategy {strategy} up {up:?}");

            let triples: Vec<(f64, f64, f64)> = (0..m)
                .map(|i| (10.0 + i as f64, f64::from(1u32 << i), f64::from(up[i])))
                .collect();
            let env = Environment::from_triples(&triples).unwrap();
            let trace = VirtualExecutor::new()
                .execute(&strategy, &env, &mut rng)
                .unwrap();

            let providers: Vec<Arc<dyn Provider>> = triples
                .iter()
                .enumerate()
                .map(|(i, &(cost, latency_ms, reliability))| {
                    SimulatedProvider::builder(i.to_string(), "cap")
                        .cost(cost)
                        .latency(Duration::from_secs_f64(latency_ms / 1000.0))
                        .reliability(reliability)
                        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                        .build() as Arc<dyn Provider>
                })
                .collect();
            let outcome = execute_scoped(
                &strategy,
                &providers,
                &Invocation::new(1, "", vec![]),
                None,
                &*clock,
                None,
                &Budget::unlimited(),
                CompletionPolicy::FirstSuccess,
            )
            .unwrap();

            assert_eq!(trace.success, outcome.completion.is_success(), "{ctx}");
            assert_eq!(
                Duration::from_secs_f64(trace.latency / 1000.0),
                outcome.latency,
                "{ctx}"
            );
            assert_eq!(trace.cost, outcome.cost, "{ctx}");
            let started: BTreeSet<MsId> = trace.started().into_iter().collect();
            let invoked: BTreeSet<MsId> = outcome
                .invocations
                .iter()
                .map(|i| MsId(i.provider_id.parse().unwrap()))
                .collect();
            assert_eq!(started, invoked, "{ctx}");
            assert_eq!(invoked.len(), outcome.invocations.len(), "{ctx}");
        }
    }
}

/// Full system test: publish a script, register devices, drive slots, and
/// confirm the feedback loop finds a strategy whose measured QoS matches
/// what the virtual-time simulator predicts for the same configuration.
#[test]
fn runtime_converges_to_simulated_prediction() {
    let market = InMemoryMarket::new();
    let mut script = ServiceScript::new(
        "svc",
        vec![
            MsSpec {
                name: "fast".into(),
                capability: "fast".into(),
                prior: Qos::new(10.0, 3.0, 0.8).unwrap(),
            },
            MsSpec {
                name: "slow".into(),
                capability: "slow".into(),
                prior: Qos::new(30.0, 9.0, 0.95).unwrap(),
            },
        ],
        Requirements::new(50.0, 20.0, 0.97).unwrap(),
    );
    script.slot_size = 50;
    market.publish(script).unwrap();

    let gateway = Arc::new(Gateway::new(Box::new(market), GatewayConfig::default()));
    gateway.registry().register(
        SimulatedProvider::builder("d/fast", "fast")
            .cost(10.0)
            .latency(Duration::from_millis(3))
            .reliability(0.8)
            .seed(1)
            .build(),
    );
    gateway.registry().register(
        SimulatedProvider::builder("d/slow", "slow")
            .cost(30.0)
            .latency(Duration::from_millis(9))
            .reliability(0.95)
            .seed(2)
            .build(),
    );

    let client = Client::new(Arc::clone(&gateway));
    // Slot 0 (default parallel) then slot 1 (generated).
    for _ in 0..50 {
        client.invoke("svc").unwrap();
    }
    let mut cost_sum = 0.0;
    for _ in 0..50 {
        cost_sum += client.invoke("svc").unwrap().cost;
    }
    let measured_cost = cost_sum / 50.0;

    // Predict the generated slot's cost analytically: the generator, fed
    // the true QoS, picks the same strategy the gateway's collector-driven
    // plan converged to.
    let env = EnvQos::from_triples(&[(10.0, 3.0, 0.8), (30.0, 9.0, 0.95)]).unwrap();
    let requirements = Requirements::new(50.0, 20.0, 0.97).unwrap();
    let predicted = Generator::default()
        .generate(&env, &env.ids(), &requirements)
        .unwrap();
    let history = gateway.slot_history("svc");
    assert_eq!(history.len(), 2);
    assert!(
        (measured_cost - predicted.qos.cost).abs() / predicted.qos.cost < 0.35,
        "measured {measured_cost} vs predicted {}",
        predicted.qos.cost
    );
}

/// The virtual executor and the analytic estimator agree on *every*
/// strategy over a 4-microservice environment (exhaustive cross-check).
#[test]
fn exhaustive_agreement_m4() {
    let triples = [
        (50.0, 30.0, 0.4),
        (60.0, 70.0, 0.7),
        (20.0, 50.0, 0.55),
        (90.0, 20.0, 0.85),
    ];
    let env = EnvQos::from_triples(&triples).unwrap();
    let sim_env = Environment::from_triples(&triples).unwrap();
    let exec = VirtualExecutor::new();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let ids: Vec<MsId> = (0..4).map(MsId).collect();
    for strategy in IdSet::new(&ids).and_then(StrategyIter::over).unwrap() {
        let estimated = estimate(&strategy, &env).unwrap();
        let mut cost = 0.0;
        let runs = 4_000;
        for _ in 0..runs {
            cost += exec.execute(&strategy, &sim_env, &mut rng).unwrap().cost;
        }
        let measured = cost / f64::from(runs);
        assert!(
            (measured - estimated.cost).abs() / estimated.cost < 0.08,
            "{strategy}: measured {measured} vs estimated {}",
            estimated.cost
        );
    }
}
