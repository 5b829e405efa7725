//! Per-layer probes: each calls one layer's public function directly, on
//! inputs generated from the run's seed or taken from the workload's own
//! rig, and times it on the real clock.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qce_runtime::{
    Budget, Clock, Collector, CompletionPolicy, ExecutionRecord, FnProvider, Gateway,
    GatewayConfig, InMemoryMarket, Invocation, Market, MsSpec, Planner, Provider, QosClass,
    Request, ServiceRouter, ServiceScript, SimulatedProvider, SynthesisSettings, Telemetry,
    TtlMarket, VirtualClock, WallClock, WorkerGuard,
};
use qce_strategy::{
    Algorithm1, BackendChoice, EnvQos, Estimator, Generator, MsId, PlanCache, PlanCacheConfig, Qos,
    Requirements, Strategy, StrategyIter, UtilityIndex,
};

use crate::rig::Rng;
use crate::stats::{median, percentile};
use crate::workloads::Session;

pub type Reading = (&'static str, f64);

/// Median over `reps` repetitions of the nanoseconds one of `iters` calls
/// takes.
fn ns_per_call(reps: usize, iters: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                call();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// An environment of `m` microservices and a requirement that no single
/// one meets, so the search has real trade-offs to weigh.
fn probe_env(rng: &mut Rng, m: usize) -> (EnvQos, Vec<MsId>, Requirements) {
    let mut cheapest = f64::MAX;
    let mut fastest = f64::MAX;
    let env: EnvQos = (0..m)
        .map(|_| {
            let cost = 10.0 * (1 + rng.below(8)) as f64;
            let latency = (4 + 4 * rng.below(9)) as f64;
            let reliability = 0.60 + 0.05 * rng.below(8) as f64;
            cheapest = cheapest.min(cost);
            fastest = fastest.min(latency);
            Qos::new(cost, latency, reliability).expect("generated QoS is in domain")
        })
        .collect();
    let ids = env.ids();
    let requirement = Requirements::new(4.0 * cheapest, 3.0 * fastest, 0.97)
        .expect("generated requirements are valid");
    (env, ids, requirement)
}

/// `qce-strategy`: enumeration, estimation, the three search backends and
/// the plan cache.
pub fn strategy(seed: u64) -> Vec<Reading> {
    let mut rng = Rng::new(seed ^ 0x5EA2C4);
    let (env5, ids5, req5) = probe_env(&mut rng, 5);
    let (env6, ids6, req6) = probe_env(&mut rng, 6);
    let (env8, ids8, req8) = probe_env(&mut rng, 8);
    let (env10, ids10, req10) = probe_env(&mut rng, 10);
    let mut out = Vec::new();

    let candidates = StrategyIter::full(&ids5).count();
    out.push((
        "strategy.enumerate.ns_per_candidate",
        ns_per_call(5, 1, || {
            black_box(StrategyIter::full(black_box(&ids5)).map(black_box).count());
        }) / candidates as f64,
    ));

    let sample: Vec<Strategy> = StrategyIter::full(&ids5).take(2_000).collect();
    let estimator = Algorithm1::new();
    out.push((
        "strategy.estimate.ns_per_call",
        ns_per_call(5, 1, || {
            for strategy in &sample {
                black_box(estimator.estimate_uncached(strategy, &env5).ok());
            }
        }) / sample.len() as f64,
    ));

    // The generator as the gateway configures it (pruning on, one search
    // worker per core), kept across calls like a service's planner is.
    let generator = Generator::builder().build();
    let time_search = |reps: usize, search: &dyn Fn() -> qce_strategy::Generated| {
        search();
        ns_per_call(reps, 1, || {
            black_box(search());
        }) / 1e6
    };
    let exhaustive6 = || {
        generator
            .exhaustive(&env6, &ids6, &req6)
            .expect("probe search succeeds")
    };
    out.push((
        "strategy.generate.exhaustive_m5_ms",
        time_search(15, &|| {
            generator
                .exhaustive(&env5, &ids5, &req5)
                .expect("probe search succeeds")
        }),
    ));
    out.push((
        "strategy.generate.exhaustive_m6_ms",
        time_search(5, &exhaustive6),
    ));
    let winner6 = exhaustive6();
    out.push((
        "strategy.generate.candidates_evaluated",
        winner6.evaluated as f64,
    ));
    out.push((
        "strategy.generate.pruned_share",
        winner6.report.candidates_pruned as f64 / (winner6.evaluated.max(1)) as f64,
    ));
    let beam = || {
        generator
            .generate_with(BackendChoice::Beam(4), &env8, &ids8, &req8)
            .expect("probe search succeeds")
    };
    let greedy = || {
        generator
            .generate_with(BackendChoice::Greedy, &env10, &ids10, &req10)
            .expect("probe search succeeds")
    };
    out.push(("strategy.generate.beam4_m8_ms", time_search(5, &beam)));
    out.push(("strategy.generate.greedy_m10_ms", time_search(5, &greedy)));

    // How much of the four searches' estimation traffic the memo serves.
    let memo = Arc::new(Algorithm1::new());
    let memoizing = Generator::builder()
        .estimator(Arc::clone(&memo) as Arc<dyn Estimator>)
        .build();
    let _ = memoizing.exhaustive(&env5, &ids5, &req5);
    let _ = memoizing.exhaustive(&env6, &ids6, &req6);
    let _ = memoizing.generate_with(BackendChoice::Beam(4), &env8, &ids8, &req8);
    let _ = memoizing.generate_with(BackendChoice::Greedy, &env10, &ids10, &req10);
    let (hits, misses) = memo.cache_stats();
    out.push((
        "strategy.estimate.memo_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    ));

    let cached = Generator::builder()
        .plan_cache(Arc::new(PlanCache::new(PlanCacheConfig::default())))
        .build();
    let _ = cached.exhaustive(&env5, &ids5, &req5);
    out.push((
        "strategy.plan_cache.hit_ns",
        ns_per_call(5, 2_000, || {
            black_box(cached.exhaustive(&env5, &ids5, &req5).ok());
        }),
    ));
    out
}

/// `runtime.clock`, `runtime.telemetry`, `runtime.collector`,
/// `runtime.market`, `runtime.fleet` (router) and `runtime.engine`: the
/// parts that need no workload rig.
pub fn runtime_standalone(service_ids: &[String]) -> Vec<Reading> {
    let mut out = Vec::new();

    let virtual_clock = VirtualClock::new();
    {
        let _worker = WorkerGuard::enter(&virtual_clock);
        out.push((
            "runtime.clock.virtual_sleep_ns",
            ns_per_call(5, 50_000, || virtual_clock.sleep(Duration::from_micros(1))),
        ));
    }
    out.push((
        "runtime.clock.virtual_now_ns",
        ns_per_call(5, 200_000, || {
            black_box(virtual_clock.now());
        }),
    ));
    let wall_clock = WallClock::new();
    out.push((
        "runtime.clock.wall_now_ns",
        ns_per_call(5, 200_000, || {
            black_box(wall_clock.now());
        }),
    ));

    let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
    let telemetry = Telemetry::new(Arc::clone(&clock), 1024);
    out.push((
        "runtime.telemetry.record_request_ns",
        ns_per_call(5, 100_000, || {
            telemetry.record_request(
                "svc-00",
                QosClass::Interactive,
                true,
                Duration::from_millis(3),
                10.0,
                false,
                None,
            );
        }),
    ));
    let collector = Collector::new(100);
    let record = ExecutionRecord {
        success: true,
        latency: Duration::from_millis(3),
        cost: 10.0,
    };
    out.push((
        "runtime.collector.record_ns",
        ns_per_call(5, 100_000, || collector.record("dev-0-0/cap-0-a", record)),
    ));

    let backend = InMemoryMarket::new();
    let script = probe_script("svc-00", 1);
    backend.publish(script).expect("probe script is valid");
    let ttl = TtlMarket::new(
        Arc::new(backend) as Arc<dyn Market>,
        Duration::from_secs(3600),
        Arc::clone(&clock),
    );
    let _ = ttl.fetch("svc-00");
    out.push((
        "runtime.market.ttl_hit_ns",
        ns_per_call(5, 50_000, || {
            black_box(ttl.fetch("svc-00").ok());
        }),
    ));

    let mut router = ServiceRouter::new(64);
    for shard in 0..4 {
        router.add_shard(shard);
    }
    out.push((
        "runtime.fleet.route_ns",
        ns_per_call(5, 2_000, || {
            for service in service_ids {
                black_box(router.route(service));
            }
        }) / service_ids.len().max(1) as f64,
    ));

    out.extend(engine_probes());
    out
}

fn probe_script(service_id: &str, microservices: usize) -> ServiceScript {
    let specs = (0..microservices)
        .map(|m| {
            let name = char::from(b'a' + m as u8).to_string();
            MsSpec {
                capability: format!("probe-{name}"),
                name,
                prior: Qos::new(10.0, 1.0, 0.9).expect("valid prior"),
            }
        })
        .collect();
    let mut script = ServiceScript::new(
        service_id,
        specs,
        Requirements::new(1000.0, 1000.0, 0.5).expect("valid requirements"),
    );
    script.slot_size = 1 << 30;
    script
}

fn engine_probes() -> Vec<Reading> {
    let mut out = Vec::new();
    let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
    let device = |name: &str, reliability: f64| -> Arc<dyn Provider> {
        SimulatedProvider::builder(format!("probe/{name}"), name)
            .latency(Duration::from_millis(2))
            .reliability(reliability)
            .clock(Arc::clone(&clock))
            .build()
    };
    let request = Invocation::new(1, "probe", Vec::new());
    let budget = Budget::unlimited();
    let execute = |text: &str, providers: &[Arc<dyn Provider>]| {
        let strategy = Strategy::parse(text).expect("probe strategy parses");
        ns_per_call(5, 5_000, || {
            black_box(
                qce_runtime::engine::execute_scoped(
                    &strategy,
                    providers,
                    &request,
                    None,
                    clock.as_ref(),
                    None,
                    &budget,
                    CompletionPolicy::FirstSuccess,
                )
                .ok(),
            );
        })
    };
    // Fail-over through two dead legs, so all three run.
    let failing = [device("a", 0.0), device("b", 0.0), device("c", 1.0)];
    out.push(("runtime.engine.execute_seq3_ns", execute("a-b-c", &failing)));
    let healthy = [device("a", 1.0), device("b", 1.0), device("c", 1.0)];
    out.push(("runtime.engine.execute_par3_ns", execute("a*b*c", &healthy)));

    // An opaque leg cannot be turned into a timer: it runs on the engine's
    // worker pool and the client waits for the hand-off both ways.
    let wall: Arc<dyn Clock> = Arc::new(WallClock::new());
    let market = InMemoryMarket::new();
    market
        .publish(probe_script("opaque", 1))
        .expect("probe script is valid");
    let gateway = Gateway::with_clock(
        Box::new(market),
        GatewayConfig::default(),
        Arc::clone(&wall),
    );
    gateway
        .registry()
        .register(FnProvider::new("probe/opaque", "probe-a", 1.0, |_| {
            Ok(Vec::new())
        }));
    let mut latencies: Vec<u64> = (0..2_000)
        .map(|_| {
            let start = Instant::now();
            black_box(gateway.submit(Request::new("opaque")).ok());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    out.push((
        "runtime.engine.opaque_leg_us",
        percentile(&mut latencies, 50.0).unwrap_or(0) as f64 / 1e3,
    ));

    // A timed 1 ms leg on the wall clock: what the gateway's own clock
    // reports beyond the nominal millisecond.
    let market = InMemoryMarket::new();
    market
        .publish(probe_script("timer", 1))
        .expect("probe script is valid");
    let gateway = Gateway::with_clock(
        Box::new(market),
        GatewayConfig::default(),
        Arc::clone(&wall),
    );
    gateway.registry().register(
        SimulatedProvider::builder("probe/timer", "probe-a")
            .latency(Duration::from_millis(1))
            .clock(Arc::clone(&wall))
            .build(),
    );
    let mut overshoot: Vec<u64> = (0..100)
        .filter_map(|_| gateway.submit(Request::new("timer")).ok())
        .map(|response| {
            response
                .latency
                .saturating_sub(Duration::from_millis(1))
                .as_nanos() as u64
        })
        .collect();
    out.push((
        "runtime.clock.wall_timer_overshoot_us",
        percentile(&mut overshoot, 50.0).unwrap_or(0) as f64 / 1e3,
    ));
    out
}

/// Probes on the workload's own rig after its traced phase: the planner
/// on its largest service, the collector and registry as the run left
/// them, and a telemetry snapshot.
pub fn on_rig(session: &Session) -> Vec<Reading> {
    let mut out = Vec::new();
    let rig = &session.rig;
    let gateways = rig.front.gateways();
    // The first of the services with the most microservices.
    let script = rig
        .scripts
        .iter()
        .rev()
        .max_by_key(|s| s.microservices.len())
        .expect("a rig has services");
    let gateway = &gateways[rig.shard_of(&script.service_id) as usize];
    let providers = rig.providers_of(script);
    let collector = gateway.collector();

    let plan = |planner: &Planner| {
        black_box(
            planner
                .plan_slot(script, &providers, collector, 1, None)
                .ok(),
        );
    };
    let cached = Planner::new(
        script,
        &SynthesisSettings {
            plan_cache: true,
            ..SynthesisSettings::default()
        },
    )
    .expect("workload script is valid");
    plan(&cached);
    out.push((
        "runtime.generator.plan_slot_hit_ns",
        ns_per_call(5, 1_000, || plan(&cached)),
    ));
    let uncached =
        Planner::new(script, &SynthesisSettings::default()).expect("workload script is valid");
    plan(&uncached);
    // Enough calls for a stable median whether a search takes 20 µs
    // (three microservices) or over 10 ms (six).
    let start = Instant::now();
    plan(&uncached);
    let iters = (20_000_000 / start.elapsed().as_nanos().max(1) as usize).clamp(1, 500);
    out.push((
        "runtime.generator.plan_slot_miss_ms",
        ns_per_call(5, iters, || plan(&uncached)) / 1e6,
    ));

    let spec = &script.microservices[0];
    let provider_id = providers[0].id().to_string();
    out.push((
        "runtime.collector.qos_or_prior_ns",
        ns_per_call(5, 50_000, || {
            black_box(collector.qos_or_prior(&provider_id, &spec.prior));
        }),
    ));
    let utility = UtilityIndex::default();
    out.push((
        "runtime.registry.best_provider_ns",
        ns_per_call(5, 50_000, || {
            black_box(
                gateway
                    .registry()
                    .best_provider(
                        &spec.capability,
                        &spec.prior,
                        collector,
                        utility,
                        &script.requirements,
                    )
                    .ok(),
            );
        }),
    ));

    out.push((
        "runtime.telemetry.snapshot_ms",
        ns_per_call(5, 1, || {
            black_box(gateway.telemetry().snapshot());
        }) / 1e6,
    ));
    out
}
