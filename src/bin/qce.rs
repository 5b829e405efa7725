//! `qce` — command-line front end for the strategy algebra.
//!
//! ```text
//! qce <command> [options]
//!
//! commands:
//!   estimate <expr>    estimate the QoS of a strategy expression
//!   generate           synthesize the best strategy for the environment
//!   enumerate          list/count all strategies for the environment
//!   simulate <expr>    Monte-Carlo-execute a strategy in virtual time
//!   pareto             print the Pareto-optimal strategies
//!   run                drive the full gateway feedback loop in virtual time
//!   stats              like run, then print the telemetry snapshot as JSON
//!   ctl <action> <service> <value>
//!                      like run, but apply a live override halfway
//!                      through: set-class CLASS, set-deadline MS|none, or
//!                      set-requirement COST,LATENCY_MS,RELIABILITY; prints
//!                      the override event and the per-class breakdown
//!
//! With `--scenario FILE`, `run` and `stats` replay an adversarial
//! scenario JSON file (load curves, correlated failure storms, device
//! churn — see the `qce::runtime::scenario` module) instead of the
//! `--ms`-built service, reporting per-slot satisfaction, shed rate, p99
//! latency, and post-storm adaptation lag.
//!
//! options:
//!   --ms c,l,r        add a microservice with cost, latency, reliability%
//!                     (repeatable; first is `a`, second `b`, …)
//!   --require c,l,r   QoS requirements (default 100,100,97)
//!   --k K             utility penalty factor (default 2)
//!   --method M        exhaustive | approximation | failover | parallel |
//!                     auto (default auto: the threshold rule)
//!   --planner P       search backend: threshold | exhaustive | greedy |
//!                     beam:W. For `generate` it supersedes --method; for
//!                     run/stats it picks the gateway's per-slot backend
//!   --replan-on-drift run/stats: re-plan a slot boundary only when the
//!                     observed QoS has drifted outside the plan's
//!                     quantization band (--quantize); the default
//!                     re-plans every boundary (fixed cadence)
//!   --parallelism N   generate: search worker threads (0 = auto, default)
//!   --no-pruning      generate: disable branch-and-bound pruning
//!   --runs N          simulate: executions (at least 1, default 10000)
//!   --seed N          simulate/run/stats: RNG seed (default 42)
//!   --top N           enumerate/pareto: rows to print (default 10)
//!   --invocations N   run/stats: service requests to issue (default 20)
//!   --slot-size N     run/stats: requests per time slot (default 5)
//!   --quorum Q        run/stats: require Q agreeing results (§VII)
//!   --plan-cache      run/stats: cache winning plans per quantized
//!                     environment
//!   --quantize Q      run/stats: plan-cache key quantization step for
//!                     observed QoS values (default 0 = exact match)
//!   --max-in-flight N run/stats: concurrent requests per service
//!                     (default 0 = unlimited); extras queue, then shed
//!   --shards N        run: drive a consistent-hash fleet of N gateway
//!                     shards (shared market and clock; each shard plans
//!                     and caches its own services) instead of a single
//!                     gateway, and print the fleet stats
//!   --deadline-ms D   run/stats: per-request deadline in virtual
//!                     milliseconds; strategy legs not yet started when it
//!                     passes are pruned
//!   --trace           run: stream telemetry events as JSON lines
//!   --scenario FILE   run/stats: replay a scenario JSON file instead of
//!                     the --ms service (ignores the other run options)
//!
//! examples:
//!   qce estimate 'c*(a*b-d*e)' --ms 50,50,60 --ms 100,100,60 \
//!       --ms 150,150,70 --ms 200,200,70 --ms 250,250,80
//!   qce generate --ms 50,50,60 --ms 100,100,60 --ms 150,150,70
//!   qce run --ms 50,5,90 --ms 50,8,90 --trace
//!   qce stats --ms 50,5,90 --ms 50,8,90 --invocations 30
//! ```

use std::num::NonZeroU32;
use std::process::ExitCode;
use std::time::Duration;

use std::sync::Arc;

use qce::runtime::{
    Clock, EventKind, FleetConfig, GatewayConfig, GatewayFleet, Harness, InMemoryMarket, MsSpec,
    QosClass, Request, ServiceScript, SimulatedProvider, SimulatedProviderBuilder, VirtualClock,
};
use qce::sim::{simulate, Environment};
use qce::strategy::enumerate::paper;
use qce::strategy::estimate::{estimate, estimate_folding};
use qce::strategy::pareto::pareto_front;
use qce::strategy::{
    BackendChoice, EnvQos, Generator, IdSet, Requirements, Strategy, StrategyIter, UtilityIndex,
};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[derive(Debug, Clone)]
struct Options {
    triples: Vec<(f64, f64, f64)>,
    require: (f64, f64, f64),
    k: f64,
    method: String,
    planner: Option<String>,
    replan_on_drift: bool,
    parallelism: usize,
    pruning: bool,
    runs: NonZeroU32,
    seed: u64,
    top: usize,
    invocations: u32,
    slot_size: u32,
    quorum: Option<usize>,
    plan_cache: bool,
    quantize: f64,
    max_in_flight: usize,
    deadline_ms: Option<u64>,
    shards: usize,
    trace: bool,
    scenario: Option<String>,
    ctl_args: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            triples: Vec::new(),
            require: (100.0, 100.0, 97.0),
            k: 2.0,
            method: "auto".to_string(),
            planner: None,
            replan_on_drift: false,
            parallelism: 0,
            pruning: true,
            runs: NonZeroU32::new(10_000).expect("a positive literal"),
            seed: 42,
            top: 10,
            invocations: 20,
            slot_size: 5,
            quorum: None,
            plan_cache: false,
            quantize: 0.0,
            max_in_flight: 0,
            deadline_ms: None,
            shards: 0,
            trace: false,
            scenario: None,
            ctl_args: Vec::new(),
        }
    }
}

fn parse_triple(text: &str) -> Result<(f64, f64, f64), String> {
    let parts: Vec<&str> = text.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("expected cost,latency,reliability%, got {text:?}"));
    }
    let parse =
        |p: &str| -> Result<f64, String> { p.trim().parse().map_err(|e| format!("{p:?}: {e}")) };
    Ok((parse(parts[0])?, parse(parts[1])?, parse(parts[2])?))
}

fn parse_args(args: &[String]) -> Result<(String, Option<String>, Options), String> {
    let mut command = None;
    let mut expr = None;
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match arg.as_str() {
            "--ms" => options.triples.push(parse_triple(&value("--ms")?)?),
            "--require" => options.require = parse_triple(&value("--require")?)?,
            "--k" => options.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--method" => options.method = value("--method")?,
            "--planner" => options.planner = Some(value("--planner")?),
            "--replan-on-drift" => options.replan_on_drift = true,
            "--parallelism" => {
                options.parallelism = value("--parallelism")?
                    .parse()
                    .map_err(|e| format!("--parallelism: {e}"))?
            }
            "--no-pruning" => options.pruning = false,
            "--runs" => {
                options.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--top" => options.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            "--invocations" => {
                options.invocations = value("--invocations")?
                    .parse()
                    .map_err(|e| format!("--invocations: {e}"))?
            }
            "--slot-size" => {
                options.slot_size = value("--slot-size")?
                    .parse()
                    .map_err(|e| format!("--slot-size: {e}"))?
            }
            "--quorum" => {
                options.quorum = Some(
                    value("--quorum")?
                        .parse()
                        .map_err(|e| format!("--quorum: {e}"))?,
                )
            }
            "--plan-cache" => options.plan_cache = true,
            "--quantize" => {
                options.quantize = value("--quantize")?
                    .parse()
                    .map_err(|e| format!("--quantize: {e}"))?
            }
            "--max-in-flight" => {
                options.max_in_flight = value("--max-in-flight")?
                    .parse()
                    .map_err(|e| format!("--max-in-flight: {e}"))?
            }
            "--deadline-ms" => {
                options.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--shards" => {
                options.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--trace" => options.trace = true,
            "--scenario" => options.scenario = Some(value("--scenario")?),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            positional if command.is_none() => command = Some(positional.to_string()),
            positional if expr.is_none() => expr = Some(positional.to_string()),
            // `ctl` takes extra positionals: SERVICE VALUE after the action.
            extra if command.as_deref() == Some("ctl") => {
                options.ctl_args.push(extra.to_string());
            }
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let command = command.ok_or("no command given; try `qce generate --ms 50,50,60 …`")?;
    Ok((command, expr, options))
}

fn build_env(options: &Options) -> Result<EnvQos, String> {
    if options.triples.is_empty() {
        return Err("no microservices; pass at least one --ms cost,latency,reliability%".into());
    }
    let triples: Vec<(f64, f64, f64)> = options
        .triples
        .iter()
        .map(|&(c, l, r)| (c, l, r / 100.0))
        .collect();
    EnvQos::from_triples(&triples).map_err(|e| e.to_string())
}

/// `F(M)` over every microservice of `env`.
fn every_strategy(env: &EnvQos) -> Result<StrategyIter, String> {
    IdSet::new(&env.ids())
        .and_then(StrategyIter::over)
        .map_err(|e| e.to_string())
}

fn requirements(options: &Options) -> Result<Requirements, String> {
    let (c, l, r) = options.require;
    Requirements::new(c, l, r / 100.0).map_err(|e| e.to_string())
}

/// The search backend requested with `--planner` ([`BackendChoice::Threshold`]
/// — the paper's Algorithm 2 rule — when the flag is absent).
fn planner_choice(options: &Options) -> Result<BackendChoice, String> {
    options
        .planner
        .as_deref()
        .map_or(Ok(BackendChoice::Threshold), |planner| {
            planner.parse().map_err(|e| format!("--planner: {e}"))
        })
}

/// The name the i-th `--ms` microservice gets in scripts and strategy
/// text: `a`, `b`, … like the strategy algebra's own rendering.
fn ms_name(index: usize) -> String {
    if index < 26 {
        char::from(b'a' + index as u8).to_string()
    } else {
        format!("m{index}")
    }
}

/// The validated `run`/`stats`/`ctl` inputs: the one gateway service
/// (`cli-service`, its i-th microservice named [`ms_name`]`(i)` on
/// capability `cap{i}`) and the gateway configuration the flags ask for.
fn service_setup(options: &Options) -> Result<(ServiceScript, GatewayConfig), String> {
    if options.triples.is_empty() {
        return Err("no microservices; pass at least one --ms cost,latency,reliability%".into());
    }
    if options.slot_size == 0 {
        return Err("--slot-size must be at least 1".into());
    }
    if !options.quantize.is_finite() || options.quantize < 0.0 {
        return Err("--quantize must be a finite value >= 0".into());
    }
    if options.deadline_ms == Some(0) {
        return Err("--deadline-ms must be at least 1".into());
    }
    let requirements = requirements(options)?;
    let mut specs = Vec::new();
    for (i, &(cost, latency, reliability)) in options.triples.iter().enumerate() {
        specs.push(MsSpec {
            name: ms_name(i),
            capability: format!("cap{i}"),
            prior: qce::strategy::Qos::new(cost, latency, reliability / 100.0)
                .map_err(|e| format!("--ms #{}: {e}", i + 1))?,
        });
    }
    let mut script = ServiceScript::new("cli-service", specs, requirements);
    script.penalty_k = options.k;
    script.slot_size = options.slot_size;
    script.quorum = options.quorum;
    script.validate().map_err(|e| e.to_string())?;
    let config = GatewayConfig::builder()
        .plan_cache(options.plan_cache)
        .plan_quantize(options.quantize)
        .planner(planner_choice(options)?)
        .replan_on_drift(options.replan_on_drift)
        .max_in_flight(options.max_in_flight)
        .request_deadline(options.deadline_ms.map(Duration::from_millis))
        .build();
    Ok((script, config))
}

/// The simulated device hosting the i-th `--ms` microservice, with exactly
/// the advertised cost/latency/reliability.
fn device(options: &Options, i: usize) -> SimulatedProviderBuilder {
    let (cost, latency, reliability) = options.triples[i];
    SimulatedProvider::builder(format!("dev{i}/cap{i}"), format!("cap{i}"))
        .cost(cost)
        .latency(Duration::from_secs_f64(latency / 1e3))
        .reliability(reliability / 100.0)
        .seed(options.seed.wrapping_add(i as u64))
}

/// Builds the `run`/`stats` scenario: [`service_setup`]'s service, each
/// microservice hosted by its [`device`], all wired to a shared virtual
/// clock by [`Harness`].
fn build_harness(options: &Options) -> Result<Harness, String> {
    let (script, config) = service_setup(options)?;
    let mut builder = Harness::builder();
    for i in 0..options.triples.len() {
        builder = builder.provider(device(options, i));
    }
    Ok(builder.config(config).script(script).build())
}

/// Drives `--invocations` requests through the harness gateway; with
/// `trace`, every telemetry event is streamed to stdout as one JSON line.
fn drive_gateway(options: &Options, trace: bool) -> Result<(Harness, u32), String> {
    let harness = build_harness(options)?;
    if trace {
        harness.telemetry().set_sink(|event| {
            println!(
                "{}",
                serde_json::to_string(event).expect("telemetry events serialize")
            );
        });
    }
    let mut successes = 0;
    for _ in 0..options.invocations {
        let response = harness.invoke("cli-service").map_err(|e| e.to_string())?;
        if response.success {
            successes += 1;
        }
    }
    if trace {
        harness.telemetry().clear_sink();
    }
    Ok((harness, successes))
}

/// `run --shards N`: the same `cli-service` behind a consistent-hash
/// [`GatewayFleet`] of `N` gateway shards on a shared virtual clock —
/// one shard owns the service's feedback loop (and, with `--plan-cache`,
/// its plan cache), every shard shares the market. Prints the served
/// count, the plan-cache gauges summed over the shards' telemetry, and
/// `GatewayFleet::stats()`.
fn run_fleet(options: &Options) -> Result<(), String> {
    if options.trace {
        return Err("--trace is not supported with --shards".into());
    }
    let (script, gateway) = service_setup(options)?;
    let market = InMemoryMarket::new();
    market.publish(script).map_err(|e| e.to_string())?;
    let clock = Arc::new(VirtualClock::new());
    let fleet = GatewayFleet::with_clock(
        Arc::new(market),
        FleetConfig::default()
            .shards(options.shards)
            .gateway(gateway),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    for i in 0..options.triples.len() {
        fleet.register(
            device(options, i)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }

    let mut successes = 0u32;
    for _ in 0..options.invocations {
        let response = fleet
            .submit(Request::new("cli-service"))
            .map_err(|e| e.to_string())?;
        if response.success {
            successes += 1;
        }
    }
    let owner = fleet.route("cli-service").ok_or("fleet has no shards")?;
    let stats = fleet.stats();
    println!(
        "served   : {successes}/{} requests on shard {owner} of {} ({} virtual ms)",
        options.invocations,
        stats.shards,
        clock.now().as_millis()
    );
    let (mut hits, mut misses, mut stale) = (0u64, 0u64, 0u64);
    for shard in fleet.shards() {
        for service in &shard.gateway().telemetry().snapshot().services {
            hits += service.plan_cache_hits;
            misses += service.plan_cache_misses;
            stale += service.plan_cache_stale;
        }
    }
    println!(
        "plans    : {hits} hit(s), {misses} miss(es), {stale} stale across {} shard(s)",
        stats.shards
    );
    println!(
        "scripts  : {} cache hit(s), {} fetch(es), {} expired across the shard fronts",
        stats.market.hits, stats.market.misses, stats.market.expired
    );
    for shard in &stats.per_shard {
        println!(
            "shard {:<4}: in_flight {}, frames {}, script fetches {}",
            shard.id, shard.in_flight, shard.frames_live, shard.market.misses
        );
    }
    Ok(())
}

/// Loads and replays a `--scenario FILE` on virtual time.
fn replay_scenario(path: &str) -> Result<qce::runtime::scenario::ScenarioRun, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read scenario {path}: {e}"))?;
    let scenario = qce::runtime::scenario::Scenario::from_json(&text).map_err(|e| e.to_string())?;
    qce::runtime::scenario::run_scenario(&scenario).map_err(|e| e.to_string())
}

/// Prints the per-slot QoS-consistency table of a scenario replay.
fn print_scenario_outcome(outcome: &qce::runtime::scenario::ScenarioOutcome) {
    println!(
        "scenario : {} ({} requests, satisfaction {:.1}%, shed {:.1}%)",
        outcome.name,
        outcome.total_requests,
        outcome.satisfaction_rate() * 100.0,
        outcome.shed_rate() * 100.0
    );
    println!("slot  requests  satisfied  shed  failed  satisfaction  p99_ms  storm");
    for m in &outcome.per_slot {
        println!(
            "{:<4}  {:<8}  {:<9}  {:<4}  {:<6}  {:<12.4}  {:<6.3}  {}",
            m.slot,
            m.requests,
            m.satisfied,
            m.shed,
            m.failed,
            m.satisfaction_rate,
            m.p99_latency_ms,
            outcome.is_storm_slot(m.slot)
        );
    }
    for (storm, lag) in outcome.adaptation_lags(0.8) {
        match lag {
            Some(lag) => println!("storm    : {storm} — recovered to 0.8 within {lag} slot(s)"),
            None => println!("storm    : {storm} — satisfaction never recovered to 0.8"),
        }
    }
}

fn run(command: &str, expr: Option<&str>, options: &Options) -> Result<(), String> {
    match command {
        "estimate" => {
            let env = build_env(options)?;
            let text = expr.ok_or("estimate needs a strategy expression")?;
            let strategy = Strategy::parse(text).map_err(|e| e.to_string())?;
            let qos = estimate(&strategy, &env).map_err(|e| e.to_string())?;
            let folded = estimate_folding(&strategy, &env).map_err(|e| e.to_string())?;
            let req = requirements(options)?;
            let ui = UtilityIndex::new(options.k).map_err(|e| e.to_string())?;
            println!("strategy    : {strategy}");
            println!("Algorithm 1 : {qos}");
            println!("folding [15]: {folded}");
            println!("utility     : {:+.3} against {req}", ui.utility(&qos, &req));
            Ok(())
        }
        "generate" => {
            let env = build_env(options)?;
            let req = requirements(options)?;
            let ui = UtilityIndex::new(options.k).map_err(|e| e.to_string())?;
            let generator = Generator::builder()
                .utility(ui)
                .parallelism(options.parallelism)
                .pruning(options.pruning)
                .build();
            let ids = env.ids();
            // --planner routes through the pluggable backend pipeline and
            // supersedes --method; without it the historical method names
            // dispatch as before.
            let generated = if options.planner.is_some() {
                generator.generate_with(planner_choice(options)?, &env, &ids, &req)
            } else {
                match options.method.as_str() {
                    "auto" => generator.generate(&env, &ids, &req),
                    "exhaustive" => generator.exhaustive(&env, &ids, &req),
                    "approximation" => generator.approximation(&env, &ids, &req),
                    "failover" => generator.failover(&env, &ids, &req),
                    "parallel" => generator.speculative_parallel(&env, &ids, &req),
                    other => return Err(format!("unknown method {other:?}")),
                }
            }
            .map_err(|e| e.to_string())?;
            println!("{generated}");
            let report = generated.report;
            println!(
                "search   : {} estimated + {} pruned of {} candidates in {:.3} ms",
                report.candidates_seen,
                report.candidates_pruned,
                generated.evaluated,
                report.elapsed.as_secs_f64() * 1e3
            );
            let violations = req.violations(&generated.qos);
            if violations.is_empty() {
                println!("satisfies every requirement of {req}");
            } else {
                println!(
                    "advisory: misses {} requirement(s) of {req}: {}",
                    violations.len(),
                    violations
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
            Ok(())
        }
        "enumerate" => {
            let env = build_env(options)?;
            let m = env.len();
            if m > 6 {
                return Err(
                    "enumerate materializes all strategies; at most 6 microservices".into(),
                );
            }
            let space = every_strategy(&env)?;
            let table1 = paper::count_table1(m).ok_or("Table I counts stop at 20 microservices")?;
            println!(
                "{} semantically distinct strategies over {m} microservices \
                 (the paper's Table I counts {table1})",
                space.remaining()
            );
            let req = requirements(options)?;
            let ui = UtilityIndex::new(options.k).map_err(|e| e.to_string())?;
            let mut scored: Vec<(Strategy, f64)> = space
                .map(|s| {
                    let qos = estimate(&s, &env).expect("environment covers ids");
                    let u = ui.utility(&qos, &req);
                    (s, u)
                })
                .collect();
            scored.sort_by(|(_, a), (_, b)| b.partial_cmp(a).expect("finite"));
            println!("top {} by utility:", options.top.min(scored.len()));
            for (s, u) in scored.iter().take(options.top) {
                println!("  U={u:+.3}  {s}");
            }
            Ok(())
        }
        "simulate" => {
            let env = build_env(options)?;
            let text = expr.ok_or("simulate needs a strategy expression")?;
            let strategy = Strategy::parse(text).map_err(|e| e.to_string())?;
            let triples: Vec<(f64, f64, f64)> = options
                .triples
                .iter()
                .map(|&(c, l, r)| (c, l, r / 100.0))
                .collect();
            let sim_env = Environment::from_triples(&triples).map_err(|e| e.to_string())?;
            let estimated = estimate(&strategy, &env).map_err(|e| e.to_string())?;
            let mut rng = ChaCha8Rng::seed_from_u64(options.seed);
            let stats =
                simulate(&strategy, &sim_env, options.runs, &mut rng).map_err(|e| e.to_string())?;
            println!(
                "strategy : {strategy}  ({} virtual executions)",
                options.runs
            );
            println!("estimated: {estimated}");
            println!(
                "measured : [cost={:.1}, latency={:.1}, reliability={:.1}%] \
                 (σ_latency={:.1})",
                stats.mean_cost,
                stats.mean_latency,
                stats.success_rate * 100.0,
                stats.std_latency
            );
            Ok(())
        }
        "pareto" => {
            let env = build_env(options)?;
            if env.len() > 6 {
                return Err("pareto materializes all strategies; at most 6 microservices".into());
            }
            let scored: Vec<(Strategy, qce::strategy::Qos)> = every_strategy(&env)?
                .map(|s| {
                    let qos = estimate(&s, &env).expect("environment covers ids");
                    (s, qos)
                })
                .collect();
            let total = scored.len();
            let mut front = pareto_front(scored, |(_, q)| *q);
            front.sort_by(|(_, a), (_, b)| a.cost.partial_cmp(&b.cost).expect("finite"));
            println!("{} Pareto-optimal strategies of {total}:", front.len());
            for (s, q) in front.iter().take(options.top) {
                println!("  {s:<22} {q}");
            }
            if front.len() > options.top {
                println!("  … and {} more (raise --top)", front.len() - options.top);
            }
            Ok(())
        }
        "run" => {
            if options.shards > 0 {
                if options.scenario.is_some() {
                    return Err("--shards and --scenario are mutually exclusive".into());
                }
                return run_fleet(options);
            }
            if let Some(path) = &options.scenario {
                let run = replay_scenario(path)?;
                print_scenario_outcome(&run.outcome);
                return Ok(());
            }
            let (harness, successes) = drive_gateway(options, options.trace)?;
            let snapshot = harness.telemetry().snapshot();
            let service = snapshot
                .service("cli-service")
                .ok_or("no requests were recorded")?;
            println!(
                "served   : {successes}/{} requests over {} slot(s) of {} \
                 ({} virtual ms)",
                options.invocations,
                harness.gateway().slot_history("cli-service").len(),
                options.slot_size,
                harness.clock().now().as_millis()
            );
            println!(
                "planning : {} re-plan(s), {} strategy switch(es), \
                 {} candidate(s) searched",
                service.replans, service.strategy_switches, service.candidates_seen
            );
            if options.plan_cache {
                println!(
                    "caching  : {} cold / {} cached plan(s); \
                     {} hit(s), {} miss(es), {} stale",
                    service.plans_cold,
                    service.plans_cached,
                    service.plan_cache_hits,
                    service.plan_cache_misses,
                    service.plan_cache_stale
                );
            }
            if let Some(strategy) = harness.gateway().current_strategy("cli-service") {
                println!("strategy : {strategy}");
            }
            Ok(())
        }
        "stats" => {
            if let Some(path) = &options.scenario {
                let run = replay_scenario(path)?;
                print_scenario_outcome(&run.outcome);
                let snapshot = run.harness.telemetry().snapshot();
                println!(
                    "{}",
                    serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?
                );
                return Ok(());
            }
            let (harness, _) = drive_gateway(options, false)?;
            let snapshot = harness.telemetry().snapshot();
            println!(
                "{}",
                serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        "ctl" => {
            let action =
                expr.ok_or("ctl expects an action: set-class, set-deadline or set-requirement")?;
            let (service, value) = match options.ctl_args.as_slice() {
                [service, value] => (service.clone(), value.clone()),
                _ => return Err(format!("ctl {action} expects SERVICE VALUE")),
            };
            // Parse the override up front so a bad value fails before the
            // run starts, not halfway through it.
            enum Override {
                Class(QosClass),
                Deadline(Option<Duration>),
                Requirement(Requirements),
            }
            let along = match action {
                "set-class" => Override::Class(value.parse()?),
                "set-deadline" => Override::Deadline(if value == "none" {
                    None
                } else {
                    let ms: u64 = value.parse().map_err(|e| format!("set-deadline: {e}"))?;
                    Some(Duration::from_millis(ms))
                }),
                "set-requirement" => {
                    Override::Requirement(value.parse().map_err(|e| format!("{e}"))?)
                }
                other => {
                    return Err(format!(
                        "unknown ctl action {other:?}; try set-class, set-deadline \
                         or set-requirement"
                    ))
                }
            };
            // Drive the same gateway as `run`, applying the override live
            // at the halfway mark — mid-slot, no re-plan.
            let harness = build_harness(options)?;
            let switch_at = options.invocations / 2;
            let mut successes = 0u32;
            for done in 0..options.invocations {
                if done == switch_at {
                    let control = harness.gateway().control();
                    match &along {
                        Override::Class(class) => control.set_class(&service, *class),
                        Override::Deadline(deadline) => control.set_deadline(&service, *deadline),
                        Override::Requirement(requirement) => {
                            control.set_requirement(&service, *requirement);
                        }
                    }
                }
                let response = harness.invoke("cli-service").map_err(|e| e.to_string())?;
                if response.success {
                    successes += 1;
                }
            }
            for event in harness.telemetry().events() {
                if let EventKind::OverrideApplied {
                    service,
                    field,
                    value,
                } = &event.kind
                {
                    println!("override : {service} {field} = {value}");
                }
            }
            println!("served   : {successes}/{} requests", options.invocations);
            let snapshot = harness.telemetry().snapshot();
            let service = snapshot
                .service("cli-service")
                .ok_or("no requests were recorded")?;
            for class in &service.classes {
                println!(
                    "{:<11}: {} request(s), {} shed, {} queued at peak",
                    class.class.to_string(),
                    class.requests,
                    class.shed,
                    class.queue_peak
                );
            }
            Ok(())
        }
        other => Err(format!(
            "unknown command {other:?}; try estimate, generate, enumerate, \
             simulate, pareto, run, stats, ctl"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((command, expr, options)) => match run(&command, expr.as_deref(), &options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("see `src/bin/qce.rs` header for usage");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parse_triple_accepts_and_rejects() {
        assert_eq!(parse_triple("50,60,70").unwrap(), (50.0, 60.0, 70.0));
        assert_eq!(parse_triple(" 1 , 2 , 3 ").unwrap(), (1.0, 2.0, 3.0));
        assert!(parse_triple("1,2").is_err());
        assert!(parse_triple("1,2,x").is_err());
    }

    #[test]
    fn parse_args_full_command() {
        let (command, expr, options) = parse_args(&args(&[
            "estimate",
            "a-b",
            "--ms",
            "50,50,60",
            "--ms",
            "100,100,60",
            "--k",
            "3",
            "--require",
            "200,90,95",
            "--top",
            "4",
        ]))
        .unwrap();
        assert_eq!(command, "estimate");
        assert_eq!(expr.as_deref(), Some("a-b"));
        assert_eq!(options.triples.len(), 2);
        assert_eq!(options.k, 3.0);
        assert_eq!(options.require, (200.0, 90.0, 95.0));
        assert_eq!(options.top, 4);
    }

    /// Bugfix regression: `simulate --runs 0` reached the Monte-Carlo
    /// runner's zero-run assert and panicked; it is a usage error now.
    #[test]
    fn zero_runs_is_a_usage_error() {
        let argv = [
            "simulate", "a*b", "--ms", "10,5,90", "--ms", "8,6,80", "--runs",
        ];
        let runs = |n: &str| parse_args(&args(&[&argv[..], &[n]].concat()));
        let error = runs("0").expect_err("zero runs");
        assert!(error.starts_with("--runs: "), "{error}");
        let (command, expr, options) = runs("1").unwrap();
        assert_eq!(options.runs.get(), 1);
        assert!(run(&command, expr.as_deref(), &options).is_ok());
    }

    #[test]
    fn parse_args_rejects_garbage() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["generate", "--ms"])).is_err());
        assert!(parse_args(&args(&["generate", "--nope", "1"])).is_err());
        assert!(parse_args(&args(&["estimate", "a", "b", "c"])).is_err());
    }

    #[test]
    fn run_generate_end_to_end() {
        let (_, _, mut options) = parse_args(&args(&[
            "generate",
            "--ms",
            "50,50,60",
            "--ms",
            "100,100,60",
        ]))
        .unwrap();
        assert!(run("generate", None, &options).is_ok());
        assert!(run("enumerate", None, &options).is_ok());
        assert!(run("pareto", None, &options).is_ok());
        assert!(run("estimate", Some("a-b"), &options).is_ok());
        assert!(run("estimate", Some("a-a"), &options).is_err());
        assert!(run("estimate", None, &options).is_err());
        options.runs = NonZeroU32::new(50).unwrap();
        assert!(run("simulate", Some("a*b"), &options).is_ok());
        assert!(run("bogus", None, &options).is_err());
        options.triples.clear();
        assert!(run("generate", None, &options).is_err(), "no microservices");
    }

    #[test]
    fn run_rejects_oversized_enumeration() {
        let options = Options {
            triples: vec![(50.0, 50.0, 60.0); 7],
            ..Options::default()
        };
        assert!(run("enumerate", None, &options).is_err());
        assert!(run("pareto", None, &options).is_err());
    }

    #[test]
    fn parse_args_engine_flags() {
        let (_, _, options) = parse_args(&args(&[
            "generate",
            "--ms",
            "50,50,60",
            "--ms",
            "100,100,60",
            "--parallelism",
            "2",
            "--no-pruning",
        ]))
        .unwrap();
        assert_eq!(options.parallelism, 2);
        assert!(!options.pruning);
        assert!(run("generate", None, &options).is_ok());
        assert!(parse_args(&args(&["generate", "--parallelism", "x"])).is_err());
    }

    #[test]
    fn unknown_method_rejected() {
        let options = Options {
            triples: vec![(50.0, 50.0, 60.0), (60.0, 60.0, 70.0)],
            method: "zigzag".to_string(),
            ..Options::default()
        };
        assert!(run("generate", None, &options).is_err());
    }

    #[test]
    fn parse_args_gateway_flags() {
        let (command, _, options) = parse_args(&args(&[
            "run",
            "--ms",
            "50,5,90",
            "--invocations",
            "12",
            "--slot-size",
            "4",
            "--quorum",
            "2",
            "--trace",
        ]))
        .unwrap();
        assert_eq!(command, "run");
        assert_eq!(options.invocations, 12);
        assert_eq!(options.slot_size, 4);
        assert_eq!(options.quorum, Some(2));
        assert!(options.trace);
        assert!(parse_args(&args(&["run", "--invocations", "x"])).is_err());
        assert!(parse_args(&args(&["run", "--quorum"])).is_err());
    }

    #[test]
    fn parse_args_admission_flags() {
        let (_, _, options) = parse_args(&args(&[
            "run",
            "--ms",
            "50,5,90",
            "--max-in-flight",
            "2",
            "--deadline-ms",
            "25",
        ]))
        .unwrap();
        assert_eq!(options.max_in_flight, 2);
        assert_eq!(options.deadline_ms, Some(25));
        let (_, _, options) = parse_args(&args(&["run", "--ms", "50,5,90"])).unwrap();
        assert_eq!(options.max_in_flight, 0, "unlimited by default");
        assert_eq!(options.deadline_ms, None, "no deadline by default");
        assert!(parse_args(&args(&["run", "--max-in-flight", "x"])).is_err());
        assert!(parse_args(&args(&["run", "--max-in-flight"])).is_err());
        assert!(parse_args(&args(&["run", "--deadline-ms", "1.5"])).is_err());
        assert!(parse_args(&args(&["run", "--deadline-ms"])).is_err());
    }

    #[test]
    fn bounded_gateway_run_still_serves() {
        // With admission bounds and a generous deadline the sequential CLI
        // driver never queues or sheds: the run is identical to unbounded.
        let options = Options {
            triples: vec![(50.0, 5.0, 95.0), (50.0, 8.0, 95.0)],
            require: (200.0, 100.0, 50.0),
            invocations: 12,
            slot_size: 4,
            max_in_flight: 1,
            deadline_ms: Some(1_000),
            ..Options::default()
        };
        let (harness, successes) = drive_gateway(&options, false).unwrap();
        let unbounded = Options {
            max_in_flight: 0,
            deadline_ms: None,
            ..options
        };
        let (_, baseline) = drive_gateway(&unbounded, false).unwrap();
        assert_eq!(successes, baseline);
        let snapshot = harness.telemetry().snapshot();
        let service = snapshot.service("cli-service").unwrap();
        assert_eq!(service.requests_shed, 0);
        assert_eq!(service.deadline_exceeded, 0);
    }

    #[test]
    fn parse_args_planner_flags() {
        let (_, _, options) = parse_args(&args(&[
            "run",
            "--ms",
            "50,5,90",
            "--planner",
            "beam:2",
            "--replan-on-drift",
        ]))
        .unwrap();
        assert_eq!(options.planner.as_deref(), Some("beam:2"));
        assert!(options.replan_on_drift);
        let (_, _, options) = parse_args(&args(&["run", "--ms", "50,5,90"])).unwrap();
        assert_eq!(options.planner, None, "paper threshold rule by default");
        assert!(!options.replan_on_drift, "fixed cadence by default");
        assert!(parse_args(&args(&["run", "--planner"])).is_err());
    }

    #[test]
    fn generate_routes_through_the_planner_backends() {
        let base = Options {
            triples: vec![
                (50.0, 50.0, 60.0),
                (100.0, 100.0, 60.0),
                (150.0, 150.0, 70.0),
            ],
            ..Options::default()
        };
        for planner in ["exhaustive", "greedy", "beam:2", "threshold"] {
            let options = Options {
                planner: Some(planner.into()),
                ..base.clone()
            };
            assert!(
                run("generate", None, &options).is_ok(),
                "--planner {planner}"
            );
        }
        let bogus = Options {
            planner: Some("zigzag".into()),
            ..base.clone()
        };
        assert!(run("generate", None, &bogus).is_err(), "unknown backend");
        let zero_width = Options {
            planner: Some("beam:0".into()),
            ..base.clone()
        };
        assert!(run("generate", None, &zero_width).is_err(), "empty beam");
        let bandit = Options {
            planner: Some("auto".into()),
            ..base.clone()
        };
        assert!(run("generate", None, &bandit).is_err(), "--planner auto");
        assert!(run("run", None, &bandit).is_err(), "--planner auto");
        let hill_climb = Options {
            method: "local-search".into(),
            ..base
        };
        assert!(run("generate", None, &hill_climb).is_err());
    }

    #[test]
    fn drift_run_replans_less_than_cadence() {
        let base = Options {
            triples: vec![(50.0, 5.0, 100.0), (50.0, 8.0, 100.0)],
            require: (200.0, 100.0, 50.0),
            invocations: 20,
            slot_size: 4,
            quantize: 0.25,
            ..Options::default()
        };
        let (cadence, cadence_ok) = drive_gateway(&base, false).unwrap();
        let drifted = Options {
            replan_on_drift: true,
            planner: Some("beam:4".into()),
            ..base.clone()
        };
        let (drift, drift_ok) = drive_gateway(&drifted, false).unwrap();
        assert_eq!(cadence_ok, drift_ok, "reliable devices either way");
        let cadence_snapshot = cadence.telemetry().snapshot();
        let cadence_svc = cadence_snapshot.service("cli-service").unwrap();
        let drift_snapshot = drift.telemetry().snapshot();
        let drift_svc = drift_snapshot.service("cli-service").unwrap();
        assert!(
            drift_svc.replans < cadence_svc.replans,
            "drift mode re-planned {} times, cadence {}",
            drift_svc.replans,
            cadence_svc.replans
        );
        assert!(drift_svc.drift_holds > 0, "stable boundaries were held");
        assert!(run("run", None, &drifted).is_ok(), "prints the run summary");
        let bad = Options {
            planner: Some("zigzag".into()),
            ..base
        };
        assert!(run("run", None, &bad).is_err(), "unknown backend rejected");
    }

    #[test]
    fn parse_args_shards_flag() {
        let (_, _, options) =
            parse_args(&args(&["run", "--ms", "50,5,90", "--shards", "3"])).unwrap();
        assert_eq!(options.shards, 3);
        let (_, _, options) = parse_args(&args(&["run", "--ms", "50,5,90"])).unwrap();
        assert_eq!(options.shards, 0, "single gateway by default");
        assert!(parse_args(&args(&["run", "--shards", "x"])).is_err());
        assert!(parse_args(&args(&["run", "--shards"])).is_err());
    }

    #[test]
    fn fleet_run_serves_and_prints_stats() {
        let options = Options {
            triples: vec![(50.0, 5.0, 95.0), (50.0, 8.0, 95.0)],
            require: (200.0, 100.0, 50.0),
            invocations: 12,
            slot_size: 4,
            shards: 3,
            plan_cache: true,
            ..Options::default()
        };
        assert!(run("run", None, &options).is_ok());
        let conflicted = Options {
            scenario: Some("pack/calm.json".into()),
            ..options.clone()
        };
        assert!(
            run("run", None, &conflicted).is_err(),
            "--shards and --scenario are mutually exclusive"
        );
        let traced = Options {
            trace: true,
            ..options.clone()
        };
        assert!(
            run("run", None, &traced).is_err(),
            "--trace needs one gateway"
        );
        let empty = Options {
            triples: Vec::new(),
            ..options
        };
        assert!(run("run", None, &empty).is_err(), "no microservices");
    }

    #[test]
    fn parse_args_plan_cache_flags() {
        let (_, _, options) = parse_args(&args(&[
            "run",
            "--ms",
            "50,5,90",
            "--plan-cache",
            "--quantize",
            "0.5",
        ]))
        .unwrap();
        assert!(options.plan_cache);
        assert_eq!(options.quantize, 0.5);
        let (_, _, options) = parse_args(&args(&["run", "--ms", "50,5,90"])).unwrap();
        assert!(!options.plan_cache, "caching is opt-in");
        assert_eq!(options.quantize, 0.0);
        assert!(parse_args(&args(&["run", "--quantize", "x"])).is_err());
        assert!(parse_args(&args(&["run", "--quantize"])).is_err());
    }

    #[test]
    fn cached_run_serves_like_a_cold_run() {
        let mut options = Options {
            triples: vec![(50.0, 5.0, 95.0), (50.0, 8.0, 95.0)],
            require: (200.0, 100.0, 50.0),
            invocations: 12,
            slot_size: 4,
            ..Options::default()
        };
        let (cold, cold_ok) = drive_gateway(&options, false).unwrap();
        options.plan_cache = true;
        let (cached, cached_ok) = drive_gateway(&options, false).unwrap();
        assert_eq!(cold_ok, cached_ok, "same virtual run, same outcomes");
        assert_eq!(
            cold.gateway()
                .current_strategy("cli-service")
                .map(|s| s.to_string()),
            cached
                .gateway()
                .current_strategy("cli-service")
                .map(|s| s.to_string()),
        );
        let snapshot = cached.telemetry().snapshot();
        let service = snapshot.service("cli-service").unwrap();
        assert_eq!(
            service.plan_cache_hits + service.plan_cache_misses,
            service.replans - 1,
            "every synthesized plan consults the cache when --plan-cache is \
             on (slot 0 takes the script default without searching)"
        );
        assert!(run("run", None, &options).is_ok(), "prints the cache line");
    }

    #[test]
    fn run_and_stats_drive_the_gateway() {
        let options = Options {
            triples: vec![(50.0, 5.0, 95.0), (50.0, 8.0, 95.0)],
            require: (200.0, 100.0, 50.0),
            invocations: 12,
            slot_size: 4,
            ..Options::default()
        };
        assert!(run("run", None, &options).is_ok());
        assert!(run("stats", None, &options).is_ok());
    }

    #[test]
    fn parse_args_ctl_positionals() {
        let (command, expr, options) =
            parse_args(&args(&["ctl", "set-class", "cli-service", "critical"])).unwrap();
        assert_eq!(command, "ctl");
        assert_eq!(expr.as_deref(), Some("set-class"));
        assert_eq!(options.ctl_args, vec!["cli-service", "critical"]);
        // Only `ctl` accepts extra positionals (see parse_args_rejects_garbage).
    }

    #[test]
    fn ctl_applies_overrides_and_rejects_bad_input() {
        let options = Options {
            triples: vec![(50.0, 5.0, 95.0), (50.0, 8.0, 95.0)],
            require: (200.0, 100.0, 50.0),
            invocations: 8,
            slot_size: 4,
            ctl_args: vec!["cli-service".into(), "bulk".into()],
            ..Options::default()
        };
        assert!(run("ctl", Some("set-class"), &options).is_ok());
        assert!(
            run("ctl", Some("set-class"), &Options::default()).is_err(),
            "missing SERVICE VALUE"
        );
        let bad = Options {
            ctl_args: vec!["cli-service".into(), "frantic".into()],
            ..options.clone()
        };
        assert!(
            run("ctl", Some("set-class"), &bad).is_err(),
            "unknown class"
        );
        let bad_deadline = Options {
            ctl_args: vec!["cli-service".into(), "soon".into()],
            ..options
        };
        assert!(run("ctl", Some("set-deadline"), &bad_deadline).is_err());
    }

    #[test]
    fn gateway_run_is_deterministic_and_counted() {
        let options = Options {
            triples: vec![(50.0, 5.0, 90.0), (50.0, 8.0, 90.0)],
            require: (200.0, 100.0, 50.0),
            invocations: 12,
            slot_size: 4,
            ..Options::default()
        };
        let snapshots: Vec<String> = (0..2)
            .map(|_| {
                let (harness, _) = drive_gateway(&options, false).unwrap();
                let mut snapshot = harness.telemetry().snapshot();
                let service = snapshot.service("cli-service").unwrap();
                assert_eq!(service.invocations, 12);
                assert_eq!(service.replans, 3);
                // The generator measures its search time on the wall clock,
                // so elapsed fields are the one nondeterministic part.
                for service in &mut snapshot.services {
                    service.synthesis_elapsed = Duration::ZERO;
                }
                for event in &mut snapshot.recent_events {
                    if let qce::runtime::EventKind::SlotReplanned { elapsed, .. } = &mut event.kind
                    {
                        *elapsed = Duration::ZERO;
                    }
                }
                serde_json::to_string(&snapshot).unwrap()
            })
            .collect();
        assert_eq!(
            snapshots[0], snapshots[1],
            "same seed, same virtual-time run, same snapshot"
        );
    }

    #[test]
    fn gateway_run_rejects_bad_scenarios() {
        let mut options = Options::default();
        assert!(build_harness(&options).is_err(), "no microservices");
        options.triples = vec![(50.0, 5.0, 90.0)];
        options.slot_size = 0;
        assert!(build_harness(&options).is_err(), "zero slot size");
        options.slot_size = 5;
        options.quorum = Some(0);
        assert!(build_harness(&options).is_err(), "zero quorum");
        options.quorum = None;
        options.quantize = -0.5;
        assert!(build_harness(&options).is_err(), "negative quantum");
        options.quantize = f64::NAN;
        assert!(build_harness(&options).is_err(), "non-finite quantum");
        options.quantize = 0.0;
        options.deadline_ms = Some(0);
        assert!(build_harness(&options).is_err(), "zero deadline");
    }

    #[test]
    fn bad_flags_fail_alike_with_and_without_shards() {
        type Spoil = fn(&mut Options);
        let cases: [(Spoil, &str); 5] = [
            (
                |o| o.triples.clear(),
                "no microservices; pass at least one --ms cost,latency,reliability%",
            ),
            (|o| o.slot_size = 0, "--slot-size must be at least 1"),
            (
                |o| o.quantize = -1.0,
                "--quantize must be a finite value >= 0",
            ),
            (
                |o| o.quantize = f64::NAN,
                "--quantize must be a finite value >= 0",
            ),
            (
                |o| o.deadline_ms = Some(0),
                "--deadline-ms must be at least 1",
            ),
        ];
        for (spoil, text) in cases {
            for shards in [0, 2] {
                let mut options = Options {
                    triples: vec![(50.0, 5.0, 90.0), (50.0, 8.0, 90.0)],
                    shards,
                    ..Options::default()
                };
                spoil(&mut options);
                assert_eq!(
                    run("run", None, &options).unwrap_err(),
                    text,
                    "--shards {shards}"
                );
            }
        }
    }

    #[test]
    fn scenario_flag_replays_a_file() {
        let (_, _, options) = parse_args(&args(&["run", "--scenario", "pack/calm.json"])).unwrap();
        assert_eq!(options.scenario.as_deref(), Some("pack/calm.json"));
        assert!(parse_args(&args(&["run", "--scenario"])).is_err());

        let dir = std::env::temp_dir().join(format!("qce-cli-scenario-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("calm.json");
        let calm = r#"{
            "name": "cli-smoke", "seed": 5,
            "slots": 2, "slot_ms": 100, "requests_per_slot": 4,
            "services": [{
                "name": "svc",
                "microservices": [
                    {"name": "a", "cost": 10.0, "latency_ms": 4.0, "reliability": 1.0}
                ],
                "require": {"cost": 100.0, "latency_ms": 50.0, "reliability": 0.9}
            }]
        }"#;
        std::fs::write(&path, calm).unwrap();
        let options = Options {
            scenario: Some(path.to_string_lossy().into_owned()),
            ..Options::default()
        };
        assert!(run("run", None, &options).is_ok());
        assert!(run("stats", None, &options).is_ok());

        // Missing files and malformed scenarios are reported, not panicked.
        let missing = Options {
            scenario: Some(dir.join("nope.json").to_string_lossy().into_owned()),
            ..Options::default()
        };
        assert!(run("run", None, &missing).is_err());
        std::fs::write(&path, "{}").unwrap();
        assert!(run("run", None, &options).is_err());
        // Regression: a zero collector window used to pass validation and
        // panic in the collector.
        let zero_window = calm.replacen('{', r#"{"gateway": {"collector_window": 0},"#, 1);
        std::fs::write(&path, zero_window).unwrap();
        let error = run("run", None, &options).unwrap_err();
        assert!(error.contains("gateway.collector_window"), "{error}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ms_names_follow_the_algebra() {
        assert_eq!(ms_name(0), "a");
        assert_eq!(ms_name(25), "z");
        assert_eq!(ms_name(26), "m26");
    }
}
