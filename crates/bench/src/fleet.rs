//! `bench-fleet`: the sharded gateway fleet under 10^5 async clients.
//!
//! Each sweep point stands up a [`GatewayFleet`] of 1/8/32 shards on a
//! fresh virtual clock: 40 identically-armed services (two requirement
//! shapes) behind the consistent-hash router, fleet-registered providers,
//! and one private plan cache per service. The workload runs in waves; per
//! wave, every service takes one sequential blocking *pathfinder* request
//! — serializing the slot re-plans so the plan-cache hit/miss counters
//! are a deterministic function of the rig — followed by one
//! async batch across all services, submitted while a [`WorkerGuard`]
//! pins virtual time so the whole batch starts at the same instant. The
//! batch cycles the request class `Critical → Interactive → Bulk →
//! Scavenger`.
//!
//! Gates (returned as errors *after* the artifacts are written, so CI
//! keys on the exit code but can still inspect the run):
//!
//! * **zero sheds at capacity** — admission is unbounded, so any shed is
//!   a fleet routing/accounting bug;
//! * **every request succeeds** — the providers are reliability-1.0;
//! * **aggregate Critical satisfaction** over all shards stays at or
//!   above the floor (`QCE_FLEET_CRITICAL_MIN_SATISFACTION` overrides it,
//!   which CI uses to prove the gate trips);
//! * **p99 latency** under the ceiling;
//! * **drained cores** — no shard leaks an in-flight slot or frame.
//!
//! Every reported field is a deterministic function of the rig (virtual
//! time, sequential planning), so CI double-runs the bench and `cmp`s the
//! JSON byte for byte.
//!
//! [`GatewayFleet`]: qce_runtime::GatewayFleet
//! [`WorkerGuard`]: qce_runtime::WorkerGuard

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use qce_runtime::fleet::{FleetConfig, GatewayFleet};
use qce_runtime::{
    Clock, GatewayConfig, InMemoryMarket, MsSpec, QosClass, Request, ServiceScript,
    SimulatedProvider, VirtualClock, WorkerGuard,
};
use qce_strategy::{Qos, Requirements};

use crate::report::{fmt_f, Report};

/// Services sharing the fleet (two requirement shapes).
const SERVICES: usize = 40;
/// Waves per point; each wave closes every service's slot, so every wave
/// re-plans (warm from the service's plan cache after the first).
const WAVES: usize = 5;
/// Equivalent microservices per service, with capabilities shared across
/// services so one fleet-wide provider set serves everyone.
const ARMS: usize = 3;
/// The full-scale shard sweep.
const SHARD_POINTS: [usize; 3] = [1, 8, 32];
/// Default aggregate-Critical-satisfaction floor
/// (`QCE_FLEET_CRITICAL_MIN_SATISFACTION` overrides it).
const CRITICAL_FLOOR: f64 = 0.99;
/// Client-observed p99 ceiling in virtual milliseconds.
const P99_CEILING_MS: f64 = 50.0;
/// The async batch cycles through the classes in priority order.
const CLASS_MIX: [QosClass; 4] = [
    QosClass::Critical,
    QosClass::Interactive,
    QosClass::Bulk,
    QosClass::Scavenger,
];

fn script(service: &str, shape: usize) -> ServiceScript {
    // Two shapes differing only in requirements: distinct plan-cache
    // keys, identical provider footprint.
    let require = if shape == 0 {
        Requirements::new(1000.0, 1000.0, 0.5)
    } else {
        Requirements::new(600.0, 800.0, 0.5)
    }
    .expect("valid requirements");
    let mut script = ServiceScript::new(
        service,
        (0..ARMS)
            .map(|i| MsSpec {
                name: format!("m{i}"),
                capability: format!("cap{i}"),
                prior: Qos::new(50.0, 2.0 + i as f64, 0.9).expect("valid prior"),
            })
            .collect(),
        require,
    );
    // Slots close explicitly at wave boundaries, never by request count.
    script.slot_size = 1_000_000;
    script
}

/// A fresh fleet on a fresh virtual clock: `shards` shards, plan caching
/// on, 1-hour script TTL (nothing expires mid-run), and one
/// reliability-1.0 clock-bound provider per shared capability.
fn rig(shards: usize) -> (Arc<VirtualClock>, GatewayFleet, Vec<String>) {
    let clock = Arc::new(VirtualClock::new());
    let market = InMemoryMarket::new();
    let services: Vec<String> = (0..SERVICES).map(|i| format!("fleet-svc-{i:02}")).collect();
    for (i, service) in services.iter().enumerate() {
        market
            .publish(script(service, i % 2))
            .expect("scripts validate");
    }
    let config = FleetConfig::default()
        .shards(shards)
        .script_ttl(Duration::from_secs(3600))
        .gateway(GatewayConfig::builder().plan_cache(true).build());
    let fleet = GatewayFleet::with_clock(
        Arc::new(market),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    for i in 0..ARMS {
        fleet.register(
            SimulatedProvider::builder(format!("dev{i}"), format!("cap{i}"))
                .cost(10.0)
                .latency(Duration::from_millis(1 + i as u64))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }
    (clock, fleet, services)
}

/// What one shard point measured. Deterministic by construction.
struct PointOutcome {
    shards: usize,
    clients: usize,
    ok: usize,
    shed: u64,
    critical_requests: u64,
    critical_ok: u64,
    p50: Duration,
    p99: Duration,
    critical_p99: Duration,
    makespan: Duration,
    plan_hits: u64,
    plan_misses: u64,
    plan_stale: u64,
    script_hits: u64,
    script_misses: u64,
    script_expired: u64,
    drained: bool,
}

impl PointOutcome {
    fn critical_satisfaction(&self) -> f64 {
        if self.critical_requests == 0 {
            1.0
        } else {
            self.critical_ok as f64 / self.critical_requests as f64
        }
    }

    fn row(&self, report: &mut Report) {
        report.row([
            self.shards.to_string(),
            self.clients.to_string(),
            self.ok.to_string(),
            self.shed.to_string(),
            fmt_f(self.critical_satisfaction(), 4),
            fmt_f(millis(self.p50), 3),
            fmt_f(millis(self.p99), 3),
            fmt_f(millis(self.makespan), 3),
            self.plan_hits.to_string(),
            self.plan_misses.to_string(),
            self.script_misses.to_string(),
        ]);
    }

    fn json(&self) -> String {
        format!(
            "{{\"shards\": {}, \"clients\": {}, \"ok\": {}, \"shed\": {}, \
             \"critical\": {{\"requests\": {}, \"ok\": {}, \"satisfaction\": {}, \
             \"p99_ms\": {}}}, \"p50_ms\": {}, \"p99_ms\": {}, \"makespan_ms\": {}, \
             \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"stale\": {}}}, \
             \"script_cache\": {{\"hits\": {}, \"misses\": {}, \
             \"expired\": {}}}}}",
            self.shards,
            self.clients,
            self.ok,
            self.shed,
            self.critical_requests,
            self.critical_ok,
            fmt_f(self.critical_satisfaction(), 4),
            fmt_f(millis(self.critical_p99), 3),
            fmt_f(millis(self.p50), 3),
            fmt_f(millis(self.p99), 3),
            fmt_f(millis(self.makespan), 3),
            self.plan_hits,
            self.plan_misses,
            self.plan_stale,
            self.script_hits,
            self.script_misses,
            self.script_expired,
        )
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Drives one shard point: `WAVES` waves of sequential pathfinders plus
/// pinned async batches totalling ~`max_clients` async requests.
fn point(shards: usize, max_clients: usize) -> io::Result<PointOutcome> {
    let fail =
        |message: String| io::Error::other(format!("bench-fleet [{shards} shard(s)]: {message}"));
    let per_service = (max_clients / (WAVES * SERVICES)).max(1);
    let (clock, fleet, services) = rig(shards);

    // Wave 0 (slot 0): one pathfinder per service establishes identical
    // observations everywhere.
    for service in &services {
        let response = fleet
            .submit(Request::new(service.as_str()))
            .map_err(|error| fail(format!("slot-0 pathfinder failed: {error}")))?;
        if !response.success {
            return Err(fail(format!(
                "slot-0 pathfinder on {service} did not succeed"
            )));
        }
    }
    for service in &services {
        fleet.end_slot(service);
    }

    let mut clients = 0usize;
    let mut ok = 0usize;
    let mut latencies = Vec::with_capacity(WAVES * SERVICES * per_service);
    let mut critical_latencies = Vec::new();
    let mut class_cursor = 0usize;
    for _ in 0..WAVES {
        // Sequential pathfinders: the wave's re-plans happen one at a
        // time, so cold searches and cache hits land in a deterministic
        // order.
        for service in &services {
            let response = fleet
                .submit(Request::new(service.as_str()))
                .map_err(|error| fail(format!("pathfinder failed: {error}")))?;
            if !response.success {
                return Err(fail(format!("pathfinder on {service} did not succeed")));
            }
        }
        // The async batch: everything submitted at one pinned virtual
        // instant, classes cycled deterministically.
        let handles = {
            let _pin = WorkerGuard::enter(clock.as_ref());
            let mut handles = Vec::with_capacity(SERVICES * per_service);
            for service in &services {
                for _ in 0..per_service {
                    let class = CLASS_MIX[class_cursor % CLASS_MIX.len()];
                    class_cursor += 1;
                    let handle = fleet
                        .submit_async(Request::new(service.as_str()).class(class))
                        .map_err(|error| fail(format!("async submission failed: {error}")))?;
                    handles.push((class, handle));
                }
            }
            handles
        };
        for (class, handle) in handles {
            let response = handle
                .wait()
                .map_err(|error| fail(format!("async request failed: {error}")))?;
            clients += 1;
            if response.success {
                ok += 1;
            }
            latencies.push(response.latency);
            if class == QosClass::Critical {
                critical_latencies.push(response.latency);
            }
        }
        for service in &services {
            fleet.end_slot(service);
        }
    }
    latencies.sort();
    critical_latencies.sort();

    // Aggregate over every shard's telemetry.
    let mut shed = 0u64;
    let mut critical_requests = 0u64;
    let mut critical_ok = 0u64;
    let (mut plan_hits, mut plan_misses, mut plan_stale) = (0u64, 0u64, 0u64);
    let mut drained = true;
    for shard in fleet.shards() {
        let snapshot = shard.gateway().telemetry().snapshot();
        for service in &snapshot.services {
            shed += service.requests_shed;
            plan_hits += service.plan_cache_hits;
            plan_misses += service.plan_cache_misses;
            plan_stale += service.plan_cache_stale;
            if let Some(critical) = service.class(QosClass::Critical) {
                critical_requests += critical.requests;
                critical_ok += critical.successes;
            }
        }
        let engine = shard.engine_stats();
        drained &= engine.in_flight == 0 && engine.frames_live == 0;
    }
    let stats = fleet.stats();

    Ok(PointOutcome {
        shards,
        clients,
        ok,
        shed,
        critical_requests,
        critical_ok,
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        critical_p99: percentile(&critical_latencies, 99.0),
        makespan: clock.now(),
        plan_hits,
        plan_misses,
        plan_stale,
        script_hits: stats.market.hits,
        script_misses: stats.market.misses,
        script_expired: stats.market.expired,
        drained,
    })
}

/// Appends every gate violation of `outcome` to `violations`.
fn check_gates(outcome: &PointOutcome, floor: f64, violations: &mut Vec<String>) {
    let shards = outcome.shards;
    if outcome.shed > 0 {
        violations.push(format!(
            "{shards} shard(s): {} request(s) shed with unbounded admission",
            outcome.shed
        ));
    }
    if outcome.ok != outcome.clients {
        violations.push(format!(
            "{shards} shard(s): {}/{} async requests succeeded",
            outcome.ok, outcome.clients
        ));
    }
    if outcome.critical_satisfaction() < floor {
        violations.push(format!(
            "{shards} shard(s): Critical satisfaction {} below floor {}",
            fmt_f(outcome.critical_satisfaction(), 4),
            fmt_f(floor, 4)
        ));
    }
    if millis(outcome.p99) > P99_CEILING_MS {
        violations.push(format!(
            "{shards} shard(s): p99 {} ms above ceiling {} ms",
            fmt_f(millis(outcome.p99), 3),
            fmt_f(P99_CEILING_MS, 3)
        ));
    }
    if !outcome.drained {
        violations.push(format!(
            "{shards} shard(s): a shard's event core was not drained after the run"
        ));
    }
}

/// [`run`] with an explicit Critical-satisfaction floor (the public entry
/// reads it from `QCE_FLEET_CRITICAL_MIN_SATISFACTION`). Artifacts are
/// written before any gate error is returned.
fn run_with_floor(
    reports: &Path,
    json_out: &Path,
    max_clients: usize,
    shards: Option<usize>,
    floor: f64,
) -> io::Result<()> {
    let points: Vec<usize> = match shards {
        Some(n) if n <= 1 => vec![1],
        Some(n) => vec![1, n],
        None => SHARD_POINTS.to_vec(),
    };

    let mut outcomes = Vec::with_capacity(points.len());
    let mut violations = Vec::new();
    for shards in points {
        let outcome = point(shards, max_clients)?;
        check_gates(&outcome, floor, &mut violations);
        outcomes.push(outcome);
    }

    let clients = outcomes.first().map_or(0, |o| o.clients);
    let mut report = Report::new(
        format!(
            "bench-fleet: {clients} async clients x {} shard point(s), \
             {SERVICES} services, {WAVES} waves",
            outcomes.len()
        ),
        &[
            "shards",
            "clients",
            "ok",
            "shed",
            "crit_sat",
            "p50_ms",
            "p99_ms",
            "makespan_ms",
            "plan_hits",
            "plan_miss",
            "script_fetch",
        ],
    );
    for outcome in &outcomes {
        outcome.row(&mut report);
    }
    report.note(format!(
        "per wave: {SERVICES} sequential pathfinder re-plans, then one pinned async \
         batch of {} requests cycling Critical/Interactive/Bulk/Scavenger",
        clients / WAVES.max(1),
    ));
    report.emit(reports, "bench_fleet")?;

    let json = format!(
        "{{\n  \"benchmark\": \"bench-fleet\",\n  \"services\": {SERVICES},\n  \
         \"waves\": {WAVES},\n  \"arms\": {ARMS},\n  \"async_clients_per_point\": {clients},\n  \
         \"points\": [\n    {}\n  ]\n}}\n",
        outcomes
            .iter()
            .map(PointOutcome::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    if let Some(parent) = json_out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(json_out, json)?;
    println!("bench-fleet: wrote {}", json_out.display());

    if violations.is_empty() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "bench-fleet gate failed:\n  {}",
            violations.join("\n  ")
        )))
    }
}

/// Runs the shard sweep (1/8/32, or `[1, N]` when `--shards N` caps it)
/// and writes `reports/bench_fleet.tsv` plus `json_out` (committed as
/// `BENCH_fleet.json`).
///
/// # Errors
///
/// Returns an I/O error if an artifact cannot be written — or, after the
/// artifacts are written so CI can key on the exit code, if any point
/// sheds or fails a request, misses the Critical satisfaction floor or
/// the p99 ceiling, or leaves a shard's event core undrained (see the
/// module docs).
pub fn run(
    reports: &Path,
    json_out: &Path,
    max_clients: usize,
    shards: Option<usize>,
) -> io::Result<()> {
    let floor = std::env::var("QCE_FLEET_CRITICAL_MIN_SATISFACTION")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(CRITICAL_FLOOR);
    run_with_floor(reports, json_out, max_clients, shards, floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_serves_everyone() {
        let outcome = point(2, 200).unwrap();
        assert_eq!(outcome.clients, WAVES * SERVICES); // one per service per wave
        assert_eq!(outcome.ok, outcome.clients);
        assert_eq!(outcome.shed, 0);
        assert!(outcome.drained);
        assert!(outcome.critical_requests > 0);
        assert_eq!(outcome.critical_ok, outcome.critical_requests);
    }

    /// Each service plans on one shard from its own cache, so what the
    /// fleet spends on synthesis does not depend on how many shards it has:
    /// one cold search per service, then a hit per wave.
    #[test]
    fn plan_counters_do_not_depend_on_the_shard_count() {
        for shards in [1, 2, 8] {
            let outcome = point(shards, 200).unwrap();
            assert_eq!(outcome.ok, outcome.clients);
            assert_eq!(
                (outcome.plan_hits, outcome.plan_misses, outcome.plan_stale),
                ((SERVICES * (WAVES - 1)) as u64, SERVICES as u64, 0),
                "{shards} shard(s)"
            );
        }
    }

    #[test]
    fn run_writes_deterministic_json() {
        let dir = std::env::temp_dir().join(format!("qce-fleet-{}", std::process::id()));
        let json = dir.join("BENCH_fleet.json");
        run_with_floor(&dir, &json, 200, Some(2), CRITICAL_FLOOR).unwrap();
        let first = std::fs::read_to_string(&json).unwrap();
        assert!(first.contains("\"benchmark\": \"bench-fleet\""));
        assert!(first.contains("\"plan_cache\""));
        let tsv = std::fs::read_to_string(dir.join("bench_fleet.tsv")).unwrap();
        assert!(tsv.contains("plan_hits"));
        run_with_floor(&dir, &json, 200, Some(2), CRITICAL_FLOOR).unwrap();
        let second = std::fs::read_to_string(&json).unwrap();
        assert_eq!(first, second, "fleet JSON must reproduce byte-for-byte");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn impossible_critical_floor_trips_the_gate_after_writing_artifacts() {
        let dir = std::env::temp_dir().join(format!("qce-fleet-gate-{}", std::process::id()));
        let json = dir.join("BENCH_fleet.json");
        let error = run_with_floor(&dir, &json, 200, Some(1), 1.1).unwrap_err();
        assert!(
            error.to_string().contains("Critical satisfaction"),
            "unexpected gate message: {error}"
        );
        assert!(
            json.exists(),
            "artifacts must be written before the gate trips"
        );
        assert!(dir.join("bench_fleet.tsv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
