//! `bench-throughput`: the gateway's concurrency story under load.
//!
//! N concurrent clients hammer *one* service whose Par-heavy strategy
//! (`a*b*c`) runs on the gateway's execution engine (simulated legs are
//! clock events; a leg that must block would take the gateway's worker
//! pool, whose occupancy the report shows), with microservice `a` under a
//! fault plan (crashed from `t = 0`, so every request is charged a failing
//! leg). Three phases on fresh virtual-time harnesses:
//!
//! 1. **sequential baseline** — one client issues all requests
//!    back-to-back; its per-request outcomes are the ground truth.
//! 2. **concurrent, unbounded admission** — N clients issue the same
//!    requests at once. The bench *fails* (non-zero exit, for CI) unless
//!    (a) nothing was shed at this low load, (b) every per-request outcome
//!    (success, payload, cost, latency, slot, votes, strategy) is
//!    bit-identical to the baseline's, and (c) the concurrent makespan is
//!    below 2x one request's makespan — i.e. same-service requests really
//!    ran in parallel.
//! 3. **concurrent, bounded admission** — `max_in_flight = 2` with a
//!    2-deep admission queue sheds the overflow; the report shows the shed
//!    rate, client-observed p50/p99 latency (queueing included), and
//!    worker-pool occupancy.
//!
//! All three phases are deterministic in *outcome* because the providers
//! are time-independent (reliability 0 or 1, constant fault condition):
//! thread interleaving can stagger virtual start times but can never
//! change what a request returns.

use std::io;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use qce_runtime::{
    Clock, FaultEvent, FaultKind, FaultPlan, GatewayConfig, Harness, MsSpec, PoolStats, Request,
    RuntimeError, ServiceResponse, ServiceScript, SimulatedProvider, WorkerGuard,
};
use qce_strategy::{Qos, Requirements};

use crate::report::{fmt_f, fmt_pct, Report};

/// The one service every client invokes.
const SERVICE: &str = "relay";
/// The forced slot-0 strategy: all three legs race.
const STRATEGY: &str = "a*b*c";
/// The winning leg's latency (microservice `b`).
const WINNER_MS: u64 = 4;
/// The slowest leg's latency (microservice `c`): one request's makespan.
const SLOWEST_MS: u64 = 8;

/// Everything that identifies one request's outcome. Two runs are
/// equivalent iff they produce the same multiset of keys.
type OutcomeKey = (
    bool,
    Option<Vec<u8>>,
    u64,
    Duration,
    Option<(usize, usize)>,
    u64,
    String,
);

fn key(response: &ServiceResponse) -> OutcomeKey {
    (
        response.success,
        response.payload.clone(),
        response.cost.to_bits(),
        response.latency,
        response.votes,
        response.slot,
        response.strategy_text.clone(),
    )
}

fn script() -> ServiceScript {
    let prior = Qos::new(10.0, 10.0, 0.9).expect("valid prior");
    let spec = |name: &str| MsSpec {
        name: name.into(),
        capability: format!("cap-{name}"),
        prior,
    };
    let mut script = ServiceScript::new(
        SERVICE,
        vec![spec("a"), spec("b"), spec("c")],
        Requirements::new(1000.0, 1000.0, 0.5).expect("valid requirements"),
    );
    // Pin the slot-0 plan so every request in every phase runs the same
    // Par-heavy strategy, and make the slot outlast the whole bench so the
    // generator never re-plans mid-run.
    script.default_strategy = Some(STRATEGY.into());
    script.slot_size = 1_000;
    script
}

/// A fresh virtual-time rig: `a` crashed from `t = 0` (fails instantly,
/// still charged), `b` the 4 ms winner, `c` an 8 ms charged loser.
fn rig(config: GatewayConfig) -> Harness {
    rig_scripted(config, script())
}

/// [`rig`] with a caller-supplied script — the sweep widens the slot so
/// a 10^5-request batch stays on the slot-0 strategy.
fn rig_scripted(config: GatewayConfig, script: ServiceScript) -> Harness {
    let crashed_forever = FaultPlan::new(vec![FaultEvent {
        at: Duration::ZERO,
        kind: FaultKind::Crash,
    }]);
    let device = |name: &str, ms: u64| {
        SimulatedProvider::builder(format!("dev-{name}/cap-{name}"), format!("cap-{name}"))
            .latency(Duration::from_millis(ms))
            .cost(10.0)
            .reliability(1.0)
            .response(name.as_bytes().to_vec())
    };
    Harness::builder()
        .script(script)
        .config(config)
        .faulty(device("a", 2), crashed_forever)
        .provider(device("b", WINNER_MS))
        .provider(device("c", SLOWEST_MS))
        .build()
}

/// What one phase measured.
struct Phase {
    clients: usize,
    requests: usize,
    ok: usize,
    shed: u64,
    makespan: Duration,
    /// Client-observed latencies of successful requests (admission wait
    /// included), sorted ascending.
    latencies: Vec<Duration>,
    keys: Vec<OutcomeKey>,
    pool: PoolStats,
    queue_peak: u64,
}

impl Phase {
    fn row(&self, name: &str, report: &mut Report) {
        report.row([
            name.to_string(),
            self.clients.to_string(),
            self.requests.to_string(),
            self.ok.to_string(),
            self.shed.to_string(),
            fmt_f(millis(self.makespan), 3),
            fmt_f(millis(percentile(&self.latencies, 50.0)), 3),
            fmt_f(millis(percentile(&self.latencies, 99.0)), 3),
            self.pool.peak_running.to_string(),
            self.pool.spilled.to_string(),
            self.queue_peak.to_string(),
        ]);
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

/// Collects a finished harness + per-client results into a [`Phase`].
fn collect(
    harness: &Harness,
    clients: usize,
    results: Vec<(Duration, Result<ServiceResponse, RuntimeError>)>,
) -> Phase {
    let requests = results.len();
    let mut latencies = Vec::new();
    let mut keys = Vec::new();
    let mut ok = 0;
    for (observed, result) in results {
        match result {
            Ok(response) => {
                ok += 1;
                latencies.push(observed);
                keys.push(key(&response));
            }
            Err(RuntimeError::Overloaded { .. }) => {}
            Err(other) => panic!("bench-throughput: unexpected gateway error: {other}"),
        }
    }
    latencies.sort();
    keys.sort();
    let snapshot = harness.telemetry().snapshot();
    let service = snapshot.service(SERVICE);
    Phase {
        clients,
        requests,
        ok,
        shed: service.map_or(0, |s| s.requests_shed),
        makespan: harness.clock().now(),
        latencies,
        keys,
        pool: harness.gateway().pool_stats(),
        queue_peak: service.map_or(0, |s| s.admission_queue_peak),
    }
}

/// One client, `requests` invocations back-to-back.
fn sequential_phase(requests: usize) -> Phase {
    let harness = rig(GatewayConfig::default());
    let results = (0..requests)
        .map(|_| {
            let t0 = harness.clock().now();
            let result = harness.invoke(SERVICE);
            (harness.clock().now().saturating_sub(t0), result)
        })
        .collect();
    collect(&harness, 1, results)
}

/// `clients` threads, one invocation each, released together.
///
/// Each client registers itself as a worker of the harness clock *before*
/// the barrier, so virtual time cannot advance until every client is
/// clock-visibly blocked: a client the OS is slow to schedule can no
/// longer start its request at a later virtual instant than its peers
/// (which would stagger the phase and inflate the makespan). The engine
/// runs the request inline on the already-registered thread, and a client
/// queued at the admission gate waits passively on a handoff whose grant
/// clears that mark before waking it (DESIGN §8), so the extra
/// registration composes with both the unbounded and bounded phases, and
/// time cannot jump past a granted client the OS has not yet run.
fn concurrent_phase(clients: usize, config: GatewayConfig) -> Phase {
    let harness = rig(config);
    let barrier = Barrier::new(clients);
    let results: Vec<(Duration, Result<ServiceResponse, RuntimeError>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let harness = &harness;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let _worker = WorkerGuard::enter(harness.clock().as_ref());
                        barrier.wait();
                        let t0 = harness.clock().now();
                        let result = harness.invoke(SERVICE);
                        (harness.clock().now().saturating_sub(t0), result)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("client thread panicked"))
                .collect()
        });
    collect(&harness, clients, results)
}

/// Runs the three phases and writes `reports/bench_throughput.tsv`, and
/// nothing else: `BENCH_throughput.json` is the sweep's ([`run_sweep`]).
///
/// # Errors
///
/// Returns an I/O error if a report cannot be written — or, so CI can key
/// on the exit code, if the unbounded concurrent phase shed a request,
/// diverged from the sequential baseline, or failed to overlap same-service
/// requests (makespan at or above 2x one request's).
pub fn run(reports: &Path, clients: usize) -> io::Result<()> {
    let clients = clients.max(1);

    let baseline = sequential_phase(clients);
    let single_request = Duration::from_millis(SLOWEST_MS);
    let unbounded = concurrent_phase(clients, GatewayConfig::default());
    let bounded = concurrent_phase(
        clients,
        GatewayConfig::builder()
            .max_in_flight(2)
            .admission_queue(2)
            .build(),
    );

    // The CI-keyed checks (see module docs).
    if unbounded.shed > 0 {
        return Err(io::Error::other(format!(
            "bench-throughput: {} request(s) shed with unlimited admission",
            unbounded.shed
        )));
    }
    if unbounded.keys != baseline.keys {
        return Err(io::Error::other(
            "bench-throughput: concurrent per-request outcomes diverge from the \
             sequential baseline",
        ));
    }
    if unbounded.makespan >= 2 * single_request {
        return Err(io::Error::other(format!(
            "bench-throughput: {} concurrent requests took {:.3} ms, expected under \
             {:.3} ms (2x one request) — same-service requests did not overlap",
            clients,
            millis(unbounded.makespan),
            millis(2 * single_request),
        )));
    }
    let speedup = baseline.makespan.as_secs_f64() / unbounded.makespan.as_secs_f64().max(1e-9);

    let mut report = Report::new(
        format!("bench-throughput: {clients} clients x 1 request, strategy {STRATEGY}"),
        &[
            "phase",
            "clients",
            "requests",
            "ok",
            "shed",
            "makespan_ms",
            "p50_ms",
            "p99_ms",
            "pool_peak",
            "pool_spilled",
            "queue_peak",
        ],
    );
    baseline.row("sequential-baseline", &mut report);
    unbounded.row("concurrent-unbounded", &mut report);
    bounded.row("concurrent-bounded", &mut report);
    report.note(format!(
        "outcomes bit-identical to baseline; speedup {} over sequential ({} vs {} ms)",
        fmt_f(speedup, 2),
        fmt_f(millis(unbounded.makespan), 3),
        fmt_f(millis(baseline.makespan), 3),
    ));
    report.note(format!(
        "bounded phase: max_in_flight=2, admission_queue=2 -> shed rate {}",
        fmt_pct(bounded.shed as f64 / bounded.requests.max(1) as f64),
    ));
    report.note(
        "latencies are client-observed virtual time (admission wait included); \
         microservice a is crashed from t=0 by its fault plan",
    );
    report.emit(reports, "bench_throughput")?;
    Ok(())
}

/// The client counts of `--sweep` mode: 10^2 → 10^5 concurrent virtual
/// clients per point (capped by `--max-clients` for CI turnaround).
const SWEEP_POINTS: [usize; 4] = [100, 1_000, 10_000, 100_000];

/// One OS thread's default stack reservation — what the pre-event-core
/// execution model paid per *running leg* of every in-flight request
/// (each leg parked a thread on the virtual clock for its full latency).
const THREAD_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Running legs per request under `a*b*c`: all three race.
const LEGS: usize = 3;

/// What one sweep point measured. Every field is a deterministic function
/// of the rig (virtual time, core-lock-serialized frame counts), so the
/// sweep JSON reproduces byte-for-byte across runs.
struct SweepPoint {
    clients: usize,
    makespan: Duration,
    p50: Duration,
    p99: Duration,
    frames_peak: usize,
    frame_bytes: usize,
}

impl SweepPoint {
    fn bytes_per_request(&self) -> f64 {
        (self.frames_peak * self.frame_bytes) as f64 / self.clients.max(1) as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"clients\": {}, \"ok\": {}, \"shed\": 0, \"makespan_ms\": {}, \
             \"p50_ms\": {}, \"p99_ms\": {}, \"frames_peak\": {}, \
             \"frames_per_request\": {}, \"bytes_per_request\": {}}}",
            self.clients,
            self.clients,
            fmt_f(millis(self.makespan), 3),
            fmt_f(millis(self.p50), 3),
            fmt_f(millis(self.p99), 3),
            self.frames_peak,
            fmt_f(self.frames_peak as f64 / self.clients.max(1) as f64, 2),
            fmt_f(self.bytes_per_request(), 1),
        )
    }
}

/// `clients` concurrent virtual clients on one fresh rig, all submitted
/// through [`Gateway::submit_async`] while a [`WorkerGuard`] pins virtual
/// time at `t = 0` — so every request starts at the same instant and no
/// request can finish before all are resident. No client threads exist:
/// queued and in-flight requests are heap frames on the event loop, and
/// every leaf is a completion event on the clock (no worker-pool thread).
///
/// Gates (returned as errors so CI keys on the exit code):
/// shed-free admission, every outcome bit-identical to `expected`, the
/// whole batch finishing in one request's makespan, a peak-resident-frame
/// ceiling of 2 frames/request, and a drained core afterwards.
///
/// [`Gateway::submit_async`]: qce_runtime::Gateway::submit_async
fn sweep_point(clients: usize, expected: &OutcomeKey) -> io::Result<SweepPoint> {
    let fail = |message: String| io::Error::other(format!("bench-throughput sweep: {message}"));
    // `slot_size` counts invocations per re-plan: the slot must hold the
    // whole batch or requests past it would run a regenerated slot-1
    // strategy and (correctly) diverge from the slot-0 baseline.
    let mut script = script();
    script.slot_size = script
        .slot_size
        .max(u32::try_from(clients).unwrap_or(u32::MAX));
    let harness = rig_scripted(GatewayConfig::default(), script);
    let gateway = Arc::clone(harness.gateway());
    let handles: Vec<_> = {
        let _pin = WorkerGuard::enter(harness.clock().as_ref());
        (0..clients)
            .map(|_| gateway.submit_async(Request::new(SERVICE)))
            .collect::<Result<_, _>>()
            .map_err(|error| fail(format!("submission failed: {error}")))?
    };
    let mut latencies = Vec::with_capacity(clients);
    let mut diverged: std::collections::BTreeMap<(u64, String, Duration), usize> =
        Default::default();
    for handle in handles {
        let response = handle
            .wait()
            .map_err(|error| fail(format!("{clients} clients: request failed: {error}")))?;
        let observed = key(&response);
        if observed != *expected {
            diverged
                .entry((observed.5, observed.6.clone(), observed.3))
                .and_modify(|n| *n += 1)
                .or_insert(1usize);
        }
        latencies.push(response.latency);
    }
    if !diverged.is_empty() {
        return Err(fail(format!(
            "{clients} clients: outcomes diverged from the sequential baseline \
             (expected {expected:?}; divergent (slot, strategy, latency) -> count: {diverged:?})"
        )));
    }
    latencies.sort();

    let shed = harness
        .telemetry()
        .snapshot()
        .service(SERVICE)
        .map_or(0, |s| s.requests_shed);
    if shed > 0 {
        return Err(fail(format!(
            "{clients} clients: {shed} request(s) shed with unlimited admission"
        )));
    }
    let makespan = harness.clock().now();
    if makespan != Duration::from_millis(SLOWEST_MS) {
        return Err(fail(format!(
            "{clients} clients took {:.3} ms, expected exactly one request's {SLOWEST_MS} ms — \
             requests did not all overlap",
            millis(makespan),
        )));
    }
    let stats = gateway.engine_stats();
    if stats.frames_peak < clients || stats.frames_peak > 2 * clients {
        return Err(fail(format!(
            "{clients} clients: peak resident frames {} outside [{clients}, {}] — \
             not O(1) frames per request",
            stats.frames_peak,
            2 * clients,
        )));
    }
    if stats.in_flight != 0 || stats.frames_live != 0 {
        return Err(fail(format!(
            "{clients} clients: core not drained after the batch \
             (in_flight {}, frames_live {})",
            stats.in_flight, stats.frames_live,
        )));
    }
    Ok(SweepPoint {
        clients,
        makespan,
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        frames_peak: stats.frames_peak,
        frame_bytes: stats.frame_bytes,
    })
}

/// `--sweep` mode: 10^2 → 10^5 concurrent virtual clients per point
/// through the asynchronous submission path, written as
/// `reports/bench_throughput_sweep.tsv` plus `json_out`. The JSON is a
/// deterministic function of the rig, so CI double-runs it and `cmp`s the
/// bytes.
///
/// # Errors
///
/// Returns an I/O error if a report cannot be written, or — so CI can key
/// on the exit code — if any point sheds a request, diverges from the
/// sequential baseline, fails to overlap the whole batch into one
/// request's makespan, or exceeds the peak-resident-frame ceiling (see
/// `sweep_point`).
pub fn run_sweep(reports: &Path, json_out: &Path, max_clients: usize) -> io::Result<()> {
    let max_clients = max_clients.max(SWEEP_POINTS[0]);
    let points: Vec<usize> = SWEEP_POINTS
        .into_iter()
        .filter(|n| *n <= max_clients)
        .collect();

    // Ground truth: a short sequential run. The providers are
    // time-independent and every request lands in slot 0, so all
    // sequential outcomes are identical and one key is the oracle for the
    // whole sweep.
    let baseline = sequential_phase(8);
    let expected = baseline
        .keys
        .first()
        .cloned()
        .ok_or_else(|| io::Error::other("bench-throughput sweep: empty sequential baseline"))?;
    if baseline.keys.iter().any(|k| *k != expected) {
        return Err(io::Error::other(
            "bench-throughput sweep: sequential baseline outcomes are not uniform",
        ));
    }

    let mut sweep = Vec::with_capacity(points.len());
    for clients in points {
        sweep.push(sweep_point(clients, &expected)?);
    }

    let mut report = Report::new(
        format!(
            "bench-throughput --sweep: up to {max_clients} concurrent clients, strategy {STRATEGY}"
        ),
        &[
            "clients",
            "ok",
            "shed",
            "makespan_ms",
            "p50_ms",
            "p99_ms",
            "frames_peak",
            "frames_per_req",
            "bytes_per_req",
        ],
    );
    for point in &sweep {
        report.row([
            point.clients.to_string(),
            point.clients.to_string(),
            "0".to_string(),
            fmt_f(millis(point.makespan), 3),
            fmt_f(millis(point.p50), 3),
            fmt_f(millis(point.p99), 3),
            point.frames_peak.to_string(),
            fmt_f(point.frames_peak as f64 / point.clients as f64, 2),
            fmt_f(point.bytes_per_request(), 1),
        ]);
    }
    let largest = sweep.last().expect("at least one sweep point");
    let threaded = (LEGS * THREAD_STACK_BYTES) as f64;
    report.note(format!(
        "every batch finishes in one request's makespan ({SLOWEST_MS} ms) with outcomes \
         bit-identical to the sequential baseline",
    ));
    report.note(format!(
        "memory per in-flight request: {} B of event-core frames vs {} B of thread stacks \
         under the per-leg-thread model ({}x)",
        fmt_f(largest.bytes_per_request(), 1),
        threaded,
        fmt_f(threaded / largest.bytes_per_request().max(1.0), 1),
    ));
    report.emit(reports, "bench_throughput_sweep")?;

    let json = format!(
        "{{\n  \"benchmark\": \"bench-throughput-sweep\",\n  \"service\": \"{SERVICE}\",\n  \
         \"strategy\": \"{STRATEGY}\",\n  \"single_request_ms\": {},\n  \
         \"outcomes_match_sequential_baseline\": true,\n  \"sweep\": [\n    {}\n  ],\n  \
         \"memory_per_request\": {{\n    \"frame_bytes\": {},\n    \
         \"event_core_bytes_per_request\": {},\n    \
         \"threaded_walker_bytes_per_request\": {},\n    \
         \"threaded_walker_model\": \"{LEGS} running legs x {THREAD_STACK_BYTES} B default \
         thread stack (pre-event-core execution model)\",\n    \
         \"reduction_factor\": {}\n  }}\n}}\n",
        fmt_f(millis(Duration::from_millis(SLOWEST_MS)), 3),
        sweep
            .iter()
            .map(SweepPoint::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        largest.frame_bytes,
        fmt_f(largest.bytes_per_request(), 1),
        LEGS * THREAD_STACK_BYTES,
        fmt_f(threaded / largest.bytes_per_request().max(1.0), 1),
    );
    if let Some(parent) = json_out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(json_out, json)?;
    println!("bench-throughput --sweep: wrote {}", json_out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let ms: Vec<Duration> = [1u64, 2, 3, 4, 10].map(Duration::from_millis).into();
        assert_eq!(percentile(&ms, 50.0), Duration::from_millis(3));
        assert_eq!(percentile(&ms, 99.0), Duration::from_millis(10));
        assert_eq!(percentile(&ms, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }

    #[test]
    fn sequential_phase_matches_the_rigged_arithmetic() {
        let phase = sequential_phase(3);
        assert_eq!(phase.ok, 3);
        assert_eq!(phase.shed, 0);
        // Each request holds the walk until c completes at 8 ms.
        assert_eq!(phase.makespan, Duration::from_millis(3 * SLOWEST_MS));
        // Gateway latency is the decision instant: b's 4 ms win.
        assert!(phase
            .keys
            .iter()
            .all(|k| k.0 && k.3 == Duration::from_millis(WINNER_MS)));
        // a (crashed) + b + c all started: 30.0 charged per request.
        assert!(phase.keys.iter().all(|k| f64::from_bits(k.2) == 30.0));
    }

    #[test]
    fn concurrent_unbounded_matches_baseline_and_overlaps() {
        let baseline = sequential_phase(4);
        let concurrent = concurrent_phase(4, GatewayConfig::default());
        assert_eq!(concurrent.shed, 0);
        assert_eq!(concurrent.keys, baseline.keys);
        assert!(
            concurrent.makespan < baseline.makespan,
            "4 overlapped requests must beat 4 sequential ones ({:?} vs {:?})",
            concurrent.makespan,
            baseline.makespan
        );
    }

    #[test]
    fn bounded_phase_sheds_nothing_when_capacity_covers_the_clients() {
        // 2 in flight + 2 queued covers 4 clients: nobody is shed.
        let phase = concurrent_phase(
            4,
            GatewayConfig::builder()
                .max_in_flight(2)
                .admission_queue(2)
                .build(),
        );
        assert_eq!(phase.shed, 0);
        assert_eq!(phase.ok, 4);
    }

    #[test]
    fn sweep_point_overlaps_all_clients_and_matches_the_baseline() {
        let baseline = sequential_phase(4);
        let point = sweep_point(64, &baseline.keys[0]).unwrap();
        assert_eq!(point.makespan, Duration::from_millis(SLOWEST_MS));
        assert!(point.frames_peak >= 64, "all 64 walks resident at once");
        assert!(point.bytes_per_request() < THREAD_STACK_BYTES as f64);
        // Gateway latency is the decision instant: b's 4 ms win.
        assert_eq!(point.p50, Duration::from_millis(WINNER_MS));
        assert_eq!(point.p99, Duration::from_millis(WINNER_MS));
    }

    #[test]
    fn run_sweep_writes_deterministic_json() {
        let dir = std::env::temp_dir().join(format!("qce-sweep-{}", std::process::id()));
        let json = dir.join("BENCH_throughput.json");
        run_sweep(&dir, &json, 100).unwrap();
        let first = std::fs::read_to_string(&json).unwrap();
        assert!(first.contains("\"benchmark\": \"bench-throughput-sweep\""));
        assert!(first.contains("\"outcomes_match_sequential_baseline\": true"));
        assert!(first.contains("\"threaded_walker_bytes_per_request\""));
        run_sweep(&dir, &json, 100).unwrap();
        let second = std::fs::read_to_string(&json).unwrap();
        assert_eq!(first, second, "sweep JSON must reproduce byte-for-byte");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The three phases write their report and nothing else: the JSON
    /// file beside it is the sweep's, committed, and theirs would clobber
    /// it.
    #[test]
    fn run_writes_only_its_report() {
        let dir = std::env::temp_dir().join(format!("qce-throughput-{}", std::process::id()));
        run(&dir, 4).unwrap();
        let tsv = std::fs::read_to_string(dir.join("bench_throughput.tsv")).unwrap();
        assert!(tsv.contains("concurrent-unbounded"));
        assert!(tsv.contains("queue_peak"));
        let written: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(written, ["bench_throughput.tsv"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
