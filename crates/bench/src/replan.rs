//! `bench-replan` — before/after benchmark of slot re-planning: the
//! plan cache, the pluggable search backends, and the drift-triggered
//! re-plan policy.
//!
//! The gateway re-plans once per time slot, and real deployments cycle
//! through a small set of recurring environment regimes (day/night load,
//! the same devices flapping in and out). The benchmark has three phases:
//!
//! 1. **Cache** — the harness models recurring regimes with `PHASES`
//!    seeded environments visited round-robin over `slots` slots, and
//!    times the same exhaustive search two ways: **cold** (full search
//!    every slot) and **cached** (through a [`PlanCache`]). Every cached
//!    slot is checked **bit-for-bit** against the cold search; any
//!    divergence aborts with a nonzero exit.
//! 2. **Backends** — the greedy and beam search backends run on the same
//!    environments. For `M <= 6` the exhaustive search provides ground
//!    truth and the per-backend relative utility gap is gated by
//!    `QCE_REPLAN_MAX_UTILITY_GAP` (default `0.05`, strict `>`); for
//!    `M = 8, 10` — beyond exhaustive reach — beam must match or beat
//!    greedy (the width-monotonicity theorem, checked on real utilities).
//! 3. **Drift** — two identical virtual-time gateways serve the same
//!    request stream, one re-planning every slot (cadence) and one with
//!    `replan_on_drift`: the drift gateway must cut the re-plan count
//!    while matching the cadence gateway's satisfaction, in both a steady
//!    regime and one with a mid-run latency shift.
//!
//! Wall-clock timings go to the TSV reports only; `BENCH_replan.json`
//! holds counters, utilities, and gaps exclusively, so two runs of the
//! same build produce byte-identical JSON (the CI job `cmp`s them). The
//! gap and drift gates run *after* the artifacts are written, so a
//! tripped gate still leaves the numbers behind for inspection.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_runtime::{
    FaultEvent, FaultKind, FaultPlan, GatewayConfig, Harness, MsSpec, ServiceScript,
    SimulatedProvider,
};
use qce_strategy::{
    BackendChoice, EnvQos, Generated, Generator, PlanCache, PlanCacheConfig, Qos, Requirements,
    DEFAULT_BEAM_WIDTH,
};

use crate::fig5::sim_requirements;
use crate::fig7::scaling_config;
use crate::report::{fmt_f, Report};

/// How many distinct environment regimes the slot sequence cycles through.
const PHASES: usize = 4;

/// Microservice counts probed beyond the exhaustive threshold, where only
/// the approximate backends can run.
const LARGE_M: [usize; 2] = [8, 10];

/// Seed salt for the backend sweep, so it draws its own environment
/// family independent of the cache phase's slot regimes.
const BACKEND_ENV_SALT: u64 = 8u64.wrapping_mul(0x9e37_79b9_7f4a_7c15);

/// Per-slot timings of one configuration over the whole slot sequence.
#[derive(Debug, Clone)]
struct Timed {
    results: Vec<Generated>,
    per_slot: Vec<Duration>,
}

/// The deterministic environments of one `M` point: `PHASES` recurring
/// regimes drawn from the fig-7 scaling base.
fn phase_envs(m: usize, seed: u64) -> Vec<EnvQos> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((m as u64) << 32));
    (0..PHASES)
        .map(|_| scaling_config(m).generate(&mut rng).mean_qos_table())
        .collect()
}

/// Runs `generator.exhaustive` once per slot over the cycling environments
/// and records each slot's wall time. The generator is reused across
/// slots, which is exactly what lets the cache help.
fn drive(generator: &Generator, envs: &[EnvQos], slots: usize, req: &Requirements) -> Timed {
    let mut results = Vec::with_capacity(slots);
    let mut per_slot = Vec::with_capacity(slots);
    for slot in 0..slots {
        let env = &envs[slot % envs.len()];
        let ids = env.ids();
        let started = Instant::now();
        let generated = generator
            .exhaustive(env, &ids, req)
            .expect("random environments are valid");
        per_slot.push(started.elapsed());
        results.push(generated);
    }
    Timed { results, per_slot }
}

/// Median of the per-slot wall times (mean of the middle two for even
/// lengths, [`Duration::ZERO`] for empty input).
fn median(samples: &[Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    }
}

/// Verifies that the cached configuration reproduced the cold search
/// exactly on every slot: same strategy, same utility bits, same candidate
/// count.
fn check_equivalent(m: usize, cold: &[Generated], cached: &[Generated]) -> io::Result<()> {
    for (slot, (c, w)) in cold.iter().zip(cached).enumerate() {
        if c.strategy != w.strategy
            || c.utility.to_bits() != w.utility.to_bits()
            || c.evaluated != w.evaluated
        {
            return Err(io::Error::other(format!(
                "EQUIVALENCE DIVERGENCE at M={m}, slot #{slot}: \
                 cold search chose {} (utility {}, {} candidates) but the plan cache \
                 served {} (utility {}, {} candidates)",
                c.strategy, c.utility, c.evaluated, w.strategy, w.utility, w.evaluated
            )));
        }
    }
    Ok(())
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The ceiling the utility-gap gate enforces, from
/// `QCE_REPLAN_MAX_UTILITY_GAP` (default `0.05` — approximate backends
/// must land within 5% of the exhaustive optimum wherever ground truth
/// exists).
fn gap_threshold() -> f64 {
    parse_gap_threshold(std::env::var("QCE_REPLAN_MAX_UTILITY_GAP").ok().as_deref())
}

fn parse_gap_threshold(raw: Option<&str>) -> f64 {
    raw.and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .unwrap_or(0.05)
}

/// Relative utility shortfall of an approximate result against the
/// exhaustive optimum, normalized by the optimum's magnitude (floored at
/// 1 so near-zero optima don't explode the ratio). Exhaustive search is
/// utility-maximal, so the gap is clamped non-negative.
fn utility_gap(best: f64, got: f64) -> f64 {
    ((best - got) / best.abs().max(1.0)).max(0.0)
}

/// One backend's aggregate over the `PHASES` environments of a single `M`.
#[derive(Debug, Clone, Copy)]
struct BackendRun {
    mean_utility: f64,
    worst_gap: Option<f64>,
    evaluated: usize,
    elapsed: Duration,
}

/// One `M` point of the backend sweep.
#[derive(Debug, Clone)]
struct BackendPoint {
    m: usize,
    /// Ground truth: present only while exhaustive search is feasible.
    exhaustive: Option<BackendRun>,
    greedy: BackendRun,
    beam: BackendRun,
    /// On the large-M points: environments where beam strictly beat greedy.
    beam_wins: usize,
}

/// Runs one backend over every phase environment of `m`, tracking the
/// worst utility gap against the supplied per-phase ground truth.
fn run_backend(
    generator: &Generator,
    choice: BackendChoice,
    envs: &[EnvQos],
    req: &Requirements,
    truth: Option<&[Generated]>,
) -> (BackendRun, Vec<Generated>) {
    let started = Instant::now();
    let results: Vec<Generated> = envs
        .iter()
        .map(|env| {
            generator
                .generate_with(choice, env, &env.ids(), req)
                .expect("random environments are valid")
        })
        .collect();
    let elapsed = started.elapsed();
    let mean_utility = results.iter().map(|g| g.utility).sum::<f64>() / results.len().max(1) as f64;
    let worst_gap = truth.map(|truth| {
        truth
            .iter()
            .zip(&results)
            .map(|(t, g)| utility_gap(t.utility, g.utility))
            .fold(0.0, f64::max)
    });
    let evaluated = results.iter().map(|g| g.evaluated).sum();
    (
        BackendRun {
            mean_utility,
            worst_gap,
            evaluated,
            elapsed,
        },
        results,
    )
}

/// The backend sweep: exhaustive/greedy/beam on every `M <= truth_max`
/// point (gap-gated against the exhaustive optimum), greedy/beam alone on
/// the [`LARGE_M`] points (beam must match or beat greedy per the
/// width-monotonicity theorem).
fn backend_sweep(truth_max: usize, seed: u64, req: &Requirements) -> io::Result<Vec<BackendPoint>> {
    let generator = Generator::builder().parallelism(1).build();
    let beam = BackendChoice::Beam(DEFAULT_BEAM_WIDTH);
    let mut points = Vec::new();
    for m in (4..=truth_max).chain(LARGE_M) {
        let envs = phase_envs(m, seed ^ BACKEND_ENV_SALT);
        let truth = (m <= truth_max).then(|| {
            let started = Instant::now();
            let results: Vec<Generated> = envs
                .iter()
                .map(|env| {
                    generator
                        .generate_with(BackendChoice::Exhaustive, env, &env.ids(), req)
                        .expect("random environments are valid")
                })
                .collect();
            let elapsed = started.elapsed();
            (results, elapsed)
        });
        let truth_results = truth.as_ref().map(|(results, _)| results.as_slice());
        let (greedy, greedy_results) =
            run_backend(&generator, BackendChoice::Greedy, &envs, req, truth_results);
        let (beam_run, beam_results) = run_backend(&generator, beam, &envs, req, truth_results);
        let mut beam_wins = 0;
        for (env_idx, (b, g)) in beam_results.iter().zip(&greedy_results).enumerate() {
            if b.utility < g.utility {
                return Err(io::Error::other(format!(
                    "MONOTONICITY VIOLATION at M={m}, environment #{env_idx}: \
                     beam:{DEFAULT_BEAM_WIDTH} scored {} below greedy's {}",
                    b.utility, g.utility
                )));
            }
            if b.utility > g.utility {
                beam_wins += 1;
            }
        }
        points.push(BackendPoint {
            m,
            exhaustive: truth.map(|(results, elapsed)| BackendRun {
                mean_utility: results.iter().map(|g| g.utility).sum::<f64>()
                    / results.len().max(1) as f64,
                worst_gap: Some(0.0),
                evaluated: results.iter().map(|g| g.evaluated).sum(),
                elapsed,
            }),
            greedy,
            beam: beam_run,
            beam_wins,
        });
    }
    Ok(points)
}

/// Counters of one drift-vs-cadence comparison.
#[derive(Debug, Clone)]
struct DriftOutcome {
    scenario: &'static str,
    invocations: u32,
    slots: usize,
    cadence_replans: u64,
    cadence_satisfied: u32,
    drift_replans: u64,
    drift_triggers: u64,
    drift_holds: u64,
    drift_satisfied: u32,
}

/// Builds the drift scenario's virtual-time gateway: one service over
/// three equivalent microservices on simulated devices (2/3/5 ms, cost
/// 50). With `shift`, the fastest device degrades by +20 ms a third of
/// the way through the run — the latency regime the drift detector must
/// catch.
fn drift_harness(replan_on_drift: bool, reliability: f64, shift: bool) -> Harness {
    let mut specs = Vec::new();
    for (i, ms) in [2u64, 3, 5].iter().enumerate() {
        specs.push(MsSpec {
            name: format!("ms{i}"),
            capability: format!("cap{i}"),
            prior: Qos::new(50.0, *ms as f64, reliability).expect("constants in domain"),
        });
    }
    let mut script = ServiceScript::new(
        "drift-svc",
        specs,
        Requirements::new(200.0, 100.0, 0.5).expect("constants in domain"),
    );
    script.slot_size = 5;
    let config = GatewayConfig::builder()
        .replan_on_drift(replan_on_drift)
        .plan_quantize(0.25)
        .build();
    let mut builder = Harness::builder().script(script).config(config);
    for (i, ms) in [2u64, 3, 5].iter().enumerate() {
        let device = SimulatedProvider::builder(format!("dev{i}/cap{i}"), format!("cap{i}"))
            .cost(50.0)
            .latency(Duration::from_millis(*ms))
            .reliability(reliability)
            .seed(i as u64);
        if shift && i == 0 {
            builder = builder.faulty(
                device,
                FaultPlan::new(vec![FaultEvent {
                    at: Duration::from_millis(60),
                    kind: FaultKind::AddLatency(Duration::from_millis(20)),
                }]),
            );
        } else {
            builder = builder.provider(device);
        }
    }
    builder.build()
}

/// Serves `invocations` requests through [`drift_harness`] twice — once
/// on the fixed cadence, once drift-triggered — and collects the replan
/// and satisfaction counters of both runs.
fn drift_scenario(
    scenario: &'static str,
    reliability: f64,
    shift: bool,
    invocations: u32,
) -> DriftOutcome {
    let serve = |replan_on_drift: bool| {
        let harness = drift_harness(replan_on_drift, reliability, shift);
        let mut satisfied = 0u32;
        for _ in 0..invocations {
            let response = harness
                .invoke("drift-svc")
                .expect("drift service is served");
            if response.success {
                satisfied += 1;
            }
        }
        let snapshot = harness.telemetry().snapshot();
        let service = snapshot
            .service("drift-svc")
            .expect("requests were recorded")
            .clone();
        let slots = harness.gateway().slot_history("drift-svc").len();
        (service, slots, satisfied)
    };
    let (cadence, slots, cadence_satisfied) = serve(false);
    let (drift, _, drift_satisfied) = serve(true);
    DriftOutcome {
        scenario,
        invocations,
        slots,
        cadence_replans: cadence.replans,
        cadence_satisfied,
        drift_replans: drift.replans,
        drift_triggers: drift.drift_replans,
        drift_holds: drift.drift_holds,
        drift_satisfied,
    }
}

/// Checks one drift scenario's gates: the drift trigger must strictly cut
/// the re-plan count, hold at least one boundary, stay within one re-plan
/// per shift of the regime change (responsiveness), and keep satisfaction
/// within 2% of the cadence baseline.
fn check_drift(outcome: &DriftOutcome) -> io::Result<()> {
    let DriftOutcome {
        scenario,
        invocations,
        cadence_replans,
        cadence_satisfied,
        drift_replans,
        drift_holds,
        drift_satisfied,
        ..
    } = outcome;
    if drift_replans >= cadence_replans {
        return Err(io::Error::other(format!(
            "DRIFT GATE at {scenario}: drift-triggered re-planning ran {drift_replans} \
             searches, no fewer than the cadence baseline's {cadence_replans}"
        )));
    }
    if *drift_holds == 0 {
        return Err(io::Error::other(format!(
            "DRIFT GATE at {scenario}: no slot boundary was held inside the quantization band"
        )));
    }
    let tolerance = invocations.div_ceil(50); // 2% of the request stream
    if cadence_satisfied.abs_diff(*drift_satisfied) > tolerance {
        return Err(io::Error::other(format!(
            "DRIFT GATE at {scenario}: satisfaction diverged — cadence satisfied \
             {cadence_satisfied}/{invocations}, drift satisfied {drift_satisfied}/{invocations} \
             (tolerance {tolerance})"
        )));
    }
    Ok(())
}

/// Runs the re-planning benchmark: the cache phase for `M = 4..=max_m`
/// over `slots` slots cycling through `PHASES` (4) recurring environments
/// per point, the backend sweep (exhaustive/greedy/beam with the utility
/// gap gate, plus the `M = 8, 10` approximate-only points), and the
/// drift-vs-cadence gateway comparison. Writes `bench_replan.tsv`,
/// `bench_replan_backends.tsv`, and `bench_replan_drift.tsv` under
/// `reports`, and the counters/gaps (no wall times — the file is
/// byte-reproducible) to `json_out`.
///
/// # Errors
///
/// Returns an error if a report cannot be written — or, deliberately,
/// if a cached slot diverges bit-for-bit from the cold search, if an
/// approximate backend's utility gap exceeds
/// `QCE_REPLAN_MAX_UTILITY_GAP` where ground truth exists, or if the
/// drift trigger fails to cut re-plans at equal satisfaction (the CI
/// smoke job relies on these exit codes). The gap and drift gates fire
/// *after* the artifacts are written.
pub fn run(
    reports: &Path,
    json_out: &Path,
    max_m: usize,
    slots: usize,
    seed: u64,
) -> io::Result<()> {
    let max_m = max_m.clamp(4, 6);
    // At least one full revisit of every phase, so the cache gets to hit.
    let slots = slots.max(2 * PHASES);
    let requirements = sim_requirements();

    let mut report = Report::new(
        format!(
            "bench-replan: slot re-planning, cold vs plan-cache \
             ({slots} slots over {PHASES} recurring environments)"
        ),
        &[
            "M",
            "config",
            "median/slot",
            "speedup",
            "hits",
            "misses",
            "hit rate",
        ],
    );

    let mut json_points = Vec::new();
    let mut final_speedup = None;
    for m in 4..=max_m {
        let envs = phase_envs(m, seed);

        // Single-worker searches throughout: the speedups below are then
        // purely algorithmic (tighter bound, memoized winners), not thread
        // scaling, and the medians are stable enough for a smoke gate.
        let cold_generator = Generator::builder().parallelism(1).build();
        let cache = Arc::new(PlanCache::new(PlanCacheConfig::default()));
        let cached_generator = Generator::builder()
            .parallelism(1)
            .plan_cache(Arc::clone(&cache))
            .build();

        let cold = drive(&cold_generator, &envs, slots, &requirements);
        let cached = drive(&cached_generator, &envs, slots, &requirements);

        check_equivalent(m, &cold.results, &cached.results)?;

        let stats = cache.stats();
        let lookups = stats.hits + stats.misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            stats.hits as f64 / lookups as f64
        };

        let cold_median = median(&cold.per_slot);
        let cached_median = median(&cached.per_slot);
        let speedup = |t: Duration| millis(cold_median) / millis(t).max(1e-9);

        let rows = [
            ("cold", cold_median, 0, 0, None),
            (
                "cached",
                cached_median,
                stats.hits,
                stats.misses,
                Some(hit_rate),
            ),
        ];
        for (config, time, hits, misses, rate) in rows {
            report.row([
                m.to_string(),
                config.to_string(),
                format!("{time:.3?}"),
                format!("{:.1}x", speedup(time)),
                hits.to_string(),
                misses.to_string(),
                rate.map_or_else(|| "-".to_string(), |r| format!("{:.0}%", r * 100.0)),
            ]);
        }
        final_speedup = Some(speedup(cached_median));
        json_points.push(format!(
            "    {{\"m\": {m}, \"candidates\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"hit_rate\": {}, \"winners_identical\": true}}",
            cold.results.first().map_or(0, |g| g.evaluated),
            stats.hits,
            stats.misses,
            fmt_f(hit_rate, 3),
        ));
    }

    if let Some(speedup) = final_speedup {
        report.note(format!(
            "plan-cache speedup over the cold per-slot search at M={max_m}: \
             {speedup:.1}x (target: >=2x median)"
        ));
    }
    report.note("every cached slot verified bit-identical to the cold search");
    report.note("wall-clock medians live in this TSV only; BENCH_replan.json is byte-reproducible");
    report.emit(reports, "bench_replan")?;

    // Phase 2: search backends against exhaustive ground truth.
    let threshold = gap_threshold();
    let backend_points = backend_sweep(max_m, seed, &requirements)?;
    let mut backend_report = Report::new(
        format!(
            "bench-replan backends: exhaustive vs greedy vs beam:{DEFAULT_BEAM_WIDTH} \
             over {PHASES} environments per M (gap ceiling {threshold})"
        ),
        &[
            "M",
            "backend",
            "mean utility",
            "worst gap",
            "estimates",
            "time",
        ],
    );
    let mut worst_gap: f64 = 0.0;
    let mut backend_json = Vec::new();
    for point in &backend_points {
        let rows = [
            point.exhaustive.as_ref().map(|run| ("exhaustive", run)),
            Some(("greedy", &point.greedy)),
            Some((beam_label(), &point.beam)),
        ];
        for (backend, run) in rows.into_iter().flatten() {
            backend_report.row([
                point.m.to_string(),
                backend.to_string(),
                format!("{:+.4}", run.mean_utility),
                run.worst_gap
                    .map_or_else(|| "-".to_string(), |g| format!("{:.2}%", g * 100.0)),
                run.evaluated.to_string(),
                format!("{:.3?}", run.elapsed),
            ]);
        }
        for run in [&point.greedy, &point.beam] {
            if let Some(gap) = run.worst_gap {
                worst_gap = worst_gap.max(gap);
            }
        }
        backend_json.push(format!(
            "    {{\"m\": {}, \"ground_truth\": {}, \"exhaustive_estimates\": {}, \
             \"greedy_mean_utility\": {}, \"greedy_worst_gap\": {}, \
             \"beam_width\": {DEFAULT_BEAM_WIDTH}, \"beam_mean_utility\": {}, \
             \"beam_worst_gap\": {}, \"greedy_estimates\": {}, \"beam_estimates\": {}, \
             \"beam_wins\": {}}}",
            point.m,
            point.exhaustive.is_some(),
            point.exhaustive.as_ref().map_or(0, |run| run.evaluated),
            fmt_f(point.greedy.mean_utility, 6),
            point
                .greedy
                .worst_gap
                .map_or_else(|| "null".to_string(), |g| fmt_f(g, 6)),
            fmt_f(point.beam.mean_utility, 6),
            point
                .beam
                .worst_gap
                .map_or_else(|| "null".to_string(), |g| fmt_f(g, 6)),
            point.greedy.evaluated,
            point.beam.evaluated,
            point.beam_wins,
        ));
    }
    backend_report.note(format!(
        "worst approximate-backend gap against the exhaustive optimum: \
         {:.2}% (ceiling {:.2}%)",
        worst_gap * 100.0,
        threshold * 100.0
    ));
    backend_report.note(
        "M=8,10 have no exhaustive ground truth; beam is checked against greedy \
         (width monotonicity) instead",
    );
    backend_report.emit(reports, "bench_replan_backends")?;

    // Phase 3: drift-triggered vs cadence re-planning on the gateway.
    let drift_outcomes = [
        drift_scenario("steady", 0.95, false, 60),
        drift_scenario("latency-shift", 0.95, true, 60),
    ];
    let mut drift_report = Report::new(
        "bench-replan drift: fixed-cadence vs drift-triggered re-planning \
         (virtual-time gateway, 12 slots of 5)",
        &[
            "scenario",
            "replans (cadence)",
            "replans (drift)",
            "triggers",
            "holds",
            "satisfied (cadence)",
            "satisfied (drift)",
        ],
    );
    let mut drift_json = Vec::new();
    for outcome in &drift_outcomes {
        drift_report.row([
            outcome.scenario.to_string(),
            outcome.cadence_replans.to_string(),
            outcome.drift_replans.to_string(),
            outcome.drift_triggers.to_string(),
            outcome.drift_holds.to_string(),
            format!("{}/{}", outcome.cadence_satisfied, outcome.invocations),
            format!("{}/{}", outcome.drift_satisfied, outcome.invocations),
        ]);
        drift_json.push(format!(
            "    {{\"scenario\": \"{}\", \"invocations\": {}, \"slots\": {}, \
             \"cadence_replans\": {}, \"cadence_satisfied\": {}, \"drift_replans\": {}, \
             \"drift_triggers\": {}, \"drift_holds\": {}, \"drift_satisfied\": {}}}",
            outcome.scenario,
            outcome.invocations,
            outcome.slots,
            outcome.cadence_replans,
            outcome.cadence_satisfied,
            outcome.drift_replans,
            outcome.drift_triggers,
            outcome.drift_holds,
            outcome.drift_satisfied,
        ));
    }
    drift_report.note(
        "gates: drift must re-plan strictly less than cadence, hold at least one \
         boundary, and keep satisfaction within 2% of the baseline",
    );
    drift_report.emit(reports, "bench_replan_drift")?;

    let json = format!(
        "{{\n  \"benchmark\": \"bench-replan\",\n  \"seed\": {seed},\n  \
         \"slots\": {slots},\n  \"phases\": {PHASES},\n  \"points\": [\n{}\n  ],\n  \
         \"gap_ceiling\": {},\n  \"worst_utility_gap\": {},\n  \"backends\": [\n{}\n  ],\n  \
         \"drift\": [\n{}\n  ]\n}}\n",
        json_points.join(",\n"),
        fmt_f(threshold, 6),
        fmt_f(worst_gap, 6),
        backend_json.join(",\n"),
        drift_json.join(",\n"),
    );
    if let Some(parent) = json_out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(json_out, json)?;
    println!(
        "before/after re-planning counters written to {}",
        json_out.display()
    );

    // Gates fire only after every artifact is on disk.
    if worst_gap > threshold {
        return Err(io::Error::other(format!(
            "UTILITY GAP GATE: worst approximate-backend gap {:.4}% exceeds the \
             QCE_REPLAN_MAX_UTILITY_GAP ceiling {:.4}%",
            worst_gap * 100.0,
            threshold * 100.0
        )));
    }
    for outcome in &drift_outcomes {
        check_drift(outcome)?;
    }
    Ok(())
}

fn beam_label() -> &'static str {
    // DEFAULT_BEAM_WIDTH is 4; keep the label in sync without a format
    // allocation per row.
    "beam:4"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        let ms = Duration::from_millis;
        assert_eq!(median(&[]), Duration::ZERO);
        assert_eq!(median(&[ms(7)]), ms(7));
        assert_eq!(median(&[ms(9), ms(1), ms(5)]), ms(5));
        assert_eq!(median(&[ms(1), ms(9), ms(5), ms(3)]), ms(4));
    }

    #[test]
    fn beam_label_matches_default_width() {
        assert_eq!(beam_label(), format!("beam:{DEFAULT_BEAM_WIDTH}"));
    }

    #[test]
    fn gap_threshold_parses_and_defaults() {
        assert_eq!(parse_gap_threshold(None), 0.05);
        assert_eq!(parse_gap_threshold(Some("0.2")), 0.2);
        assert_eq!(parse_gap_threshold(Some("0")), 0.0);
        assert_eq!(parse_gap_threshold(Some("nonsense")), 0.05);
        assert_eq!(parse_gap_threshold(Some("inf")), 0.05);
    }

    #[test]
    fn utility_gap_is_clamped_and_normalized() {
        assert_eq!(utility_gap(2.0, 2.0), 0.0);
        assert_eq!(utility_gap(2.0, 1.0), 0.5);
        assert_eq!(utility_gap(1.0, 2.0), 0.0, "better than truth clamps to 0");
        // Near-zero optima divide by the floor of 1, not by |best|.
        assert_eq!(utility_gap(0.001, -0.099), 0.1);
        assert_eq!(utility_gap(-1.0, -1.5), 0.5);
    }

    #[test]
    fn cached_slots_hit_after_the_first_cycle() {
        let requirements = sim_requirements();
        let envs = phase_envs(4, 17);
        let cache = Arc::new(PlanCache::new(PlanCacheConfig::default()));
        let generator = Generator::builder()
            .parallelism(1)
            .plan_cache(Arc::clone(&cache))
            .build();
        let slots = 3 * PHASES;
        let timed = drive(&generator, &envs, slots, &requirements);
        assert_eq!(timed.results.len(), slots);
        let stats = cache.stats();
        assert_eq!(stats.misses, PHASES as u64, "first cycle misses");
        assert_eq!(stats.hits, (slots - PHASES) as u64, "revisits all hit");
    }

    #[test]
    fn backend_sweep_orders_utilities() {
        let requirements = sim_requirements();
        let points = backend_sweep(4, 5, &requirements).unwrap();
        let ms: Vec<usize> = points.iter().map(|p| p.m).collect();
        assert_eq!(ms, vec![4, 8, 10]);
        let truth_point = &points[0];
        let exhaustive = truth_point.exhaustive.as_ref().expect("ground truth at 4");
        assert!(exhaustive.mean_utility >= truth_point.beam.mean_utility);
        assert!(truth_point.beam.mean_utility >= truth_point.greedy.mean_utility);
        assert!(truth_point.greedy.worst_gap.is_some());
        for large in &points[1..] {
            assert!(large.exhaustive.is_none(), "no ground truth beyond M=6");
            assert!(large.beam.mean_utility >= large.greedy.mean_utility);
            assert!(
                large.greedy.evaluated < large.beam.evaluated,
                "beam spends more search effort than greedy"
            );
        }
    }

    #[test]
    fn drift_scenario_cuts_replans_at_equal_satisfaction() {
        let outcome = drift_scenario("steady", 0.95, false, 60);
        assert_eq!(outcome.slots, 12);
        check_drift(&outcome).unwrap();
        assert!(outcome.drift_replans < outcome.cadence_replans);

        // The gates themselves reject a drift run that saves nothing.
        let stuck = DriftOutcome {
            drift_replans: outcome.cadence_replans,
            ..outcome.clone()
        };
        assert!(check_drift(&stuck).is_err(), "no re-plan savings");
        let never_held = DriftOutcome {
            drift_holds: 0,
            ..outcome.clone()
        };
        assert!(check_drift(&never_held).is_err(), "no held boundary");
        let starved = DriftOutcome {
            drift_satisfied: outcome.cadence_satisfied.saturating_sub(10),
            ..outcome
        };
        assert!(check_drift(&starved).is_err(), "satisfaction regressed");
    }

    #[test]
    fn latency_shift_scenario_trips_the_drift_detector() {
        let outcome = drift_scenario("latency-shift", 0.95, true, 60);
        assert!(
            outcome.drift_triggers >= 1,
            "the +20 ms shift must leave the quantization band \
             (saw {} triggers)",
            outcome.drift_triggers
        );
        check_drift(&outcome).unwrap();
    }

    #[test]
    fn run_writes_report_and_json() {
        let dir = std::env::temp_dir().join(format!("qce-replan-{}", std::process::id()));
        let json = dir.join("BENCH_replan.json");
        run(&dir, &json, 4, 8, 5).unwrap();
        assert!(dir.join("bench_replan.tsv").exists());
        assert!(dir.join("bench_replan_backends.tsv").exists());
        assert!(dir.join("bench_replan_drift.tsv").exists());
        let text = std::fs::read_to_string(&json).unwrap();
        assert!(text.contains("\"m\": 4"));
        assert!(text.contains("\"candidates\": 195"));
        assert!(text.contains("\"winners_identical\": true"));
        assert!(text.contains("\"beam_width\": 4"));
        assert!(text.contains("\"drift\": ["));
        assert!(
            !text.contains("_ms\""),
            "wall-clock timings stay out of the byte-reproducible JSON"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
