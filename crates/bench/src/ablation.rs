//! Ablation studies for the design choices called out in `DESIGN.md`:
//!
//! * **`k` sensitivity** — how the utility penalty factor (Equation 1's
//!   `k > 1`) steers the generated strategy between cost- and
//!   latency-efficiency;
//! * **collector window** — responsiveness vs noise of the feedback loop
//!   under the Fig. 8 drift schedule;
//! * **cost semantics** — how much of a parallel strategy's cost is
//!   Assumption 2 (charging cancelled losers), measured by re-running
//!   Table II under a hypothetical free-preemption platform;
//! * **latency-distribution robustness** — Algorithm 1 consumes *mean*
//!   latencies; quantify its error when real latencies are uniform or
//!   exponential around the same mean.

use std::num::NonZeroU32;
use std::path::Path;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_sim::{
    simulate, simulate_with, Environment, LatencyDistribution, MsModel, VirtualExecutor,
};
use qce_strategy::estimate::estimate;
use qce_strategy::{EnvQos, Generator, MsId, Requirements, Strategy, UtilityIndex};

use crate::report::{fmt_f, fmt_pct, Report};
use crate::table2::FIRE_ENV;

/// `k` values swept by the penalty ablation.
pub const K_SWEEP: [f64; 5] = [1.2, 2.0, 3.0, 5.0, 10.0];

/// Runs the `k`-sensitivity ablation: the fire-detection environment with
/// the simulation requirements, generated exhaustively per `k`.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
///
/// # Panics
///
/// Panics only on invalid constants (cannot happen).
pub(crate) fn k_sensitivity(reports: &Path) -> std::io::Result<()> {
    let env = EnvQos::from_triples(&FIRE_ENV).expect("valid QoS");
    let mut report = Report::new(
        "Ablation: utility penalty k (Eq. 1) on the fire-detection environment",
        &[
            "Qc,Ql,Qr",
            "k",
            "generated strategy",
            "cost",
            "latency",
            "reliability",
            "utility",
        ],
    );
    // Two requirement profiles: the simulation default (where fail-over
    // dominates outright) and a latency-tight budgeted profile where k
    // visibly trades cost for latency.
    let profiles = [
        Requirements::new(100.0, 100.0, 0.97).expect("valid"),
        Requirements::new(400.0, 90.0, 0.97).expect("valid"),
    ];
    for requirements in profiles {
        for k in K_SWEEP {
            let generator = Generator::builder()
                .utility(UtilityIndex::new(k).expect("k > 1"))
                .build();
            let generated = generator
                .exhaustive(&env, &env.ids(), &requirements)
                .expect("valid environment");
            report.row([
                format!(
                    "{:.0},{:.0},{:.0}%",
                    requirements.cost,
                    requirements.latency,
                    requirements.reliability.percent()
                ),
                fmt_f(k, 1),
                generated.strategy.to_string(),
                fmt_f(generated.qos.cost, 1),
                fmt_f(generated.qos.latency, 1),
                fmt_pct(generated.qos.reliability.value()),
                fmt_f(generated.utility, 3),
            ]);
        }
    }
    report.note("higher k punishes requirement violations harder: under the tight");
    report.note("latency budget the winner shifts from a cheap mostly-sequential plan");
    report.note("to increasingly parallel (costlier, faster) plans as k grows");
    report.emit(reports, "ablation_k")?;
    Ok(())
}

/// The generated strategy under the latency-tight profile changes with `k`
/// (regression guard for the ablation's headline effect).
#[cfg(test)]
fn k_changes_the_winner() -> bool {
    let env = EnvQos::from_triples(&FIRE_ENV).expect("valid QoS");
    let requirements = Requirements::new(400.0, 90.0, 0.97).expect("valid");
    let pick = |k: f64| {
        Generator::builder()
            .utility(UtilityIndex::new(k).expect("k > 1"))
            .build()
            .exhaustive(&env, &env.ids(), &requirements)
            .expect("valid environment")
            .strategy
    };
    pick(1.2) != pick(10.0)
}

/// Runs the collector-window ablation on the Fig. 8 drift schedule.
///
/// For each window size, measures how many slots the feedback loop needs
/// after the reliability drop before it stops leading with the degraded
/// sensor, and how often the strategy churns during the healthy phase.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
///
/// # Panics
///
/// Panics if the testbed fails to serve requests (cannot happen).
pub(crate) fn window_sensitivity(
    reports: &Path,
    per_slot: u32,
    latency_scale: f64,
) -> std::io::Result<()> {
    let mut report = Report::new(
        "Ablation: collector window vs adaptation lag (Fig. 8 schedule)",
        &[
            "window",
            "slots to demote after drop",
            "healthy-phase strategy changes",
            "degraded-phase avg success",
        ],
    );
    for window in [10usize, 30, 100, 300] {
        let outcome = run_drift_with_window(window, per_slot, latency_scale);
        report.row([
            window.to_string(),
            outcome
                .slots_to_demote
                .map_or_else(|| ">6".to_string(), |s| s.to_string()),
            outcome.healthy_changes.to_string(),
            fmt_pct(outcome.degraded_success),
        ]);
    }
    report.note("small windows adapt fast but churn; large windows are stable but slow —");
    report.note("the gateway default (100 = one slot) matches the paper's per-slot stats");
    report.emit(reports, "ablation_window")?;
    Ok(())
}

struct DriftOutcome {
    slots_to_demote: Option<u32>,
    healthy_changes: usize,
    degraded_success: f64,
}

fn run_drift_with_window(window: usize, per_slot: u32, latency_scale: f64) -> DriftOutcome {
    use qce_runtime::{GatewayConfig, Request, WallClock};
    // Rebuild the testbed with a custom collector window.
    let tb = crate::testbed::build_with_config(
        per_slot,
        latency_scale,
        GatewayConfig::builder().collector_window(window).build(),
        std::sync::Arc::new(WallClock::new()),
    );
    let drop_at = u64::from(per_slot) * 2; // drop at the start of slot 2
    let mut executed = 0u64;
    let mut strategies: Vec<String> = Vec::new();
    let mut degraded_ok = 0u32;
    let mut degraded_n = 0u32;
    for slot in 0..8u32 {
        for _ in 0..per_slot {
            if executed == drop_at {
                tb.sensor.set_reliability(0.2);
            }
            let response = tb
                .gateway
                .submit(Request::new(crate::testbed::SERVICE))
                .expect("providers registered");
            executed += 1;
            if slot >= 2 {
                degraded_n += 1;
                if response.success {
                    degraded_ok += 1;
                }
            }
        }
        strategies.push(
            tb.gateway
                .current_strategy(crate::testbed::SERVICE)
                .unwrap_or_default(),
        );
    }
    // Healthy phase = slots 0..2; count strategy changes between slots 1..2
    // (slot 0 is always the default).
    let healthy_changes = strategies[..2].windows(2).filter(|w| w[0] != w[1]).count();
    let slots_to_demote = strategies[2..]
        .iter()
        .position(|s| !s.starts_with("readTempSensor"))
        .map(|p| p as u32 + 1);
    DriftOutcome {
        slots_to_demote,
        healthy_changes,
        degraded_success: f64::from(degraded_ok) / f64::from(degraded_n.max(1)),
    }
}

/// Runs the Assumption-2 cost ablation: Table II strategies measured with
/// and without charging cancelled invocations.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
///
/// # Panics
///
/// Panics only on invalid constants (cannot happen).
pub(crate) fn cost_semantics(reports: &Path) -> std::io::Result<()> {
    let env = Environment::from_triples(&FIRE_ENV).expect("valid QoS");
    let mut report = Report::new(
        "Ablation: Assumption-2 cost vs free preemption (Table II strategies)",
        &[
            "strategy",
            "cost (Assumption 2)",
            "cost (free preemption)",
            "waste",
        ],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for text in ["a-b-c-d-e", "a*b*c*d*e", "a-b*c-d-e", "c*(a*b-d*e)"] {
        let strategy = Strategy::parse(text).expect("valid");
        let charged = simulate(
            &strategy,
            &env,
            NonZeroU32::new(20_000).expect("a positive literal"),
            &mut rng,
        )
        .expect("simulates");
        let free = simulate_with(
            &VirtualExecutor::without_cancellation_charges(),
            &strategy,
            &env,
            NonZeroU32::new(20_000).expect("a positive literal"),
            &mut rng,
        )
        .expect("simulates");
        let waste = 1.0 - free.mean_cost / charged.mean_cost;
        report.row([
            text.to_string(),
            fmt_f(charged.mean_cost, 1),
            fmt_f(free.mean_cost, 1),
            fmt_pct(waste),
        ]);
    }
    report.note("waste = fraction of the charged cost paid for cancelled losers;");
    report.note("parallel-heavy strategies overpay most, which is why Assumption 2");
    report.note("makes the generator prefer sequential stages when cost is tight");
    report.emit(reports, "ablation_cost")?;
    Ok(())
}

/// Runs the latency-distribution robustness ablation: the same mean
/// latencies realized as constant, uniform, and exponential distributions.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
///
/// # Panics
///
/// Panics only on invalid constants (cannot happen).
pub(crate) fn latency_robustness(reports: &Path) -> std::io::Result<()> {
    let mut report = Report::new(
        "Ablation: Algorithm 1 error vs latency distribution (same means)",
        &[
            "strategy",
            "distribution",
            "est latency",
            "measured",
            "error %",
        ],
    );
    let means = [50.0, 100.0, 150.0];
    let reliabilities = [0.6, 0.6, 0.7];
    let make_env = |shape: &str| -> Environment {
        Environment::new(
            means
                .iter()
                .zip(reliabilities)
                .enumerate()
                .map(|(i, (&mean, r))| {
                    let dist = match shape {
                        "constant" => LatencyDistribution::Constant(mean),
                        "uniform±50%" => LatencyDistribution::Uniform {
                            min: mean * 0.5,
                            max: mean * 1.5,
                        },
                        "exponential" => LatencyDistribution::Exponential { mean },
                        _ => unreachable!(),
                    };
                    MsModel::new(MsId(i), r, dist, 50.0).expect("valid")
                })
                .collect(),
        )
        .expect("models are in MsId order")
    };
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    for text in ["a-b-c", "a*b*c", "a-b*c"] {
        let strategy = Strategy::parse(text).expect("valid");
        for shape in ["constant", "uniform±50%", "exponential"] {
            let env = make_env(shape);
            let est = estimate(&strategy, &env.mean_qos_table()).expect("estimates");
            let measured = simulate(
                &strategy,
                &env,
                NonZeroU32::new(30_000).expect("a positive literal"),
                &mut rng,
            )
            .expect("simulates");
            let err = qce_sim::relative_error_pct(measured.mean_latency, est.latency);
            report.row([
                text.to_string(),
                shape.to_string(),
                fmt_f(est.latency, 1),
                fmt_f(measured.mean_latency, 1),
                fmt_f(err, 2),
            ]);
        }
    }
    report.note("fail-over latency is linear in per-ms latency, so mean-based estimates");
    report.note("stay exact under any distribution; parallel races are concave (E[min] <");
    report.note("min of means), so high-variance latencies make Alg.1 pessimistic — the");
    report.note("collector's measured means absorb most of this in the running system");
    report.emit(reports, "ablation_latency")?;
    Ok(())
}

/// Runs the correlated-failure ablation: equivalents co-located on one
/// host share its fate, eroding the redundancy Algorithm 1's
/// independence-based reliability promises.
///
/// Marginal per-microservice reliabilities are held fixed (what the
/// collector would observe), so the whole gap is a joint-distribution
/// effect invisible to the estimator.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
///
/// # Panics
///
/// Panics only on invalid constants (cannot happen).
pub fn correlation(reports: &Path) -> std::io::Result<()> {
    use qce_sim::SharedHost;
    let mut report = Report::new(
        "Ablation: shared-fate (correlated) failures vs Algorithm 1's independence",
        &[
            "host availability",
            "placement",
            "estimated reliability",
            "measured reliability",
            "overestimate",
        ],
    );
    // Three equivalents, marginal reliability 0.6 each; fail-over strategy.
    let env = Environment::from_triples(&[(10.0, 5.0, 0.6), (10.0, 8.0, 0.6), (10.0, 11.0, 0.6)])
        .expect("valid QoS");
    let strategy = Strategy::parse("a-b-c").expect("valid");
    let independent = estimate(&strategy, &env.mean_qos_table())
        .expect("estimates")
        .reliability
        .value();
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    for h in [1.0, 0.9, 0.8, 0.7] {
        let host = |members| SharedHost::new(members, h).expect("a probability");
        for (placement, hosts) in [
            (
                "co-located (1 host)",
                vec![host(vec![MsId(0), MsId(1), MsId(2)])],
            ),
            (
                "isolated (3 hosts)",
                vec![
                    host(vec![MsId(0)]),
                    host(vec![MsId(1)]),
                    host(vec![MsId(2)]),
                ],
            ),
        ] {
            let Some(adjusted) = qce_sim::preserve_marginals(&env, &hosts) else {
                continue; // marginal 0.6 not reachable under this h
            };
            let measured = qce_sim::correlation::measure_reliability(
                &strategy,
                &adjusted,
                &hosts,
                NonZeroU32::new(30_000).expect("a positive literal"),
                &mut rng,
            )
            .expect("simulates");
            report.row([
                fmt_pct(h),
                placement.to_string(),
                fmt_pct(independent),
                fmt_pct(measured),
                fmt_f((independent - measured) * 100.0, 1),
            ]);
        }
    }
    report.note("estimated = 1 - prod(1-r) from marginals (what the collector feeds the");
    report.note("generator); co-located equivalents cap reliability at the host's");
    report.note("availability, so the independence estimate overstates redundancy");
    report.emit(reports, "ablation_correlation")?;
    Ok(())
}

/// Runs all five ablations.
///
/// # Errors
///
/// Returns an I/O error if a report cannot be written.
pub fn run(reports: &Path, per_slot: u32, latency_scale: f64) -> std::io::Result<()> {
    k_sensitivity(reports)?;
    cost_semantics(reports)?;
    latency_robustness(reports)?;
    correlation(reports)?;
    window_sensitivity(reports, per_slot, latency_scale)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_flips_the_generated_strategy_under_tight_latency() {
        assert!(super::k_changes_the_winner());
    }

    #[test]
    fn k_sweep_writes_report() {
        let dir = std::env::temp_dir().join(format!("qce-abl-k-{}", std::process::id()));
        k_sensitivity(&dir).unwrap();
        assert!(dir.join("ablation_k.tsv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cost_semantics_shows_parallel_waste() {
        let env = Environment::from_triples(&FIRE_ENV).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let parallel = Strategy::parse("a*b*c*d*e").unwrap();
        let charged = simulate(&parallel, &env, NonZeroU32::new(5_000).unwrap(), &mut rng).unwrap();
        let free = simulate_with(
            &VirtualExecutor::without_cancellation_charges(),
            &parallel,
            &env,
            NonZeroU32::new(5_000).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert!(
            free.mean_cost < charged.mean_cost * 0.75,
            "parallel waste should exceed 25%: {} vs {}",
            free.mean_cost,
            charged.mean_cost
        );
        // Pure fail-over never cancels anyone, so the semantics agree.
        let failover = Strategy::parse("a-b-c-d-e").unwrap();
        let charged = simulate(&failover, &env, NonZeroU32::new(5_000).unwrap(), &mut rng).unwrap();
        let free = simulate_with(
            &VirtualExecutor::without_cancellation_charges(),
            &failover,
            &env,
            NonZeroU32::new(5_000).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert!((free.mean_cost - charged.mean_cost).abs() / charged.mean_cost < 0.05);
    }

    #[test]
    fn latency_robustness_failover_exact_parallel_biased() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let make = |dist: LatencyDistribution| {
            Environment::new(vec![
                MsModel::new(MsId(0), 0.6, dist, 50.0).unwrap(),
                MsModel::new(
                    MsId(1),
                    0.6,
                    match dist {
                        LatencyDistribution::Exponential { .. } => {
                            LatencyDistribution::Exponential { mean: 100.0 }
                        }
                        _ => LatencyDistribution::Constant(100.0),
                    },
                    50.0,
                )
                .unwrap(),
            ])
            .expect("models are in MsId order")
        };
        // Exponential parallel: measured mean latency below the mean-based
        // estimate (E[min] < min of means effect).
        let env = make(LatencyDistribution::Exponential { mean: 50.0 });
        let s = Strategy::parse("a*b").unwrap();
        let est = estimate(&s, &env.mean_qos_table()).unwrap();
        let measured = simulate(&s, &env, NonZeroU32::new(40_000).unwrap(), &mut rng).unwrap();
        assert!(
            measured.mean_latency < est.latency,
            "measured {} vs estimate {}",
            measured.mean_latency,
            est.latency
        );
    }

    #[test]
    fn higher_k_never_increases_violation_count() {
        let env = EnvQos::from_triples(&FIRE_ENV).unwrap();
        let requirements = Requirements::new(100.0, 100.0, 0.97).unwrap();
        let mut violations: Vec<usize> = Vec::new();
        for k in [1.5, 3.0, 10.0] {
            let generator = Generator::builder()
                .utility(UtilityIndex::new(k).unwrap())
                .build();
            let generated = generator
                .exhaustive(&env, &env.ids(), &requirements)
                .unwrap();
            violations.push(requirements.violations(&generated.qos).len());
        }
        assert!(
            violations.windows(2).all(|w| w[1] <= w[0] + 1),
            "violation counts should not blow up with k: {violations:?}"
        );
    }
}
