//! Reproduction of **Table II**: example strategies over the fire-detection
//! microservices and their estimated QoS — plus the Section III.C.3 worked
//! example comparing Algorithm 1 against the folding baseline and a
//! Monte-Carlo measurement.

use std::num::NonZeroU32;
use std::path::Path;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_sim::{simulate, Environment};
use qce_strategy::estimate::estimate_folding;
use qce_strategy::{Algorithm1, EnvQos, Estimator, Strategy};

use crate::report::{fmt_f, fmt_pct, Report};

/// The Section III.D microservice QoS: `[cost, latency, reliability]` for
/// `a`–`e`.
pub const FIRE_ENV: [(f64, f64, f64); 5] = [
    (50.0, 50.0, 0.6),
    (100.0, 100.0, 0.6),
    (150.0, 150.0, 0.7),
    (200.0, 200.0, 0.7),
    (250.0, 250.0, 0.8),
];

/// Table II rows: `(id, strategy, paper cost, paper latency)`. The paper
/// rounds its numbers; exact arithmetic gives 127.2 / 111.2 / 85.92 where
/// it prints 126 / 111 / 85.
pub const TABLE2_ROWS: [(&str, &str, f64, f64); 4] = [
    ("1", "a-b-c-d-e", 126.0, 126.0),
    ("2", "a*b*c*d*e", 750.0, 81.0),
    ("3", "a-b*c-d-e", 162.0, 111.0),
    ("4", "c*(a*b-d*e)", 372.0, 85.0),
];

/// Runs the Table II reproduction and writes `table2.tsv`.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
///
/// # Panics
///
/// Panics if the hard-coded strategies fail to parse or estimate (they
/// cannot).
pub fn run(reports: &Path) -> std::io::Result<()> {
    run_with(&Algorithm1::new(), reports)
}

/// [`run`] parameterized over the estimator that fills the "Alg.1"
/// columns, so alternative [`Estimator`] implementations can be compared
/// against the paper's numbers.
///
/// # Errors
///
/// Returns an I/O error if the report cannot be written.
///
/// # Panics
///
/// Panics if the hard-coded strategies fail to parse or estimate (they
/// cannot).
pub(crate) fn run_with(estimator: &dyn Estimator, reports: &Path) -> std::io::Result<()> {
    let env = EnvQos::from_triples(&FIRE_ENV).expect("valid QoS");
    let sim_env = Environment::from_triples(&FIRE_ENV).expect("valid QoS");
    let mut rng = ChaCha8Rng::seed_from_u64(2);

    let mut report = Report::new(
        "Table II: execution strategies and estimated QoS",
        &[
            "id",
            "strategy",
            "cost (paper)",
            "cost (Alg.1)",
            "cost (measured)",
            "latency (paper)",
            "latency (Alg.1)",
            "latency (measured)",
            "reliability",
        ],
    );

    for (id, text, paper_cost, paper_latency) in TABLE2_ROWS {
        let strategy = Strategy::parse(text).expect("valid expression");
        let qos = estimator
            .estimate(&strategy, &env)
            .expect("environment covers ids");
        let measured = simulate(
            &strategy,
            &sim_env,
            NonZeroU32::new(30_000).expect("a positive literal"),
            &mut rng,
        )
        .expect("simulates");
        report.row([
            id.to_string(),
            text.to_string(),
            fmt_f(paper_cost, 0),
            fmt_f(qos.cost, 1),
            fmt_f(measured.mean_cost, 1),
            fmt_f(paper_latency, 0),
            fmt_f(qos.latency, 1),
            fmt_f(measured.mean_latency, 1),
            fmt_pct(qos.reliability.value()),
        ]);
    }
    report.note("paper rounds 127.2->126, 163.2->162, 111.2->111, 85.92->85");
    report.note("measured = 30k virtual-time executions per strategy");
    report.emit(reports, "table2")?;

    // Section III.C.3 worked example: Algorithm 1 vs the folding baseline.
    let mut example = Report::new(
        "Section III.C.3: a*b*c with l=(10,90,70), r=(10%,90%,70%)",
        &["estimator", "latency"],
    );
    let env3 = EnvQos::from_triples(&[(1.0, 10.0, 0.1), (1.0, 90.0, 0.9), (1.0, 70.0, 0.7)])
        .expect("valid QoS");
    let sim3 = Environment::from_triples(&[(1.0, 10.0, 0.1), (1.0, 90.0, 0.9), (1.0, 70.0, 0.7)])
        .expect("valid QoS");
    let s = Strategy::parse("a*b*c").expect("valid expression");
    let alg1 = estimator.estimate(&s, &env3).expect("estimates");
    let folded = estimate_folding(&s, &env3).expect("estimates");
    let measured = simulate(
        &s,
        &sim3,
        NonZeroU32::new(60_000).expect("a positive literal"),
        &mut rng,
    )
    .expect("simulates");
    example.row(["Algorithm 1 (ours)".to_string(), fmt_f(alg1.latency, 2)]);
    example.row([
        "folding baseline [15]".to_string(),
        fmt_f(folded.latency, 2),
    ]);
    example.row([
        "measured (60k runs)".to_string(),
        fmt_f(measured.mean_latency, 2),
    ]);
    example.note("paper: 69.4 (ours) vs 73.6 (folding); measurement sides with Algorithm 1");
    example.emit(reports, "section3c3")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_table2_rows_estimate_close_to_paper() {
        let env = EnvQos::from_triples(&FIRE_ENV).unwrap();
        let estimator = Algorithm1::new();
        for (id, text, paper_cost, paper_latency) in TABLE2_ROWS {
            let qos = estimator
                .estimate(&Strategy::parse(text).unwrap(), &env)
                .unwrap();
            // Within 1.5% of the paper's rounded numbers.
            assert!(
                (qos.cost - paper_cost).abs() / paper_cost < 0.015,
                "row {id}: cost {} vs paper {paper_cost}",
                qos.cost
            );
            assert!(
                (qos.latency - paper_latency).abs() / paper_latency < 0.015,
                "row {id}: latency {} vs paper {paper_latency}",
                qos.latency
            );
            assert!((qos.reliability.value() - 0.99712).abs() < 1e-9);
        }
    }

    #[test]
    fn run_writes_reports() {
        let dir = std::env::temp_dir().join(format!("qce-table2-{}", std::process::id()));
        run(&dir).unwrap();
        assert!(dir.join("table2.tsv").exists());
        assert!(dir.join("section3c3.tsv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
