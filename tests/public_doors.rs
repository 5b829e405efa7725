//! Every public door that takes caller input, fed the inputs it must refuse
//! or settle: empty, repeated, 21-id and 65-id lists; NaN and infinities;
//! a zero collector window; zero and overflowing fault weights; measured
//! statistics outside their domains; models out of their `MsId` positions;
//! quantiles outside `(0, 1]`; strategy text nested past the parser's
//! limit; the fewest Monte-Carlo runs and a strategy naming an absent id.
//! Each case runs under `catch_unwind` and must return its error, `None` or
//! its documented value — never unwind. One table spans both library
//! crates, in the manner of the generator's own
//! `unvetted_id_lists_are_typed_errors_everywhere`.

use std::fmt::Debug;
use std::num::NonZeroU32;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce::runtime::{Collector, FaultPlan, FaultProfile, HistogramBucket, HistogramSnapshot};
use qce::sim::correlation::measure_reliability;
use qce::sim::{
    environment_from_placements, simulate, simulate_with, Availability, Device, DeviceKind,
    Environment, EnvironmentError, LatencyDistribution, McStats, MsModel, SharedHost,
    VirtualExecutor,
};
use qce::strategy::enumerate::{
    count_full, count_with_subsets, paper, StrategySampler, MAX_COUNT_M,
};
use qce::strategy::estimate::latency_mixture;
use qce::strategy::expr::MAX_NESTING_DEPTH;
use qce::strategy::pareto::pareto_strategies;
use qce::strategy::{
    Algorithm1, BackendChoice, EnvQos, EstimateError, GenerateError, Generator, IdSet, MsId,
    ParseError, Qos, QosError, Reliability, Requirements, Strategy, StrategyIter,
};

/// What a case found wrong, if anything.
type Verdict = Result<(), String>;

type Case = (String, Box<dyn Fn() -> Verdict>);

fn expect<T: PartialEq + Debug>(got: T, want: T) -> Verdict {
    if got == want {
        Ok(())
    } else {
        Err(format!("got {got:?}, want {want:?}"))
    }
}

/// For results whose error carries a NaN, which equals nothing.
fn expect_that<T: Debug>(got: T, holds: impl Fn(&T) -> bool) -> Verdict {
    if holds(&got) {
        Ok(())
    } else {
        Err(format!("unexpected {got:?}"))
    }
}

fn ids(m: usize) -> Vec<MsId> {
    (0..m).map(MsId).collect()
}

/// The id lists every id door is fed, each with the error a door that vets
/// it must give, and the one a door that also enumerates `F(M)` must give.
fn lists() -> Vec<(
    &'static str,
    Vec<MsId>,
    Option<GenerateError>,
    GenerateError,
)> {
    let too_many = |got| GenerateError::TooManyMicroservices {
        got,
        max: MAX_COUNT_M,
    };
    let repeated = GenerateError::DuplicateMicroservice(MsId(0));
    vec![
        (
            "empty",
            Vec::new(),
            Some(GenerateError::NoMicroservices),
            GenerateError::NoMicroservices,
        ),
        (
            "repeated",
            vec![MsId(0), MsId(1), MsId(0)],
            Some(repeated.clone()),
            repeated,
        ),
        ("21 ids", ids(21), None, too_many(21)),
        ("65 ids", ids(65), None, too_many(65)),
    ]
}

/// Every public search entry point of [`Generator`], with whether it
/// enumerates `F(M)`; each returns the length of its strategy.
type Search = fn(&Generator, &EnvQos, &[MsId], &Requirements) -> Result<usize, GenerateError>;

fn searches() -> Vec<(&'static str, bool, Search)> {
    vec![
        ("generate", false, |g, e, i, r| {
            g.generate(e, i, r).map(|o| o.strategy.len())
        }),
        ("generate_with(exhaustive)", true, |g, e, i, r| {
            let out = g.generate_with(BackendChoice::Exhaustive, e, i, r);
            out.map(|o| o.strategy.len())
        }),
        ("generate_with(threshold)", false, |g, e, i, r| {
            let out = g.generate_with(BackendChoice::Threshold, e, i, r);
            out.map(|o| o.strategy.len())
        }),
        ("generate_with(greedy)", false, |g, e, i, r| {
            let out = g.generate_with(BackendChoice::Greedy, e, i, r);
            out.map(|o| o.strategy.len())
        }),
        ("generate_with(beam)", false, |g, e, i, r| {
            let out = g.generate_with(BackendChoice::Beam(1), e, i, r);
            out.map(|o| o.strategy.len())
        }),
        ("exhaustive", true, |g, e, i, r| {
            g.exhaustive(e, i, r).map(|o| o.strategy.len())
        }),
        ("approximation", false, |g, e, i, r| {
            g.approximation(e, i, r).map(|o| o.strategy.len())
        }),
        ("failover", false, |g, e, i, r| {
            g.failover(e, i, r).map(|o| o.strategy.len())
        }),
        ("failover_in_order", false, |g, e, i, r| {
            g.failover_in_order(e, i, r).map(|o| o.strategy.len())
        }),
        ("speculative_parallel", false, |g, e, i, r| {
            g.speculative_parallel(e, i, r).map(|o| o.strategy.len())
        }),
    ]
}

/// A strategy-space count.
type Count = fn(usize) -> Option<u128>;

/// An environment covering all 65 ids.
fn wide() -> EnvQos {
    (0..65)
        .map(|i| Qos::new(10.0 + f64::from(i), 20.0, 0.5).unwrap())
        .collect()
}

fn req() -> Requirements {
    Requirements::new(400.0, 90.0, 0.95).unwrap()
}

fn id_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();
    for (list, ids, vetted, spanned) in lists() {
        let case = |door: &str| format!("{door}({list})");
        let (l, v) = (ids.clone(), vetted.clone());
        cases.push((
            case("IdSet::new"),
            Box::new(move || {
                let want = v.clone().map_or(Ok(l.len()), Err);
                expect(IdSet::new(&l).map(|set| set.len()), want)
            }),
        ));
        let (l, s) = (ids.clone(), spanned.clone());
        cases.push((
            case("StrategyIter::over"),
            Box::new(move || {
                let got = IdSet::new(&l).and_then(StrategyIter::over);
                expect(got.err(), Some(s.clone()))
            }),
        ));
        let (l, s) = (ids.clone(), spanned.clone());
        cases.push((
            case("StrategySampler::new"),
            Box::new(move || {
                let got = IdSet::new(&l).and_then(StrategySampler::new);
                expect(got.err(), Some(s.clone()))
            }),
        ));
        let (l, s) = (ids.clone(), spanned.clone());
        cases.push((
            case("pareto_strategies"),
            Box::new(move || {
                let front = IdSet::new(&l)
                    .and_then(|set| pareto_strategies(&wide(), set, &Algorithm1::new()));
                expect(front.err(), Some(s.clone()))
            }),
        ));
        for (door, enumerates, search) in searches() {
            let (l, v, s) = (ids.clone(), vetted.clone(), spanned.clone());
            cases.push((
                case(&format!("Generator::{door}")),
                Box::new(move || {
                    let want = match (&v, enumerates) {
                        (Some(err), _) => Err(err.clone()),
                        (None, true) => Err(s.clone()),
                        (None, false) => Ok(l.len()),
                    };
                    expect(search(&Generator::default(), &wide(), &l, &req()), want)
                }),
            ));
        }
    }
    for m in [MAX_COUNT_M + 1, 65] {
        let counts: [(&str, Count); 4] = [
            ("count_full", count_full),
            ("count_with_subsets", count_with_subsets),
            ("paper::count_table1", paper::count_table1),
            ("paper::count_table1_subsets", paper::count_table1_subsets),
        ];
        for (door, count) in counts {
            cases.push((
                format!("{door}({m})"),
                Box::new(move || expect(count(m), None)),
            ));
        }
    }
    cases.push((
        "count_full(0)".to_string(),
        Box::new(|| expect(count_full(0), Some(0))),
    ));
    cases
}

fn value_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = vec![
        (
            "Reliability::clamped(NaN)".to_string(),
            Box::new(|| expect(Reliability::clamped(f64::NAN), Reliability::NEVER)),
        ),
        (
            "Reliability::clamped(∞)".to_string(),
            Box::new(|| expect(Reliability::clamped(f64::INFINITY), Reliability::ALWAYS)),
        ),
        (
            "Reliability::clamped(-∞)".to_string(),
            Box::new(|| expect(Reliability::clamped(f64::NEG_INFINITY), Reliability::NEVER)),
        ),
        (
            "EnvQos::set(absent id)".to_string(),
            Box::new(|| {
                let mut env = EnvQos::from_triples(&[(1.0, 1.0, 0.5)]).unwrap();
                let qos = Qos::new(2.0, 2.0, 0.5).unwrap();
                let missing = Err(EstimateError::MissingMicroservice(MsId(3)));
                expect(env.set(MsId(3), qos), missing)
            }),
        ),
        (
            "Collector::new(0)".to_string(),
            Box::new(|| expect(Collector::new(0).window(), 1)),
        ),
        (
            "FaultPlan::seeded(all weights 0)".to_string(),
            Box::new(|| {
                let profile = FaultProfile {
                    crash_weight: 0,
                    latency_weight: 0,
                    byzantine_weight: 0,
                    ..FaultProfile::default()
                };
                let plan = FaultPlan::seeded(1, Duration::from_secs(1), &profile);
                expect(plan, FaultPlan::none())
            }),
        ),
        (
            "FaultPlan::seeded(weights past u32)".to_string(),
            Box::new(|| {
                let profile = FaultProfile {
                    crash_weight: u32::MAX,
                    latency_weight: 1,
                    ..FaultProfile::default()
                };
                let plan = FaultPlan::seeded(1, Duration::from_secs(1), &profile);
                expect_that(plan.events().len(), |&n| n > 0)
            }),
        ),
        (
            format!("Strategy::parse({} deep)", MAX_NESTING_DEPTH + 1),
            Box::new(|| {
                let depth = MAX_NESTING_DEPTH + 1;
                let text = format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
                expect_that(Strategy::parse(&text), |r| {
                    matches!(r, Err(ParseError::TooDeep { .. }))
                })
            }),
        ),
    ];
    for bad in [1.5, -0.25, f64::NAN, f64::INFINITY] {
        cases.push((
            format!("SharedHost::new({bad})"),
            Box::new(move || {
                expect_that(SharedHost::new(vec![MsId(0)], bad), |r| {
                    matches!(r, Err(QosError::ReliabilityOutOfRange(_)))
                })
            }),
        ));
    }
    let stats = McStats {
        runs: 1,
        success_rate: 0.5,
        mean_latency: 1.0,
        mean_cost: 1.0,
        std_latency: 0.0,
        std_cost: 0.0,
    };
    let bad_stats = [
        (
            "success_rate 1.5",
            McStats {
                success_rate: 1.5,
                ..stats
            },
        ),
        (
            "success_rate NaN",
            McStats {
                success_rate: f64::NAN,
                ..stats
            },
        ),
        (
            "mean_cost -1",
            McStats {
                mean_cost: -1.0,
                ..stats
            },
        ),
        (
            "mean_latency ∞",
            McStats {
                mean_latency: f64::INFINITY,
                ..stats
            },
        ),
    ];
    for (field, bad) in bad_stats {
        cases.push((
            format!("McStats::as_qos({field})"),
            Box::new(move || expect_that(bad.as_qos(), Result::is_err)),
        ));
    }
    let model = |id| MsModel::new(MsId(id), 0.5, LatencyDistribution::Constant(1.0), 1.0).unwrap();
    let misindexed = || {
        Some(EnvironmentError::Misindexed {
            position: 1,
            id: MsId(0),
        })
    };
    cases.push((
        "Environment::new(MsId 0 twice)".to_string(),
        Box::new(move || {
            expect(
                Environment::new(vec![model(0), model(0)]).err(),
                misindexed(),
            )
        }),
    ));
    cases.push((
        "environment_from_placements(MsId 0 twice)".to_string(),
        Box::new(move || {
            let device = Device::new("rack", DeviceKind::EdgeServer, Availability::AlwaysOn);
            let placements = [(device.clone(), model(0)), (device, model(0))];
            expect(environment_from_placements(&placements).err(), misindexed())
        }),
    ));
    let nan_inf = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for bad in nan_inf {
        for (at, triple) in [(bad, 1.0, 0.5), (1.0, bad, 0.5), (1.0, 1.0, bad)]
            .into_iter()
            .enumerate()
        {
            cases.push((
                format!("Qos::new({bad} at {at})"),
                Box::new(move || {
                    let (c, l, r) = triple;
                    expect_that(Qos::new(c, l, r), Result::is_err)
                }),
            ));
        }
    }
    for q in [0.0, -1.0, f64::NAN, 1.5] {
        cases.push((
            format!("LatencyMixture::quantile({q})"),
            Box::new(move || {
                let env = EnvQos::from_triples(&[(1.0, 10.0, 0.5), (1.0, 20.0, 0.5)]).unwrap();
                let mix = latency_mixture(&Strategy::parse("a*b").unwrap(), &env).unwrap();
                expect(mix.quantile(q), None)
            }),
        ));
        cases.push((
            format!("HistogramSnapshot::quantile({q})"),
            Box::new(move || {
                let histogram = HistogramSnapshot {
                    count: 1,
                    sum: 1.0,
                    overflow: 0,
                    buckets: vec![HistogramBucket { le: 1.0, count: 1 }],
                };
                expect(histogram.quantile(q), None)
            }),
        ));
    }
    cases
}

/// The Monte-Carlo doors take their run count as `NonZeroU32`, so zero
/// runs cannot be asked for; the fewest they can run is one.
fn run_cases() -> Vec<Case> {
    let env = || Environment::from_triples(&[(1.0, 10.0, 0.5)]).unwrap();
    let rng = || ChaCha8Rng::seed_from_u64(1);
    let one = Strategy::parse("a").unwrap();
    let absent = Strategy::parse("a-b").unwrap();
    let missing = EstimateError::MissingMicroservice(MsId(1));
    let host = || [SharedHost::new(vec![MsId(0)], 0.5).unwrap()];
    let (s1, s2, s3, s4) = (one.clone(), one.clone(), one, absent.clone());
    vec![
        (
            "simulate(1 run)".to_string(),
            Box::new(move || {
                let stats = simulate(&s1, &env(), NonZeroU32::MIN, &mut rng());
                expect(stats.map(|s| (s.runs, s.std_latency)), Ok((1, 0.0)))
            }),
        ),
        (
            "simulate_with(1 run)".to_string(),
            Box::new(move || {
                let executor = VirtualExecutor::without_cancellation_charges();
                let stats = simulate_with(&executor, &s2, &env(), NonZeroU32::MIN, &mut rng());
                expect(stats.map(|s| s.runs), Ok(1))
            }),
        ),
        (
            "measure_reliability(1 run)".to_string(),
            Box::new(move || {
                let measured =
                    measure_reliability(&s3, &env(), &host(), NonZeroU32::MIN, &mut rng());
                expect_that(measured, |r| matches!(r, Ok(x) if *x == 0.0 || *x == 1.0))
            }),
        ),
        (
            "simulate(absent id)".to_string(),
            Box::new(move || {
                let stats = simulate(&s4, &env(), NonZeroU32::MIN, &mut rng());
                expect(stats.err(), Some(missing.clone()))
            }),
        ),
        (
            "measure_reliability(absent id)".to_string(),
            Box::new(move || {
                let runs = NonZeroU32::new(10).unwrap();
                let measured = measure_reliability(&absent, &env(), &host(), runs, &mut rng());
                expect(
                    measured.err(),
                    Some(EstimateError::MissingMicroservice(MsId(1))),
                )
            }),
        ),
    ]
}

#[test]
fn no_public_door_unwinds_on_its_input() {
    let cases: Vec<Case> = id_cases()
        .into_iter()
        .chain(value_cases())
        .chain(run_cases())
        .collect();
    let mut failures = Vec::new();
    for (name, case) in &cases {
        match catch_unwind(AssertUnwindSafe(case)) {
            Ok(Ok(())) => {}
            Ok(Err(wrong)) => failures.push(format!("{name}: {wrong}")),
            Err(_) => failures.push(format!("{name}: unwound")),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // Four lists through four doors and ten searches, eight counts past
    // the limit and one of nothing; eight values, four host availabilities,
    // four measured statistics, two misindexed model lists, nine non-finite
    // QoS fields, eight quantiles; five through the three Monte-Carlo doors.
    assert_eq!(
        cases.len(),
        4 * (4 + 10) + 8 + 1 + 8 + 4 + 4 + 2 + 9 + 8 + 5
    );
}
