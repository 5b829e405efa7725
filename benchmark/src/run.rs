//! One benchmark run: set-up, the timed phase, the output checks, and —
//! with `--trace 1` — the traced phase and the per-layer probes.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::calibrate::Calibrator;
use crate::probes::{self, Reading};
use crate::procfs;
use crate::rig::Hooks;
use crate::spans::{self, Span};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, spread};
use crate::workloads::{shape, Observer, SegmentTiming, Session, Shape};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Request counts divided by 100 and a sub-second timed phase: a smoke
    /// run whose numbers mean nothing and are never written as a baseline.
    pub quick: bool,
    /// Append the result to this file (one JSON object per line).
    pub out: Option<PathBuf>,
    /// Self-test hook: corrupt the oracle so the output check must fail.
    pub break_oracle: bool,
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The same statistic over the timings as the clock gave them, where
    /// `value` is scaled by the reference kernel.
    pub raw: Option<f64>,
    /// Segment-to-segment spread (IQR over median) where the value is a
    /// median over segments.
    pub spread: Option<f64>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub args: RunArgs,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub warnings: Vec<String>,
    pub nproc: usize,
    /// The CPU the process was pinned to, if it was.
    pub pinned_cpu: Option<usize>,
    pub loadavg_start: f64,
    /// Share of the run's wall time the hypervisor gave the pinned CPU to
    /// someone else (`/proc/stat` steal).
    pub steal_share: f64,
    pub commit: String,
    /// Per segment, in run order and as the clock gave them: throughput
    /// (1/s), client p50 and p99 (µs), and the reference kernel's mean and
    /// median reading during the segment (µs) — what a later reader needs
    /// to redo or to doubt the scaling.
    pub segments: Vec<[f64; 5]>,
    /// The reference kernel's undisturbed and median reading (µs) over the
    /// run: how disturbed the box was.
    pub calibration_us: (f64, f64),
}

/// Fresh rigs a timed run is spread over (and set-ups it takes the median
/// of).
const SLICES: usize = 5;
/// Segments every timed phase completes, however slow the box.
const MIN_SEGMENTS: usize = 3;
/// Reference-kernel samples taken right before and right after a set-up.
const SAMPLES_AROUND_SET_UP: usize = 16;
/// The traced phase and the untraced phase it is compared with each get
/// this share of `--seconds`.
const TRACED_SHARE: f64 = 0.2;
const SPAN_LIMIT: usize = 100_000;

/// A session warmed up and ready for its timed phase, with the oracle's
/// replies to compare the first timed replies against.
struct Ready {
    session: Session,
    oracle: Observer,
    /// Set when a request failed during set-up.
    problem: Option<String>,
}

/// Everything set-up covers: the oracle's rig and its short sequential
/// run, the workload's own rig, script fetches, slot-0 plans and warm-up
/// requests.
fn set_up(shape: &Shape, seed: u64, hooks: Option<Arc<Hooks>>) -> Ready {
    let mut oracle_session = Session::new(shape, seed, None);
    let mut oracle_warm_up = oracle_session.observer();
    oracle_session.warm_up_sequential(&mut oracle_warm_up);
    let mut oracle = oracle_session.observer();
    let services = oracle_session.rig.scripts.len();
    oracle_session.run_sequential(shape.oracle_prefix * services, &mut oracle);
    drop(oracle_session);

    let mut session = Session::new(shape, seed, hooks);
    let mut warm_up = session.observer();
    session.warm_up(&mut warm_up);
    let failures = warm_up.failed() + oracle_warm_up.failed() + oracle.failed();
    let problem = (failures > 0).then(|| {
        let first = warm_up
            .first_failure
            .or(oracle_warm_up.first_failure)
            .or(oracle.first_failure.clone());
        format!(
            "{failures} request(s) failed during set-up: {}",
            first.unwrap_or_default()
        )
    });
    Ready {
        session,
        oracle,
        problem,
    }
}

/// What a phase of segments on one rig measured.
struct Phase {
    segments: Vec<SegmentTiming>,
    observer: Observer,
    wall: Duration,
    cpu: procfs::CpuTimes,
    ctx_switches: u64,
    threads_peak: u64,
}

fn requests_in(segments: &[SegmentTiming]) -> u64 {
    segments.iter().map(|s| s.requests as u64).sum()
}

fn per_segment(segments: &[SegmentTiming], value: impl Fn(&SegmentTiming) -> f64) -> Vec<f64> {
    segments.iter().map(value).collect()
}

fn raw_throughput(segment: &SegmentTiming) -> f64 {
    segment.requests as f64 / segment.wall.as_secs_f64()
}

/// Per-segment timings scaled to the undisturbed box: a segment during
/// which the reference kernel took 1.4 times its undisturbed time counts
/// as having taken 1/1.4 of its wall time. Throughput, and latencies that
/// are mostly a wait behind other requests, are scaled by the kernel's
/// mean reading during the segment (a long stretch of work pays for every
/// stall in it); latencies that are one request's own few microseconds by
/// its median reading (a stall elsewhere in the segment does not touch
/// them).
struct Scaled<'a> {
    segments: &'a [SegmentTiming],
    undisturbed_ns: f64,
    latency_is_service_time: bool,
}

impl Scaled<'_> {
    fn slowdown(&self, segment: &SegmentTiming) -> f64 {
        segment.box_mean_ns / self.undisturbed_ns
    }

    fn latency_slowdown(&self, segment: &SegmentTiming) -> f64 {
        if self.latency_is_service_time {
            segment.box_median_ns / self.undisturbed_ns
        } else {
            self.slowdown(segment)
        }
    }

    fn throughputs(&self) -> Vec<f64> {
        per_segment(self.segments, |s| raw_throughput(s) * self.slowdown(s))
    }

    fn p50s_us(&self) -> Vec<f64> {
        per_segment(self.segments, |s| {
            f64::from(s.p50_ns) / 1e3 / self.latency_slowdown(s)
        })
    }

    fn p99s_us(&self) -> Vec<f64> {
        per_segment(self.segments, |s| {
            f64::from(s.p99_ns) / 1e3 / self.latency_slowdown(s)
        })
    }

    /// Requests per second: the median over segments.
    fn throughput(&self) -> f64 {
        median(&self.throughputs())
    }
}

fn scaled<'a>(segments: &'a [SegmentTiming], shape: &Shape, calibrator: &Calibrator) -> Scaled<'a> {
    Scaled {
        segments,
        undisturbed_ns: calibrator.undisturbed_ns(),
        latency_is_service_time: shape.latency_is_service_time(),
    }
}

/// Runs segments until `seconds` have passed, at least `min_segments` are
/// done and every service has the replies the oracle check compares.
fn run_phase(
    session: &mut Session,
    seconds: f64,
    min_segments: usize,
    trace: Option<&Hooks>,
    calibrator: &mut Calibrator,
    mut after_segment: impl FnMut(usize, &Session),
) -> Phase {
    let mut latencies = Vec::with_capacity(session.shape.segment);
    let mut observer = session.observer();
    let mut segments = Vec::new();
    let mut threads_peak = procfs::threads();
    let ctx_before = procfs::context_switches();
    let cpu_before = procfs::cpu_times();
    let start = Instant::now();
    loop {
        segments.push(session.run_segment(&mut latencies, &mut observer, trace, calibrator));
        threads_peak = threads_peak.max(procfs::threads());
        after_segment(segments.len(), session);
        if segments.len() >= min_segments
            && start.elapsed().as_secs_f64() >= seconds
            && (observer.prefix_full() || observer.failed() > 0)
        {
            break;
        }
    }
    Phase {
        segments,
        observer,
        wall: start.elapsed(),
        cpu: procfs::cpu_times().since(cpu_before),
        ctx_switches: procfs::context_switches().saturating_sub(ctx_before),
        threads_peak,
    }
}

/// The output checks every run makes on its timed (or traced) phase.
fn check_outputs(
    session: &mut Session,
    phase: &mut Phase,
    oracle: &Observer,
    with_fleet_burst: bool,
    problems: &mut Vec<String>,
) -> Option<(f64, f64)> {
    let observer = &phase.observer;
    if observer.failed() > 0 {
        problems.push(format!(
            "{} of {} requests failed ({} errors, {} shed, {} deadline misses, {} unsuccessful): {}",
            observer.failed(),
            observer.attempted,
            observer.errors,
            observer.sheds,
            observer.deadline_misses,
            observer.unsuccessful,
            observer.first_failure.clone().unwrap_or_default()
        ));
    }
    if let Err(problem) = observer.matches_oracle(oracle) {
        problems.push(problem);
    }
    if session.shape.steps_environment() {
        match session.check_replan_samples() {
            Ok(0) => problems.push("no re-plan was sampled for re-derivation".into()),
            Ok(_) => {}
            Err(problem) => problems.push(problem),
        }
    }
    if let Err(problem) = session.check_drained() {
        problems.push(problem);
    }
    if session.shape.is_fleet() && with_fleet_burst {
        let hooks = Hooks::new(8 * session.shape.window());
        match session.check_fleet_burst(&hooks, &mut phase.observer) {
            Ok(waits) => return Some(waits),
            Err(problem) => problems.push(problem),
        }
    }
    None
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let divisor = if args.quick { 100 } else { 1 };
    let shape = shape(&args.workload, divisor)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let loadavg_start = procfs::loadavg();
    // Before the first thread is spawned, so that every thread inherits it.
    // One CPU, because two or more threads spread over the two vCPUs of the
    // sizing box ran at a speed that depended on where the scheduler and
    // the hypervisor put them (async throughput 64k-85k req/s from run to
    // run, 94k-111k pinned), and because the reference kernel then
    // measures the very CPU all the work runs on.
    let nproc = procfs::nproc();
    let pinned_cpu = procfs::pin_to_one_cpu();
    let mut outcome = Outcome {
        args: args.clone(),
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        problems: Vec::new(),
        warnings: Vec::new(),
        nproc,
        pinned_cpu,
        loadavg_start,
        steal_share: 0.0,
        commit: git_commit(),
        segments: Vec::new(),
        calibration_us: (0.0, 0.0),
    };
    if pinned_cpu.is_none() {
        outcome
            .warnings
            .push("could not pin the process to one CPU; timings will be noisier".into());
    }
    let mut calibrator = Calibrator::default();
    let (start, steal_before) = (Instant::now(), procfs::steal_s(pinned_cpu));
    if args.trace {
        run_traced(args, &shape, &mut calibrator, &mut outcome);
    } else {
        run_timed(args, &shape, &mut calibrator, &mut outcome);
    }
    outcome.steal_share =
        (procfs::steal_s(pinned_cpu) - steal_before) / start.elapsed().as_secs_f64();
    // The noise guard: say so when the box was disturbed for most of the
    // run. The timings are scaled for it, but a reader should know.
    let (undisturbed_us, median_us) = (
        calibrator.undisturbed_ns() / 1e3,
        calibrator.median_ns() / 1e3,
    );
    outcome.calibration_us = (undisturbed_us, median_us);
    if median_us > 1.25 * undisturbed_us && !args.quick {
        outcome.warnings.push(format!(
            "reference kernel: median {median_us:.0} us against {undisturbed_us:.0} us undisturbed \
             - the box was disturbed for most of the run"
        ));
    }
    outcome.correct = outcome.problems.is_empty();
    Ok(outcome)
}

fn seconds_of(args: &RunArgs) -> f64 {
    if args.quick {
        0.2
    } else {
        args.seconds
    }
}

/// A set-up with its wall time (s) as the clock gave it and scaled to the
/// undisturbed box by the reference kernel's readings right around it.
struct TimedSetUp {
    ready: Ready,
    seconds: f64,
    box_ns: f64,
}

fn timed_set_up(shape: &Shape, seed: u64, calibrator: &mut Calibrator) -> TimedSetUp {
    let mark = calibrator.mark();
    calibrator.burst(SAMPLES_AROUND_SET_UP);
    let start = Instant::now();
    let ready = set_up(shape, seed, None);
    let seconds = start.elapsed().as_secs_f64();
    calibrator.burst(SAMPLES_AROUND_SET_UP);
    TimedSetUp {
        ready,
        seconds,
        box_ns: calibrator.mean_ns_since(mark),
    }
}

/// `--trace 0`: the end-to-end metrics, with nothing of the benchmark's
/// between the client loop and the program.
fn run_timed(args: &RunArgs, shape: &Shape, calibrator: &mut Calibrator, outcome: &mut Outcome) {
    // The timed phase is cut into slices, each on a freshly set-up rig:
    // set-up is measured once per slice, and the timed numbers are taken
    // over all slices' segments, so that where one rig's heap happened to
    // land does not decide a whole run.
    let slices = if args.quick { 1 } else { SLICES };
    let slice_seconds = seconds_of(args) / slices as f64;
    let mut set_ups: Vec<(f64, f64)> = Vec::with_capacity(slices);
    // The high-water mark when the last slice's timed phase ends, before
    // that slice's checks allocate anything of their own.
    let mut peak_rss_mb = 0.0;
    let mut segments: Vec<SegmentTiming> = Vec::new();
    for slice in 0..slices {
        let TimedSetUp {
            ready:
                Ready {
                    mut session,
                    mut oracle,
                    problem,
                },
            seconds,
            box_ns,
        } = timed_set_up(shape, args.seed, calibrator);
        outcome.problems.extend(problem);
        set_ups.push((seconds, box_ns));
        if args.break_oracle {
            break_oracle(&mut oracle);
        }
        let mut sliced = run_phase(
            &mut session,
            slice_seconds,
            MIN_SEGMENTS,
            None,
            calibrator,
            |_, _| {},
        );
        let last = slice + 1 == slices;
        if last {
            peak_rss_mb = procfs::peak_rss_mb();
        }
        check_outputs(
            &mut session,
            &mut sliced,
            &oracle,
            last,
            &mut outcome.problems,
        );
        outcome.attempted += sliced.observer.attempted;
        outcome.failed += sliced.observer.failed();
        segments.extend(sliced.segments);
    }

    let scaled = scaled(&segments, shape, calibrator);
    let setup_times: Vec<f64> = set_ups
        .iter()
        .map(|(seconds, box_ns)| seconds * scaled.undisturbed_ns / box_ns)
        .collect();
    let raw_setup_times: Vec<f64> = set_ups.iter().map(|(seconds, _)| *seconds).collect();
    let (throughputs, p50s) = (scaled.throughputs(), scaled.p50s_us());
    let raw_p50s = per_segment(&segments, |s| f64::from(s.p50_ns) / 1e3);
    // Value, the same statistic unscaled, spread between segments.
    let values = [
        (
            median(&setup_times),
            Some(median(&raw_setup_times)),
            Some(spread(&setup_times)),
        ),
        (
            median(&throughputs),
            Some(median(&per_segment(&segments, raw_throughput))),
            Some(spread(&throughputs)),
        ),
        (median(&p50s), Some(median(&raw_p50s)), Some(spread(&p50s))),
        (peak_rss_mb, None, None),
    ];
    for (spec, (value, raw, spread)) in END_TO_END.iter().zip(values) {
        // The noise guard: warn, without failing, when the segments
        // disagree by more than the metric may regress.
        if let Some(spread) = spread {
            if spread > spec.bound && spec.name != "setup_s" && !args.quick {
                outcome.warnings.push(format!(
                    "{}: spread between segments {:.3} exceeds the bound {}",
                    spec.name, spread, spec.bound
                ));
            }
        }
        outcome.metrics.push(Metric {
            name: spec.name,
            unit: spec.unit,
            value,
            raw,
            spread,
        });
    }
    outcome.segments = segment_rows(&segments);
}

fn segment_rows(segments: &[SegmentTiming]) -> Vec<[f64; 5]> {
    segments
        .iter()
        .map(|s| {
            [
                raw_throughput(s),
                f64::from(s.p50_ns) / 1e3,
                f64::from(s.p99_ns) / 1e3,
                s.box_mean_ns / 1e3,
                s.box_median_ns / 1e3,
            ]
        })
        .collect()
}

/// Makes the oracle disagree with any possible run.
fn break_oracle(oracle: &mut Observer) {
    if let Some(first) = oracle.prefix.iter_mut().find_map(|p| p.first_mut()) {
        first.0.push_str("-wrong");
    }
}

/// `--trace 1`: an untraced phase and a traced one of the same length on
/// fresh rigs, then the probes.
fn run_traced(args: &RunArgs, shape: &Shape, calibrator: &mut Calibrator, outcome: &mut Outcome) {
    let seconds = seconds_of(args) * TRACED_SHARE;
    let mut readings: Vec<Reading> = Vec::new();

    // Untraced, for the overhead ratio's base and the process counters.
    let mut plain = set_up(shape, args.seed, None);
    let plain_phase = run_phase(&mut plain.session, seconds, 2, None, calibrator, |_, _| {});
    let plain_requests = requests_in(&plain_phase.segments) as f64;
    let plain_scaled = scaled(&plain_phase.segments, shape, calibrator);
    let plain_throughput = plain_scaled.throughput();
    readings.push(("client.latency_p99_us", median(&plain_scaled.p99s_us())));
    readings.push((
        "process.cpu_us_per_request",
        plain_phase.cpu.total_s() * 1e6 / plain_requests,
    ));
    readings.push((
        "process.cpu_sys_share",
        plain_phase.cpu.sys_s / plain_phase.cpu.total_s().max(1e-9),
    ));
    readings.push((
        "process.ctx_switches_per_request",
        plain_phase.ctx_switches as f64 / plain_requests,
    ));
    readings.push(("process.threads_peak", plain_phase.threads_peak as f64));
    readings.push(("client.untraced_throughput_rps", plain_throughput));
    drop(plain);

    // Traced.
    let hooks = Hooks::new(SPAN_LIMIT);
    hooks.tracer.pause(true);
    let Ready {
        mut session,
        mut oracle,
        problem,
    } = set_up(shape, args.seed, Some(Arc::clone(&hooks)));
    outcome.problems.extend(problem);
    if args.break_oracle {
        break_oracle(&mut oracle);
    }
    hooks.tracer.pause(false);
    let synthesis_before = hooks.synthesis_ns.load(Ordering::Relaxed);
    let replans_before = hooks.replans.load(Ordering::Relaxed);
    let mut exact: Vec<Reading> = Vec::new();
    let mut phase = run_phase(
        &mut session,
        seconds,
        2,
        Some(&hooks),
        calibrator,
        |done, session| {
            // Counts after the first segment: a fixed number of requests from
            // a fresh rig, so they repeat exactly.
            if done == 1 {
                exact = exact_counts(session, &hooks, replans_before);
            }
        },
    );
    let synthesis_ns = hooks.synthesis_ns.load(Ordering::Relaxed) - synthesis_before;
    readings.extend(exact);
    let traced_throughput = scaled(&phase.segments, shape, calibrator).throughput();
    readings.push(("client.traced_throughput_rps", traced_throughput));
    readings.push((
        "trace.overhead_share",
        1.0 - traced_throughput / plain_throughput,
    ));
    readings.push((
        "runtime.generator.synthesis_share",
        synthesis_ns as f64 / phase.wall.as_nanos() as f64,
    ));
    readings.push((
        "client.qos_satisfied_share",
        phase.observer.satisfied as f64 / phase.observer.attempted.max(1) as f64,
    ));
    readings.push((
        "client.failed_share",
        phase.observer.failed() as f64 / phase.observer.attempted.max(1) as f64,
    ));

    let mut all_spans = hooks.tracer.snapshot();
    spans::link_by_request(&mut all_spans, "request");
    readings.extend(span_readings(&all_spans));
    readings.push(("trace.spans_dropped", hooks.tracer.dropped() as f64));
    readings.extend(rig_counts(&session));

    let waits = check_outputs(
        &mut session,
        &mut phase,
        &oracle,
        true,
        &mut outcome.problems,
    );
    let (critical_ms, scavenger_ms) = waits.unwrap_or((0.0, 0.0));
    readings.push((
        "runtime.gateway.queue_wait_virtual_ms_critical_p99",
        critical_ms,
    ));
    readings.push((
        "runtime.gateway.queue_wait_virtual_ms_scavenger_p50",
        scavenger_ms,
    ));

    readings.extend(probes::on_rig(&session));
    let service_ids: Vec<String> = session
        .rig
        .scripts
        .iter()
        .map(|s| s.service_id.clone())
        .collect();
    outcome.attempted = phase.observer.attempted;
    outcome.failed = phase.observer.failed();
    outcome.segments = segment_rows(&phase.segments);
    drop(session);

    readings.extend(probes::strategy(args.seed));
    readings.extend(probes::runtime_standalone(&service_ids));

    // The same workload with two event loops over one, and with one shard
    // over four; zero where the workload has neither.
    let mut ratio = |variant: Shape| {
        let mut throughput = |shape: &Shape| {
            let mut ready = set_up(shape, args.seed, None);
            let phase = run_phase(
                &mut ready.session,
                seconds / 2.0,
                2,
                None,
                calibrator,
                |_, _| {},
            );
            scaled(&phase.segments, shape, calibrator).throughput()
        };
        throughput(&variant) / throughput(shape)
    };
    readings.push((
        "runtime.engine.loops2_ratio",
        if shape.is_windowed() && !shape.is_fleet() {
            ratio(shape.clone().with_event_loops(2))
        } else {
            0.0
        },
    ));
    readings.push((
        "runtime.fleet.shards1_ratio",
        if shape.is_fleet() {
            ratio(shape.clone().with_shards(1))
        } else {
            0.0
        },
    ));

    let path = PathBuf::from(format!("benchmark/out/trace_{}.jsonl", shape.name));
    if let Err(error) = spans::write_jsonl(&path, &all_spans) {
        outcome
            .warnings
            .push(format!("could not write {}: {error}", path.display()));
    }

    for spec in &PER_LAYER {
        match readings.iter().find(|(name, _)| *name == spec.name) {
            Some(&(_, value)) => outcome.metrics.push(Metric {
                name: spec.name,
                unit: spec.unit,
                value: if value.is_finite() { value } else { 0.0 },
                raw: None,
                spread: None,
            }),
            None => outcome
                .problems
                .push(format!("per-layer metric {} was not measured", spec.name)),
        }
    }
}

/// Counters that are a function of the rig and the request sequence alone,
/// read after the first traced segment.
fn exact_counts(session: &Session, hooks: &Hooks, replans_before: u64) -> Vec<Reading> {
    let mut queue_peak = 0;
    let mut shed = 0;
    let mut deadline_exceeded = 0;
    let mut frames_peak = 0;
    for gateway in session.rig.front.gateways() {
        let snapshot = gateway.telemetry().snapshot();
        frames_peak = frames_peak.max(snapshot.engine.frames_peak);
        for service in &snapshot.services {
            queue_peak = queue_peak.max(service.admission_queue_peak);
            shed += service.requests_shed;
            deadline_exceeded += service.deadline_exceeded;
        }
    }
    // Requests a shard owns, as a share of an even split.
    let shards = session.rig.front.gateways().len();
    let mut owned = vec![0usize; shards];
    for script in &session.rig.scripts {
        owned[session.rig.shard_of(&script.service_id) as usize] += 1;
    }
    let imbalance =
        *owned.iter().max().unwrap_or(&0) as f64 * shards as f64 / session.rig.scripts.len() as f64;
    vec![
        (
            "runtime.generator.replans",
            (hooks.replans.load(Ordering::Relaxed) - replans_before) as f64,
        ),
        ("runtime.engine.frames_peak", frames_peak as f64),
        (
            "runtime.engine.frames_per_request",
            frames_peak as f64
                / session
                    .shape
                    .peak_in_flight(*owned.iter().max().unwrap_or(&1)) as f64,
        ),
        (
            "runtime.market.fetches",
            hooks.fetches.load(Ordering::Relaxed) as f64,
        ),
        ("runtime.gateway.admission_queue_peak", queue_peak as f64),
        ("runtime.gateway.shed", shed as f64),
        (
            "runtime.gateway.deadline_exceeded",
            deadline_exceeded as f64,
        ),
        ("runtime.fleet.shard_imbalance", imbalance),
    ]
}

/// Counters read from the rig once its traced phase is over.
fn rig_counts(session: &Session) -> Vec<Reading> {
    let mut dropped = 0;
    let (mut hits, mut remote, mut misses) = (0, 0, 0);
    for gateway in session.rig.front.gateways() {
        let snapshot = gateway.telemetry().snapshot();
        dropped += snapshot.events.dropped;
        for service in &snapshot.services {
            hits += service.plan_cache_hits;
            remote += service.plan_cache_remote_hits;
            misses += service.plan_cache_misses;
        }
    }
    vec![
        ("runtime.telemetry.events_dropped", dropped as f64),
        (
            "strategy.plan_cache.hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        (
            "runtime.fleet.remote_plan_hit_share",
            remote as f64 / hits.max(1) as f64,
        ),
    ]
}

/// Medians over the recorded requests of the client-side span arithmetic.
fn span_readings(all: &[Span]) -> Vec<Reading> {
    let children = spans::children_of(all);
    let is_leaf = |span: &Span| span.name.starts_with("provider.");
    let mut to_first_leaf = Vec::new();
    let mut from_last_leaf = Vec::new();
    let mut self_ns = Vec::new();
    let mut submit_async = Vec::new();
    let mut wait = Vec::new();
    // Leaves by parent, to find each request's first and last.
    let mut first_last: Vec<Option<(u64, u64)>> = vec![None; all.len()];
    for span in all.iter().filter(|s| is_leaf(s)) {
        if let Some(slot) = first_last.get_mut(span.parent as usize) {
            let (first, last) = slot.get_or_insert((u64::MAX, 0));
            *first = (*first).min(span.start_ns);
            *last = (*last).max(span.start_ns);
        }
    }
    for (id, span) in all.iter().enumerate() {
        match span.name {
            "gateway.submit" | "request" => {
                self_ns.push(spans::self_time_ns(
                    (span.start_ns, span.end_ns),
                    &children[id],
                ));
                if let Some((first, last)) = first_last[id] {
                    to_first_leaf.push(first.saturating_sub(span.start_ns));
                    from_last_leaf.push(span.end_ns.saturating_sub(last));
                }
            }
            "gateway.submit_async" => submit_async.push(span.end_ns - span.start_ns),
            "request.wait" => wait.push(span.end_ns - span.start_ns),
            _ => {}
        }
    }
    let p50 = |sample: &mut Vec<u64>| percentile(sample, 50.0).unwrap_or(0) as f64;
    vec![
        (
            "runtime.gateway.submit_to_first_leaf_ns",
            p50(&mut to_first_leaf),
        ),
        (
            "runtime.gateway.last_leaf_to_return_ns",
            p50(&mut from_last_leaf),
        ),
        ("runtime.gateway.self_ns", p50(&mut self_ns)),
        (
            "runtime.gateway.submit_async_call_ns",
            p50(&mut submit_async),
        ),
        ("runtime.gateway.wait_blocked_ns", p50(&mut wait)),
    ]
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
