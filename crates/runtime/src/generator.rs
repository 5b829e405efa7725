//! The gateway-side strategy generator: bridges collector observations into
//! the core generation algorithms of `qce-strategy` (paper Section IV.B:
//! "an execution strategy generator retrieves the QoS of constituent
//! microservices from the collector, and outputs an execution strategy").

use std::sync::Arc;

use qce_strategy::{
    BackendChoice, EnvQos, Generated, Generator, PlanCache, PlanCacheConfig, PlanCacheStats,
    PlanSource, Requirements, Strategy, SynthesisReport, UtilityIndex,
};

/// Synthesis-engine knobs threaded from the gateway configuration into the
/// per-slot [`Generator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisSettings {
    /// Worker threads for the exhaustive search; `0` = one per core.
    pub parallelism: usize,
    /// Memoize winning plans in a per-service [`PlanCache`] keyed by the
    /// search inputs, so an unchanged environment skips the search.
    pub plan_cache: bool,
    /// Plan-cache key quantization step for environment QoS attributes;
    /// `0.0` keys on exact bit patterns (cache hits are then guaranteed
    /// bit-identical to a fresh search), positive values trade exactness
    /// for more hits under small drift.
    pub plan_quantize: f64,
    /// Which search backend plans each slot: a fixed backend
    /// (`Exhaustive` / `Greedy` / `Beam(W)`) or the paper's threshold rule
    /// (`Threshold`, the default).
    pub planner: BackendChoice,
    /// Re-plan at a slot boundary only when the collector's QoS table has
    /// drifted outside the active plan's quantization band (measured with
    /// [`env_drift`] at `plan_quantize` granularity); `false` re-plans at
    /// every boundary (the fixed-cadence baseline).
    pub replan_on_drift: bool,
}

impl Default for SynthesisSettings {
    fn default() -> Self {
        SynthesisSettings {
            parallelism: 0,
            plan_cache: false,
            plan_quantize: 0.0,
            planner: BackendChoice::Threshold,
            replan_on_drift: false,
        }
    }
}

/// The fraction of (microservice, attribute) cells whose quantized value
/// differs between two QoS tables — the drift measure behind
/// `replan_on_drift`.
///
/// Quantization *is* the plan cache's key derivation
/// ([`qce_strategy::plan_cache::cell`]): with a positive `quantum`, each
/// attribute maps to `round(value / quantum)`; with `quantum <= 0.0`, to
/// its exact bit pattern. A microservice present in only one table counts
/// as fully drifted (all three attribute cells differ). Returns `0.0` for
/// two empty tables.
#[must_use]
pub fn env_drift(old: &EnvQos, new: &EnvQos, quantum: f64) -> f64 {
    use qce_strategy::plan_cache::cell;
    let mut ids: Vec<qce_strategy::MsId> = old.ids();
    for id in new.ids() {
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    if ids.is_empty() {
        return 0.0;
    }
    let mut differing = 0usize;
    for &id in &ids {
        match (old.get(id), new.get(id)) {
            (Some(a), Some(b)) => {
                for (x, y) in [
                    (a.cost, b.cost),
                    (a.latency, b.latency),
                    (a.reliability.value(), b.reliability.value()),
                ] {
                    if cell(x, quantum) != cell(y, quantum) {
                        differing += 1;
                    }
                }
            }
            _ => differing += 3,
        }
    }
    #[allow(clippy::cast_precision_loss)]
    {
        differing as f64 / (3 * ids.len()) as f64
    }
}

use crate::collector::Collector;
use crate::device::Provider;
use crate::message::RuntimeError;
use crate::script::ServiceScript;
use crate::telemetry::Telemetry;

/// How the active strategy for a slot was chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyOrigin {
    /// The bootstrap strategy of the first time slot, executed before the
    /// collector has observations: the script's developer default, or the
    /// system default (speculative parallel) if the script names none.
    Default,
    /// Synthesized by the generator from collector data.
    Generated(qce_strategy::Method),
}

impl std::fmt::Display for StrategyOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyOrigin::Default => f.write_str("default"),
            StrategyOrigin::Generated(m) => write!(f, "generated({m})"),
        }
    }
}

/// A strategy chosen for one time slot, with its provenance and estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPlan {
    /// The strategy to execute this slot.
    pub strategy: Strategy,
    /// How it was chosen.
    pub origin: StrategyOrigin,
    /// The per-microservice QoS table the decision was based on.
    pub assumed_env: EnvQos,
    /// The estimated QoS of the strategy under `assumed_env` (`None` only
    /// if estimation failed, which cannot happen for well-formed plans).
    pub estimated: Option<qce_strategy::Qos>,
    /// The generator's search report (`None` for the default strategy of
    /// slot 0, which is not searched).
    pub report: Option<SynthesisReport>,
    /// How the plan was obtained — a search or a plan-cache hit (`None`
    /// for the unsearched default strategy).
    pub source: Option<PlanSource>,
}

/// Builds the QoS table the generator should assume for this script: for
/// each microservice, what the collector assumes about its resolved
/// provider — its window when usable, the script prior with the provider's
/// advertised cost otherwise. The gateway gets the same rows from provider
/// selection ([`Registry::best_provider`](crate::Registry::best_provider)).
#[must_use]
pub fn assumed_env(
    script: &ServiceScript,
    providers: &[Arc<dyn Provider>],
    collector: &Collector,
) -> EnvQos {
    script
        .microservices
        .iter()
        .zip(providers)
        .map(|(spec, provider)| collector.assumed(provider.as_ref(), &spec.prior))
        .collect()
}

/// A persistent per-service planner: one [`Generator`] (and, when enabled,
/// one [`PlanCache`]) that lives across slot boundaries, so cached plans
/// survive from one re-plan to the next. The gateway keeps one per service.
#[derive(Debug)]
pub struct Planner {
    generator: Generator,
    cache: Option<Arc<PlanCache>>,
    choice: BackendChoice,
}

impl Planner {
    /// Builds the planner for `script` under `settings`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidScript`] if the script's utility
    /// penalty is invalid.
    pub fn new(script: &ServiceScript, settings: &SynthesisSettings) -> Result<Self, RuntimeError> {
        let cache = settings.plan_cache.then(|| {
            Arc::new(PlanCache::new(PlanCacheConfig {
                quantum: settings.plan_quantize,
            }))
        });
        let utility =
            UtilityIndex::new(script.penalty_k).map_err(|e| RuntimeError::InvalidScript {
                reason: e.to_string(),
            })?;
        let mut builder = Generator::builder()
            .utility(utility)
            .parallelism(settings.parallelism);
        if let Some(cache) = &cache {
            builder = builder.plan_cache(Arc::clone(cache));
        }
        Ok(Planner {
            generator: builder.build(),
            cache,
            choice: settings.planner,
        })
    }

    /// The utility index the planner searches with, which provider
    /// selection ranks by too.
    pub(crate) fn utility(&self) -> UtilityIndex {
        self.generator.utility_index()
    }

    /// Counter snapshot of the plan cache, if one is enabled.
    #[must_use]
    pub fn cache_stats(&self) -> Option<PlanCacheStats> {
        self.cache.as_ref().map(|cache| cache.stats())
    }

    /// Drops every cached plan (call when the service script is evicted or
    /// replaced — the cached winners were computed for the old script).
    /// Returns how many entries were dropped; `0` with no cache.
    pub fn invalidate(&self) -> usize {
        self.cache.as_ref().map_or(0, |cache| cache.invalidate())
    }

    /// Plans the strategy for a time slot against the script's own
    /// requirement, over the table [`assumed_env`] builds for `providers`
    /// (see [`Planner::plan_slot_for`]).
    ///
    /// # Errors
    ///
    /// As [`Planner::plan_slot_for`].
    pub fn plan_slot(
        &self,
        script: &ServiceScript,
        providers: &[Arc<dyn Provider>],
        collector: &Collector,
        slot: u64,
        telemetry: Option<&Telemetry>,
    ) -> Result<SlotPlan, RuntimeError> {
        let env = assumed_env(script, providers, collector);
        self.plan_slot_for(script, &script.requirements, env, slot, telemetry)
    }

    /// Plans the strategy for a time slot over the QoS table `env` (one row
    /// per microservice of `script`, in order), against an explicit
    /// *effective* requirement instead of the script's own. The gateway
    /// builds `env` from its provider selection and resolves live
    /// per-service overrides (`qce ctl set-requirement` / `set-class`) into
    /// `requirements`, so the synthesized plan — and the plan-cache key —
    /// track what the operator currently demands, not what the script was
    /// deployed with.
    ///
    /// Slot 0 executes the default strategy (collecting initial
    /// observations); later slots run the paper's Algorithm 2 (exhaustive
    /// below the threshold, approximation above it) against `env`. When
    /// `telemetry` is provided, the generator's search effort (candidates
    /// seen/pruned, elapsed time) is accumulated into the service's
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidScript`] for an unparsable default
    /// strategy, or [`RuntimeError::Generation`] if generation fails
    /// (an invalid requirement included).
    pub fn plan_slot_for(
        &self,
        script: &ServiceScript,
        requirements: &Requirements,
        env: EnvQos,
        slot: u64,
        telemetry: Option<&Telemetry>,
    ) -> Result<SlotPlan, RuntimeError> {
        let ids = env.ids();

        if slot == 0 {
            let strategy = match script.parsed_default_strategy()? {
                Some(s) => s,
                None => qce_strategy::enumerate::speculative_parallel(&ids).map_err(|e| {
                    RuntimeError::Generation {
                        reason: e.to_string(),
                    }
                })?,
            };
            let estimated = qce_strategy::estimate::estimate(&strategy, &env).ok();
            return Ok(SlotPlan {
                strategy,
                origin: StrategyOrigin::Default,
                assumed_env: env,
                estimated,
                report: None,
                source: None,
            });
        }

        let generated: Generated = self
            .generator
            .generate_with(self.choice, &env, &ids, requirements)
            .map_err(|e| RuntimeError::Generation {
                reason: e.to_string(),
            })?;
        if let Some(telemetry) = telemetry {
            telemetry.record_synthesis(&script.service_id, &generated.report);
            if let Some(stats) = self.cache_stats() {
                telemetry.record_plan_cache(&script.service_id, &stats);
            }
        }
        Ok(SlotPlan {
            strategy: generated.strategy,
            origin: StrategyOrigin::Generated(generated.method),
            assumed_env: env,
            estimated: Some(generated.qos),
            report: Some(generated.report),
            source: Some(generated.source),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::ExecutionRecord;
    use crate::device::SimulatedProvider;
    use crate::script::MsSpec;
    use qce_strategy::Qos;
    use std::time::Duration;

    fn script() -> ServiceScript {
        ServiceScript::new(
            "svc",
            vec![
                MsSpec {
                    name: "m0".into(),
                    capability: "c0".into(),
                    prior: Qos::new(50.0, 30.0, 0.7).unwrap(),
                },
                MsSpec {
                    name: "m1".into(),
                    capability: "c1".into(),
                    prior: Qos::new(50.0, 60.0, 0.7).unwrap(),
                },
                MsSpec {
                    name: "m2".into(),
                    capability: "c2".into(),
                    prior: Qos::new(50.0, 80.0, 0.7).unwrap(),
                },
            ],
            qce_strategy::Requirements::new(100.0, 100.0, 0.97).unwrap(),
        )
    }

    /// Plans one slot with a throwaway [`Planner`].
    fn plan_slot(
        script: &ServiceScript,
        providers: &[Arc<dyn Provider>],
        collector: &Collector,
        slot: u64,
        settings: &SynthesisSettings,
        telemetry: Option<&Telemetry>,
    ) -> Result<SlotPlan, RuntimeError> {
        Planner::new(script, settings)?.plan_slot(script, providers, collector, slot, telemetry)
    }

    fn providers() -> Vec<Arc<dyn Provider>> {
        (0..3)
            .map(|i| {
                SimulatedProvider::builder(format!("d{i}/c{i}"), format!("c{i}"))
                    .cost(50.0)
                    .latency(Duration::from_millis(1))
                    .build() as Arc<dyn Provider>
            })
            .collect()
    }

    /// The gateway plans over the rows provider selection judged its
    /// winners on; the benchmark and `plan_slot` over [`assumed_env`]. Both
    /// must be one table, bit for bit, whatever the collector holds.
    #[test]
    fn selection_rows_are_the_assumed_env_bit_for_bit() {
        use crate::registry::Registry;
        use rand::{Rng, SeedableRng};
        let costs = [10.0, 50.0, 80.0, f64::NAN];
        let mut kinds_seen = [false; 5];
        let mut reduced_seen = false;
        for seed in 0..64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let registry = Registry::new();
            let collector = Collector::new(8);
            let mut present = Vec::new();
            for (i, spec) in script().microservices.iter().enumerate() {
                // A capability with no provider at all reduces the slot.
                if rng.gen_bool(0.15) {
                    continue;
                }
                present.push(spec.clone());
                for side in ["a", "b"] {
                    let id = format!("d{i}{side}/{}", spec.capability);
                    let cost = costs[rng.gen_range(0..costs.len())];
                    registry.register(
                        SimulatedProvider::builder(id.as_str(), spec.capability.as_str())
                            .cost(cost)
                            .build(),
                    );
                    // Empty, all-failure, zero-latency, poisoned or mixed.
                    let kind = rng.gen_range(0..5);
                    kinds_seen[kind] = true;
                    for _ in 0..rng.gen_range(1..6) * usize::from(kind != 0) {
                        collector.record(
                            &id,
                            ExecutionRecord {
                                success: kind == 4 && rng.gen_bool(0.6),
                                latency: match kind {
                                    2 => Duration::ZERO,
                                    _ => Duration::from_millis(rng.gen_range(1..200)),
                                },
                                cost: if kind == 3 { f64::NAN } else { cost.max(1.0) },
                            },
                        );
                    }
                }
            }
            let reduced = ServiceScript {
                microservices: present,
                ..script()
            };
            reduced_seen |= reduced.microservices.len() < 3;
            let requirements = Requirements::new(
                rng.gen_range(10.0..200.0),
                rng.gen_range(10.0..200.0),
                rng.gen_range(0.5..1.0),
            )
            .unwrap();
            let (chosen, rows): (Vec<Arc<dyn Provider>>, Vec<Qos>) = reduced
                .microservices
                .iter()
                .map(|spec| {
                    registry
                        .best_provider(
                            &spec.capability,
                            &spec.prior,
                            &collector,
                            UtilityIndex::default(),
                            &requirements,
                        )
                        .unwrap()
                })
                .unzip();
            let env = assumed_env(&reduced, &chosen, &collector);
            assert_eq!(env.len(), rows.len(), "seed {seed}");
            for (id, row) in env.ids().into_iter().zip(&rows) {
                let cell = env.get(id).unwrap();
                let bits = |q: &Qos| [q.cost, q.latency, q.reliability.value()].map(f64::to_bits);
                assert_eq!(bits(cell), bits(row), "seed {seed} {id:?}");
            }
        }
        assert!(kinds_seen.iter().all(|&seen| seen) && reduced_seen);
    }

    #[test]
    fn assumed_env_uses_priors_without_history() {
        let collector = Collector::new(10);
        let env = assumed_env(&script(), &providers(), &collector);
        assert_eq!(env.len(), 3);
        // Prior latency/reliability, provider-advertised cost.
        let q = env.get(qce_strategy::MsId(1)).unwrap();
        assert_eq!(q.latency, 60.0);
        assert_eq!(q.cost, 50.0);
        assert_eq!(q.reliability.value(), 0.7);
    }

    #[test]
    fn assumed_env_prefers_observations() {
        let collector = Collector::new(10);
        collector.record(
            "d0/c0",
            ExecutionRecord {
                success: true,
                latency: Duration::from_millis(123),
                cost: 9.0,
            },
        );
        let env = assumed_env(&script(), &providers(), &collector);
        let q = env.get(qce_strategy::MsId(0)).unwrap();
        assert!((q.latency - 123.0).abs() < 1.0);
        assert_eq!(q.cost, 9.0);
        assert_eq!(q.reliability.value(), 1.0);
    }

    #[test]
    fn assumed_env_rejects_non_finite_advertised_cost() {
        // Regression (scenario suite): the struct-update substitution
        // `Qos { cost: provider.cost(), .. }` bypassed validation, so a
        // provider registering a NaN cost put NaN into the assumed QoS
        // table — from there it reached `plan_slot` and, with quantization
        // enabled, collapsed onto quantized bucket 0 in the `PlanCache`
        // key (silent cache collisions). The prior's cost must win.
        let collector = Collector::new(10);
        let providers: Vec<Arc<dyn Provider>> = [f64::NAN, f64::INFINITY, -3.0]
            .iter()
            .enumerate()
            .map(|(i, &cost)| {
                SimulatedProvider::builder(format!("d{i}/c{i}"), format!("c{i}"))
                    .cost(cost)
                    .latency(Duration::from_millis(1))
                    .build() as Arc<dyn Provider>
            })
            .collect();
        let env = assumed_env(&script(), &providers, &collector);
        for id in 0..3 {
            let q = env.get(qce_strategy::MsId(id)).unwrap();
            assert_eq!(q.cost, 50.0, "prior cost substitutes for bad ms{id}");
        }
        // And planning over that table stays well-defined.
        let plan = plan_slot(
            &script(),
            &providers,
            &collector,
            1,
            &SynthesisSettings::default(),
            None,
        )
        .unwrap();
        let estimated = plan.estimated.expect("generated slots carry estimates");
        assert!(estimated.cost.is_finite());
        assert!(estimated.latency.is_finite());
    }

    #[test]
    fn slot_zero_runs_system_default_parallel() {
        let collector = Collector::new(10);
        let plan = plan_slot(
            &script(),
            &providers(),
            &collector,
            0,
            &SynthesisSettings::default(),
            None,
        )
        .unwrap();
        assert_eq!(plan.origin, StrategyOrigin::Default);
        assert!(plan.strategy.is_parallel());
        assert_eq!(plan.strategy.len(), 3);
        assert!(plan.estimated.is_some());
    }

    #[test]
    fn slot_zero_respects_script_default() {
        let mut s = script();
        s.default_strategy = Some("m0-m1-m2".to_string());
        let collector = Collector::new(10);
        let plan = plan_slot(
            &s,
            &providers(),
            &collector,
            0,
            &SynthesisSettings::default(),
            None,
        )
        .unwrap();
        assert!(plan.strategy.is_failover());
    }

    #[test]
    fn later_slots_generate() {
        let collector = Collector::new(10);
        let plan = plan_slot(
            &script(),
            &providers(),
            &collector,
            1,
            &SynthesisSettings::default(),
            None,
        )
        .unwrap();
        match plan.origin {
            StrategyOrigin::Generated(m) => {
                assert_eq!(m, qce_strategy::Method::Exhaustive, "3 ≤ θ = 6");
            }
            StrategyOrigin::Default => panic!("slot 1 must generate"),
        }
        assert_eq!(plan.strategy.len(), 3);
    }

    #[test]
    fn origin_display() {
        assert_eq!(StrategyOrigin::Default.to_string(), "default");
        assert_eq!(
            StrategyOrigin::Generated(qce_strategy::Method::Exhaustive).to_string(),
            "generated(exhaustive)"
        );
    }

    #[test]
    fn all_failure_window_flows_through_planning() {
        // A provider whose entire observation window failed has
        // success_rate (and so assumed reliability) exactly 0.0; that must
        // flow through ProviderStats::checked_qos → plan_slot without panicking.
        let collector = Collector::new(10);
        for _ in 0..5 {
            collector.record(
                "d0/c0",
                ExecutionRecord {
                    success: false,
                    latency: Duration::from_millis(4),
                    cost: 50.0,
                },
            );
        }
        let stats = collector.stats("d0/c0").unwrap();
        assert_eq!(stats.success_rate, 0.0);
        assert_eq!(stats.checked_qos().unwrap().reliability.value(), 0.0);
        let plan = plan_slot(
            &script(),
            &providers(),
            &collector,
            1,
            &SynthesisSettings::default(),
            None,
        )
        .unwrap();
        assert!(matches!(plan.origin, StrategyOrigin::Generated(_)));
        assert_eq!(
            plan.assumed_env
                .get(qce_strategy::MsId(0))
                .unwrap()
                .reliability
                .value(),
            0.0
        );
    }

    #[test]
    fn zero_latency_window_flows_through_planning() {
        // On a virtual clock an invocation can complete in exactly zero
        // time. The resulting latency-0 QoS must be in domain and
        // must not trip the synth engine's non-positive-latency pruning
        // guard: pruned and unpruned searches still agree.
        let collector = Collector::new(10);
        for _ in 0..5 {
            collector.record(
                "d0/c0",
                ExecutionRecord {
                    success: true,
                    latency: Duration::ZERO,
                    cost: 50.0,
                },
            );
        }
        let stats = collector.stats("d0/c0").unwrap();
        assert_eq!(stats.checked_qos().unwrap().latency, 0.0);
        let pruned = plan_slot(
            &script(),
            &providers(),
            &collector,
            1,
            &SynthesisSettings::default(),
            None,
        )
        .unwrap();
        assert!(pruned.estimated.is_some());
        let env = assumed_env(&script(), &providers(), &collector);
        let unpruned = Generator::builder()
            .pruning(false)
            .build()
            .generate(&env, &env.ids(), &script().requirements)
            .unwrap();
        assert_eq!(
            pruned.strategy, unpruned.strategy,
            "pruning never changes the winner"
        );
    }

    #[test]
    fn all_failure_and_zero_latency_combined() {
        // The harshest corner: a window that is all failures *and* all
        // zero-latency (crash-style instant failures on a virtual clock).
        let collector = Collector::new(10);
        for _ in 0..3 {
            collector.record(
                "d0/c0",
                ExecutionRecord {
                    success: false,
                    latency: Duration::ZERO,
                    cost: 50.0,
                },
            );
        }
        let plan = plan_slot(
            &script(),
            &providers(),
            &collector,
            1,
            &SynthesisSettings::default(),
            None,
        )
        .unwrap();
        assert_eq!(plan.strategy.len(), 3);
    }

    #[test]
    fn plan_slot_records_synthesis_effort() {
        use crate::clock::VirtualClock;
        let telemetry = Telemetry::new(
            Arc::new(VirtualClock::new()) as Arc<dyn crate::clock::Clock>,
            8,
        );
        let collector = Collector::new(10);
        let plan = plan_slot(
            &script(),
            &providers(),
            &collector,
            1,
            &SynthesisSettings::default(),
            Some(&telemetry),
        )
        .unwrap();
        let report = plan.report.expect("generated slots carry a report");
        assert!(report.candidates_seen > 0);
        let snap = telemetry.snapshot();
        let svc = snap.service("svc").unwrap();
        assert_eq!(svc.candidates_seen, report.candidates_seen);
        assert_eq!(svc.candidates_pruned, report.candidates_pruned);
    }

    #[test]
    fn persistent_planner_caches() {
        use qce_strategy::PlanSource;
        let collector = Collector::new(10);
        let settings = SynthesisSettings {
            plan_cache: true,
            ..SynthesisSettings::default()
        };
        let planner = Planner::new(&script(), &settings).unwrap();
        // No collector data: the assumed env is the (constant) priors, so
        // consecutive slots present identical search inputs.
        let first = planner
            .plan_slot(&script(), &providers(), &collector, 1, None)
            .unwrap();
        assert_eq!(first.source, Some(PlanSource::Cold));
        let second = planner
            .plan_slot(&script(), &providers(), &collector, 2, None)
            .unwrap();
        assert_eq!(second.source, Some(PlanSource::Cached));
        assert_eq!(second.strategy, first.strategy);
        let stats = planner.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // Invalidation (script eviction) drops the entries; the next plan
        // re-searches from scratch.
        assert_eq!(planner.invalidate(), stats.entries);
        let third = planner
            .plan_slot(&script(), &providers(), &collector, 3, None)
            .unwrap();
        assert_eq!(third.source, Some(PlanSource::Cold));
        assert_eq!(third.strategy, first.strategy);
    }

    /// What used to be gateway knobs nothing set are constants: every
    /// planner prunes and caches 64 plans (`θ` is the generator's own
    /// constant).
    #[test]
    fn default_settings_pin_the_generator_constants() {
        for settings in [
            SynthesisSettings::default(),
            crate::GatewayConfig::default().synthesis_settings(),
        ] {
            let settings = SynthesisSettings {
                plan_cache: true,
                ..settings
            };
            let planner = Planner::new(&script(), &settings).unwrap();
            assert!(planner.generator.pruning());
        }
    }

    #[test]
    fn plan_slot_for_keys_the_cache_by_effective_requirement() {
        use qce_strategy::PlanSource;
        let collector = Collector::new(10);
        let settings = SynthesisSettings {
            plan_cache: true,
            ..SynthesisSettings::default()
        };
        let planner = Planner::new(&script(), &settings).unwrap();
        let base = planner
            .plan_slot(&script(), &providers(), &collector, 1, None)
            .unwrap();
        assert_eq!(base.source, Some(PlanSource::Cold));
        // A different effective requirement is a different search identity:
        // it must not be served the script-requirement plan.
        let strict = qce_strategy::Requirements::new(1000.0, 1000.0, 0.999).unwrap();
        let env = || assumed_env(&script(), &providers(), &collector);
        let overridden = planner
            .plan_slot_for(&script(), &strict, env(), 2, None)
            .unwrap();
        assert_eq!(overridden.source, Some(PlanSource::Cold));
        // Re-planning under the same effective requirement hits.
        let again = planner
            .plan_slot_for(&script(), &strict, env(), 3, None)
            .unwrap();
        assert_eq!(again.source, Some(PlanSource::Cached));
        assert_eq!(again.strategy, overridden.strategy);
    }

    #[test]
    fn env_drift_measures_quantized_cell_changes() {
        let old = EnvQos::from_triples(&[(50.0, 30.0, 0.7), (60.0, 40.0, 0.8)]).unwrap();
        // Identical tables never drift, at any quantum.
        assert_eq!(env_drift(&old, &old, 0.0), 0.0);
        assert_eq!(env_drift(&old, &old, 5.0), 0.0);
        // One of six cells changed: exact keying sees it…
        let new = EnvQos::from_triples(&[(50.0, 30.0, 0.7), (60.0, 41.0, 0.8)]).unwrap();
        assert!((env_drift(&old, &new, 0.0) - 1.0 / 6.0).abs() < 1e-12);
        // …while a coarse quantum absorbs it (40 and 41 round to the same
        // cell at quantum 5), matching the plan cache's hit behavior.
        assert_eq!(env_drift(&old, &new, 5.0), 0.0);
        // A microservice present in only one table is fully drifted.
        let shrunk = EnvQos::from_triples(&[(50.0, 30.0, 0.7)]).unwrap();
        assert_eq!(env_drift(&old, &shrunk, 0.0), 0.5);
        // Empty tables are trivially identical.
        let empty = EnvQos::from_triples(&[]).unwrap();
        assert_eq!(env_drift(&empty, &empty, 0.0), 0.0);
    }

    /// `replan_on_drift` holds a plan exactly when the plan cache would
    /// have served it: both read the one quantizer, so zero drift and a
    /// cache hit are the same statement about two environments.
    #[test]
    fn env_drift_is_zero_exactly_when_the_plan_cache_hits() {
        let base = [(50.0, 30.0, 0.7), (60.0, 40.0, 0.8)];
        let one_ulp = f64::from_bits(40.0f64.to_bits() + 1);
        let perturbed = [
            base[1],
            (60.0, one_ulp, 0.8),
            (60.0, 41.0, 0.8),
            (60.0, 43.0, 0.8),
            (62.4, 40.0, 0.8),
            (62.6, 40.0, 0.8),
            (60.0, 40.0, 0.81),
        ];
        let requirements = Requirements::new(100.0, 100.0, 0.97).unwrap();
        for quantum in [0.0, 5.0] {
            let mut zero_drift = 0;
            for second in perturbed {
                let old = EnvQos::from_triples(&base).unwrap();
                let new = EnvQos::from_triples(&[base[0], second]).unwrap();
                let cache = Arc::new(PlanCache::new(PlanCacheConfig { quantum }));
                let generator = Generator::builder().plan_cache(cache).build();
                generator
                    .exhaustive(&old, &old.ids(), &requirements)
                    .unwrap();
                let replan = generator
                    .exhaustive(&new, &new.ids(), &requirements)
                    .unwrap();
                let drift = env_drift(&old, &new, quantum);
                assert_eq!(
                    drift == 0.0,
                    replan.source == PlanSource::Cached,
                    "quantum={quantum} second={second:?} drift={drift}"
                );
                zero_drift += usize::from(drift == 0.0);
            }
            // Both outcomes occur: only the unperturbed table at quantum 0,
            // every sub-cell perturbation as well at quantum 5.
            assert_eq!(zero_drift, if quantum == 0.0 { 1 } else { 5 });
        }
    }

    #[test]
    fn fixed_backend_settings_route_the_search() {
        let collector = Collector::new(10);
        for (choice, method) in [
            (BackendChoice::Greedy, qce_strategy::Method::Approximation),
            (BackendChoice::Beam(2), qce_strategy::Method::Beam),
            (BackendChoice::Exhaustive, qce_strategy::Method::Exhaustive),
        ] {
            let settings = SynthesisSettings {
                planner: choice,
                ..SynthesisSettings::default()
            };
            let planner = Planner::new(&script(), &settings).unwrap();
            let plan = planner
                .plan_slot(&script(), &providers(), &collector, 1, None)
                .unwrap();
            assert_eq!(
                plan.origin,
                StrategyOrigin::Generated(method),
                "planner={choice}"
            );
        }
    }

    #[test]
    fn slot_zero_carries_no_report() {
        let collector = Collector::new(10);
        let plan = plan_slot(
            &script(),
            &providers(),
            &collector,
            0,
            &SynthesisSettings::default(),
            None,
        )
        .unwrap();
        assert!(plan.report.is_none());
    }
}
