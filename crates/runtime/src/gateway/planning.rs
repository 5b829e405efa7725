//! The generator side of the feedback loop: per-service planning state and
//! the slot-boundary logic that plans, holds, or re-plans its strategy.
//!
//! A boundary reads the collector once, in provider selection: each
//! capability's best live provider comes back with the QoS row it was
//! judged on, and those rows are the table the slot plans over. In drift
//! mode the same table decides whether the active plan holds — only when
//! the requirement, the provider instances and every quantized cell are
//! unchanged — so a departed or re-joined provider always re-plans.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use qce_strategy::{EnvQos, GenerateError, Qos, Requirements, Strategy, UtilityIndex};

use crate::device::Provider;
use crate::engine::event::LegSink;
use crate::engine::CompletionPolicy;
use crate::generator::{env_drift, Planner, StrategyOrigin};
use crate::message::RuntimeError;
use crate::script::{MsSpec, ServiceScript};
use crate::telemetry::EventKind;

use super::{Gateway, ServiceEntry, SlotRecord, HISTORY_LIMIT};

/// Rejects a requirement the planner would refuse, with the planner's
/// error: a live override's, or a request's own.
pub(super) fn vet(requirement: &Requirements) -> Result<(), RuntimeError> {
    requirement
        .validate()
        .map_err(|e| RuntimeError::Generation {
            reason: GenerateError::InvalidRequirements(e).to_string(),
        })
}

/// The part of a slot's plan every request of the slot reads and none
/// changes, built once per re-plan and shared by `Arc`: the engine gets
/// its own handles on the strategy, the providers and their sinks, the
/// reply keeps the whole (and hands the strategy on to the response).
pub(super) struct SlotShared {
    pub(super) strategy: Arc<Strategy>,
    pub(super) providers: Arc<[Arc<dyn Provider>]>,
    /// Where each provider's legs record into the gateway's collector and
    /// telemetry, aligned with `providers`: resolved by the slot's first
    /// leg on the provider, then reused by every other.
    pub(super) sinks: Arc<[LegSink]>,
    /// The strategy rendered with the script's microservice names.
    pub(super) strategy_text: String,
    pub(super) origin: StrategyOrigin,
    pub(super) estimated: Option<Qos>,
    /// How the slot's requests complete: the script's quorum, or first
    /// success. Checked against the strategy and providers with the plan.
    pub(super) policy: CompletionPolicy,
}

struct ActivePlan {
    shared: Arc<SlotShared>,
    /// The QoS table the plan was synthesized under, for the drift trigger.
    assumed_env: EnvQos,
    /// The effective requirement the plan was synthesized against, so the
    /// drift trigger never holds a plan across a live requirement change.
    requirement: Requirements,
}

/// One microservice's provider selection: its script entry, its best live
/// provider, and the QoS row the provider was judged on.
type Selected<'s> = (&'s MsSpec, Arc<dyn Provider>, Qos);

pub(super) struct ServiceState {
    script: ServiceScript,
    /// Persistent per-service planner: its plan cache outlives the slot.
    planner: Planner,
    slot: u64,
    invocations_in_slot: u32,
    active: Option<ActivePlan>,
    history: VecDeque<SlotRecord>,
}

/// Everything a single request needs from its service's current slot plan,
/// taken out of the per-service state cell so execution runs outside
/// every lock. Produced by [`Gateway::plan_slot`].
pub(super) struct Planned {
    pub(super) plan: Arc<SlotShared>,
    pub(super) slot: u64,
    pub(super) base_requirements: Requirements,
}

impl Gateway {
    /// Fetches/validates the script and plans (or reuses) the slot's
    /// strategy under the *per-service* lock only — the global map lock is
    /// held just long enough to find the entry, so one service's
    /// exhaustive re-plan never blocks invocations of other services.
    /// Execution then happens outside every lock.
    pub(super) fn plan_slot(
        &self,
        service_id: &str,
        entry: &Arc<ServiceEntry>,
    ) -> Result<Planned, RuntimeError> {
        let mut guard = entry.cell.lock();
        let state = match &mut *guard {
            Some(state) => state,
            empty => match self.fetch_service(service_id) {
                Ok(state) => empty.insert(state),
                Err(error) => {
                    drop(guard);
                    self.discard_uninitialised(service_id, entry);
                    return Err(error);
                }
            },
        };

        let boundary = state.invocations_in_slot >= state.script.slot_size;
        let active: &ActivePlan = match &state.active {
            Some(active) if !boundary => active,
            _ => {
                // Plan against the *effective* requirement: a live
                // `set_requirement`/`set_class` override changes what the
                // operator demands, and the synthesized strategy (and its
                // plan-cache key) must track it — not the deployed script.
                let requirement = entry
                    .overrides
                    .lock()
                    .planning_requirement(&state.script.requirements);
                // Take the previous slot's plan out *before* planning: if
                // the boundary fails (e.g. a provider departed), the stale
                // plan must not keep serving the new slot — the next
                // invocation retries planning instead.
                let held = state.active.take();
                if held.is_some() {
                    state.slot += 1;
                    state.invocations_in_slot = 0;
                }
                let active = self.boundary(service_id, state, &requirement, held)?;
                state.active.insert(active)
            }
        };

        state.invocations_in_slot += 1;
        Ok(Planned {
            plan: Arc::clone(&active.shared),
            slot: state.slot,
            base_requirements: state.script.requirements,
        })
    }

    /// Fetches and validates `service_id`'s script and builds its planner:
    /// the state of a service seen for the first time.
    fn fetch_service(&self, service_id: &str) -> Result<ServiceState, RuntimeError> {
        let t0 = self.clock.now();
        let fetched = self.market.fetch(service_id);
        self.telemetry
            .record_market_fetch(self.clock.now().saturating_sub(t0), fetched.is_ok());
        let script = fetched?;
        script.validate()?;
        let planner = Planner::new(&script, &self.config.synthesis_settings())?;
        Ok(ServiceState {
            script,
            planner,
            slot: 0,
            invocations_in_slot: 0,
            active: None,
            history: VecDeque::new(),
        })
    }

    /// Runs `state`'s slot boundary: selects each capability's provider,
    /// then holds `held` (drift mode, nothing changed) or plans the slot
    /// over the selection's table and records the decision in telemetry
    /// and the slot history. A failure is recorded as the slot's.
    fn boundary(
        &self,
        service_id: &str,
        state: &mut ServiceState,
        requirement: &Requirements,
        held: Option<ActivePlan>,
    ) -> Result<ActivePlan, RuntimeError> {
        let slot = state.slot;
        let failed = |error: RuntimeError| {
            self.telemetry.record_plan_failure(service_id, slot, &error);
            error
        };
        // An override's requirement reaches here unvetted; selection
        // divides by it, so reject it as the planner would.
        vet(requirement).map_err(failed)?;
        let rows = self
            .select(&state.script, requirement, state.planner.utility())
            .map_err(failed)?;
        let providers: Vec<Arc<dyn Provider>> = rows
            .iter()
            .map(|(_, provider, _)| Arc::clone(provider))
            .collect();
        let env: EnvQos = rows.iter().map(|&(_, _, qos)| qos).collect();

        if let Some(held) = held.filter(|_| self.config.replan_on_drift) {
            let instance = |p: &Arc<dyn Provider>| Arc::as_ptr(p).cast::<()>();
            let same_providers = held
                .shared
                .providers
                .iter()
                .map(instance)
                .eq(providers.iter().map(instance));
            if held.requirement == *requirement && same_providers {
                let drift = env_drift(&held.assumed_env, &env, self.config.plan_quantize);
                // Every quantized cell is unchanged: a re-plan would see
                // identical search inputs, so the plan holds this slot.
                if drift <= 0.0 {
                    self.telemetry.record_drift_hold(service_id);
                    return Ok(held);
                }
                self.telemetry.record(EventKind::ReplanTriggered {
                    service: service_id.to_string(),
                    slot,
                    drift,
                });
            }
        }

        // Capabilities with no live provider are left out of this slot,
        // which then plans over the script reduced to the rest.
        let reduced;
        let script = if rows.len() == state.script.microservices.len() {
            &state.script
        } else {
            reduced = ServiceScript {
                microservices: rows.iter().map(|(spec, _, _)| (*spec).clone()).collect(),
                ..state.script.clone()
            };
            &reduced
        };
        let plan = state
            .planner
            .plan_slot_for(script, requirement, env, slot, Some(&self.telemetry))
            .map_err(failed)?;
        let policy = match script.quorum {
            Some(q) if q > 1 => CompletionPolicy::Quorum { quorum: q },
            _ => CompletionPolicy::FirstSuccess,
        };
        crate::engine::validate(&plan.strategy, &providers, policy).map_err(failed)?;

        let strategy_text = plan.strategy.to_string_with_names(&script.ms_names());
        self.telemetry.record_replan(
            service_id,
            slot,
            &plan.origin.to_string(),
            &strategy_text,
            plan.report.as_ref(),
            plan.source,
        );
        state.history.push_back(SlotRecord {
            slot,
            strategy_text: strategy_text.clone(),
            origin: plan.origin.clone(),
            estimated: plan.estimated,
        });
        while state.history.len() > HISTORY_LIMIT {
            state.history.pop_front();
            self.telemetry.record_history_evicted(service_id, 1);
        }
        Ok(ActivePlan {
            shared: Arc::new(SlotShared {
                strategy: Arc::new(plan.strategy),
                sinks: LegSink::aligned(&providers),
                providers: providers.into(),
                strategy_text,
                origin: plan.origin,
                estimated: plan.estimated,
                policy,
            }),
            assumed_env: plan.assumed_env,
            requirement: *requirement,
        })
    }

    /// Resolves each of `script`'s microservices to its best provider
    /// (Assumption 1), with the QoS row selection judged it on. A
    /// capability with no live provider (device churn) is left out instead
    /// of failing the service — the gateway plans over what it has, as long
    /// as anything survives.
    fn select<'s>(
        &self,
        script: &'s ServiceScript,
        requirement: &Requirements,
        utility: UtilityIndex,
    ) -> Result<Vec<Selected<'s>>, RuntimeError> {
        let mut rows = Vec::with_capacity(script.microservices.len());
        let mut missing = None;
        for spec in &script.microservices {
            match self.registry.best_provider(
                &spec.capability,
                &spec.prior,
                &self.collector,
                utility,
                requirement,
            ) {
                Ok((provider, qos)) => rows.push((spec, provider, qos)),
                Err(error) => {
                    missing.get_or_insert(error);
                }
            }
        }
        // A validated script lists at least one microservice, so nothing
        // surviving means at least one lookup reported its capability gone.
        match missing {
            Some(error) if rows.is_empty() => Err(error),
            _ => Ok(rows),
        }
    }

    /// Removes `entry` from the map if it is still the registered,
    /// never-initialised entry for `service_id`, so failed fetches don't
    /// accumulate empty entries. An entry another thread initialised in the
    /// meantime is left alone.
    fn discard_uninitialised(&self, service_id: &str, entry: &Arc<ServiceEntry>) {
        let mut services = self.services.write();
        if let Some(existing) = services.get(service_id) {
            let discard = Arc::ptr_eq(existing, entry) && existing.cell.lock().is_none();
            if discard {
                services.remove(service_id);
            }
        }
    }

    /// Runs `f` on the planning state of `service_id`, if the service has
    /// been fetched.
    fn with_state<R>(&self, service_id: &str, f: impl FnOnce(&mut ServiceState) -> R) -> Option<R> {
        let entry = self.services.read().get(service_id).map(Arc::clone)?;
        let mut guard = entry.cell.lock();
        guard.as_mut().map(f)
    }

    /// Forces the next invocation of `service_id` to re-plan its strategy,
    /// as if a slot boundary had been reached.
    pub fn end_slot(&self, service_id: &str) {
        self.with_state(service_id, |state| {
            if state.active.take().is_some() {
                state.slot += 1;
                state.invocations_in_slot = 0;
            }
        });
    }

    /// The per-slot planning history of `service_id` (empty if the service
    /// has not been invoked yet). Bounded to the latest 1 024 slots;
    /// evictions are counted in telemetry.
    #[must_use]
    pub fn slot_history(&self, service_id: &str) -> Vec<SlotRecord> {
        self.with_state(service_id, |state| state.history.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The strategy currently serving `service_id`, rendered with script
    /// names.
    #[must_use]
    pub fn current_strategy(&self, service_id: &str) -> Option<String> {
        let text =
            |state: &mut ServiceState| Some(state.active.as_ref()?.shared.strategy_text.clone());
        self.with_state(service_id, text).flatten()
    }

    /// Drops the cached script and planning state of `service_id` (e.g.
    /// after publishing an updated script to the market). Any cached plans
    /// were computed for the evicted script, so the planner's cache is
    /// invalidated first and the dropped entries are surfaced as stale in
    /// telemetry.
    ///
    /// Requests in flight at eviction time are cancelled through their
    /// budgets: every strategy leg that has not started is pruned, the
    /// request completes with whatever its started legs produced, and its
    /// response carries
    /// [`PruneReason::Cancelled`](crate::PruneReason::Cancelled). The
    /// planning state is *taken* out of the entry (not merely dropped with
    /// it), so the cache invalidation and its telemetry flush happen
    /// exactly once even when in-flight requests still hold the entry.
    pub fn evict_service(&self, service_id: &str) {
        let entry = self.services.write().remove(service_id);
        if let Some(entry) = entry {
            entry.evicted.store(true, Ordering::SeqCst);
            let state = entry.cell.lock().take();
            if let Some(state) = state {
                self.drop_cached_plans(service_id, &state);
            }
        }
    }

    /// Drops `service_id`'s cached plans after a requirement-affecting
    /// override. The memoized winners were synthesized for the
    /// *pre-override* requirement; without this, the next slot boundary
    /// could serve one of them and quietly plan against a requirement the
    /// operator just replaced. The active slot keeps serving (overrides
    /// never re-plan mid-slot); the next boundary runs a cold search.
    pub(super) fn invalidate_override_plans(&self, service_id: &str, entry: &ServiceEntry) {
        let guard = entry.cell.lock();
        if let Some(state) = guard.as_ref() {
            self.drop_cached_plans(service_id, state);
        }
    }

    /// Invalidates the planner's cache; telemetry counts the drop as stale.
    fn drop_cached_plans(&self, service_id: &str, state: &ServiceState) {
        state.planner.invalidate();
        if let Some(stats) = state.planner.cache_stats() {
            self.telemetry.record_plan_cache(service_id, &stats);
        }
    }
}
