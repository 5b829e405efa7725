//! Equivalence proofs for the unified execution engine: for random
//! strategies (up to M = 5), deterministic provider reliabilities, and
//! seeded fault plans, the engine must reproduce the pre-engine executors
//! *exactly* — outcome, payload, cost, latency, and the multiset of
//! started invocations — both through its one public door and on the path
//! that serves requests.
//!
//! The ground truth is the **original tree walkers**, copied verbatim
//! below from the pre-engine `executor.rs` / `quorum.rs` (both files are
//! gone; these copies are what is left of them) — except
//! that the oracles join their legs with the same slot-handoff the engine
//! uses (see [`OracleSlot`]), without which the oracle itself is
//! scheduling-dependent. Each case runs three independent rigs on fresh
//! virtual clocks:
//!
//! 1. the copied legacy walker (the oracle),
//! 2. `execute_scoped` (the gateway-free door, every invocation recorded),
//! 3. a `Gateway` at slot 0 whose script's default strategy is the sampled
//!    one (`Gateway::submit`: the record-free request form, driven on the
//!    gateway's own pool). Its invocations are compared through its
//!    telemetry's per-provider counts.
//!
//! A gateway script accepts only a quorum `1 ≤ q ≤ M`, and runs `q = 1` as
//! first success. So the quorum property covers `q = 1` and `q > M` with
//! `execute_scoped` alone; every other case runs all three rigs.
//!
//! Determinism argument: reliabilities are 0 or 1 and latencies are
//! distinct powers of two, so every *success* instant is a distinct
//! subset-sum and no tie-dependent race can flip the winner or the vote
//! order. Fault windows (crash / latency spike / byzantine) are keyed on
//! virtual time, which only advances when every worker sleeps, so equal
//! behaviour implies equal fault exposure. Only the *completion order* of
//! same-instant failures is scheduling-dependent, which is why invocation
//! traces are compared as sorted multisets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use proptest::prelude::*;

use qce_runtime::engine::{execute_scoped, Budget, Completion, CompletionPolicy, EngineOutcome};
use qce_runtime::{
    Clock, FaultPlan, FaultProfile, FaultyProvider, Gateway, GatewayConfig, InMemoryMarket,
    Invocation, InvocationOutcome, MsSpec, Provider, Request, ServiceResponse, ServiceScript,
    SimulatedProvider, VirtualClock, WorkerGuard,
};
use qce_strategy::enumerate::StrategySampler;
use qce_strategy::{IdSet, MsId, Node, Qos, Requirements, Strategy};

// ---------------------------------------------------------------------------
// The oracle: the pre-engine first-success walker, copied verbatim (minus
// collector/telemetry plumbing, which this test does not compare).
// ---------------------------------------------------------------------------

struct Win {
    at: Duration,
    payload: Vec<u8>,
}

struct OracleCtx<'a> {
    providers: &'a [Arc<dyn Provider>],
    request: &'a Invocation,
    clock: &'a dyn Clock,
    cancel: AtomicBool,
    started_at: Duration,
    first_success: Mutex<Option<Win>>,
    invocations: Mutex<Vec<InvocationOutcome>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeStatus {
    Succeeded,
    Failed,
    Cancelled,
}

fn propagate(result: std::thread::Result<NodeStatus>) -> NodeStatus {
    result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The slot handoff of the engine's first, thread-per-leg walker (the
/// event core that replaced it keeps a finished leg's slot *orphaned*
/// instead — see the module docs of `engine/event.rs` and the
/// advance-protocol notes in the clock module), applied to the oracle
/// copies: a leg that finishes last while the parent is passively parked
/// leaves its worker slot for the parent to release after `exit_passive`;
/// every other leg releases its own. Without it the clock can advance past the parent's continuation
/// in the window between the last leg completing and the parent being
/// rescheduled, making the *oracle itself* scheduling-dependent — the
/// only departure from the verbatim pre-engine walkers below.
struct OracleHandoff {
    state: std::sync::Mutex<(usize, bool, bool)>, // (outstanding, parked, kept)
}

impl OracleHandoff {
    fn new(legs: usize) -> Self {
        OracleHandoff {
            state: std::sync::Mutex::new((legs, false, false)),
        }
    }

    fn leg_done(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        state.0 -= 1;
        if state.0 == 0 && state.1 {
            state.2 = true;
            false
        } else {
            true
        }
    }

    fn park_parent(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.0 == 0 {
            false
        } else {
            state.1 = true;
            true
        }
    }

    fn take_kept(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        state.1 = false;
        std::mem::replace(&mut state.2, false)
    }
}

struct OracleSlot<'a> {
    clock: &'a dyn Clock,
    handoff: &'a OracleHandoff,
}

impl<'a> OracleSlot<'a> {
    fn adopt(clock: &'a dyn Clock, handoff: &'a OracleHandoff) -> Self {
        clock.adopt_worker();
        OracleSlot { clock, handoff }
    }
}

impl Drop for OracleSlot<'_> {
    fn drop(&mut self) {
        self.clock.disown_worker();
        if self.handoff.leg_done() {
            self.clock.release_worker();
        }
    }
}

fn invoke_leaf(
    id: MsId,
    providers: &[Arc<dyn Provider>],
    request: &Invocation,
    clock: &dyn Clock,
    invocations: &Mutex<Vec<InvocationOutcome>>,
) -> Result<Vec<u8>, ()> {
    let provider = &providers[id.index()];
    let t0 = clock.now();
    let result = provider.invoke(request);
    let latency = clock.now().saturating_sub(t0);
    let success = result.is_ok();
    invocations.lock().push(InvocationOutcome {
        provider_id: provider.id().to_string(),
        capability: provider.capability().to_string(),
        payload: result.as_ref().ok().cloned(),
        latency,
        cost: provider.cost(),
        success,
    });
    result.map_err(|_| ())
}

fn oracle_run_node(node: &Node, ctx: &OracleCtx<'_>) -> NodeStatus {
    match node {
        Node::Leaf(id) => {
            if ctx.cancel.load(Ordering::SeqCst) {
                return NodeStatus::Cancelled;
            }
            match invoke_leaf(*id, ctx.providers, ctx.request, ctx.clock, &ctx.invocations) {
                Ok(payload) => {
                    let at = ctx.clock.now().saturating_sub(ctx.started_at);
                    let mut win = ctx.first_success.lock();
                    let earlier = win.as_ref().is_none_or(|w| at < w.at);
                    if earlier {
                        *win = Some(Win { at, payload });
                    }
                    drop(win);
                    ctx.cancel.store(true, Ordering::SeqCst);
                    NodeStatus::Succeeded
                }
                Err(()) => NodeStatus::Failed,
            }
        }
        Node::Seq(children) => {
            for child in children {
                if ctx.cancel.load(Ordering::SeqCst) {
                    return NodeStatus::Cancelled;
                }
                match oracle_run_node(child, ctx) {
                    NodeStatus::Succeeded => return NodeStatus::Succeeded,
                    NodeStatus::Cancelled => return NodeStatus::Cancelled,
                    NodeStatus::Failed => {}
                }
            }
            NodeStatus::Failed
        }
        Node::Par(children) => {
            let spawned = children.len() - 1;
            let handoff = OracleHandoff::new(spawned);
            let statuses: Vec<NodeStatus> = std::thread::scope(|scope| {
                for _ in 0..spawned {
                    ctx.clock.reserve_worker();
                }
                let handles: Vec<_> = children
                    .iter()
                    .skip(1)
                    .map(|child| {
                        let handoff = &handoff;
                        scope.spawn(move || {
                            let _slot = OracleSlot::adopt(ctx.clock, handoff);
                            oracle_run_node(child, ctx)
                        })
                    })
                    .collect();
                let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    oracle_run_node(&children[0], ctx)
                }));
                let parked = handoff.park_parent();
                if parked {
                    ctx.clock.enter_passive();
                }
                let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                if parked {
                    ctx.clock.exit_passive();
                }
                if handoff.take_kept() {
                    ctx.clock.release_worker();
                }
                let mut statuses = vec![propagate(first)];
                statuses.extend(joined.into_iter().map(propagate));
                statuses
            });
            if statuses.contains(&NodeStatus::Succeeded) {
                NodeStatus::Succeeded
            } else if statuses.contains(&NodeStatus::Cancelled) {
                NodeStatus::Cancelled
            } else {
                NodeStatus::Failed
            }
        }
    }
}

struct OracleOutcome {
    success: bool,
    payload: Option<Vec<u8>>,
    latency: Duration,
    cost: f64,
    invocations: Vec<InvocationOutcome>,
}

fn oracle_first_success(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    request: &Invocation,
    clock: &dyn Clock,
) -> OracleOutcome {
    let worker = WorkerGuard::enter(clock);
    let ctx = OracleCtx {
        providers,
        request,
        clock,
        cancel: AtomicBool::new(false),
        started_at: clock.now(),
        first_success: Mutex::new(None),
        invocations: Mutex::new(Vec::new()),
    };
    oracle_run_node(strategy.node(), &ctx);
    drop(worker);
    let first_success = ctx.first_success.into_inner();
    let invocations = ctx.invocations.into_inner();
    let cost = invocations.iter().map(|i| i.cost).sum();
    let (success, payload, latency) = match first_success {
        Some(win) => (true, Some(win.payload), win.at),
        None => (false, None, clock.now().saturating_sub(ctx.started_at)),
    };
    OracleOutcome {
        success,
        payload,
        latency,
        cost,
        invocations,
    }
}

// ---------------------------------------------------------------------------
// The oracle: the pre-engine quorum walker, copied verbatim likewise.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct VoteBox {
    tally: std::collections::HashMap<Vec<u8>, (usize, usize)>,
    total: usize,
    decided_at: Option<Duration>,
}

impl VoteBox {
    fn vote(&mut self, payload: Vec<u8>) -> usize {
        let order = self.tally.len();
        let entry = self.tally.entry(payload).or_insert((0, order));
        entry.0 += 1;
        self.total += 1;
        entry.0
    }

    fn winner(&self) -> (Option<Vec<u8>>, usize) {
        self.tally
            .iter()
            .max_by(|(_, (va, oa)), (_, (vb, ob))| va.cmp(vb).then(ob.cmp(oa)))
            .map_or((None, 0), |(payload, (votes, _))| {
                (Some(payload.clone()), *votes)
            })
    }
}

struct QuorumOracleCtx<'a> {
    providers: &'a [Arc<dyn Provider>],
    request: &'a Invocation,
    quorum: usize,
    clock: &'a dyn Clock,
    done: AtomicBool,
    started_at: Duration,
    votes: Mutex<VoteBox>,
    invocations: Mutex<Vec<InvocationOutcome>>,
}

fn quorum_oracle_run_node(node: &Node, ctx: &QuorumOracleCtx<'_>) {
    match node {
        Node::Leaf(id) => {
            if ctx.done.load(Ordering::SeqCst) {
                return;
            }
            if let Ok(payload) =
                invoke_leaf(*id, ctx.providers, ctx.request, ctx.clock, &ctx.invocations)
            {
                let mut votes = ctx.votes.lock();
                let count = votes.vote(payload);
                if count >= ctx.quorum && votes.decided_at.is_none() {
                    votes.decided_at = Some(ctx.clock.now().saturating_sub(ctx.started_at));
                    drop(votes);
                    ctx.done.store(true, Ordering::SeqCst);
                }
            }
        }
        Node::Seq(children) => {
            for child in children {
                if ctx.done.load(Ordering::SeqCst) {
                    return;
                }
                quorum_oracle_run_node(child, ctx);
            }
        }
        Node::Par(children) => {
            let spawned = children.len() - 1;
            let handoff = OracleHandoff::new(spawned);
            std::thread::scope(|scope| {
                for _ in 0..spawned {
                    ctx.clock.reserve_worker();
                }
                let handles: Vec<_> = children
                    .iter()
                    .skip(1)
                    .map(|child| {
                        let handoff = &handoff;
                        scope.spawn(move || {
                            let _slot = OracleSlot::adopt(ctx.clock, handoff);
                            quorum_oracle_run_node(child, ctx);
                        })
                    })
                    .collect();
                let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    quorum_oracle_run_node(&children[0], ctx)
                }));
                let parked = handoff.park_parent();
                if parked {
                    ctx.clock.enter_passive();
                }
                let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                if parked {
                    ctx.clock.exit_passive();
                }
                if handoff.take_kept() {
                    ctx.clock.release_worker();
                }
                if let Err(panic) = first {
                    std::panic::resume_unwind(panic);
                }
                for result in joined {
                    if let Err(panic) = result {
                        std::panic::resume_unwind(panic);
                    }
                }
            });
        }
    }
}

struct QuorumOracleOutcome {
    payload: Option<Vec<u8>>,
    votes: usize,
    votes_cast: usize,
    agreed: bool,
    latency: Duration,
    cost: f64,
    invocations: Vec<InvocationOutcome>,
}

fn oracle_quorum(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    request: &Invocation,
    quorum: usize,
    clock: &dyn Clock,
) -> QuorumOracleOutcome {
    let worker = WorkerGuard::enter(clock);
    let ctx = QuorumOracleCtx {
        providers,
        request,
        quorum,
        clock,
        done: AtomicBool::new(false),
        started_at: clock.now(),
        votes: Mutex::new(VoteBox::default()),
        invocations: Mutex::new(Vec::new()),
    };
    quorum_oracle_run_node(strategy.node(), &ctx);
    drop(worker);
    let votes = ctx.votes.into_inner();
    let invocations = ctx.invocations.into_inner();
    let cost = invocations.iter().map(|i| i.cost).sum();
    let (payload, winner_votes) = votes.winner();
    let agreed = winner_votes >= quorum;
    let latency = votes
        .decided_at
        .unwrap_or_else(|| clock.now().saturating_sub(ctx.started_at));
    QuorumOracleOutcome {
        payload,
        votes: winner_votes,
        votes_cast: votes.total,
        agreed,
        latency,
        cost,
        invocations,
    }
}

// ---------------------------------------------------------------------------
// Rig construction: deterministic providers under seeded fault plans.
// ---------------------------------------------------------------------------

/// Distinct power-of-two latencies: every success instant is a distinct
/// subset-sum, so no virtual-time tie can make the winner race-dependent.
const LATENCIES_MS: [u64; 5] = [1, 2, 4, 8, 16];

/// A fault profile whose latency spike (1024 ms) is far above any
/// subset-sum of the base latencies, preserving the no-ties argument.
fn profile() -> FaultProfile {
    FaultProfile {
        mean_time_between_faults: Duration::from_millis(20),
        mean_fault_duration: Duration::from_millis(10),
        crash_weight: 2,
        latency_weight: 1,
        byzantine_weight: 1,
        latency_spike: Duration::from_millis(1024),
        byzantine_payload: vec![0xBB],
    }
}

/// A fresh clock plus M providers: reliability from `mask` bits, shared
/// payloads (`i % 2`) so quorums are reachable across providers, and a
/// seeded fault plan on every provider whose `fault_mask` bit is set.
fn rig(
    m: usize,
    mask: u8,
    fault_mask: u8,
    seed: u64,
) -> (Arc<VirtualClock>, Vec<Arc<dyn Provider>>) {
    let clock = Arc::new(VirtualClock::new());
    let providers = (0..m)
        .map(|i| {
            let device = SimulatedProvider::builder(format!("p{i}"), format!("cap{i}"))
                .latency(Duration::from_millis(LATENCIES_MS[i]))
                .cost(5.0 * (i as f64 + 1.0))
                .reliability(if mask & (1 << i) != 0 { 1.0 } else { 0.0 })
                .response(vec![b'r', (i % 2) as u8])
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build();
            if fault_mask & (1 << i) != 0 {
                let plan = FaultPlan::seeded(
                    seed.wrapping_add(i as u64),
                    Duration::from_secs(60),
                    &profile(),
                );
                FaultyProvider::new(device, Arc::clone(&clock) as Arc<dyn Clock>, plan)
                    as Arc<dyn Provider>
            } else {
                device as Arc<dyn Provider>
            }
        })
        .collect();
    (clock, providers)
}

fn sampled_strategy(m: usize, seed: u64) -> Strategy {
    use rand::SeedableRng;
    let ids: Vec<MsId> = (0..m).map(MsId).collect();
    IdSet::new(&ids)
        .and_then(StrategySampler::new)
        .unwrap()
        .sample(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed))
}

/// One invocation reduced to its observable fields (cost as bit pattern so
/// the tuple is `Ord`).
type TraceKey = (String, String, Duration, bool, Option<Vec<u8>>, u64);

/// Invocation traces are compared as sorted multisets: same-instant
/// *failures* may complete in either order, but what ran, at what cost,
/// with what result, must match exactly.
fn trace_key(outcome: &InvocationOutcome) -> TraceKey {
    (
        outcome.provider_id.clone(),
        outcome.capability.clone(),
        outcome.latency,
        outcome.success,
        outcome.payload.clone(),
        outcome.cost.to_bits(),
    )
}

fn sorted_trace(invocations: &[InvocationOutcome]) -> Vec<TraceKey> {
    let mut keys: Vec<_> = invocations.iter().map(trace_key).collect();
    keys.sort();
    keys
}

fn request() -> Invocation {
    Invocation::new(7, "", vec![])
}

/// Rig 2: the scoped door with an unlimited budget.
fn run_scoped(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    clock: &dyn Clock,
    policy: CompletionPolicy,
) -> EngineOutcome {
    execute_scoped(
        strategy,
        providers,
        &request(),
        None,
        clock,
        None,
        &Budget::unlimited(),
        policy,
    )
    .unwrap()
}

/// Per provider that ran: `(id, invocations, successes)`, sorted by id.
type Counts = Vec<(String, u64, u64)>;

/// The oracle's trace reduced to what gateway telemetry counts.
fn trace_counts(invocations: &[InvocationOutcome]) -> Counts {
    let mut counts = std::collections::BTreeMap::<String, (u64, u64)>::new();
    for invocation in invocations {
        let entry = counts.entry(invocation.provider_id.clone()).or_default();
        entry.0 += 1;
        entry.1 += u64::from(invocation.success);
    }
    counts
        .into_iter()
        .map(|(id, (n, ok))| (id, n, ok))
        .collect()
}

/// Rig 3: a gateway on the rig's clock, serving one request at slot 0.
/// Its script lists one microservice per rig provider, its default
/// strategy is `strategy` rendered with the script's names, and its quorum
/// is `quorum`. Returns the response and the gateway telemetry's
/// per-provider counts.
fn run_gateway(
    strategy: &Strategy,
    clock: Arc<VirtualClock>,
    providers: Vec<Arc<dyn Provider>>,
    quorum: Option<usize>,
) -> (ServiceResponse, Counts) {
    let names: Vec<String> = (0..providers.len()).map(|i| format!("ms{i}")).collect();
    let microservices = providers
        .iter()
        .zip(&names)
        .map(|(provider, name)| MsSpec {
            name: name.clone(),
            capability: provider.capability().to_string(),
            prior: Qos::new(10.0, 10.0, 0.5).unwrap(),
        })
        .collect();
    let mut script = ServiceScript::new(
        "svc",
        microservices,
        Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
    );
    script.default_strategy = Some(strategy.to_string_with_names(&names));
    script.quorum = quorum;
    let market = InMemoryMarket::new();
    market.publish(script).unwrap();
    let gateway = Gateway::with_clock(Box::new(market), GatewayConfig::default(), clock);
    for provider in providers {
        gateway.registry().register(provider);
    }
    let response = gateway.submit(Request::new("svc")).unwrap();
    assert_eq!(response.slot, 0);
    assert_eq!(*response.strategy, *strategy, "the script's default serves");
    assert_eq!(response.pruned, None);
    let counts = (gateway.telemetry().snapshot().providers.iter())
        .map(|p| (p.provider.clone(), p.invocations, p.successes))
        .collect();
    (response, counts)
}

/// `(success, payload)` of a first-success run.
fn first(completion: Completion) -> (bool, Option<Vec<u8>>) {
    match completion {
        Completion::First { success, payload } => (success, payload),
        Completion::Agreement { .. } => panic!("first-success run returned agreement"),
    }
}

/// `(payload, votes, votes_cast, agreed)` of a quorum run.
fn agreement(completion: Completion) -> (Option<Vec<u8>>, usize, usize, bool) {
    match completion {
        Completion::Agreement {
            payload,
            votes,
            votes_cast,
            agreed,
        } => (payload, votes, votes_cast, agreed),
        Completion::First { .. } => panic!("quorum run returned first-success"),
    }
}

// ---------------------------------------------------------------------------
// The properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `CompletionPolicy::FirstSuccess` — `execute_scoped` and the gateway
    /// both reproduce the pre-engine first-success walker bit for bit.
    #[test]
    fn first_success_engine_equals_legacy_walker(
        m in 1usize..6,
        seed in any::<u64>(),
        mask in any::<u8>(),
        fault_mask in any::<u8>(),
    ) {
        let strategy = sampled_strategy(m, seed);

        let (clock, providers) = rig(m, mask, fault_mask, seed);
        let oracle = oracle_first_success(&strategy, &providers, &request(), &*clock);

        let (clock, providers) = rig(m, mask, fault_mask, seed);
        let scoped = run_scoped(&strategy, &providers, &*clock, CompletionPolicy::FirstSuccess);
        let (scoped_success, scoped_payload) = first(scoped.completion);

        let (clock, providers) = rig(m, mask, fault_mask, seed);
        let (gateway, counts) = run_gateway(&strategy, clock, providers, None);

        // Scoped engine vs original walker.
        prop_assert_eq!(scoped_success, oracle.success, "strategy {}", strategy);
        prop_assert_eq!(&scoped_payload, &oracle.payload, "strategy {}", strategy);
        prop_assert_eq!(scoped.latency, oracle.latency, "strategy {}", strategy);
        prop_assert_eq!(scoped.cost, oracle.cost, "strategy {}", strategy);
        prop_assert_eq!(
            sorted_trace(&scoped.invocations),
            sorted_trace(&oracle.invocations),
            "strategy {}",
            strategy
        );

        // Gateway vs original walker.
        prop_assert_eq!(gateway.success, oracle.success, "strategy {}", strategy);
        prop_assert_eq!(&gateway.payload, &oracle.payload, "strategy {}", strategy);
        prop_assert_eq!(gateway.latency, oracle.latency, "strategy {}", strategy);
        prop_assert_eq!(gateway.cost.to_bits(), oracle.cost.to_bits(), "strategy {}", strategy);
        prop_assert_eq!(gateway.votes, None);
        prop_assert_eq!(counts, trace_counts(&oracle.invocations), "strategy {}", strategy);
    }

    /// `CompletionPolicy::Quorum { k }` — `execute_scoped` and, for the
    /// quorums a script runs (`2 ≤ k ≤ M`), the gateway both reproduce the
    /// pre-engine quorum walker bit for bit, votes included.
    #[test]
    fn quorum_engine_equals_legacy_walker(
        m in 1usize..6,
        seed in any::<u64>(),
        mask in any::<u8>(),
        fault_mask in any::<u8>(),
        quorum in 1usize..4,
    ) {
        let strategy = sampled_strategy(m, seed);

        let (clock, providers) = rig(m, mask, fault_mask, seed);
        let oracle = oracle_quorum(&strategy, &providers, &request(), quorum, &*clock);

        let (clock, providers) = rig(m, mask, fault_mask, seed);
        let scoped = run_scoped(&strategy, &providers, &*clock, CompletionPolicy::Quorum { quorum });
        let (scoped_payload, scoped_votes, scoped_cast, scoped_agreed) =
            agreement(scoped.completion);

        // Scoped engine vs original walker.
        prop_assert_eq!(&scoped_payload, &oracle.payload, "strategy {} q{}", strategy, quorum);
        prop_assert_eq!(scoped_votes, oracle.votes, "strategy {} q{}", strategy, quorum);
        prop_assert_eq!(scoped_cast, oracle.votes_cast, "strategy {} q{}", strategy, quorum);
        prop_assert_eq!(scoped_agreed, oracle.agreed, "strategy {} q{}", strategy, quorum);
        prop_assert_eq!(scoped.latency, oracle.latency, "strategy {} q{}", strategy, quorum);
        prop_assert_eq!(scoped.cost, oracle.cost, "strategy {} q{}", strategy, quorum);
        prop_assert_eq!(
            sorted_trace(&scoped.invocations),
            sorted_trace(&oracle.invocations),
            "strategy {} q{}",
            strategy,
            quorum
        );

        // Gateway vs original walker.
        if (2..=m).contains(&quorum) {
            let (clock, providers) = rig(m, mask, fault_mask, seed);
            let (gateway, counts) = run_gateway(&strategy, clock, providers, Some(quorum));
            let ctx = format!("strategy {strategy} q{quorum}");
            assert_gateway_agrees(&gateway, &counts, &oracle, &ctx);
        }
    }
}

/// A gateway quorum run against the quorum oracle: agreement, payload,
/// votes, latency, cost bits and per-provider invocation counts.
fn assert_gateway_agrees(
    gateway: &ServiceResponse,
    counts: &Counts,
    oracle: &QuorumOracleOutcome,
    ctx: &str,
) {
    assert_eq!(gateway.success, oracle.agreed, "{ctx}");
    assert_eq!(gateway.payload, oracle.payload, "{ctx}");
    assert_eq!(
        gateway.votes,
        Some((oracle.votes, oracle.votes_cast)),
        "{ctx}"
    );
    assert_eq!(gateway.latency, oracle.latency, "{ctx}");
    assert_eq!(gateway.cost.to_bits(), oracle.cost.to_bits(), "{ctx}");
    assert_eq!(*counts, trace_counts(&oracle.invocations), "{ctx}");
}

/// Regression: a Par whose last leg finishes while the parent is
/// passively parked must not let the virtual clock advance past the
/// parent's continuation.
///
/// The strategy `e*(a*(c-d)-b)` under quorum 2 once raced here: when the
/// inner Par's legs all completed while the outer join was parked, the
/// completing leg released its worker slot before the parent was
/// rescheduled, `try_advance` saw every remaining worker asleep, and time
/// jumped to the next leaf's deadline — so `b` (due at 12ms) was skipped
/// and the engine agreed at 16ms with one vote fewer than the oracle.
/// The slot-handoff protocol (`Clock::disown_worker` /
/// `Clock::release_worker`, [`SlotHandoff`] in the walker) closes the
/// window; this replays the once-diverging case many times since the race
/// needed scheduler pressure to fire, on the gateway's request path.
#[test]
fn parked_parent_handoff_keeps_pending_leaves() {
    use proptest::test_runner::rng_for_case;
    use rand::Rng;
    use rand::RngCore;

    // Re-derive case 31 of `quorum_engine_equals_legacy_walker`, the
    // sampling that first exposed the race (strategy `e*(a*(c-d)-b)`,
    // quorum 2).
    let mut rng = rng_for_case("quorum_engine_equals_legacy_walker", 31);
    let m: usize = rng.gen_range(1usize..6);
    let seed: u64 = rng.next_u64();
    let mask: u8 = rng.next_u64() as u8;
    let fault_mask: u8 = rng.next_u64() as u8;
    let quorum: usize = rng.gen_range(1usize..4);
    let strategy = sampled_strategy(m, seed);

    assert!((2..=m).contains(&quorum), "a quorum the gateway runs");

    for iter in 0..200 {
        let (clock, providers) = rig(m, mask, fault_mask, seed);
        let oracle = oracle_quorum(&strategy, &providers, &request(), quorum, &*clock);

        let (clock, providers) = rig(m, mask, fault_mask, seed);
        let (gateway, counts) = run_gateway(&strategy, clock, providers, Some(quorum));
        let ctx = format!("iter {iter} strategy {strategy} q{quorum}");
        assert_gateway_agrees(&gateway, &counts, &oracle, &ctx);
    }
}
