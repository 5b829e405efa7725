//! Execution-strategy generation (paper Section IV.D, Algorithm 2).
//!
//! Two generation algorithms are provided, as in the paper:
//!
//! * **Exhaustive search** — estimate the QoS of every strategy in `F(M)`
//!   and pick the one with the highest utility index. Exact but exponential
//!   in `M` (Table I), so only practical for small equivalent sets.
//! * **Approximation heuristic** — sort the microservices by their
//!   individual utility; start from the best one and, for each next
//!   microservice `m`, keep the better of `es - m` (sequential append) and
//!   `(es) * m` (parallel wrap). It is the beam search
//!   ([`BackendChoice::Beam`]) at width 1.
//!
//! [`Generator`] combines them behind the paper's threshold rule: use the
//! exhaustive search while `|M| ≤ θ`, switch to the approximation beyond,
//! with `θ` the constant [`DEFAULT_THRESHOLD`] (6).
//! (Algorithm 2's line 1 prints the comparison inverted; we follow the
//! prose — see `DESIGN.md`.) Every search ranks candidates by one order,
//! `outranks`: utility, then cost, then latency, then the rendering.
//!
//! Every search uses all of `ids`. The paper also discusses two *subset*
//! variants — searching `F'(M)`, and stopping the approximation once
//! another microservice stops improving the utility — and advises against
//! both in a dynamic environment (a microservice left out of the strategy
//! never gets a fresh QoS observation); neither is implemented.
//!
//! ## The synthesis engine
//!
//! Generators are configured through [`GeneratorBuilder`]. When the
//! configured [`Estimator`] is the paper's Algorithm 1 (the default), the
//! exhaustive searches run on the branch-and-bound engine in `synth`:
//! utility-bound pruning plus a work-stealing thread pool, with results —
//! winning strategy, QoS bits, utility, and tie-breaks — provably
//! identical to the plain sequential scan. Any other estimator falls back
//! to a generic sequential scan over [`StrategyIter`].
//! Either way [`Generated::report`] records how many candidates were
//! estimated, how many the bounds pruned, and the wall-clock time.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::backend::BackendChoice;
use crate::enumerate::{failover, speculative_parallel, StrategyIter, MAX_COUNT_M};
use crate::error::{BuildError, EstimateError, GenerateError};
use crate::estimate::{Algorithm1, Estimator};
use crate::expr::Strategy;
use crate::plan_cache::{PlanCache, PlanSource, SearchId};
use crate::qos::{EnvQos, MsId, Qos, Requirements};
use crate::synth;
use crate::utility::UtilityIndex;

/// Which algorithm produced a generated strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Exhaustive search over `F(M)` (all microservices).
    Exhaustive,
    /// Greedy approximation over all microservices (Algorithm 2).
    Approximation,
    /// Predefined fail-over pattern (`a-b-…`), microservices ordered by
    /// individual utility.
    Failover,
    /// Predefined speculative-parallel pattern (`a*b*…`).
    SpeculativeParallel,
    /// Width-`W` beam search: greedy at width 1, exhaustive in the limit.
    /// The width is part of the plan-cache key, not of the method.
    Beam,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Method::Exhaustive => "exhaustive",
            Method::Approximation => "approximation",
            Method::Failover => "failover",
            Method::SpeculativeParallel => "speculative-parallel",
            Method::Beam => "beam",
        };
        f.write_str(name)
    }
}

/// How a [`Generated`] strategy was found: candidate counts and timing.
///
/// Effort accounting is unified across every backend: for a fresh
/// (non-cached) result, `candidates_seen + candidates_pruned ==
/// `[`Generated::evaluated`], the number of candidate strategies
/// *considered*. Auxiliary estimates — the per-leaf ranking behind
/// `sortByUtility`, the exhaustive engine's seed bounds — are never
/// counted by any backend. For the exhaustive method the sum equals the
/// full search-space size `F(M)`: pruning skips estimation
/// work, never candidates' consideration. Heuristic methods report their
/// estimate count as `candidates_seen` with zero pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SynthesisReport {
    /// Candidates whose QoS an estimate established. That is one estimate
    /// per candidate, except behind a chain prefix holding a leg of
    /// reliability exactly 1.0: every completion of such a prefix has the
    /// same QoS, so the exhaustive engine settles the whole class with one
    /// estimate and counts each member here.
    pub candidates_seen: u64,
    /// Candidates skipped by branch-and-bound utility bounds.
    pub candidates_pruned: u64,
    /// Wall-clock time of the generation call.
    pub elapsed: Duration,
}

/// A generated strategy together with its estimated QoS and utility.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Generated {
    /// The synthesized execution strategy.
    pub strategy: Strategy,
    /// Its estimated QoS (Algorithm 1).
    pub qos: Qos,
    /// Its utility index against the requirements used during generation.
    pub utility: f64,
    /// How many candidate strategies were *considered* (estimated plus
    /// pruned) — stable across pruning/parallelism settings, matching the
    /// historical "every candidate was estimated" semantics.
    pub evaluated: usize,
    /// Which algorithm produced it.
    pub method: Method,
    /// Counts and timing of the synthesis run.
    #[serde(default)]
    pub report: SynthesisReport,
    /// Whether this result came from a search or from the plan cache.
    #[serde(default)]
    pub source: PlanSource,
}

/// Equality ignores [`Generated::report`] and [`Generated::source`]: two
/// runs that pick the same strategy with the same QoS are the same result
/// even when their timings (or pruning ratios / plan provenance, across
/// different settings) differ.
impl PartialEq for Generated {
    fn eq(&self, other: &Self) -> bool {
        self.strategy == other.strategy
            && self.qos == other.qos
            && self.utility == other.utility
            && self.evaluated == other.evaluated
            && self.method == other.method
    }
}

impl fmt::Display for Generated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (U={:.3}, {}, via {})",
            self.strategy, self.utility, self.qos, self.method
        )
    }
}

/// Strategy generator: Algorithm 2 under a utility index, with the
/// synthesis engine's settings.
///
/// # Examples
///
/// ```
/// use qce_strategy::{EnvQos, Generator, Requirements};
///
/// // Fire detection (Section III.D) under Qc=100, Ql=100, Qr=97%.
/// let env = EnvQos::from_triples(&[
///     (50.0, 50.0, 0.6),
///     (100.0, 100.0, 0.6),
///     (150.0, 150.0, 0.7),
///     (200.0, 200.0, 0.7),
///     (250.0, 250.0, 0.8),
/// ])?;
/// let req = Requirements::new(100.0, 100.0, 0.97)?;
/// let best = Generator::default().generate(&env, &env.ids(), &req)?;
/// // The custom strategy beats both predefined patterns on utility.
/// let failover = Generator::default().failover(&env, &env.ids(), &req)?;
/// let parallel = Generator::default().speculative_parallel(&env, &env.ids(), &req)?;
/// assert!(best.utility >= failover.utility);
/// assert!(best.utility >= parallel.utility);
///
/// // Tuning the engine goes through the builder:
/// let tuned = Generator::builder()
///     .parallelism(2)
///     .pruning(true)
///     .build();
/// assert_eq!(tuned.generate(&env, &env.ids(), &req)?.strategy, best.strategy);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Generator {
    utility: UtilityIndex,
    parallelism: usize,
    /// `parallelism` with `0` resolved to the available cores, once: the
    /// lookup reads cgroup files on Linux, and a re-planning runtime
    /// searches every slot.
    workers: usize,
    pruning: bool,
    estimator: Arc<dyn Estimator>,
    /// Environment-independent candidate-tree caches for the synthesis
    /// engine, keyed by the searched id list and shared across searches
    /// (and across clones of this generator). See [`synth::NodeCache`].
    caches: Arc<Mutex<HashMap<Vec<MsId>, Arc<synth::NodeCache>>>>,
    /// Cross-slot plan memo, consulted before searching and filled after.
    plan_cache: Option<Arc<PlanCache>>,
}

/// How many distinct id lists [`Generator`] keeps candidate-tree caches
/// for. Runtimes search the same equivalent set over and over, so a small
/// cap suffices; searches past the cap still run (with a private,
/// single-search cache) — they just rebuild the trees next time.
const NODE_CACHE_LISTS: usize = 8;

/// Algorithm 2's exhaustive/approximation switch-over `θ`: a warm search
/// of `F(6) = 51 303` candidates takes about 1–3 ms on one core, one of
/// `F(7) = 1 152 019` about 270 ms (`BENCH_synth.json`, EXPERIMENTS.md).
pub const DEFAULT_THRESHOLD: usize = 6;

impl Default for Generator {
    fn default() -> Self {
        GeneratorBuilder::default().build()
    }
}

/// Builder for [`Generator`] — the one place to configure the utility
/// index and the synthesis engine's parallelism, pruning, plan cache and
/// estimator.
///
/// # Examples
///
/// ```
/// use qce_strategy::{Generator, UtilityIndex};
///
/// let gen = Generator::builder()
///     .utility(UtilityIndex::default())
///     .parallelism(0) // 0 = one worker per available core
///     .pruning(true)
///     .build();
/// assert_eq!(gen.parallelism(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct GeneratorBuilder {
    utility: UtilityIndex,
    parallelism: usize,
    pruning: bool,
    estimator: Option<Arc<dyn Estimator>>,
    plan_cache: Option<Arc<PlanCache>>,
}

impl Default for GeneratorBuilder {
    fn default() -> Self {
        GeneratorBuilder {
            utility: UtilityIndex::default(),
            parallelism: 0,
            pruning: true,
            estimator: None,
            plan_cache: None,
        }
    }
}

impl GeneratorBuilder {
    /// The utility index that ranks candidate strategies (Equation 1).
    #[must_use]
    pub fn utility(mut self, utility: UtilityIndex) -> Self {
        self.utility = utility;
        self
    }

    /// Worker threads for the exhaustive searches; `0` (the default)
    /// resolves to the number of available cores when the generator is
    /// built.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Enables (default) or disables branch-and-bound pruning. Pruning
    /// never changes the generated strategy, its QoS bits, or
    /// [`Generated::evaluated`] — only how many candidates are actually
    /// estimated ([`SynthesisReport::candidates_seen`]).
    #[must_use]
    pub fn pruning(mut self, enabled: bool) -> Self {
        self.pruning = enabled;
        self
    }

    /// Installs a shared [`PlanCache`] (none by default): exhaustive
    /// searches first look up the winner memoized for these exact (or,
    /// with a positive quantum, near-identical quantized) inputs, and
    /// store their result on a miss. See the [`crate::plan_cache`] module
    /// docs for the keying and staleness rules.
    #[must_use]
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The QoS estimator. Defaults to a fresh memoizing
    /// [`Algorithm1`]; supplying anything that is not bit-for-bit
    /// Algorithm 1 routes the exhaustive searches through the generic
    /// (unpruned) scan.
    #[must_use]
    pub fn estimator(mut self, estimator: Arc<dyn Estimator>) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Builds the configured [`Generator`].
    #[must_use]
    pub fn build(self) -> Generator {
        Generator {
            utility: self.utility,
            parallelism: self.parallelism,
            workers: match self.parallelism {
                0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
                workers => workers,
            },
            pruning: self.pruning,
            estimator: self
                .estimator
                .unwrap_or_else(|| Arc::new(Algorithm1::new())),
            caches: Arc::new(Mutex::new(HashMap::new())),
            plan_cache: self.plan_cache,
        }
    }
}

impl Generator {
    /// Starts building a generator; see [`GeneratorBuilder`].
    #[must_use]
    pub fn builder() -> GeneratorBuilder {
        GeneratorBuilder::default()
    }

    /// The configured utility index.
    #[must_use]
    pub fn utility_index(&self) -> UtilityIndex {
        self.utility
    }

    /// The configured worker count (`0` = auto).
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Whether branch-and-bound pruning is enabled.
    #[must_use]
    pub fn pruning(&self) -> bool {
        self.pruning
    }

    /// The installed plan cache, if any.
    #[must_use]
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// The configured estimator.
    #[must_use]
    pub fn estimator(&self) -> &Arc<dyn Estimator> {
        &self.estimator
    }

    /// Estimates `s` the way `via` says; ids are pre-validated by every
    /// public entry point, but custom estimators may still fail.
    pub(crate) fn est(&self, via: Via, s: &Strategy, env: &EnvQos) -> Result<Qos, GenerateError> {
        Ok(match via {
            Via::Estimator => self.estimator.estimate(s, env)?,
            Via::Algorithm1 => crate::estimate::estimate(s, env)?,
        })
    }

    /// Algorithm 2: exhaustive search while `|M| ≤ θ` ([`DEFAULT_THRESHOLD`]),
    /// greedy approximation beyond.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError::NoMicroservices`] for an empty id list,
    /// [`GenerateError::DuplicateMicroservice`] for a repeated id, or an
    /// estimation error if `env` lacks an entry for some id.
    /// An exhaustive search (`ids.len() ≤ θ`, or asked for by name)
    /// over more than [`MAX_COUNT_M`] ids returns
    /// [`GenerateError::TooManyMicroservices`].
    pub fn generate(
        &self,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
    ) -> Result<Generated, GenerateError> {
        self.generate_with(BackendChoice::Threshold, env, ids, req)
    }

    /// Runs the search backend selected by `choice` — the pluggable entry
    /// point behind the CLI's `--planner` flag.
    /// [`BackendChoice::Threshold`] (the default) is the paper rule of
    /// [`Generator::generate`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Generator::generate`].
    pub fn generate_with(
        &self,
        choice: BackendChoice,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
    ) -> Result<Generated, GenerateError> {
        let search = match choice {
            BackendChoice::Exhaustive => Search::Exhaustive,
            BackendChoice::Threshold if ids.len() <= DEFAULT_THRESHOLD => Search::Exhaustive,
            BackendChoice::Threshold | BackendChoice::Greedy => Search::Greedy,
            BackendChoice::Beam(width) => Search::Beam(width.max(1)),
        };
        self.run(search, env, ids, req)
    }

    /// Exhaustive search over `F(M)`: estimates every strategy that uses
    /// all of `ids` and returns the utility-maximal one.
    ///
    /// Ties break deterministically: lower cost, then lower latency, then
    /// the lexicographically smaller rendering.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError::NoMicroservices`] for an empty id list,
    /// [`GenerateError::DuplicateMicroservice`] for a repeated id, or an
    /// estimation error if `env` lacks an entry for some id.
    /// More than [`MAX_COUNT_M`] ids return
    /// [`GenerateError::TooManyMicroservices`].
    pub fn exhaustive(
        &self,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
    ) -> Result<Generated, GenerateError> {
        self.run(Search::Exhaustive, env, ids, req)
    }

    /// The one door into every search. Once per call it vets the id list
    /// into an [`IdSet`] (see [`vet`]), rejects an exhaustive search over
    /// more than [`MAX_COUNT_M`] ids, then an id `env` does not cover;
    /// starts the timer; serves the plan cache's entry if `search` is a
    /// cached one and these inputs were searched before; and otherwise runs
    /// the algorithm — a function from the validated inputs to a [`Found`]
    /// — stamps the result, and memoizes it under the same key.
    ///
    /// Only the exhaustive search and the beam are cached, each keyed by
    /// its own `search` value (the beam's carries the width). The exhaustive
    /// engine's bound calls the algorithms that seed it directly, not this
    /// door, so a seed is never counted, cached or timed as a search of its
    /// own.
    fn run(
        &self,
        search: Search,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
    ) -> Result<Generated, GenerateError> {
        let ids = vet(ids, req)?;
        if search == Search::Exhaustive && ids.len() > MAX_COUNT_M {
            return Err(GenerateError::TooManyMicroservices {
                got: ids.len(),
                max: MAX_COUNT_M,
            });
        }
        if let Some(&id) = ids.iter().find(|&&id| env.get(id).is_none()) {
            return Err(EstimateError::MissingMicroservice(id).into());
        }
        let start = Instant::now();
        let memo = match (&self.plan_cache, search) {
            (Some(cache), Search::Exhaustive | Search::Beam(_)) => {
                let id = SearchId {
                    penalty: self.utility.k(),
                    estimator: self.estimator.name(),
                    search,
                };
                cache.key(env, &ids, req, id).map(|key| (cache, key))
            }
            _ => None,
        };
        if let Some(mut hit) = memo.as_ref().and_then(|(cache, key)| cache.lookup(key)) {
            // The stored winner (and its `evaluated` space size) is what a
            // fresh search over these keyed inputs would have produced;
            // only the effort counters describe *this* call.
            hit.source = PlanSource::Cached;
            hit.report = SynthesisReport {
                elapsed: start.elapsed(),
                ..SynthesisReport::default()
            };
            return Ok(hit);
        }
        let (strategy, qos, utility, seen, pruned) = match search {
            Search::Exhaustive => self.scan(env, ids, req)?,
            Search::Greedy | Search::Beam(_) => {
                let (order, best) = self.ranked(Via::Estimator, env, ids, req)?;
                let width = if let Search::Beam(width) = search {
                    width
                } else {
                    1
                };
                self.beam_search(Via::Estimator, &order, best, env, req, width)?
            }
            Search::Failover { ranked: true } => {
                let (order, _) = self.ranked(Via::Estimator, env, ids, req)?;
                self.pattern(Via::Estimator, failover, &order, env, req)?
            }
            Search::Failover { ranked: false } => {
                self.pattern(Via::Estimator, failover, &ids, env, req)?
            }
            Search::SpeculativeParallel => {
                self.pattern(Via::Estimator, speculative_parallel, &ids, env, req)?
            }
        };
        let generated = Generated {
            strategy,
            qos,
            utility,
            evaluated: usize::try_from(seen + pruned).unwrap_or(usize::MAX),
            method: search.method(),
            report: SynthesisReport {
                candidates_seen: seen,
                candidates_pruned: pruned,
                elapsed: start.elapsed(),
            },
            source: PlanSource::Cold,
        };
        if let Some((cache, key)) = memo {
            cache.store(key, &generated);
        }
        Ok(generated)
    }

    /// The exhaustive search over `F(M)`: the branch-and-bound engine for
    /// Algorithm 1, the generic scan for any other estimator.
    fn scan(
        &self,
        env: &EnvQos,
        ids: IdSet<'_>,
        req: &Requirements,
    ) -> Result<Found, GenerateError> {
        if self.estimator.is_algorithm1() {
            let initial_bound = if self.pruning {
                self.seed_bound(env, ids, req)?
            } else {
                f64::NEG_INFINITY
            };
            let cache = self.node_cache(&ids);
            let outcome = synth::search(&synth::SearchSpec {
                env,
                ids,
                req,
                utility: self.utility,
                pruning: self.pruning,
                parallelism: self.workers,
                initial_bound,
                cache: &cache,
            })?;
            Ok((
                outcome.strategy,
                outcome.qos,
                outcome.utility,
                outcome.seen,
                outcome.pruned,
            ))
        } else {
            self.generic_scan(env, ids, req)
        }
    }

    /// The shared candidate-tree cache for `ids`, created on first use.
    /// Candidate trees depend only on the id list — not on the environment
    /// — so one cache serves every search (and every worker) over the same
    /// equivalent set. Past [`NODE_CACHE_LISTS`] distinct lists a fresh
    /// single-search cache is handed out instead of growing the map.
    fn node_cache(&self, ids: &[MsId]) -> Arc<synth::NodeCache> {
        let mut caches = self
            .caches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(cache) = caches.get(ids) {
            return Arc::clone(cache);
        }
        let cache = Arc::new(synth::NodeCache::new(ids.len()));
        if caches.len() < NODE_CACHE_LISTS {
            caches.insert(ids.to_vec(), Arc::clone(&cache));
        }
        cache
    }

    /// Utility of the best *seed* candidate — the greedy approximation and
    /// the two predefined patterns, all of which are members of `F(M)` —
    /// used as the engine's initial pruning bar. The leaves are ranked
    /// once, for the fail-over chain and the approximation alike.
    /// Seed estimates are not counted in [`Generated::evaluated`].
    ///
    /// Only reached when the estimator is Algorithm 1, so the seeds call it
    /// directly ([`Via::Algorithm1`]): the memo is bit-transparent, and the
    /// scan never reads what the seeds would store in it.
    fn seed_bound(
        &self,
        env: &EnvQos,
        ids: IdSet<'_>,
        req: &Requirements,
    ) -> Result<f64, GenerateError> {
        let via = Via::Algorithm1;
        let (order, best) = self.ranked(via, env, ids, req)?;
        let mut bound = self.pattern(via, failover, &order, env, req)?.2;
        if ids.len() >= 2 {
            bound = bound.max(self.pattern(via, speculative_parallel, &ids, env, req)?.2);
        }
        bound = bound.max(self.beam_search(via, &order, best, env, req, 1)?.2);
        Ok(bound)
    }

    /// Exhaustive scan through an arbitrary estimator: every candidate of
    /// [`StrategyIter::over`] in order, no pruning (the branch-and-bound
    /// bounds are only admissible against Algorithm 1's formulas). The
    /// per-candidate comparison is the engine's strict total order, which
    /// is what makes this the reference the engine is tested against. The
    /// first estimate the estimator refuses ends the scan with that error.
    fn generic_scan(
        &self,
        env: &EnvQos,
        ids: IdSet<'_>,
        req: &Requirements,
    ) -> Result<Found, GenerateError> {
        let mut best: Option<Scored> = None;
        let mut seen = 0u64;
        for s in StrategyIter::over(ids)? {
            let qos = self.estimator.estimate_uncached(&s, env)?;
            let cand = Scored::new(s, qos, self.utility.utility(&qos, req));
            seen += 1;
            if best.as_ref().is_none_or(|b| cand.outranks(b)) {
                best = Some(cand);
            }
        }
        let best = best.expect("an IdSet spans at least one strategy");
        Ok((best.strategy, best.qos, best.utility, seen, 0))
    }

    /// The greedy approximation heuristic of Algorithm 2 (lines 4–13).
    ///
    /// Microservices are sorted by individual utility (best first); the
    /// strategy grows one microservice at a time, keeping the better of the
    /// sequential append `es - m` and the parallel wrap `(es) * m`. It is
    /// the beam at width 1, stamped [`Method::Approximation`] and never
    /// plan-cached.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError::NoMicroservices`] for an empty id list,
    /// [`GenerateError::DuplicateMicroservice`] for a repeated id, or an
    /// estimation error if `env` lacks an entry for some id.
    pub fn approximation(
        &self,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
    ) -> Result<Generated, GenerateError> {
        self.run(Search::Greedy, env, ids, req)
    }

    /// The predefined fail-over pattern over `ids`, ordered by individual
    /// utility (the priority order a MOLE script would specify), with its
    /// estimated QoS.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError::NoMicroservices`] for an empty id list,
    /// [`GenerateError::DuplicateMicroservice`] for a repeated id, or an
    /// estimation error if `env` lacks an entry for some id.
    pub fn failover(
        &self,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
    ) -> Result<Generated, GenerateError> {
        self.run(Search::Failover { ranked: true }, env, ids, req)
    }

    /// The predefined fail-over pattern in the *given* order — the chain a
    /// MOLE script pins at development time, oblivious to the environment's
    /// actual QoS. This is the "predefined sequential" baseline of the
    /// paper's Fig. 6/Fig. 7 comparisons.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError::NoMicroservices`] for an empty id list,
    /// [`GenerateError::DuplicateMicroservice`] for a repeated id, or an
    /// estimation error if `env` lacks an entry for some id.
    pub fn failover_in_order(
        &self,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
    ) -> Result<Generated, GenerateError> {
        self.run(Search::Failover { ranked: false }, env, ids, req)
    }

    /// The predefined speculative-parallel pattern over `ids`, with its
    /// estimated QoS.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Generator::failover`].
    pub fn speculative_parallel(
        &self,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
    ) -> Result<Generated, GenerateError> {
        self.run(Search::SpeculativeParallel, env, ids, req)
    }

    /// A predefined pattern — `shape` applied to `order` — as a
    /// one-candidate search.
    fn pattern(
        &self,
        via: Via,
        shape: fn(&[MsId]) -> Result<Strategy, BuildError>,
        order: &[MsId],
        env: &EnvQos,
        req: &Requirements,
    ) -> Result<Found, GenerateError> {
        let strategy = shape(order).map_err(|_| GenerateError::NoMicroservices)?;
        let qos = self.est(via, &strategy, env)?;
        let utility = self.utility.utility(&qos, req);
        Ok((strategy, qos, utility, 1, 0))
    }

    /// Sorts `ids` by individual (single-microservice) utility, best first —
    /// the `sortByUtility` step of Algorithm 2. Ties break on the id. `ids`
    /// is vetted and `req` valid. Returns the order and the first leaf's
    /// estimate, which the approximation's slot 1 starts from instead of
    /// estimating that leaf again.
    pub(crate) fn ranked(
        &self,
        via: Via,
        env: &EnvQos,
        ids: IdSet<'_>,
        req: &Requirements,
    ) -> Result<(Vec<MsId>, Qos), GenerateError> {
        let mut scored: Vec<(MsId, Qos, f64)> = ids
            .iter()
            .map(|&id| {
                let qos = self.est(via, &Strategy::leaf(id), env)?;
                Ok((id, qos, self.utility.utility(&qos, req)))
            })
            .collect::<Result<_, GenerateError>>()?;
        // `total_cmp`, not `partial_cmp`: validated requirements keep
        // utilities finite, but ranking must stay a total order even if a
        // custom estimator smuggles a NaN through.
        scored.sort_by(|(id_a, _, u_a), (id_b, _, u_b)| {
            u_b.total_cmp(u_a).then_with(|| id_a.cmp(id_b))
        });
        let best = scored[0].1;
        Ok((scored.into_iter().map(|(id, ..)| id).collect(), best))
    }
}

/// The front check every entry point shares, in this order: an empty id
/// list and a repeated id (both [`IdSet::new`]), then invalid requirements.
fn vet<'a>(ids: &'a [MsId], req: &Requirements) -> Result<IdSet<'a>, GenerateError> {
    let ids = IdSet::new(ids)?;
    req.validate().map_err(GenerateError::InvalidRequirements)?;
    Ok(ids)
}

/// A vetted id list: non-empty, and no id twice. The searches, the
/// enumerators and the sampler take one, so the list is checked once, where
/// it comes in, and nowhere past that.
///
/// A borrowed view of the caller's slice (it derefs to `[MsId]`), so vetting
/// allocates nothing.
///
/// ```
/// use qce_strategy::{GenerateError, IdSet, MsId};
///
/// let ids = [MsId(2), MsId(0)];
/// assert_eq!(IdSet::new(&ids)?.len(), 2);
/// assert_eq!(IdSet::new(&[]), Err(GenerateError::NoMicroservices));
/// assert_eq!(
///     IdSet::new(&[MsId(1), MsId(3), MsId(1)]),
///     Err(GenerateError::DuplicateMicroservice(MsId(1)))
/// );
/// # Ok::<(), GenerateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdSet<'a>(&'a [MsId]);

impl<'a> IdSet<'a> {
    /// Vets `ids`.
    ///
    /// # Errors
    ///
    /// [`GenerateError::NoMicroservices`] for an empty list, or
    /// [`GenerateError::DuplicateMicroservice`] naming the first id that
    /// repeats an earlier one.
    pub fn new(ids: &'a [MsId]) -> Result<Self, GenerateError> {
        if ids.is_empty() {
            return Err(GenerateError::NoMicroservices);
        }
        // Quadratic but allocation-free: this runs on every plan-cache hit,
        // and one Algorithm 1 estimate over `ids` is quadratic already.
        if let Some((_, &id)) = (ids.iter().enumerate()).find(|&(i, id)| ids[..i].contains(id)) {
            return Err(GenerateError::DuplicateMicroservice(id));
        }
        Ok(IdSet(ids))
    }
}

impl std::ops::Deref for IdSet<'_> {
    type Target = [MsId];

    fn deref(&self) -> &[MsId] {
        self.0
    }
}

/// The searches behind the door ([`Generator::run`]): what a
/// [`BackendChoice`] or a named entry point resolves to, and — for the
/// two cached ones — the part of the plan-cache key that says which search
/// an entry answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Search {
    /// Every strategy in `F(M)`.
    Exhaustive,
    /// Algorithm 2's approximation.
    Greedy,
    /// Beam search at this width (≥ 1).
    Beam(usize),
    /// The fail-over chain, `ranked` by individual utility or as given.
    Failover { ranked: bool },
    /// The speculative-parallel pattern.
    SpeculativeParallel,
}

/// Where a search's estimates come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Via {
    /// The configured estimator, memo included: every search of its own.
    Estimator,
    /// Algorithm 1 itself, bypassing the estimator: only for work done on
    /// behalf of a search that runs only when the estimator
    /// [`is_algorithm1`](Estimator::is_algorithm1) (the exhaustive
    /// engine's seeds), where the two are bit-identical.
    Algorithm1,
}

impl Search {
    /// The [`Method`] a result of this search is stamped with.
    fn method(self) -> Method {
        match self {
            Search::Exhaustive => Method::Exhaustive,
            Search::Greedy => Method::Approximation,
            Search::Beam(_) => Method::Beam,
            Search::Failover { .. } => Method::Failover,
            Search::SpeculativeParallel => Method::SpeculativeParallel,
        }
    }
}

/// What a search algorithm hands the door: `(strategy, qos, utility, seen,
/// pruned)` — the winner, its estimate, and how many candidates were
/// estimated and how many skipped by bound.
pub(crate) type Found = (Strategy, Qos, f64, u64, u64);

/// The candidate order every search ranks by, short of its last key:
/// whether a candidate of utility `u` and estimate `qos` outranks one of
/// `cur_u` and `cur_qos` — higher utility, then lower cost, then lower
/// latency — or `None` on a full tie, which the smaller rendering settles.
/// The caller renders, so only a tie is rendered.
///
/// With the rendering this is a *strict total order* on distinct canonical
/// strategies (the rendering is injective), which is what lets the
/// parallel engine in [`crate::synth`] merge per-worker maxima in any
/// order and still reproduce the sequential scan's winner.
pub(crate) fn outranks(u: f64, qos: &Qos, cur_u: f64, cur_qos: &Qos) -> Option<bool> {
    if u != cur_u {
        return Some(u > cur_u);
    }
    if qos.cost != cur_qos.cost {
        return Some(qos.cost < cur_qos.cost);
    }
    if qos.latency != cur_qos.latency {
        return Some(qos.latency < cur_qos.latency);
    }
    None
}

/// A candidate of the beam or the generic scan with its estimate and
/// utility. Its rendering, the order's last key, is made once, the first
/// time a full tie asks for it.
#[derive(Debug, Clone)]
pub(crate) struct Scored {
    pub(crate) strategy: Strategy,
    pub(crate) qos: Qos,
    pub(crate) utility: f64,
    text: OnceCell<String>,
}

impl Scored {
    pub(crate) fn new(strategy: Strategy, qos: Qos, utility: f64) -> Self {
        Scored {
            strategy,
            qos,
            utility,
            text: OnceCell::new(),
        }
    }

    /// Whether `self` comes before `other` in the candidate order.
    pub(crate) fn outranks(&self, other: &Scored) -> bool {
        outranks(self.utility, &self.qos, other.utility, &other.qos)
            .unwrap_or_else(|| self.rendering() < other.rendering())
    }

    fn rendering(&self) -> &str {
        self.text.get_or_init(|| self.strategy.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate;

    /// The Section III.D fire-detection environment.
    fn env5() -> EnvQos {
        EnvQos::from_triples(&[
            (50.0, 50.0, 0.6),
            (100.0, 100.0, 0.6),
            (150.0, 150.0, 0.7),
            (200.0, 200.0, 0.7),
            (250.0, 250.0, 0.8),
        ])
        .unwrap()
    }

    fn req() -> Requirements {
        Requirements::new(100.0, 100.0, 0.97).unwrap()
    }

    /// The fire-detection environment with two more equivalents: one past
    /// `θ` = 6.
    fn env7() -> EnvQos {
        let mut env = env5();
        env.extend([
            Qos::new(300.0, 300.0, 0.8).unwrap(),
            Qos::new(350.0, 350.0, 0.9).unwrap(),
        ]);
        env
    }

    #[test]
    fn exhaustive_beats_predefined_patterns() {
        let gen = Generator::default();
        let env = env5();
        let ids = env.ids();
        let best = gen.exhaustive(&env, &ids, &req()).unwrap();
        let fo = gen.failover(&env, &ids, &req()).unwrap();
        let sp = gen.speculative_parallel(&env, &ids, &req()).unwrap();
        assert!(best.utility >= fo.utility);
        assert!(best.utility >= sp.utility);
        assert_eq!(best.evaluated, 2791, "F(5) candidates");
        assert_eq!(best.method, Method::Exhaustive);
    }

    #[test]
    fn exhaustive_single_microservice() {
        let gen = Generator::default();
        let env = EnvQos::from_triples(&[(10.0, 10.0, 0.9)]).unwrap();
        let best = gen.exhaustive(&env, &[MsId(0)], &req()).unwrap();
        assert_eq!(best.strategy, Strategy::leaf(MsId(0)));
        assert_eq!(best.evaluated, 1);
    }

    #[test]
    fn exhaustive_is_optimal_by_construction() {
        // Verify the streaming argmax against a collected argmax.
        let gen = Generator::default();
        let env = env5();
        let ids: Vec<MsId> = (0..4).map(MsId).collect();
        let best = gen.exhaustive(&env, &ids, &req()).unwrap();
        let mut max_u = f64::NEG_INFINITY;
        for s in IdSet::new(&ids).and_then(StrategyIter::over).unwrap() {
            let qos = estimate(&s, &env).unwrap();
            max_u = max_u.max(gen.utility_index().utility(&qos, &req()));
        }
        assert!((best.utility - max_u).abs() < 1e-12);
    }

    #[test]
    fn approximation_uses_all_microservices() {
        let gen = Generator::default();
        let env = env5();
        let ids = env.ids();
        let approx = gen.approximation(&env, &ids, &req()).unwrap();
        assert_eq!(approx.strategy.len(), 5);
        assert_eq!(approx.method, Method::Approximation);
    }

    #[test]
    fn approximation_never_beats_exhaustive() {
        let gen = Generator::default();
        let env = env5();
        let ids = env.ids();
        let approx = gen.approximation(&env, &ids, &req()).unwrap();
        let exact = gen.exhaustive(&env, &ids, &req()).unwrap();
        assert!(approx.utility <= exact.utility + 1e-12);
    }

    #[test]
    fn approximation_at_least_matches_both_defaults_seeded_from_best_leaf() {
        // The greedy chain explores es-m and (es)*m at each step, which
        // includes the pure fail-over chain (all-sequential choices) and the
        // pure parallel strategy (all-parallel choices) over the same
        // utility-sorted order, so it can't be worse than either.
        let gen = Generator::default();
        let env = env5();
        let ids = env.ids();
        let approx = gen.approximation(&env, &ids, &req()).unwrap();
        let fo = gen.failover(&env, &ids, &req()).unwrap();
        let sp = gen.speculative_parallel(&env, &ids, &req()).unwrap();
        assert!(approx.utility >= fo.utility.min(sp.utility) - 1e-12);
    }

    /// `θ` is 6: six ids are searched exhaustively, seven approximately.
    #[test]
    fn generate_switches_on_threshold() {
        let gen = Generator::default();
        let env = env7();
        let six: Vec<MsId> = (0..6).map(MsId).collect();
        let six = gen.generate(&env, &six, &req()).unwrap();
        assert_eq!((six.method, six.evaluated), (Method::Exhaustive, 51_303));
        let seven = gen.generate(&env, &env.ids(), &req()).unwrap();
        assert_eq!((seven.method, seven.evaluated), (Method::Approximation, 13));
    }

    #[test]
    fn sort_by_utility_orders_best_first() {
        let gen = Generator::default();
        let env = env5();
        let ids = env.ids();
        let (order, best) = gen
            .ranked(Via::Estimator, &env, IdSet::new(&ids).unwrap(), &req())
            .unwrap();
        // a dominates every other microservice here (cheapest, fastest; its
        // lower reliability costs less utility than the others' overruns).
        assert_eq!(order[0], MsId(0));
        // The best leaf's estimate comes back with the order, for the
        // approximation's slot 1.
        assert_eq!(best, estimate(&Strategy::leaf(order[0]), &env).unwrap());
        let utilities: Vec<f64> = order
            .iter()
            .map(|&id| {
                let qos = estimate(&Strategy::leaf(id), &env).unwrap();
                gen.utility_index().utility(&qos, &req())
            })
            .collect();
        for pair in utilities.windows(2) {
            assert!(pair[0] >= pair[1], "not sorted: {utilities:?}");
        }
    }

    #[test]
    fn empty_ids_rejected_everywhere() {
        let gen = Generator::default();
        let env = env5();
        let r = req();
        assert!(matches!(
            gen.generate(&env, &[], &r),
            Err(GenerateError::NoMicroservices)
        ));
        assert!(gen.exhaustive(&env, &[], &r).is_err());
        assert!(gen.approximation(&env, &[], &r).is_err());
        assert!(gen.failover(&env, &[], &r).is_err());
        assert!(gen.speculative_parallel(&env, &[], &r).is_err());

        // Every entry point rejects, in this order: an empty id list, then
        // invalid requirements, then the first id `env` does not cover.
        let bad_req = Requirements { cost: 0.0, ..r };
        let missing = [MsId(0), MsId(9), MsId(8)];
        for (name, run) in entry_points() {
            assert_eq!(
                run(&gen, &env, &[], &bad_req),
                Err(GenerateError::NoMicroservices),
                "{name}: empty ids come first"
            );
            assert!(
                matches!(
                    run(&gen, &env, &missing, &bad_req),
                    Err(GenerateError::InvalidRequirements(_))
                ),
                "{name}: invalid requirements come before a missing id"
            );
            assert_eq!(
                run(&gen, &env, &missing, &r),
                Err(EstimateError::MissingMicroservice(MsId(9)).into()),
                "{name}: the first missing id is reported"
            );
            assert_eq!(run(&gen, &env, &env.ids(), &r), Ok(()), "{name}");
        }
    }

    /// The door vets the id list once, for every entry point: a repeated
    /// id is a typed error after the empty-list check and before anything
    /// else, and an exhaustive search over more ids than the space can be
    /// counted for is refused instead of entered.
    #[test]
    fn unvetted_id_lists_are_typed_errors_everywhere() {
        let gen = Generator::default();
        let env = env5();
        let r = req();
        let bad_req = Requirements { cost: 0.0, ..r };
        for (name, run) in entry_points() {
            for req in [&r, &bad_req] {
                assert_eq!(
                    run(&gen, &env, &[MsId(0), MsId(0)], req),
                    Err(GenerateError::DuplicateMicroservice(MsId(0))),
                    "{name}"
                );
                assert_eq!(
                    run(&gen, &env, &[MsId(9), MsId(2), MsId(1), MsId(2)], req),
                    Err(GenerateError::DuplicateMicroservice(MsId(2))),
                    "{name}: a duplicate comes before a missing id"
                );
            }
        }

        let wide: EnvQos = (0..65)
            .map(|i| Qos::new(10.0 + f64::from(i), 20.0, 0.5).unwrap())
            .collect();
        let exhaustive = entry_points()
            .into_iter()
            .filter(|(name, _)| name.contains("exhaustive"));
        assert_eq!(exhaustive.clone().count(), 2);
        for got in [21, 65] {
            let ids: Vec<MsId> = (0..got).map(MsId).collect();
            for (name, run) in exhaustive.clone() {
                assert_eq!(
                    run(&gen, &wide, &ids, &r),
                    Err(GenerateError::TooManyMicroservices {
                        got,
                        max: MAX_COUNT_M
                    }),
                    "{name} over {got} ids"
                );
            }
        }
        // The searches that scale past the limit still run.
        let ids: Vec<MsId> = (0..21).map(MsId).collect();
        assert_eq!(gen.generate(&wide, &ids, &r).unwrap().strategy.len(), 21);
        assert_eq!(
            gen.generate_with(BackendChoice::Beam(2), &wide, &ids, &r)
                .unwrap()
                .strategy
                .len(),
            21
        );
    }

    type EntryPoint = fn(&Generator, &EnvQos, &[MsId], &Requirements) -> Result<(), GenerateError>;

    /// Every public search entry point of [`Generator`], result dropped.
    fn entry_points() -> Vec<(&'static str, EntryPoint)> {
        vec![
            ("generate", |g, e, i, r| g.generate(e, i, r).map(drop)),
            ("generate_with(exhaustive)", |g, e, i, r| {
                g.generate_with(BackendChoice::Exhaustive, e, i, r)
                    .map(drop)
            }),
            ("generate_with(beam)", |g, e, i, r| {
                g.generate_with(BackendChoice::Beam(2), e, i, r).map(drop)
            }),
            ("generate_with(greedy)", |g, e, i, r| {
                g.generate_with(BackendChoice::Greedy, e, i, r).map(drop)
            }),
            ("exhaustive", |g, e, i, r| g.exhaustive(e, i, r).map(drop)),
            ("approximation", |g, e, i, r| {
                g.approximation(e, i, r).map(drop)
            }),
            ("failover", |g, e, i, r| g.failover(e, i, r).map(drop)),
            ("failover_in_order", |g, e, i, r| {
                g.failover_in_order(e, i, r).map(drop)
            }),
            ("speculative_parallel", |g, e, i, r| {
                g.speculative_parallel(e, i, r).map(drop)
            }),
        ]
    }

    #[test]
    fn missing_environment_entry_rejected() {
        let gen = Generator::default();
        let env = EnvQos::from_triples(&[(1.0, 1.0, 0.5)]).unwrap();
        let ids = [MsId(0), MsId(9)];
        assert!(matches!(
            gen.exhaustive(&env, &ids, &req()),
            Err(GenerateError::Estimate(_))
        ));
        assert!(gen.approximation(&env, &ids, &req()).is_err());
    }

    #[test]
    fn generated_display_mentions_method() {
        let gen = Generator::default();
        let env = env5();
        let out = gen.failover(&env, &env.ids(), &req()).unwrap();
        let text = out.to_string();
        assert!(text.contains("failover"), "{text}");
    }

    #[test]
    fn deterministic_across_runs() {
        let gen = Generator::default();
        let env = env5();
        let a = gen.exhaustive(&env, &env.ids(), &req()).unwrap();
        let b = gen.exhaustive(&env, &env.ids(), &req()).unwrap();
        assert_eq!(a, b);
    }

    /// Satellite: effort accounting is unified across every backend — a
    /// fresh (non-cached) result always satisfies `candidates_seen +
    /// candidates_pruned == evaluated`, with auxiliary estimates (leaf
    /// ranking, seed bounds) excluded everywhere. The greedy approximation
    /// is pinned to its closed form `1 + 2(M-1)`.
    #[test]
    fn effort_accounting_invariant_across_backends() {
        let gen = Generator::default();
        let env = env5();
        let ids = env.ids();
        let r = req();
        let outputs = vec![
            gen.exhaustive(&env, &ids, &r).unwrap(),
            gen.approximation(&env, &ids, &r).unwrap(),
            gen.failover(&env, &ids, &r).unwrap(),
            gen.failover_in_order(&env, &ids, &r).unwrap(),
            gen.speculative_parallel(&env, &ids, &r).unwrap(),
            gen.generate_with(BackendChoice::Beam(1), &env, &ids, &r)
                .unwrap(),
            gen.generate_with(BackendChoice::Beam(3), &env, &ids, &r)
                .unwrap(),
        ];
        for out in &outputs {
            assert_eq!(
                out.report.candidates_seen + out.report.candidates_pruned,
                out.evaluated as u64,
                "{}: seen + pruned must equal evaluated",
                out.method
            );
        }
        let approx = &outputs[1];
        assert_eq!(
            approx.evaluated,
            1 + 2 * (ids.len() - 1),
            "greedy counts the best-leaf incumbent plus two per step"
        );
        assert_eq!(approx.evaluated, outputs[5].evaluated, "beam(1) matches");
    }

    #[test]
    fn generate_with_reproduces_every_backend() {
        use crate::backend::BackendChoice;
        let gen = Generator::default();
        let r = req();
        // Threshold follows the paper rule: M = 7 > θ = 6 ⇒ greedy, and
        // M = 6 ⇒ exhaustive.
        let env = env7();
        let out = gen
            .generate_with(BackendChoice::Threshold, &env, &env.ids(), &r)
            .unwrap();
        assert_eq!(out, gen.generate(&env, &env.ids(), &r).unwrap());
        assert_eq!(out, gen.approximation(&env, &env.ids(), &r).unwrap());
        assert_eq!(out.method, Method::Approximation);
        let six: Vec<MsId> = (0..6).map(MsId).collect();
        let out = gen
            .generate_with(BackendChoice::Threshold, &env, &six, &r)
            .unwrap();
        assert_eq!(out, gen.exhaustive(&env, &six, &r).unwrap());
        assert_eq!(out.method, Method::Exhaustive);

        // Each backend choice forces its side at any M.
        let env = env5();
        let ids = env.ids();
        let exact = gen
            .generate_with(BackendChoice::Exhaustive, &env, &ids, &r)
            .unwrap();
        assert_eq!(exact, gen.exhaustive(&env, &ids, &r).unwrap());
        let greedy = gen
            .generate_with(BackendChoice::Greedy, &env, &ids, &r)
            .unwrap();
        assert_eq!(greedy, gen.approximation(&env, &ids, &r).unwrap());
        let beam = gen
            .generate_with(BackendChoice::Beam(2), &env, &ids, &r)
            .unwrap();
        assert_eq!(
            beam,
            gen.generate_with(BackendChoice::Beam(2), &env, &ids, &r)
                .unwrap()
        );
        assert_eq!(beam.method, Method::Beam);
        // A zero width clamps to 1 on both routes.
        let clamped = gen
            .generate_with(BackendChoice::Beam(0), &env, &ids, &r)
            .unwrap();
        assert_eq!(
            clamped,
            gen.generate_with(BackendChoice::Beam(1), &env, &ids, &r)
                .unwrap()
        );

        // The entry points no `BackendChoice` names report what they ran:
        // the predefined chains are one estimate of the pattern itself.
        let (order, _) = gen
            .ranked(Via::Estimator, &env, IdSet::new(&ids).unwrap(), &r)
            .unwrap();
        for (out, chain) in [
            (gen.failover(&env, &ids, &r).unwrap(), &order),
            (gen.failover_in_order(&env, &ids, &r).unwrap(), &ids),
        ] {
            assert_eq!(out.strategy, failover(chain).unwrap());
            assert_eq!(out.qos, estimate(&out.strategy, &env).unwrap());
            assert_eq!((out.method, out.evaluated), (Method::Failover, 1));
            assert_eq!(out.source, PlanSource::Cold);
        }
    }

    /// What the door leans on: only the exhaustive searches and the beam
    /// touch the plan cache, each under its own key.
    #[test]
    fn only_exhaustive_and_beam_searches_touch_the_plan_cache() {
        use crate::backend::BackendChoice;
        use crate::plan_cache::{PlanCacheConfig, PlanCacheStats};
        let cache = Arc::new(PlanCache::new(PlanCacheConfig::default()));
        let gen = Generator::builder()
            .parallelism(1)
            .plan_cache(Arc::clone(&cache))
            .build();
        let env = env5();
        let ids: Vec<MsId> = (0..4).map(MsId).collect();
        let r = req();

        gen.approximation(&env, &ids, &r).unwrap();
        gen.failover(&env, &ids, &r).unwrap();
        gen.failover_in_order(&env, &ids, &r).unwrap();
        gen.speculative_parallel(&env, &ids, &r).unwrap();
        gen.generate_with(BackendChoice::Greedy, &env, &ids, &r)
            .unwrap();
        assert_eq!(cache.stats(), PlanCacheStats::default());

        // One exhaustive miss is one miss and one entry: the seed-bound
        // estimates behind its pruning bar are not searches of their own.
        type Run = fn(&Generator, &EnvQos, &[MsId], &Requirements) -> Generated;
        let searches: [Run; 3] = [
            |g, e, i, r| g.exhaustive(e, i, r).unwrap(),
            |g, e, i, r| g.generate_with(BackendChoice::Beam(2), e, i, r).unwrap(),
            |g, e, i, r| g.generate_with(BackendChoice::Beam(3), e, i, r).unwrap(),
        ];
        let mut fresh = Vec::new();
        for (n, run) in searches.iter().enumerate() {
            let out = run(&gen, &env, &ids, &r);
            assert_eq!(out.source, PlanSource::Cold, "search {n}");
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.entries),
                (0, n as u64 + 1, n + 1)
            );
            fresh.push(out);
        }
        // Three distinct entries; a repeat hits its own and nothing else's.
        for (n, run) in searches.iter().enumerate() {
            let out = run(&gen, &env, &ids, &r);
            assert_eq!(out.source, PlanSource::Cached, "search {n}");
            assert_eq!(out, fresh[n], "search {n} is served its own plan");
            assert_eq!(out.report.candidates_seen, 0);
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.entries),
                (n as u64 + 1, 3, 3)
            );
        }
        let methods: Vec<Method> = fresh.iter().map(|g| g.method).collect();
        assert_eq!(methods, [Method::Exhaustive, Method::Beam, Method::Beam]);
        assert_ne!(fresh[1].evaluated, fresh[2].evaluated, "beam 2 vs beam 3");
    }
}

#[cfg(test)]
mod engine_equivalence_tests {
    use super::*;
    use crate::error::EstimateError;
    use crate::plan_cache::PlanCacheConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Algorithm 1 *not* advertising itself as such: forces the generic
    /// scan path, which is the pre-engine sequential code path.
    #[derive(Debug)]
    struct PlainAlg1;

    impl Estimator for PlainAlg1 {
        fn estimate(&self, s: &Strategy, env: &EnvQos) -> Result<Qos, EstimateError> {
            crate::estimate::estimate(s, env)
        }

        fn name(&self) -> &'static str {
            "plain-algorithm1"
        }
    }

    fn random_env(rng: &mut ChaCha8Rng, m: usize) -> EnvQos {
        (0..m)
            .map(|_| {
                Qos::new(
                    rng.gen_range(10.0..300.0),
                    rng.gen_range(10.0..300.0),
                    rng.gen_range(0.05..0.99),
                )
                .unwrap()
            })
            .collect()
    }

    fn assert_bit_identical(a: &Generated, b: &Generated, what: &str) {
        assert_eq!(a.strategy, b.strategy, "{what}: strategy");
        assert_eq!(
            a.qos.cost.to_bits(),
            b.qos.cost.to_bits(),
            "{what}: cost bits"
        );
        assert_eq!(
            a.qos.latency.to_bits(),
            b.qos.latency.to_bits(),
            "{what}: latency bits"
        );
        assert_eq!(
            a.qos.reliability.value().to_bits(),
            b.qos.reliability.value().to_bits(),
            "{what}: reliability bits"
        );
        assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{what}: utility");
        assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
    }

    /// Satellite (d): the pruned, parallel engine returns exactly the same
    /// result — strategy, QoS bits, utility, evaluated count — as the
    /// unpruned sequential scan, for every seeded environment at M ≤ 4;
    /// and `seen + pruned` always covers the whole space.
    #[test]
    fn pruned_parallel_engine_matches_unpruned_sequential_scan() {
        let requirements = Requirements::new(150.0, 150.0, 0.95).unwrap();
        let ground_truth = Generator::builder()
            .estimator(Arc::new(PlainAlg1))
            .parallelism(1)
            .build();
        let configs: Vec<(&str, Generator)> = vec![
            (
                "engine unpruned sequential",
                Generator::builder().pruning(false).parallelism(1).build(),
            ),
            (
                "engine pruned sequential",
                Generator::builder().pruning(true).parallelism(1).build(),
            ),
            (
                "engine pruned parallel",
                Generator::builder().pruning(true).parallelism(4).build(),
            ),
        ];
        for m in 1..=4usize {
            for seed in 0..10u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 37 + m as u64);
                let env = random_env(&mut rng, m);
                let ids = env.ids();
                let run = |g: &Generator| g.exhaustive(&env, &ids, &requirements).unwrap();
                let truth = run(&ground_truth);
                assert_eq!(truth.report.candidates_pruned, 0);
                for (name, g) in &configs {
                    let out = run(g);
                    let what = format!("m={m} seed={seed} config={name}");
                    assert_bit_identical(&truth, &out, &what);
                    assert_eq!(
                        out.report.candidates_seen + out.report.candidates_pruned,
                        truth.report.candidates_seen,
                        "{what}: seen+pruned must cover the space"
                    );
                }
            }
        }
    }

    /// The test above draws continuous QoS, so no two candidates ever tie
    /// and the engine's last tie-break — the renderings — never decides.
    /// Here the tables come from a small lattice with half the legs at
    /// reliability exactly 1.0 (a collector window without a failure):
    /// everything sequenced after such a leg is gated with probability 0,
    /// so whole sub-trees tie bit for bit on utility, cost and latency, and
    /// the engine settles each such class with one estimate.
    #[test]
    fn tie_heavy_tables_match_the_generic_scan() {
        let tied_cases = lattice_tables_match(2..=5, TIE_HEAVY);
        assert!(
            tied_cases >= 20,
            "only {tied_cases} of 48 F(M) winners were decided on renderings"
        );
    }

    /// The same at M = 6, where every bound is live and collapsed classes
    /// hold up to `F(5)` = 2 791 chains. This generic scan is the
    /// engine's independent oracle there: the benchmark's unpruned
    /// re-derivation runs the same engine. A few seconds optimised; CI runs
    /// it with `cargo test --release -p qce-strategy --lib -- --ignored tie_heavy`.
    #[test]
    #[ignore = "twelve M = 6 generic scans: run optimised"]
    fn tie_heavy_tables_match_the_generic_scan_at_m6() {
        let tied_cases = lattice_tables_match(6..=6, TIE_HEAVY);
        assert!(
            tied_cases >= 10,
            "only {tied_cases} of 12 F(6) winners were decided on renderings"
        );
    }

    /// Legs that almost never fail leave a chain prefix's failure product
    /// tiny but not zero, and such a prefix must not collapse: later legs
    /// still add cost and latency. (A debug build also checks every
    /// collapsed class against a from-scratch estimate.)
    #[test]
    fn near_sure_tables_match_the_generic_scan() {
        lattice_tables_match(2..=5, &[0.5, 0.999, 1.0 - 1e-9, 1.0 - 1e-12]);
    }

    /// Half the legs at reliability exactly 1.0.
    const TIE_HEAVY: &[f64] = &[0.5, 0.8, 1.0, 1.0];

    /// The requirements the lattice and anchored tables are searched
    /// under: the latency cap binds wherever the fast legs fail often.
    fn tight_requirements() -> Requirements {
        Requirements::new(40.0, 24.0, 0.97).unwrap()
    }

    /// Twelve lattice tables per M over a small lattice of costs,
    /// latencies and the given `reliabilities`, matched by [`tables_match`].
    fn lattice_tables_match(ms: std::ops::RangeInclusive<usize>, reliabilities: &[f64]) -> usize {
        tables_match(ms, |rng, m| {
            (0..m)
                .map(|_| {
                    Qos::new(
                        [10.0, 20.0, 40.0][rng.gen_range(0..3)],
                        [8.0, 16.0][rng.gen_range(0..2)],
                        reliabilities[rng.gen_range(0..reliabilities.len())],
                    )
                    .unwrap()
                })
                .collect()
        })
    }

    /// Twelve tables per M, each drawn by `table` from its own seeded
    /// generator: the engine, pruned and unpruned on 1 and 4 workers, must
    /// reproduce the generic scan bit for bit and account for all of
    /// `F(M)`. Returns how many winners tied another candidate on QoS.
    fn tables_match(
        ms: std::ops::RangeInclusive<usize>,
        table: impl Fn(&mut ChaCha8Rng, usize) -> EnvQos,
    ) -> usize {
        let requirements = tight_requirements();
        let ground_truth = Generator::builder()
            .estimator(Arc::new(PlainAlg1))
            .parallelism(1)
            .build();
        let configs = [
            ("engine unpruned sequential", false, 1),
            ("engine unpruned parallel", false, 4),
            ("engine pruned sequential", true, 1),
            ("engine pruned parallel", true, 4),
        ]
        .map(|(name, pruning, workers)| {
            let engine = Generator::builder().pruning(pruning).parallelism(workers);
            (name, engine.build())
        });
        let mut tied_cases = 0;
        for m in ms {
            for seed in 0..12u64 {
                let env = table(&mut ChaCha8Rng::seed_from_u64(seed * 41 + m as u64), m);
                let ids = env.ids();
                let run = |g: &Generator| g.exhaustive(&env, &ids, &requirements).unwrap();
                let truth = run(&ground_truth);
                for (name, g) in &configs {
                    let what = format!("m={m} seed={seed} config={name}");
                    let out = run(g);
                    assert_bit_identical(&truth, &out, &what);
                    assert_eq!(
                        out.report.candidates_seen + out.report.candidates_pruned,
                        crate::enumerate::count_full(m).unwrap() as u64,
                        "{what}: seen + pruned must be F(M)"
                    );
                }
                let same_qos = IdSet::new(&ids)
                    .and_then(StrategyIter::over)
                    .unwrap()
                    .filter(|s| crate::estimate::estimate(s, &env) == Ok(truth.qos))
                    .count();
                tied_cases += usize::from(same_qos > 1);
            }
        }
        tied_cases
    }

    /// A table shaped like a re-planned service of the wall-clock
    /// benchmark: leg 0 never fails and meets the latency cap alone; the
    /// other `m - 1` legs, dealt from faster-and-dearer to slower-and-
    /// cheaper roles, fail now and then. So the latency cap binds, and the
    /// rows that start a slow leg first lose on latency alone.
    fn anchored_env(rng: &mut ChaCha8Rng, m: usize) -> EnvQos {
        const ROLES: [(f64, f64); 5] = [
            (10.0, 36.0),
            (20.0, 28.0),
            (50.0, 12.0),
            (80.0, 8.0),
            (40.0, 16.0),
        ];
        let turn = rng.gen_range(0..ROLES.len());
        let anchor = Qos::new(30.0, 20.0, 1.0).unwrap();
        let legs = (0..m - 1).map(|i| {
            let (cost, latency) = ROLES[(turn + i) % ROLES.len()];
            let latency = latency + rng.gen_range(0.0..1.0);
            Qos::new(cost, latency, [0.6, 0.7, 0.8, 0.9][rng.gen_range(0..4)]).unwrap()
        });
        std::iter::once(anchor).chain(legs).collect()
    }

    /// Anchored tables, where the latency cap binds and the groups'
    /// latency floors do the pruning, match the generic scan.
    #[test]
    fn anchored_latency_bound_tables_match_the_generic_scan() {
        tables_match(2..=5, anchored_env);
    }

    /// How much of two tables the pruned engine estimates, pinned: a
    /// looser bound shows up here, not only as a slower search, and so
    /// does a group floor that leaves out the fixed blocks' ends, which
    /// prunes more without losing a winner on any table above. One
    /// anchored M = 5 table, and one random M = 6 table, whose chains are
    /// screened behind fixed blocks. (Screening the groups by the family's
    /// latency bound alone estimates 675 and 1 294 of them.)
    #[test]
    fn two_tables_estimate_a_pinned_share() {
        let gen = Generator::builder().pruning(true).parallelism(1).build();
        let anchored = anchored_env(&mut ChaCha8Rng::seed_from_u64(5), 5);
        let random = random_env(&mut ChaCha8Rng::seed_from_u64(3), 6);
        for (env, pinned) in [(anchored, (619, 2_172)), (random, (986, 50_317))] {
            let out = gen
                .exhaustive(&env, &env.ids(), &tight_requirements())
                .unwrap();
            let report = out.report;
            assert_eq!(
                (report.candidates_seen, report.candidates_pruned),
                pinned,
                "{}",
                out.strategy
            );
        }
    }

    /// Pruning does real work on the paper's fire-detection environment:
    /// with the seeded bar a solid chunk of `F(5)` never gets estimated.
    /// (The engine only bothers bounding families of at least
    /// `MIN_PRUNE_COUNT` candidates — bounding tiny families costs more
    /// than enumerating them — so the pruned count is deliberately far
    /// from the theoretical maximum.)
    #[test]
    fn pruning_skips_most_of_the_space_yet_counts_everything() {
        let env = EnvQos::from_triples(&[
            (50.0, 50.0, 0.6),
            (100.0, 100.0, 0.6),
            (150.0, 150.0, 0.7),
            (200.0, 200.0, 0.7),
            (250.0, 250.0, 0.8),
        ])
        .unwrap();
        let requirements = Requirements::new(100.0, 100.0, 0.97).unwrap();
        let gen = Generator::builder().pruning(true).parallelism(1).build();
        let out = gen.exhaustive(&env, &env.ids(), &requirements).unwrap();
        assert_eq!(out.evaluated, 2791, "F(5) candidates considered");
        assert_eq!(
            out.report.candidates_seen + out.report.candidates_pruned,
            2791
        );
        assert!(
            out.report.candidates_pruned > 500,
            "bounds should prune a solid fraction, pruned only {}",
            out.report.candidates_pruned
        );
    }

    /// Zero-latency leaves void the bound derivation; the engine must
    /// detect that and fall back to an unpruned (still correct) scan.
    #[test]
    fn zero_latency_disables_pruning_but_stays_correct() {
        let env = EnvQos::from_triples(&[(10.0, 0.0, 0.6), (20.0, 30.0, 0.7), (30.0, 40.0, 0.8)])
            .unwrap();
        let requirements = Requirements::new(50.0, 50.0, 0.9).unwrap();
        let truth = Generator::builder()
            .estimator(Arc::new(PlainAlg1))
            .parallelism(1)
            .build()
            .exhaustive(&env, &env.ids(), &requirements)
            .unwrap();
        let out = Generator::builder()
            .pruning(true)
            .parallelism(2)
            .build()
            .exhaustive(&env, &env.ids(), &requirements)
            .unwrap();
        assert_bit_identical(&truth, &out, "zero-latency env");
        assert_eq!(out.report.candidates_pruned, 0, "pruning must disengage");
    }

    /// A non-Algorithm-1 estimator must never enter the pruned fast path:
    /// the folding estimator's winner can differ from Algorithm 1's, and
    /// the scan must faithfully optimize the configured estimator.
    #[test]
    fn folding_estimator_routes_through_generic_scan() {
        let env =
            EnvQos::from_triples(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.6), (150.0, 150.0, 0.7)])
                .unwrap();
        let requirements = Requirements::new(100.0, 100.0, 0.97).unwrap();
        let gen = Generator::builder()
            .estimator(Arc::new(crate::estimate::Folding::new()))
            .parallelism(1)
            .build();
        let out = gen.exhaustive(&env, &env.ids(), &requirements).unwrap();
        assert_eq!(out.report.candidates_pruned, 0);
        assert_eq!(out.evaluated, 19, "F(3)");
        // The reported QoS is the folding estimate of the winner.
        assert_eq!(
            out.qos,
            crate::estimate::estimate_folding(&out.strategy, &env).unwrap()
        );
    }

    /// Tentpole property test: a *persistent* generator with the plan
    /// cache enabled selects a winner bit-identical to a fresh, cold,
    /// unpruned exhaustive search at every slot of every
    /// seeded slot sequence. Slot
    /// sequences cycle through a few exact-repeat environments so cache
    /// hits genuinely occur (`quantum = 0` ⇒ exact-match keys).
    #[test]
    fn plan_cache_matches_cold_exhaustive_search() {
        let requirements = Requirements::new(150.0, 150.0, 0.95).unwrap();
        for m in 1..=4usize {
            for seed in 0..4u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 101 + m as u64);
                let phases: Vec<EnvQos> = (0..3).map(|_| random_env(&mut rng, m)).collect();
                let cache = Arc::new(PlanCache::new(PlanCacheConfig::default()));
                let persistent = Generator::builder()
                    .pruning(true)
                    .parallelism(2)
                    .plan_cache(Arc::clone(&cache))
                    .build();
                for slot in 0..9usize {
                    let env = &phases[slot % phases.len()];
                    let ids = env.ids();
                    let run = |g: &Generator| g.exhaustive(env, &ids, &requirements).unwrap();
                    // Fresh cold ground truth every slot: generic
                    // unpruned sequential scan.
                    let truth = run(&Generator::builder()
                        .estimator(Arc::new(PlainAlg1))
                        .parallelism(1)
                        .build());
                    let out = run(&persistent);
                    let what = format!("m={m} seed={seed} slot={slot} (cache)");
                    assert_bit_identical(&truth, &out, &what);
                    if slot >= phases.len() {
                        // Every environment repeats exactly from the
                        // second cycle on, so the plan must come
                        // straight from the cache.
                        assert_eq!(out.source, PlanSource::Cached, "{what}: source");
                        assert_eq!(out.report.candidates_seen, 0, "{what}: no search work");
                    }
                }
                let stats = cache.stats();
                assert_eq!(stats.hits, 6, "two full repeat cycles hit");
                assert_eq!(stats.misses, 3, "one miss per distinct env");
            }
        }
    }

    /// Satellite: with `quantum = 0` the cache keys on exact bit patterns —
    /// perturbing a single environment attribute by one ULP forces a miss,
    /// and the re-search still matches a cold search of the perturbed env.
    #[test]
    fn quantum_zero_cache_misses_on_one_ulp_perturbation() {
        let requirements = Requirements::new(150.0, 150.0, 0.95).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let env = random_env(&mut rng, 3);
        let ids = env.ids();
        let cache = Arc::new(PlanCache::new(PlanCacheConfig::default()));
        let gen = Generator::builder()
            .pruning(true)
            .parallelism(1)
            .plan_cache(Arc::clone(&cache))
            .build();
        let first = gen.exhaustive(&env, &ids, &requirements).unwrap();
        assert_eq!(first.source, PlanSource::Cold);
        let repeat = gen.exhaustive(&env, &ids, &requirements).unwrap();
        assert_eq!(repeat.source, PlanSource::Cached, "exact repeat must hit");
        assert_bit_identical(&first, &repeat, "cached repeat");

        let mut perturbed = env.clone();
        let old = perturbed.get(ids[0]).unwrap();
        let nudged = Qos::new(
            f64::from_bits(old.cost.to_bits() + 1),
            old.latency,
            old.reliability.value(),
        )
        .unwrap();
        perturbed.set(ids[0], nudged).unwrap();
        let out = gen.exhaustive(&perturbed, &ids, &requirements).unwrap();
        assert_ne!(out.source, PlanSource::Cached, "one ULP apart must miss");
        let truth = Generator::builder()
            .estimator(Arc::new(PlainAlg1))
            .parallelism(1)
            .build()
            .exhaustive(&perturbed, &ids, &requirements)
            .unwrap();
        assert_bit_identical(&truth, &out, "post-perturbation re-search");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    /// Satellite: a zero (or otherwise degenerate) requirement used to
    /// reach the utility index and divide by zero, poisoning the ranking
    /// with NaN. It must now surface as a typed error from every entry
    /// point that ranks by utility.
    #[test]
    fn degenerate_requirements_are_a_typed_error_not_nan_poison() {
        let env =
            EnvQos::from_triples(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.6), (150.0, 150.0, 0.7)])
                .unwrap();
        let ids = env.ids();
        let gen = Generator::builder().parallelism(1).build();
        // `Requirements`' fields are public, so a zero cost requirement can
        // bypass the validating constructor (e.g. via deserialization).
        let zero_cost = Requirements {
            cost: 0.0,
            latency: 150.0,
            reliability: crate::qos::Reliability::new(0.95).unwrap(),
        };
        let inf_latency = Requirements {
            cost: 150.0,
            latency: f64::INFINITY,
            reliability: crate::qos::Reliability::new(0.95).unwrap(),
        };
        for req in [&zero_cost, &inf_latency] {
            assert!(matches!(
                gen.exhaustive(&env, &ids, req),
                Err(GenerateError::InvalidRequirements(_))
            ));
            assert!(matches!(
                gen.generate(&env, &ids, req),
                Err(GenerateError::InvalidRequirements(_))
            ));
            assert!(matches!(
                gen.failover_in_order(&env, &ids, req),
                Err(GenerateError::InvalidRequirements(_))
            ));
            assert!(matches!(
                gen.speculative_parallel(&env, &ids, req),
                Err(GenerateError::InvalidRequirements(_))
            ));
        }
        // And the validating constructor refuses them outright.
        assert!(Requirements::new(0.0, 150.0, 0.95).is_err());
        assert!(Requirements::new(150.0, f64::INFINITY, 0.95).is_err());
        assert!(Requirements::new(150.0, 150.0, 0.0).is_err());
    }

    /// Satellite: when *nothing* in the environment can meet the
    /// requirements every utility is negative, but the ranking stays a
    /// total order and the winner still matches the cold ground truth.
    #[test]
    fn all_infeasible_environment_still_ranks_totally() {
        let env = EnvQos::from_triples(&[
            (900.0, 900.0, 0.10),
            (800.0, 950.0, 0.15),
            (700.0, 990.0, 0.05),
        ])
        .unwrap();
        let requirements = Requirements::new(10.0, 10.0, 0.999).unwrap();
        let ids = env.ids();
        let truth = Generator::builder()
            .estimator(Arc::new(PlainAlg1))
            .parallelism(1)
            .build()
            .exhaustive(&env, &ids, &requirements)
            .unwrap();
        let out = Generator::builder()
            .pruning(true)
            .parallelism(2)
            .build()
            .exhaustive(&env, &ids, &requirements)
            .unwrap();
        assert_bit_identical(&truth, &out, "all-infeasible env");
        assert!(out.utility.is_finite());
        assert!(out.utility < 0.0, "everything violates the requirements");
        let (ranked, _) = Generator::default()
            .ranked(
                Via::Estimator,
                &env,
                IdSet::new(&ids).unwrap(),
                &requirements,
            )
            .unwrap();
        assert_eq!(ranked.len(), ids.len());
    }

    /// Satellite: an estimator may refuse a strategy (the trait allows any
    /// error). The generic scan used to `expect` every estimate and so
    /// panicked; it must return the error.
    #[test]
    fn a_refusing_estimator_is_an_error_not_a_panic() {
        /// Estimates single leaves only.
        #[derive(Debug)]
        struct LeavesOnly;

        impl Estimator for LeavesOnly {
            fn estimate(&self, s: &Strategy, env: &EnvQos) -> Result<Qos, EstimateError> {
                if s.len() >= 2 {
                    return Err(EstimateError::MissingMicroservice(MsId(99)));
                }
                crate::estimate::estimate(s, env)
            }
        }

        let env =
            EnvQos::from_triples(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.6), (150.0, 150.0, 0.7)])
                .unwrap();
        let requirements = Requirements::new(100.0, 100.0, 0.97).unwrap();
        let refused = Err(EstimateError::MissingMicroservice(MsId(99)).into());
        let gen = Generator::builder().estimator(Arc::new(LeavesOnly)).build();
        assert_eq!(gen.exhaustive(&env, &env.ids(), &requirements), refused);
        // A space the estimator covers entirely still searches.
        let single = gen.exhaustive(&env, &[MsId(1)], &requirements).unwrap();
        assert_eq!(single.strategy, Strategy::leaf(MsId(1)));
    }

    /// The builder's knobs round-trip, untouched knobs keep their
    /// defaults, and none of them moves `θ` = 6.
    #[test]
    fn builder_configures_and_keeps_defaults() {
        let gen = Generator::builder()
            .utility(UtilityIndex::default())
            .parallelism(8)
            .pruning(false)
            .build();
        assert_eq!(gen.parallelism(), 8);
        assert!(!gen.pruning());
        assert_eq!(gen.estimator().name(), "algorithm1");
        let env = EnvQos::from_triples(&[(50.0, 50.0, 0.6); 7]).unwrap();
        let r = Requirements::new(100.0, 100.0, 0.97).unwrap();
        let seven = gen.generate(&env, &env.ids(), &r).unwrap();
        assert_eq!(seven.method, Method::Approximation, "M = 7 > θ");
        let defaults = Generator::builder().build();
        assert_eq!(defaults.parallelism(), 0, "default: auto");
        assert!(
            defaults.workers >= 1,
            "auto resolves to at least one worker"
        );
        assert_eq!(gen.workers, 8);
        assert!(defaults.pruning(), "default: pruning on");
    }
}
