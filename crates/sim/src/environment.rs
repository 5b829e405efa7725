//! Edge environments: collections of equivalent-microservice models, plus
//! the random-environment generators of the paper's Table III.

use rand::Rng;
use serde::{Deserialize, Serialize};

use qce_strategy::{EnvQos, MsId, QosError};

use crate::microservice::{LatencyDistribution, MsModel};

/// Why a list of models does not make an [`Environment`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EnvironmentError {
    /// The model at `position` describes `id`, not `MsId(position)`.
    Misindexed {
        /// Where the model stands in the list.
        position: usize,
        /// The id it describes.
        id: MsId,
    },
    /// A model's QoS left its domain.
    Qos(QosError),
}

impl std::fmt::Display for EnvironmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvironmentError::Misindexed { position, id } => write!(
                f,
                "the model at position {position} describes {id}, not MsId({position})"
            ),
            EnvironmentError::Qos(error) => error.fmt(f),
        }
    }
}

impl std::error::Error for EnvironmentError {}

impl From<QosError> for EnvironmentError {
    fn from(error: QosError) -> Self {
        EnvironmentError::Qos(error)
    }
}

/// A simulated edge environment: the stochastic models of every equivalent
/// microservice available in it, indexed by [`MsId`].
///
/// # Examples
///
/// ```
/// use qce_sim::{Environment, LatencyDistribution, MsModel};
/// use qce_strategy::MsId;
///
/// let env = Environment::new(vec![
///     MsModel::new(MsId(0), 0.7, LatencyDistribution::Constant(10.0), 50.0)?,
///     MsModel::new(MsId(1), 0.9, LatencyDistribution::Constant(90.0), 50.0)?,
/// ])?;
/// assert_eq!(env.len(), 2);
/// assert_eq!(env.mean_qos_table().get(MsId(1)).unwrap().latency, 90.0);
/// # Ok::<(), qce_sim::EnvironmentError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Environment {
    models: Vec<MsModel>,
}

impl Environment {
    /// Creates an environment from models; model `i` must describe
    /// `MsId(i)`.
    ///
    /// # Errors
    ///
    /// Returns [`EnvironmentError::Misindexed`] for the first model whose
    /// id does not match its position.
    pub fn new(models: Vec<MsModel>) -> Result<Self, EnvironmentError> {
        if let Some((position, model)) = models
            .iter()
            .enumerate()
            .find(|(i, model)| model.id != MsId(*i))
        {
            return Err(EnvironmentError::Misindexed {
                position,
                id: model.id,
            });
        }
        Ok(Environment { models })
    }

    /// Builds an environment of [`LatencyDistribution::Constant`] models
    /// from `(cost, latency, reliability)` triples — the shape of all of
    /// the paper's worked examples.
    ///
    /// # Errors
    ///
    /// Returns a [`QosError`] if any triple is out of domain.
    pub fn from_triples(triples: &[(f64, f64, f64)]) -> Result<Self, QosError> {
        let models = triples
            .iter()
            .enumerate()
            .map(|(i, &(c, l, r))| MsModel::new(MsId(i), r, LatencyDistribution::Constant(l), c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Environment { models })
    }

    /// Number of microservices in the environment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` if the environment has no microservices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Ids of all microservices, ascending.
    #[must_use]
    pub fn ids(&self) -> Vec<MsId> {
        (0..self.models.len()).map(MsId).collect()
    }

    /// The model for `id`, if present.
    #[must_use]
    pub fn get(&self, id: MsId) -> Option<&MsModel> {
        self.models.get(id.index())
    }

    /// Mutable access to the model for `id`, if present. Used by the
    /// shared-fate model ([`correlation`](crate::correlation)) to fail a
    /// down host's members for one execution.
    #[must_use]
    pub fn get_mut(&mut self, id: MsId) -> Option<&mut MsModel> {
        self.models.get_mut(id.index())
    }

    /// Appends a model, assigning and returning the next id.
    ///
    /// # Errors
    ///
    /// Returns a [`QosError`] if the model parameters are invalid.
    pub fn push(
        &mut self,
        reliability: f64,
        latency: LatencyDistribution,
        cost: f64,
    ) -> Result<MsId, QosError> {
        let id = MsId(self.models.len());
        self.models
            .push(MsModel::new(id, reliability, latency, cost)?);
        Ok(id)
    }

    /// Iterates over the models in id order.
    pub fn iter(&self) -> impl Iterator<Item = &MsModel> {
        self.models.iter()
    }

    /// The table of *mean* QoS values — what an ideal collector reports and
    /// what the generator/estimator consume.
    #[must_use]
    pub fn mean_qos_table(&self) -> EnvQos {
        self.models.iter().map(|m| m.mean_qos()).collect()
    }
}

/// Configuration for the random environments of the paper's Table III.
///
/// Each attribute of each microservice is drawn uniformly from
/// `avg ± Δ/2` (the paper: `cost = rand(c − Δ/2, c + Δ/2)`), with cost and
/// latency clamped to be positive and reliability (given in percent)
/// clamped into `[1, 100]`.
///
/// # Examples
///
/// ```
/// use qce_sim::RandomEnvConfig;
/// use rand::SeedableRng;
///
/// // Table III, exp1 config 1: 4 microservices, avg [60, 60, 80%], Δ = 50.
/// let cfg = RandomEnvConfig {
///     microservices: 4,
///     avg_cost: 60.0,
///     avg_latency: 60.0,
///     avg_reliability_pct: 80.0,
///     delta: 50.0,
/// };
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let env = cfg.generate(&mut rng);
/// assert_eq!(env.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomEnvConfig {
    /// Number of equivalent microservices.
    pub microservices: usize,
    /// Average cost `c`.
    pub avg_cost: f64,
    /// Average latency `l`.
    pub avg_latency: f64,
    /// Average reliability `r`, in percent (the paper's unit).
    pub avg_reliability_pct: f64,
    /// Range Δ applied to every attribute.
    pub delta: f64,
}

impl RandomEnvConfig {
    /// Draws one random environment.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Environment {
        let mut env = Environment::default();
        for _ in 0..self.microservices {
            let cost = sample_around(rng, self.avg_cost, self.delta).max(1.0);
            let latency = sample_around(rng, self.avg_latency, self.delta).max(1.0);
            let rel_pct =
                sample_around(rng, self.avg_reliability_pct, self.delta).clamp(1.0, 100.0);
            env.push(
                rel_pct / 100.0,
                LatencyDistribution::Constant(latency),
                cost,
            )
            .expect("sampled values are in domain");
        }
        env
    }
}

fn sample_around<R: Rng + ?Sized>(rng: &mut R, avg: f64, delta: f64) -> f64 {
    if delta <= 0.0 {
        avg
    } else {
        rng.gen_range(avg - delta / 2.0..avg + delta / 2.0)
    }
}

/// The full set of simulation configurations from the paper's Table III.
///
/// * **exp1** — 4 microservices, Δ = 50, average QoS swept over
///   `[60,60,80] … [90,90,50]` (configs 1–4);
/// * **exp2** — 4 microservices, average `[70,70,70]`, Δ swept over
///   `50, 40, 30, 20` (configs 1–4);
/// * **exp3** — average `[90,90,50]`, Δ = 100, microservice count swept
///   over `3, 4, 5` (configs 1–3).
///
/// Returns `(experiment, config_index, config)` triples in paper order.
#[must_use]
pub fn table3_configurations() -> Vec<(&'static str, usize, RandomEnvConfig)> {
    let mut out = Vec::new();
    for (i, (c, l, r)) in [
        (60.0, 60.0, 80.0),
        (70.0, 70.0, 70.0),
        (80.0, 80.0, 60.0),
        (90.0, 90.0, 50.0),
    ]
    .into_iter()
    .enumerate()
    {
        out.push((
            "exp1",
            i + 1,
            RandomEnvConfig {
                microservices: 4,
                avg_cost: c,
                avg_latency: l,
                avg_reliability_pct: r,
                delta: 50.0,
            },
        ));
    }
    for (i, delta) in [50.0, 40.0, 30.0, 20.0].into_iter().enumerate() {
        out.push((
            "exp2",
            i + 1,
            RandomEnvConfig {
                microservices: 4,
                avg_cost: 70.0,
                avg_latency: 70.0,
                avg_reliability_pct: 70.0,
                delta,
            },
        ));
    }
    for (i, m) in [3usize, 4, 5].into_iter().enumerate() {
        out.push((
            "exp3",
            i + 1,
            RandomEnvConfig {
                microservices: m,
                avg_cost: 90.0,
                avg_latency: 90.0,
                avg_reliability_pct: 50.0,
                delta: 100.0,
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn environment_accessors() {
        let mut env = Environment::from_triples(&[(1.0, 2.0, 0.5), (3.0, 4.0, 0.6)]).unwrap();
        assert_eq!(env.len(), 2);
        assert!(!env.is_empty());
        assert_eq!(env.ids(), vec![MsId(0), MsId(1)]);
        assert!(env.get(MsId(1)).is_some());
        assert!(env.get(MsId(2)).is_none());
        let id = env
            .push(0.9, LatencyDistribution::Constant(7.0), 8.0)
            .unwrap();
        assert_eq!(id, MsId(2));
        env.get_mut(MsId(0)).unwrap().cost = 99.0;
        assert_eq!(env.get(MsId(0)).unwrap().cost, 99.0);
        assert_eq!(env.iter().count(), 3);
    }

    #[test]
    fn misindexed_models_rejected() {
        let model = MsModel::new(MsId(5), 0.5, LatencyDistribution::Constant(1.0), 1.0).unwrap();
        assert_eq!(
            Environment::new(vec![model]),
            Err(EnvironmentError::Misindexed {
                position: 0,
                id: MsId(5)
            })
        );
    }

    #[test]
    fn mean_table_matches_models() {
        let env = Environment::from_triples(&[(10.0, 20.0, 0.5), (30.0, 40.0, 0.6)]).unwrap();
        let table = env.mean_qos_table();
        assert_eq!(table.get(MsId(0)).unwrap().cost, 10.0);
        assert_eq!(table.get(MsId(1)).unwrap().latency, 40.0);
    }

    #[test]
    fn random_env_respects_ranges() {
        let cfg = RandomEnvConfig {
            microservices: 50,
            avg_cost: 70.0,
            avg_latency: 70.0,
            avg_reliability_pct: 70.0,
            delta: 40.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let env = cfg.generate(&mut rng);
        assert_eq!(env.len(), 50);
        for model in env.iter() {
            assert!((50.0..=90.0).contains(&model.cost), "cost {}", model.cost);
            let l = model.latency.mean();
            assert!((50.0..=90.0).contains(&l), "latency {l}");
            let r = model.reliability.percent();
            assert!((50.0..=90.0).contains(&r), "reliability {r}");
        }
    }

    #[test]
    fn random_env_clamps_reliability() {
        // exp3: avg 50%, Δ = 100 → raw range [0, 100]; must clamp to ≥ 1%.
        let cfg = RandomEnvConfig {
            microservices: 200,
            avg_cost: 90.0,
            avg_latency: 90.0,
            avg_reliability_pct: 50.0,
            delta: 100.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let env = cfg.generate(&mut rng);
        for model in env.iter() {
            let r = model.reliability.percent();
            assert!((1.0..=100.0).contains(&r));
            assert!(model.cost >= 1.0);
        }
    }

    #[test]
    fn zero_delta_is_deterministic() {
        let cfg = RandomEnvConfig {
            microservices: 3,
            avg_cost: 70.0,
            avg_latency: 70.0,
            avg_reliability_pct: 70.0,
            delta: 0.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let env = cfg.generate(&mut rng);
        for model in env.iter() {
            assert_eq!(model.cost, 70.0);
            assert_eq!(model.latency.mean(), 70.0);
            assert_eq!(model.reliability.percent(), 70.0);
        }
    }

    #[test]
    fn table3_has_eleven_configurations() {
        let configs = table3_configurations();
        assert_eq!(configs.len(), 11);
        assert_eq!(configs.iter().filter(|(e, _, _)| *e == "exp1").count(), 4);
        assert_eq!(configs.iter().filter(|(e, _, _)| *e == "exp2").count(), 4);
        assert_eq!(configs.iter().filter(|(e, _, _)| *e == "exp3").count(), 3);
        // exp3 sweeps the microservice count.
        let exp3: Vec<usize> = configs
            .iter()
            .filter(|(e, _, _)| *e == "exp3")
            .map(|(_, _, c)| c.microservices)
            .collect();
        assert_eq!(exp3, vec![3, 4, 5]);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let cfg = table3_configurations()[0].2;
        let a = cfg.generate(&mut ChaCha8Rng::seed_from_u64(42));
        let b = cfg.generate(&mut ChaCha8Rng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
