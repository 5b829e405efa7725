//! Device models: the unreliable, dynamic resource providers of edge
//! environments (paper Section II).
//!
//! Edge resources come from mobile devices whose owners walk away, from
//! energy-harvesting devices that duty-cycle with their power income, and
//! from the occasional wall-powered edge server. A [`Device`] modulates the
//! QoS of the microservices it hosts: availability gates reliability, and
//! the device's compute class scales latency.

use serde::{Deserialize, Serialize};

use qce_strategy::QosError;

use crate::environment::{Environment, EnvironmentError};
use crate::microservice::{LatencyDistribution, MsModel};

/// Hardware class of an edge device, with a latency scaling factor relative
/// to a desktop-class machine (the paper's testbed spans an i7 gateway, two
/// i5 desktops, and a Raspberry Pi 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DeviceKind {
    /// Rack or small-scale data-center hardware at the edge.
    EdgeServer,
    /// Desktop-class machine (ThinkCentre M92p/M900 in the paper).
    Desktop,
    /// Single-board computer (Raspberry Pi 3 in the paper).
    RaspberryPi,
    /// A bystander's phone contributing cycles.
    Mobile,
    /// Solar/kinetic/RF-powered device that computes intermittently.
    EnergyHarvesting,
}

impl DeviceKind {
    /// Latency multiplier relative to [`DeviceKind::Desktop`].
    ///
    /// These are coarse calibration constants: the paper's motivating
    /// example contrasts "high-performance edge servers" with "a
    /// solar-powered Raspberry Pi with much lower computational power".
    #[must_use]
    pub(crate) fn latency_factor(self) -> f64 {
        match self {
            DeviceKind::EdgeServer => 0.5,
            DeviceKind::Desktop => 1.0,
            DeviceKind::RaspberryPi => 4.0,
            DeviceKind::Mobile => 2.0,
            DeviceKind::EnergyHarvesting => 6.0,
        }
    }
}

/// Per-invocation availability model of a device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Availability {
    /// Always reachable (wall-powered, stationary).
    AlwaysOn,
    /// Deterministic duty cycle in invocation counts: available for `on`
    /// invocations, then unavailable for `off`, repeating. Models
    /// energy-harvesting accumulation/discharge.
    DutyCycle {
        /// Invocations served per cycle.
        on: u64,
        /// Invocations missed per cycle while recharging.
        off: u64,
    },
    /// Independently available with this probability at each invocation.
    /// Models mobile devices drifting in and out of range.
    Probabilistic {
        /// Probability the device is reachable for a given invocation.
        up: f64,
    },
}

impl Availability {
    /// Long-run fraction of invocations for which the device is available.
    #[must_use]
    pub(crate) fn duty_factor(&self) -> f64 {
        match *self {
            Availability::AlwaysOn => 1.0,
            Availability::DutyCycle { on, off } => {
                if on == 0 {
                    0.0
                } else {
                    on as f64 / (on + off) as f64
                }
            }
            Availability::Probabilistic { up } => up.clamp(0.0, 1.0),
        }
    }
}

/// An edge device that can host microservices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Human-readable name (e.g. `"raspberry-pi-kitchen"`).
    pub name: String,
    /// Hardware class.
    pub kind: DeviceKind,
    /// Availability model.
    pub availability: Availability,
}

impl Device {
    /// Creates a device.
    #[must_use]
    pub fn new(name: impl Into<String>, kind: DeviceKind, availability: Availability) -> Self {
        Device {
            name: name.into(),
            kind,
            availability,
        }
    }

    /// The *effective* model of a microservice hosted on this device:
    /// latency is scaled by the device's compute class and reliability is
    /// multiplied by the long-run availability.
    ///
    /// This is how dissimilar environments (paper Fig. 1) are synthesized:
    /// the same microservice binary exhibits different QoS depending on
    /// which device provides it.
    ///
    /// # Errors
    ///
    /// Returns a [`QosError`] if the scaled parameters leave their domains
    /// (cannot happen for valid inputs).
    ///
    /// # Examples
    ///
    /// ```
    /// use qce_sim::{Availability, Device, DeviceKind, LatencyDistribution, MsModel};
    /// use qce_strategy::MsId;
    ///
    /// let base = MsModel::new(MsId(0), 0.9, LatencyDistribution::Constant(100.0), 10.0)?;
    /// let pi = Device::new("pi", DeviceKind::RaspberryPi, Availability::DutyCycle { on: 3, off: 1 });
    /// let hosted = pi.host(&base)?;
    /// assert_eq!(hosted.latency.mean(), 400.0); // 4× slower
    /// assert!((hosted.reliability.value() - 0.675).abs() < 1e-9); // 0.9 × 0.75
    /// # Ok::<(), qce_strategy::QosError>(())
    /// ```
    pub fn host(&self, base: &MsModel) -> Result<MsModel, QosError> {
        let factor = self.kind.latency_factor();
        let latency = scale_latency(base.latency, factor);
        MsModel::new(
            base.id,
            base.reliability.value() * self.availability.duty_factor(),
            latency,
            base.cost,
        )
    }
}

fn scale_latency(dist: LatencyDistribution, factor: f64) -> LatencyDistribution {
    match dist {
        LatencyDistribution::Constant(v) => LatencyDistribution::Constant(v * factor),
        LatencyDistribution::Uniform { min, max } => LatencyDistribution::Uniform {
            min: min * factor,
            max: max * factor,
        },
        LatencyDistribution::Normal { mean, std_dev } => LatencyDistribution::Normal {
            mean: mean * factor,
            std_dev: std_dev * factor,
        },
        LatencyDistribution::Exponential { mean } => LatencyDistribution::Exponential {
            mean: mean * factor,
        },
    }
}

/// Builds an environment by hosting each `(device, base model)` pair — a
/// convenient way to materialize the paper's "dissimilar edge environments"
/// from one shared set of microservice definitions.
///
/// Models must be supplied in [`MsId`](qce_strategy::MsId) order starting
/// at 0.
///
/// # Errors
///
/// Returns [`EnvironmentError::Misindexed`] if model ids are not `0..n` in
/// order, and [`EnvironmentError::Qos`] if a hosted model leaves its QoS
/// domain.
pub fn environment_from_placements(
    placements: &[(Device, MsModel)],
) -> Result<Environment, EnvironmentError> {
    let models = placements
        .iter()
        .map(|(device, base)| device.host(base))
        .collect::<Result<Vec<_>, _>>()?;
    Environment::new(models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qce_strategy::MsId;

    #[test]
    fn latency_factors_ordered_by_capability() {
        assert!(DeviceKind::EdgeServer.latency_factor() < DeviceKind::Desktop.latency_factor());
        assert!(DeviceKind::Desktop.latency_factor() < DeviceKind::Mobile.latency_factor());
        assert!(DeviceKind::Mobile.latency_factor() < DeviceKind::RaspberryPi.latency_factor());
        assert!(
            DeviceKind::RaspberryPi.latency_factor()
                < DeviceKind::EnergyHarvesting.latency_factor()
        );
    }

    #[test]
    fn always_on_availability() {
        assert_eq!(Availability::AlwaysOn.duty_factor(), 1.0);
    }

    #[test]
    fn duty_cycle_pattern() {
        let a = Availability::DutyCycle { on: 2, off: 1 };
        assert!((a.duty_factor() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_duty_cycles() {
        let never = Availability::DutyCycle { on: 0, off: 5 };
        assert_eq!(never.duty_factor(), 0.0);
        let always = Availability::DutyCycle { on: 5, off: 0 };
        assert_eq!(always.duty_factor(), 1.0);
    }

    #[test]
    fn probabilistic_availability_converges() {
        // The long-run fraction is the per-invocation probability, clamped
        // into [0, 1].
        assert_eq!(Availability::Probabilistic { up: 0.3 }.duty_factor(), 0.3);
        assert_eq!(Availability::Probabilistic { up: 1.5 }.duty_factor(), 1.0);
        assert_eq!(Availability::Probabilistic { up: -0.5 }.duty_factor(), 0.0);
    }

    #[test]
    fn hosting_scales_latency_and_reliability() {
        let base = MsModel::new(
            MsId(0),
            0.8,
            LatencyDistribution::Uniform {
                min: 10.0,
                max: 20.0,
            },
            5.0,
        )
        .unwrap();
        let server = Device::new("rack", DeviceKind::EdgeServer, Availability::AlwaysOn);
        let hosted = server.host(&base).unwrap();
        assert_eq!(hosted.latency.mean(), 7.5);
        assert_eq!(hosted.reliability.value(), 0.8);

        let phone = Device::new(
            "phone",
            DeviceKind::Mobile,
            Availability::Probabilistic { up: 0.5 },
        );
        let hosted = phone.host(&base).unwrap();
        assert_eq!(hosted.latency.mean(), 30.0);
        assert!((hosted.reliability.value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn scaling_covers_every_distribution() {
        for dist in [
            LatencyDistribution::Constant(10.0),
            LatencyDistribution::Uniform {
                min: 5.0,
                max: 15.0,
            },
            LatencyDistribution::Normal {
                mean: 10.0,
                std_dev: 2.0,
            },
            LatencyDistribution::Exponential { mean: 10.0 },
        ] {
            let scaled = scale_latency(dist, 3.0);
            assert!((scaled.mean() - dist.mean() * 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn placements_build_an_environment() {
        let placements = vec![
            (
                Device::new("rack", DeviceKind::EdgeServer, Availability::AlwaysOn),
                MsModel::new(MsId(0), 0.9, LatencyDistribution::Constant(100.0), 10.0).unwrap(),
            ),
            (
                Device::new(
                    "pi",
                    DeviceKind::RaspberryPi,
                    Availability::DutyCycle { on: 1, off: 1 },
                ),
                MsModel::new(MsId(1), 0.8, LatencyDistribution::Constant(100.0), 10.0).unwrap(),
            ),
        ];
        let env = environment_from_placements(&placements).unwrap();
        assert_eq!(env.len(), 2);
        assert_eq!(env.get(MsId(0)).unwrap().latency.mean(), 50.0);
        assert_eq!(env.get(MsId(1)).unwrap().latency.mean(), 400.0);
        assert!((env.get(MsId(1)).unwrap().reliability.value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_placements_are_rejected() {
        let placements = vec![(
            Device::new("rack", DeviceKind::EdgeServer, Availability::AlwaysOn),
            MsModel::new(MsId(3), 0.9, LatencyDistribution::Constant(1.0), 1.0).unwrap(),
        )];
        assert_eq!(
            environment_from_placements(&placements),
            Err(EnvironmentError::Misindexed {
                position: 0,
                id: MsId(3)
            })
        );
    }
}
