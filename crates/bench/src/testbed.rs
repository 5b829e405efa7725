//! The Section V.B testbed, rebuilt on the threaded runtime: a gateway
//! (the paper's ThinkCentre M900), a Raspberry Pi hosting `readTempSensor`
//! (DS1820 reads, cached every 30 s), and two M92p desktops hosting
//! `estTemp` (CPU-temperature regression) and `readLocTemp` (two chained
//! web lookups).
//!
//! All three microservices are configured with the paper's QoS knobs:
//! reliability 70% and cost 50. Latencies are the paper-shaped values
//! (30 / 120 / 170 ms, which give the fail-over chain its reported 81 ms
//! estimate) multiplied by a scale factor so quick runs stay quick.

use std::sync::Arc;
use std::time::Duration;

use qce_runtime::{
    Clock, Gateway, GatewayConfig, InMemoryMarket, MsSpec, Request, ServiceScript,
    SimulatedProvider, WallClock,
};
use qce_strategy::{Qos, Requirements};

/// Service id of the testbed service.
pub const SERVICE: &str = "detect-temperature";

/// The three microservice names, in script order.
pub const NAMES: [&str; 3] = ["readTempSensor", "estTemp", "readLocTemp"];

/// Unscaled latencies (ms). Fail-over over these at r = 0.7 estimates to
/// `30 + 0.3·120 + 0.09·170 = 81.3` — the paper's 81 ms.
pub const BASE_LATENCIES_MS: [f64; 3] = [30.0, 120.0, 170.0];

/// Paper knobs: reliability 70%, cost 50 per microservice.
pub const RELIABILITY: f64 = 0.7;
/// Cost charged per started invocation.
pub const COST: f64 = 50.0;

/// A running testbed.
pub struct Testbed {
    /// The gateway under test.
    pub gateway: Arc<Gateway>,
    /// Handle to the Raspberry Pi's `readTempSensor` provider (the Fig. 8
    /// experiment turns its reliability knob).
    pub sensor: Arc<SimulatedProvider>,
    /// Latency scale applied to [`BASE_LATENCIES_MS`].
    pub latency_scale: f64,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("latency_scale", &self.latency_scale)
            .finish_non_exhaustive()
    }
}

/// Builds the testbed on real time.
///
/// `slot_size` is the number of invocations per time slot (the paper uses
/// 100); `latency_scale` multiplies the base latencies (1.0 = the paper's
/// milliseconds, 0.1 = 10× faster for quick runs).
///
/// # Panics
///
/// Panics only on invalid constants (cannot happen).
#[must_use]
pub fn build(slot_size: u32, latency_scale: f64) -> Testbed {
    build_with_config(
        slot_size,
        latency_scale,
        GatewayConfig::builder().collector_window(100).build(),
        Arc::new(WallClock::new()),
    )
}

/// Like [`build`] but with an explicit gateway configuration (used by the
/// collector-window ablation) and the clock the gateway and its three
/// providers run on (a test passes a `VirtualClock`).
///
/// # Panics
///
/// Panics only on invalid constants (cannot happen).
#[must_use]
pub fn build_with_config(
    slot_size: u32,
    latency_scale: f64,
    config: GatewayConfig,
    clock: Arc<dyn Clock>,
) -> Testbed {
    let market = InMemoryMarket::new();
    let mut script = ServiceScript::new(
        SERVICE,
        NAMES
            .iter()
            .zip(BASE_LATENCIES_MS)
            .map(|(name, latency)| MsSpec {
                name: (*name).to_string(),
                capability: format!("cap-{name}"),
                prior: Qos::new(COST, latency * latency_scale, RELIABILITY)
                    .expect("constants in domain"),
            })
            .collect(),
        // Requirements mirror the simulation experiments, scaled with
        // latency so the utility trade-off is unchanged.
        Requirements::new(100.0, 100.0 * latency_scale.max(0.05), 0.97)
            .expect("constants in domain"),
    );
    script.slot_size = slot_size;
    market.publish(script).expect("script is valid");

    let gateway = Arc::new(Gateway::with_clock(
        Box::new(market),
        config,
        Arc::clone(&clock),
    ));

    let devices = ["raspberry-pi", "m92p-a", "m92p-b"];
    let mut sensor = None;
    for (i, ((name, latency), device)) in
        NAMES.iter().zip(BASE_LATENCIES_MS).zip(devices).enumerate()
    {
        let provider =
            SimulatedProvider::builder(format!("{device}/cap-{name}"), format!("cap-{name}"))
                .cost(COST)
                .latency(Duration::from_secs_f64(latency * latency_scale / 1e3))
                .reliability(RELIABILITY)
                .seed(100 + i as u64)
                .clock(Arc::clone(&clock))
                .build();
        if i == 0 {
            sensor = Some(Arc::clone(&provider));
        }
        gateway.registry().register(provider);
    }

    Testbed {
        gateway,
        sensor: sensor.expect("first provider is the sensor"),
        latency_scale,
    }
}

/// Aggregate QoS measured over one slot of invocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotQos {
    /// Fraction of successful requests.
    pub reliability: f64,
    /// Mean charged cost.
    pub cost: f64,
    /// Mean latency in (unscaled) paper milliseconds.
    pub latency_ms: f64,
}

/// Runs `n` invocations and aggregates measured QoS, normalizing latency by
/// the testbed's scale so numbers are comparable to the paper's.
///
/// # Panics
///
/// Panics if an invocation fails at the runtime level (the testbed always
/// has providers registered).
#[must_use]
pub fn run_slot(testbed: &Testbed, n: u32) -> SlotQos {
    let mut ok = 0u32;
    let mut cost = 0.0;
    let mut latency = Duration::ZERO;
    for _ in 0..n {
        let response = testbed
            .gateway
            .submit(Request::new(SERVICE))
            .expect("testbed providers are registered");
        if response.success {
            ok += 1;
        }
        cost += response.cost;
        latency += response.latency;
    }
    SlotQos {
        reliability: f64::from(ok) / f64::from(n),
        cost: cost / f64::from(n),
        latency_ms: latency.as_secs_f64() * 1e3 / f64::from(n) / testbed.latency_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_serves_requests() {
        let tb = build(10, 0.02);
        let qos = run_slot(&tb, 10);
        assert!(qos.reliability > 0.5, "r=0.7 per ms, three equivalents");
        assert!(qos.cost >= COST);
    }

    #[test]
    fn slot_zero_uses_parallel_default() {
        let tb = build(100, 0.02);
        let response = tb.gateway.submit(Request::new(SERVICE)).unwrap();
        assert!(response.strategy.is_parallel());
        assert_eq!(response.strategy_text, "readTempSensor*estTemp*readLocTemp");
    }

    #[test]
    fn generated_strategy_matches_papers() {
        // Paper Section V.B: the generated strategy is
        // readTempSensor-estTemp-readLocTemp. On a virtual clock the
        // measured latencies, and so the near tie with
        // readTempSensor-estTemp*readLocTemp, are the same every run.
        let tb = build_with_config(
            30,
            0.02,
            GatewayConfig::builder().collector_window(100).build(),
            Arc::new(qce_runtime::VirtualClock::new()),
        );
        for _ in 0..30 {
            tb.gateway.submit(Request::new(SERVICE)).unwrap();
        }
        let response = tb.gateway.submit(Request::new(SERVICE)).unwrap();
        assert_eq!(response.strategy_text, "readTempSensor-estTemp-readLocTemp");
    }

    #[test]
    fn latency_normalization_roundtrips_scale() {
        let tb = build(10, 0.02);
        let qos = run_slot(&tb, 5);
        // Normalized latency should be in the ballpark of the paper's
        // unscaled values (tens of ms, far below a second).
        assert!(
            qos.latency_ms > 5.0 && qos.latency_ms < 500.0,
            "{}",
            qos.latency_ms
        );
    }
}
