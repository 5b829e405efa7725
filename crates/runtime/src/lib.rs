//! # qce-runtime
//!
//! The MOLE-extended edge gateway runtime of *"Win with What You Have:
//! QoS-Consistent Edge Services with Unreliable and Dynamic Resources"*
//! (Song & Tilevich, ICDCS 2020), Section IV.
//!
//! The runtime provisions edge services out of *equivalent microservices*
//! hosted on unreliable devices, and keeps their QoS consistent with a
//! feedback loop:
//!
//! ```text
//!  client ──ServiceID──▶ Gateway ──script──▶ Market (cloud, cached locally)
//!                          │
//!            ┌─ collector ─┤ (records per-provider QoS)
//!            │             │
//!            └▶ generator ─┤ (re-plans the strategy each time slot)
//!                          ▼
//!                   strategy executor ──invocations──▶ edge devices
//! ```
//!
//! * [`ServiceScript`] / [`Market`] — self-describing scripts downloaded
//!   from the cloud and cached at the gateway;
//! * [`Provider`] / [`Registry`] — devices register the microservices they
//!   host; the gateway picks the best provider per capability
//!   (Assumption 1);
//! * [`Collector`] — windowed per-provider QoS statistics;
//! * [`engine::execute_scoped`] — the one way to execute a strategy
//!   outside a gateway: fail-over, speculative parallelism, global
//!   short-circuit and Assumption-2 cost accounting under
//!   [`CompletionPolicy::FirstSuccess`]; under [`CompletionPolicy::Quorum`]
//!   the paper's future-work extension, `q` agreeing results to outvote
//!   malicious devices;
//! * [`Gateway`] — ties it all together with per-time-slot strategy
//!   regeneration; [`Client`] adds the Section IV.C advisory protocol;
//! * [`scenario`] — the adversarial scenario suite: a declarative DSL for
//!   trace-driven workloads (load curves, correlated failure storms,
//!   device churn), compiled to fault plans and replayed deterministically
//!   on virtual time.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use qce_runtime::{
//!     Client, Gateway, GatewayConfig, InMemoryMarket, MsSpec, ServiceScript,
//!     SimulatedProvider,
//! };
//! use qce_strategy::{Qos, Requirements};
//!
//! // 1. Publish a service script to the market.
//! let market = InMemoryMarket::new();
//! market.publish(ServiceScript::new(
//!     "detect-temperature",
//!     vec![
//!         MsSpec { name: "readTempSensor".into(), capability: "read-temp".into(),
//!                  prior: Qos::new(50.0, 5.0, 0.7)? },
//!         MsSpec { name: "estTemp".into(), capability: "est-temp".into(),
//!                  prior: Qos::new(50.0, 8.0, 0.7)? },
//!     ],
//!     Requirements::new(150.0, 100.0, 0.9)?,
//! ))?;
//!
//! // 2. Stand up the gateway and register device-hosted microservices.
//! let gateway = Arc::new(Gateway::new(Box::new(market), GatewayConfig::default()));
//! gateway.registry().register(
//!     SimulatedProvider::builder("pi/read-temp", "read-temp")
//!         .latency(Duration::from_millis(2)).reliability(0.9).cost(50.0).build());
//! gateway.registry().register(
//!     SimulatedProvider::builder("desktop/est-temp", "est-temp")
//!         .latency(Duration::from_millis(3)).reliability(0.9).cost(50.0).build());
//!
//! // 3. Invoke: slot 0 runs the default strategy; later slots adapt.
//! let client = Client::new(gateway);
//! let response = client.invoke("detect-temperature")?;
//! println!("strategy {} -> success={}", response.strategy_text, response.success);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod client;
pub mod clock;
pub mod collector;
pub mod device;
pub mod engine;
pub mod fault;
pub mod fleet;
pub mod gateway;
pub mod generator;
pub mod harness;
pub mod market;
pub mod message;
pub mod pipeline;
pub mod registry;
pub mod request;
pub mod scenario;
pub mod script;
pub mod telemetry;

pub use client::{AdvisoryPolicy, Client, ClientError, QosRejected};
pub use clock::{Clock, Parker, VirtualClock, WallClock, WorkerGuard};
pub use collector::{Collector, ExecutionRecord, ProviderStats};
pub use device::{FnProvider, Provider, SimulatedProvider, SimulatedProviderBuilder};
pub use engine::{
    Budget, Completion, CompletionPolicy, EngineOutcome, EngineStats, PoolStats, PruneDetail,
    PruneReason,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultProfile, FaultyProvider};
pub use fleet::{FleetConfig, FleetStats, GatewayFleet, GatewayShard, ServiceRouter, ShardStats};
pub use gateway::{
    Gateway, GatewayConfig, GatewayConfigBuilder, GatewayControl, QosAdvisory, RequestHandle,
    ServiceResponse, SlotRecord,
};
pub use generator::{assumed_env, env_drift, Planner, SlotPlan, StrategyOrigin, SynthesisSettings};
pub use harness::{Harness, HarnessBuilder};
pub use market::{FileMarket, InMemoryMarket, Market, MarketCacheStats, TtlMarket};
pub use message::{Invocation, InvocationOutcome, InvokeError, RuntimeError};
pub use pipeline::{invoke_pipeline, PipelineResponse};
pub use qce_strategy::SynthesisReport;
pub use registry::Registry;
pub use request::{QosClass, Request, CLASS_COUNT};
pub use script::{MsSpec, ServiceScript};
pub use telemetry::{
    ClassSnapshot, EventKind, EventRingSnapshot, HistogramBucket, HistogramSnapshot,
    MarketSnapshot, MetricsSnapshot, ProviderSnapshot, ServiceSnapshot, Telemetry, TelemetryEvent,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gateway>();
        assert_send_sync::<Client>();
        assert_send_sync::<Collector>();
        assert_send_sync::<Registry>();
        assert_send_sync::<ServiceScript>();
        assert_send_sync::<InMemoryMarket>();
        assert_send_sync::<ServiceResponse>();
    }
}
