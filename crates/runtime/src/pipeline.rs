//! Multi-stage service pipelines — the "dataflow of constituent
//! microservices" that service scripts describe (paper Section IV.A).
//!
//! A pipeline chains already-published services: each stage is a full
//! equivalent-microservice service (with its own feedback loop, strategy,
//! and time slots), and the winning payload of stage `i` becomes the
//! request payload of stage `i + 1`. The pipeline aborts at the first
//! stage whose strategy fails entirely.
//!
//! End-to-end QoS composes per
//! [`qce_strategy::compose`]: reliability multiplies, expected cost and
//! latency accumulate weighted by the probability of reaching each stage.

use std::sync::Arc;
use std::time::Duration;

use crate::gateway::{Gateway, ServiceResponse};
use crate::message::RuntimeError;
use crate::request::Request;

/// The outcome of one pipeline invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResponse {
    /// Whether every stage succeeded.
    pub success: bool,
    /// Final payload (the last stage's winning result) when successful.
    pub payload: Option<Vec<u8>>,
    /// Total cost charged across all executed stages.
    pub cost: f64,
    /// Total wall-clock latency across all executed stages.
    pub latency: Duration,
    /// Per-stage responses, in order; shorter than the stage list when the
    /// pipeline aborted early.
    pub stages: Vec<ServiceResponse>,
}

/// Invokes `service_ids` as a sequential pipeline on `gateway`, feeding
/// `payload` into the first stage and each stage's winning payload into
/// the next.
///
/// Every stage goes through the gateway's full machinery — script cache,
/// provider resolution, per-slot strategy generation, QoS collection — so
/// repeated pipeline invocations adapt stage strategies independently.
///
/// # Errors
///
/// Returns [`RuntimeError::InvalidScript`] for an empty stage list, or any
/// gateway error from a stage (unknown service, missing provider, …).
/// A stage whose strategy *fails* is not an error: the pipeline returns
/// `success = false` with the partial stage responses.
pub fn invoke_pipeline(
    gateway: &Arc<Gateway>,
    service_ids: &[&str],
    payload: Vec<u8>,
) -> Result<PipelineResponse, RuntimeError> {
    if service_ids.is_empty() {
        return Err(RuntimeError::InvalidScript {
            reason: "pipeline needs at least one stage".to_string(),
        });
    }
    let mut stages = Vec::with_capacity(service_ids.len());
    let mut current = payload;
    let mut cost = 0.0;
    let mut latency = Duration::ZERO;
    for (i, service_id) in service_ids.iter().enumerate() {
        let response = gateway.submit(Request::new(*service_id).payload(current.clone()))?;
        cost += response.cost;
        latency += response.latency;
        let succeeded = response.success;
        let next = response.payload.clone();
        stages.push(response);
        if !succeeded {
            return Ok(PipelineResponse {
                success: false,
                payload: None,
                cost,
                latency,
                stages,
            });
        }
        current = next.unwrap_or_default();
        let _ = i;
    }
    Ok(PipelineResponse {
        success: true,
        payload: Some(current),
        cost,
        latency,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FnProvider;
    use crate::gateway::GatewayConfig;
    use crate::market::InMemoryMarket;
    use crate::message::InvokeError;
    use crate::script::{MsSpec, ServiceScript};
    use qce_strategy::{Qos, Requirements};

    /// Publishes a single-microservice service whose provider applies `f`
    /// to the request payload.
    fn stage_service(
        market: &InMemoryMarket,
        gateway: &Gateway,
        id: &str,
        f: impl Fn(&[u8]) -> Result<Vec<u8>, InvokeError> + Send + Sync + 'static,
    ) {
        let script = ServiceScript::new(
            id,
            vec![MsSpec {
                name: "only".into(),
                capability: format!("cap-{id}"),
                prior: Qos::new(10.0, 5.0, 0.9).unwrap(),
            }],
            Requirements::new(100.0, 100.0, 0.5).unwrap(),
        );
        market.publish(script).unwrap();
        gateway.registry().register(FnProvider::new(
            format!("dev/{id}"),
            format!("cap-{id}"),
            10.0,
            move |req| f(&req.payload),
        ));
    }

    fn setup() -> (Arc<Gateway>, Arc<InMemoryMarket>) {
        let market = Arc::new(InMemoryMarket::new());
        let market_handle = Arc::clone(&market);
        struct Shared(Arc<InMemoryMarket>);
        impl crate::market::Market for Shared {
            fn fetch(&self, id: &str) -> Result<ServiceScript, RuntimeError> {
                self.0.fetch(id)
            }
            fn service_ids(&self) -> Vec<String> {
                self.0.service_ids()
            }
        }
        let gateway = Arc::new(Gateway::new(
            Box::new(Shared(market_handle)),
            GatewayConfig::default(),
        ));
        (gateway, market)
    }

    #[test]
    fn empty_pipeline_rejected() {
        let (gateway, _market) = setup();
        assert!(matches!(
            invoke_pipeline(&gateway, &[], vec![]),
            Err(RuntimeError::InvalidScript { .. })
        ));
    }

    #[test]
    fn payload_flows_through_stages() {
        let (gateway, market) = setup();
        stage_service(&market, &gateway, "double", |p| {
            Ok(p.iter().map(|b| b * 2).collect())
        });
        stage_service(&market, &gateway, "inc", |p| {
            Ok(p.iter().map(|b| b + 1).collect())
        });
        let out = invoke_pipeline(&gateway, &["double", "inc"], vec![3, 5]).unwrap();
        assert!(out.success);
        assert_eq!(out.payload, Some(vec![7, 11])); // (3·2)+1, (5·2)+1
        assert_eq!(out.stages.len(), 2);
        assert_eq!(out.cost, 20.0);
    }

    #[test]
    fn pipeline_aborts_on_stage_failure() {
        let (gateway, market) = setup();
        stage_service(&market, &gateway, "ok", |p| Ok(p.to_vec()));
        stage_service(&market, &gateway, "broken", |_| {
            Err(InvokeError::ExecutionFailed {
                reason: "boom".to_string(),
            })
        });
        stage_service(&market, &gateway, "never", |p| Ok(p.to_vec()));
        let out = invoke_pipeline(&gateway, &["ok", "broken", "never"], vec![1]).unwrap();
        assert!(!out.success);
        assert_eq!(out.stages.len(), 2, "third stage never runs");
        assert_eq!(out.cost, 20.0, "only executed stages are charged");
        assert!(out.payload.is_none());
    }

    #[test]
    fn unknown_stage_service_is_an_error() {
        let (gateway, market) = setup();
        stage_service(&market, &gateway, "ok", |p| Ok(p.to_vec()));
        assert!(matches!(
            invoke_pipeline(&gateway, &["ok", "missing"], vec![]),
            Err(RuntimeError::UnknownService { .. })
        ));
    }

    #[test]
    fn composed_qos_matches_compose_module() {
        // Pipeline of two perfectly reliable stages: measured cost equals
        // the composed expectation.
        let (gateway, market) = setup();
        stage_service(&market, &gateway, "s1", |p| Ok(p.to_vec()));
        stage_service(&market, &gateway, "s2", |p| Ok(p.to_vec()));
        let out = invoke_pipeline(&gateway, &["s1", "s2"], vec![]).unwrap();
        let stage_qos = Qos::new(10.0, 1.0, 1.0).unwrap();
        let composed = qce_strategy::compose::pipeline_qos(&[stage_qos, stage_qos]).unwrap();
        assert_eq!(out.cost, composed.cost);
    }

    #[test]
    fn stages_adapt_independently() {
        // Each stage is a real gateway service with its own slots.
        let (gateway, market) = setup();
        stage_service(&market, &gateway, "s1", |p| Ok(p.to_vec()));
        stage_service(&market, &gateway, "s2", |p| Ok(p.to_vec()));
        for _ in 0..3 {
            invoke_pipeline(&gateway, &["s1", "s2"], vec![]).unwrap();
        }
        assert_eq!(gateway.slot_history("s1").len(), 1);
        assert_eq!(gateway.slot_history("s2").len(), 1);
        gateway.end_slot("s1");
        invoke_pipeline(&gateway, &["s1", "s2"], vec![]).unwrap();
        assert_eq!(gateway.slot_history("s1").len(), 2, "s1 re-planned");
        assert_eq!(gateway.slot_history("s2").len(), 1, "s2 untouched");
    }
}
