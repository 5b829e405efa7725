//! Client-side view of the gateway (paper Fig. 4: "a client device sends
//! edge service requests, identified by a unique ServiceID, to its
//! connected gateway").
//!
//! The client wraps a shared gateway handle and implements the advisory
//! protocol of Section IV.C: when the gateway reports that the generated
//! strategy cannot meet the QoS requirements, a configurable policy decides
//! whether the request proceeds.

use std::sync::Arc;

use crate::gateway::{Gateway, QosAdvisory, ServiceResponse};
use crate::message::RuntimeError;
use crate::request::Request;

/// What a client does when the gateway warns that requirements cannot be
/// met.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdvisoryPolicy {
    /// Proceed with the degraded QoS (best-effort — the paper's default
    /// stance for edge applications that have no alternative).
    #[default]
    Continue,
    /// Abort the request instead of accepting degraded QoS.
    Abort,
}

/// Error returned when a request is aborted under
/// [`AdvisoryPolicy::Abort`].
#[derive(Debug, Clone, PartialEq)]
pub struct QosRejected {
    /// The advisory that triggered the abort.
    pub advisory: QosAdvisory,
}

impl std::fmt::Display for QosRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request aborted: estimated QoS {} misses {} requirement(s)",
            self.advisory.estimated,
            self.advisory.violations.len()
        )
    }
}

impl std::error::Error for QosRejected {}

/// Errors surfaced by [`Client::invoke`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClientError {
    /// Gateway-side failure.
    Runtime(RuntimeError),
    /// The advisory policy rejected the degraded QoS.
    Rejected(QosRejected),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Runtime(e) => write!(f, "{e}"),
            ClientError::Rejected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Runtime(e) => Some(e),
            ClientError::Rejected(e) => Some(e),
        }
    }
}

impl From<RuntimeError> for ClientError {
    fn from(e: RuntimeError) -> Self {
        ClientError::Runtime(e)
    }
}

/// A client bound to a gateway.
#[derive(Debug, Clone)]
pub struct Client {
    gateway: Arc<Gateway>,
    policy: AdvisoryPolicy,
}

impl Client {
    /// Creates a client with the default best-effort advisory policy.
    #[must_use]
    pub fn new(gateway: Arc<Gateway>) -> Self {
        Client {
            gateway,
            policy: AdvisoryPolicy::default(),
        }
    }

    /// Sets the advisory policy.
    #[must_use]
    pub fn with_policy(mut self, policy: AdvisoryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Invokes an edge service by id with an empty payload.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Runtime`] on gateway failures, or
    /// [`ClientError::Rejected`] when the advisory policy is
    /// [`AdvisoryPolicy::Abort`] and the gateway expects the requirements
    /// to be missed.
    pub fn invoke(&self, service_id: &str) -> Result<ServiceResponse, ClientError> {
        self.submit(Request::new(service_id))
    }

    /// Submits a typed [`Request`], applying the client's advisory policy
    /// to the response.
    ///
    /// # Errors
    ///
    /// See [`Client::invoke`].
    pub fn submit(&self, request: Request) -> Result<ServiceResponse, ClientError> {
        let response = self.gateway.submit(request)?;
        if let (AdvisoryPolicy::Abort, Some(advisory)) = (self.policy, &response.advisory) {
            return Err(ClientError::Rejected(QosRejected {
                advisory: advisory.clone(),
            }));
        }
        Ok(response)
    }

    /// The underlying gateway handle.
    #[must_use]
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.gateway
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimulatedProvider;
    use crate::gateway::GatewayConfig;
    use crate::market::InMemoryMarket;
    use crate::script::{MsSpec, ServiceScript};
    use qce_strategy::{Qos, Requirements};
    use std::time::Duration;

    fn gateway(requirements: Requirements, reliability: f64) -> Arc<Gateway> {
        let market = InMemoryMarket::new();
        let mut script = ServiceScript::new(
            "svc",
            vec![MsSpec {
                name: "only".into(),
                capability: "cap".into(),
                prior: Qos::new(50.0, 5.0, 0.7).unwrap(),
            }],
            requirements,
        );
        script.slot_size = 2;
        market.publish(script).unwrap();
        let gateway = Gateway::new(Box::new(market), GatewayConfig::default());
        gateway.registry().register(
            SimulatedProvider::builder("dev/cap", "cap")
                .cost(50.0)
                .latency(Duration::from_millis(1))
                .reliability(reliability)
                .build(),
        );
        Arc::new(gateway)
    }

    #[test]
    fn continue_policy_returns_degraded_responses() {
        let gw = gateway(Requirements::new(1.0, 1.0, 0.999).unwrap(), 0.5);
        let client = Client::new(gw);
        // Burn through slot 0 (default strategy, no generation advisory
        // logic needed) into generated slots.
        for _ in 0..4 {
            let _ = client.invoke("svc");
        }
        let response = client.invoke("svc").expect("best-effort continues");
        assert!(response.advisory.is_some());
    }

    #[test]
    fn abort_policy_rejects_degraded_responses() {
        let gw = gateway(Requirements::new(1.0, 1.0, 0.999).unwrap(), 0.5);
        let client = Client::new(Arc::clone(&gw)).with_policy(AdvisoryPolicy::Abort);
        for _ in 0..4 {
            let _ = gw.submit(Request::new("svc"));
        }
        let err = client.invoke("svc").unwrap_err();
        match err {
            ClientError::Rejected(rejected) => {
                assert!(!rejected.advisory.violations.is_empty());
                assert!(rejected.to_string().contains("aborted"));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn satisfiable_requirements_never_reject() {
        let gw = gateway(Requirements::new(1000.0, 1000.0, 0.1).unwrap(), 1.0);
        let client = Client::new(gw).with_policy(AdvisoryPolicy::Abort);
        for _ in 0..6 {
            assert!(client.invoke("svc").is_ok());
        }
    }

    #[test]
    fn runtime_errors_propagate() {
        let gw = gateway(Requirements::new(10.0, 10.0, 0.5).unwrap(), 1.0);
        let client = Client::new(gw);
        assert!(matches!(
            client.invoke("missing"),
            Err(ClientError::Runtime(RuntimeError::UnknownService { .. }))
        ));
    }

    #[test]
    fn error_display_and_source() {
        let err = ClientError::from(RuntimeError::Market {
            reason: "io".into(),
        });
        assert!(err.to_string().contains("io"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
