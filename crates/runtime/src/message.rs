//! Invocation protocol types exchanged between the gateway and edge
//! devices, plus the runtime's error types.

use std::error::Error as StdError;
use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// A microservice invocation request sent by the gateway's strategy
/// executor to a provider.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Invocation {
    /// Correlates the invocation with a client service request.
    pub request_id: u64,
    /// Capability being invoked (e.g. `"detect-smoke-camera"`).
    pub capability: String,
    /// Opaque request payload.
    pub payload: Vec<u8>,
}

impl Invocation {
    /// Creates an invocation.
    #[must_use]
    pub fn new(request_id: u64, capability: impl Into<String>, payload: Vec<u8>) -> Self {
        Invocation {
            request_id,
            capability: capability.into(),
            payload,
        }
    }
}

/// Why a microservice invocation failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum InvokeError {
    /// The device executed the microservice but it reported failure
    /// (e.g. the speech recognizer was defeated by noise).
    ExecutionFailed {
        /// Human-readable failure reason.
        reason: String,
    },
    /// The device was unreachable (moved away, asleep, powered down).
    DeviceUnavailable,
    /// The device does not host the requested capability.
    UnknownCapability {
        /// The capability that was requested.
        capability: String,
    },
    /// The device is at its concurrency capacity and rejected the
    /// invocation immediately (scarce shared resources — paper §VII).
    Overloaded,
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::ExecutionFailed { reason } => write!(f, "execution failed: {reason}"),
            InvokeError::DeviceUnavailable => write!(f, "device unavailable"),
            InvokeError::UnknownCapability { capability } => {
                write!(f, "unknown capability {capability:?}")
            }
            InvokeError::Overloaded => write!(f, "device at capacity"),
        }
    }
}

impl StdError for InvokeError {}

/// The result of one microservice invocation as observed by the executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationOutcome {
    /// Provider that served (or failed to serve) the invocation.
    pub provider_id: String,
    /// Capability invoked.
    pub capability: String,
    /// `Some(payload)` on success, `None` on failure.
    pub payload: Option<Vec<u8>>,
    /// Wall-clock time the invocation took.
    pub latency: Duration,
    /// Cost charged (full provider cost — Assumption 2).
    pub cost: f64,
    /// Whether the invocation succeeded.
    pub success: bool,
}

/// Errors surfaced to gateway/client callers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The service script could not be found in the market.
    UnknownService {
        /// The requested service id.
        service_id: String,
    },
    /// The market transport failed (e.g. unreadable script file).
    Market {
        /// Description of the failure.
        reason: String,
    },
    /// A script references a capability for which no device has registered
    /// a provider.
    NoProvider {
        /// The unprovided capability.
        capability: String,
    },
    /// The script's strategy expression or QoS values are malformed.
    InvalidScript {
        /// Description of the problem.
        reason: String,
    },
    /// Strategy generation failed.
    Generation {
        /// Description of the problem.
        reason: String,
    },
    /// The gateway shed the request: the service was at its in-flight
    /// limit and its admission queue was full (or the request was
    /// preempted out of a queue slot by a higher class). Carries the
    /// request's class and the queue depth at shed time so callers can
    /// react per class — back off a Scavenger, retry a Critical —
    /// without string matching.
    Overloaded {
        /// The service whose admission queue rejected the request.
        service_id: String,
        /// Traffic class of the shed request.
        class: crate::request::QosClass,
        /// Requests waiting in the admission queue when the shed happened.
        queue_depth: u64,
    },
    /// The request's deadline had already passed when it reached the
    /// gateway (a zero or stale deadline), or expired while the request
    /// was still queued for admission — it was rejected before charging
    /// any invocation cost.
    DeadlineExceeded {
        /// The service the request targeted.
        service_id: String,
        /// Traffic class of the expired request.
        class: crate::request::QosClass,
    },
    /// The gateway (or engine) was shut down or the service evicted while
    /// the request was in flight; the request was abandoned without a
    /// result.
    Shutdown,
    /// The operating system refused the gateway its first event-loop
    /// thread, so an asynchronous request had nothing to run on. Nothing
    /// was admitted; a later submission tries again.
    LoopSpawn {
        /// The operating system's error.
        reason: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownService { service_id } => {
                write!(f, "service {service_id:?} not found in the market")
            }
            RuntimeError::Market { reason } => write!(f, "market error: {reason}"),
            RuntimeError::NoProvider { capability } => {
                write!(f, "no registered provider for capability {capability:?}")
            }
            RuntimeError::InvalidScript { reason } => {
                write!(f, "invalid service script: {reason}")
            }
            RuntimeError::Generation { reason } => {
                write!(f, "strategy generation failed: {reason}")
            }
            RuntimeError::Overloaded {
                service_id,
                class,
                queue_depth,
            } => {
                write!(
                    f,
                    "service {service_id:?} overloaded: {class} request shed \
                     ({queue_depth} queued)"
                )
            }
            RuntimeError::DeadlineExceeded { service_id, class } => {
                write!(
                    f,
                    "service {service_id:?}: {class} request deadline expired \
                     before execution"
                )
            }
            RuntimeError::Shutdown => {
                write!(f, "runtime shut down while the request was in flight")
            }
            RuntimeError::LoopSpawn { reason } => {
                write!(f, "could not start an event-loop thread: {reason}")
            }
        }
    }
}

impl StdError for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_constructor() {
        let inv = Invocation::new(7, "detect-fire", vec![1, 2]);
        assert_eq!(inv.request_id, 7);
        assert_eq!(inv.capability, "detect-fire");
        assert_eq!(inv.payload, vec![1, 2]);
    }

    #[test]
    fn error_displays() {
        assert!(InvokeError::DeviceUnavailable
            .to_string()
            .contains("unavailable"));
        assert!(InvokeError::ExecutionFailed {
            reason: "noise".into()
        }
        .to_string()
        .contains("noise"));
        assert!(InvokeError::UnknownCapability {
            capability: "x".into()
        }
        .to_string()
        .contains('x'));
        assert!(RuntimeError::UnknownService {
            service_id: "s".into()
        }
        .to_string()
        .contains('s'));
        assert!(RuntimeError::NoProvider {
            capability: "c".into()
        }
        .to_string()
        .contains('c'));
        assert!(RuntimeError::Market {
            reason: "io".into()
        }
        .to_string()
        .contains("io"));
        assert!(RuntimeError::InvalidScript {
            reason: "bad".into()
        }
        .to_string()
        .contains("bad"));
        assert!(RuntimeError::Generation {
            reason: "none".into()
        }
        .to_string()
        .contains("none"));
        let overloaded = RuntimeError::Overloaded {
            service_id: "svc".into(),
            class: crate::request::QosClass::Scavenger,
            queue_depth: 3,
        }
        .to_string();
        assert!(overloaded.contains("shed"), "{overloaded}");
        assert!(overloaded.contains("scavenger"), "{overloaded}");
        assert!(overloaded.contains('3'), "{overloaded}");
        let expired = RuntimeError::DeadlineExceeded {
            service_id: "svc".into(),
            class: crate::request::QosClass::Critical,
        }
        .to_string();
        assert!(expired.contains("deadline"), "{expired}");
        assert!(expired.contains("critical"), "{expired}");
        assert!(RuntimeError::Shutdown.to_string().contains("shut down"));
        assert!(RuntimeError::LoopSpawn {
            reason: "EAGAIN".into()
        }
        .to_string()
        .contains("EAGAIN"));
    }

    #[test]
    fn serde_round_trips() {
        let inv = Invocation::new(1, "cap", vec![9]);
        let back: Invocation = serde_json::from_str(&serde_json::to_string(&inv).unwrap()).unwrap();
        assert_eq!(inv, back);
        let err = InvokeError::DeviceUnavailable;
        let back: InvokeError =
            serde_json::from_str(&serde_json::to_string(&err).unwrap()).unwrap();
        assert_eq!(err, back);
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InvokeError>();
        assert_send_sync::<RuntimeError>();
        assert_send_sync::<InvocationOutcome>();
    }
}
