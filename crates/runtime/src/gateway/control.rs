//! The gateway's runtime control plane: live per-service overrides.

use std::time::Duration;

use qce_strategy::Requirements;

use crate::request::QosClass;
use crate::telemetry::EventKind;

use super::Gateway;

/// Live per-service overrides set through [`GatewayControl`]. Applied to
/// every subsequent request that does not set the field explicitly,
/// without re-planning the slot.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct ServiceOverrides {
    pub(super) class: Option<QosClass>,
    pub(super) deadline: Option<Duration>,
    pub(super) requirement: Option<Requirements>,
}

impl ServiceOverrides {
    /// The requirement slot planning must satisfy under these overrides:
    /// the explicit requirement override, else the overridden class's
    /// default requirement derived from the script's, else the script's
    /// own. Mirrors the per-request resolution order (explicit request
    /// fields excluded — plans are per-service, not per-request).
    pub(super) fn planning_requirement(&self, base: &Requirements) -> Requirements {
        self.requirement.unwrap_or_else(|| {
            self.class
                .map_or(*base, |class| class.default_requirement(base))
        })
    }
}

/// Handle for live per-service overrides, obtained from
/// [`Gateway::control`].
///
/// Overrides retune a service mid-slot — no re-plan, no re-fetch. They
/// fill request fields that were not set explicitly (see the resolution
/// order on [`Gateway::submit`]) and apply from the next admission
/// decision on; requests already admitted are unaffected. Each setter
/// records exactly one telemetry event, so an operator replaying the
/// event ring can reconstruct the full override history.
///
/// # Examples
///
/// ```no_run
/// use qce_runtime::{Gateway, GatewayConfig, InMemoryMarket, QosClass};
///
/// let gateway = Gateway::new(Box::new(InMemoryMarket::new()), GatewayConfig::default());
/// gateway.control().set_class("temp", QosClass::Critical);
/// ```
#[derive(Debug)]
pub struct GatewayControl<'a> {
    pub(super) gateway: &'a Gateway,
}

impl GatewayControl<'_> {
    /// Overrides the traffic class of `service_id` for every subsequent
    /// request that does not set one explicitly. The class default
    /// requirement changes what planning must satisfy, so the service's
    /// cached plans are invalidated: the next slot boundary re-plans cold
    /// for the new class.
    pub fn set_class(&self, service_id: &str, class: QosClass) {
        let entry = self.gateway.service_entry(service_id);
        entry.overrides.lock().class = Some(class);
        self.gateway.invalidate_override_plans(service_id, &entry);
        self.gateway.telemetry.record(EventKind::OverrideApplied {
            service: service_id.to_string(),
            field: "class".to_string(),
            value: class.to_string(),
        });
    }

    /// Overrides the per-request deadline of `service_id` (`None` clears a
    /// previous override, falling back to the gateway configuration and
    /// the class default).
    pub fn set_deadline(&self, service_id: &str, deadline: Option<Duration>) {
        let entry = self.gateway.service_entry(service_id);
        entry.overrides.lock().deadline = deadline;
        self.gateway.telemetry.record(EventKind::OverrideApplied {
            service: service_id.to_string(),
            field: "deadline".to_string(),
            value: deadline.map_or_else(|| "none".to_string(), |d| format!("{}ms", d.as_millis())),
        });
    }

    /// Overrides the QoS requirement requests of `service_id` are judged
    /// against (the response advisory reports violations of this
    /// requirement instead of the script's) — and that slot planning must
    /// satisfy from the next boundary on. Plans cached under the old
    /// requirement are invalidated so the next re-plan runs cold against
    /// the new one.
    pub fn set_requirement(&self, service_id: &str, requirement: Requirements) {
        let entry = self.gateway.service_entry(service_id);
        entry.overrides.lock().requirement = Some(requirement);
        self.gateway.invalidate_override_plans(service_id, &entry);
        self.gateway.telemetry.record(EventKind::OverrideApplied {
            service: service_id.to_string(),
            field: "requirement".to_string(),
            value: requirement.to_string(),
        });
    }
}
