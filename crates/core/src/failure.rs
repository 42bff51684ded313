//! The paper's §3 failure taxonomy: the HTTP status codes an unreachable
//! instance answers with, the per-domain [`FailureMode`] that forces one,
//! and the [`FailureClass`] that says whether a failed delivery is worth
//! retrying. Plain data, shared by the simulated network that injects
//! these failures and the engine that replays them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 202 Accepted (inbox deliveries).
    pub const ACCEPTED: StatusCode = StatusCode(202);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 403 Forbidden — "instances require authorisation for timeline
    /// viewing" (§3).
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 410 Gone.
    pub const GONE: StatusCode = StatusCode(410);
    /// 502 Bad Gateway.
    pub const BAD_GATEWAY: StatusCode = StatusCode(502);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// Whether this is a 2xx code.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How a domain answers requests.
///
/// §3: of 1,534 Pleroma instances, 236 could not be crawled — "110 are not
/// found (404 status code), 84 instances require authorisation for timeline
/// viewing (403), 24 result in bad gateway (502), 11 in service unavailable
/// (503), and 7 return gone (410)."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureMode {
    /// Requests reach the endpoint normally.
    Healthy,
    /// Every request answers 404.
    NotFound,
    /// Every request answers 403.
    Forbidden,
    /// Every request answers 502.
    BadGateway,
    /// Every request answers 503.
    Unavailable,
    /// Every request answers 410.
    Gone,
}

/// Whether a failed request is worth retrying.
///
/// The split follows Pleroma's federation publisher: 5xx gateway errors
/// (502/503) signal an instance that is down *right now* but may come
/// back — its queue retries them on a backoff schedule — while 4xx
/// answers (404 vanished, 403 auth-walled, 410 intentionally gone) and
/// DNS failures signal an instance that will never answer differently,
/// so the delivery dead-letters immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureClass {
    /// Retrying may succeed: the §3 502/503 outages and churn downtime.
    Transient,
    /// Retrying cannot succeed: 404/403/410 and dead DNS.
    Permanent,
}

impl FailureClass {
    /// Classifies a non-success HTTP status. Returns `None` for 2xx/3xx
    /// (the request succeeded; there is nothing to retry).
    pub fn of_status(status: StatusCode) -> Option<FailureClass> {
        match status.0 {
            200..=399 => None,
            500..=599 => Some(FailureClass::Transient),
            _ => Some(FailureClass::Permanent),
        }
    }
}

impl FailureMode {
    /// The status code this failure mode forces, if any.
    pub fn forced_status(self) -> Option<StatusCode> {
        match self {
            FailureMode::Healthy => None,
            FailureMode::NotFound => Some(StatusCode::NOT_FOUND),
            FailureMode::Forbidden => Some(StatusCode::FORBIDDEN),
            FailureMode::BadGateway => Some(StatusCode::BAD_GATEWAY),
            FailureMode::Unavailable => Some(StatusCode::SERVICE_UNAVAILABLE),
            FailureMode::Gone => Some(StatusCode::GONE),
        }
    }

    /// Whether this failure mode is worth retrying, if it is a failure
    /// at all (`None` for [`FailureMode::Healthy`]).
    pub fn class(self) -> Option<FailureClass> {
        self.forced_status().and_then(FailureClass::of_status)
    }

    /// The §3 failure modes with their paper-reported instance counts
    /// (useful for building calibrated failure plans).
    pub const PAPER_TAXONOMY: [(FailureMode, u32); 5] = [
        (FailureMode::NotFound, 110),
        (FailureMode::Forbidden, 84),
        (FailureMode::BadGateway, 24),
        (FailureMode::Unavailable, 11),
        (FailureMode::Gone, 7),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_forces_nothing() {
        assert_eq!(FailureMode::Healthy.forced_status(), None);
    }

    #[test]
    fn failure_modes_map_to_paper_status_codes() {
        assert_eq!(
            FailureMode::NotFound.forced_status(),
            Some(StatusCode::NOT_FOUND)
        );
        assert_eq!(
            FailureMode::Forbidden.forced_status(),
            Some(StatusCode::FORBIDDEN)
        );
        assert_eq!(
            FailureMode::BadGateway.forced_status(),
            Some(StatusCode::BAD_GATEWAY)
        );
        assert_eq!(
            FailureMode::Unavailable.forced_status(),
            Some(StatusCode::SERVICE_UNAVAILABLE)
        );
        assert_eq!(FailureMode::Gone.forced_status(), Some(StatusCode::GONE));
    }

    #[test]
    fn taxonomy_totals_236() {
        let total: u32 = FailureMode::PAPER_TAXONOMY.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 236);
    }

    #[test]
    fn gateway_errors_are_transient_the_rest_permanent() {
        assert_eq!(FailureMode::Healthy.class(), None);
        assert_eq!(
            FailureMode::BadGateway.class(),
            Some(FailureClass::Transient)
        );
        assert_eq!(
            FailureMode::Unavailable.class(),
            Some(FailureClass::Transient)
        );
        assert_eq!(FailureMode::NotFound.class(), Some(FailureClass::Permanent));
        assert_eq!(
            FailureMode::Forbidden.class(),
            Some(FailureClass::Permanent)
        );
        assert_eq!(FailureMode::Gone.class(), Some(FailureClass::Permanent));
    }

    #[test]
    fn status_classification_ignores_success() {
        assert_eq!(FailureClass::of_status(StatusCode::OK), None);
        assert_eq!(FailureClass::of_status(StatusCode::ACCEPTED), None);
        assert_eq!(
            FailureClass::of_status(StatusCode::BAD_REQUEST),
            Some(FailureClass::Permanent)
        );
        assert_eq!(
            FailureClass::of_status(StatusCode(500)),
            Some(FailureClass::Transient)
        );
    }
}
