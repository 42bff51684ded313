//! # fediscope-simnet
//!
//! An in-memory simulated network standing in for the Internet the paper's
//! crawler ran over. Instances register HTTP-style endpoints under their
//! domain; clients issue requests by domain and get responses back over
//! tokio channels (one serving task per instance — requests to the same
//! instance are processed in order, like a single-queue server).
//!
//! The network injects the exact failure taxonomy of §3 — for the 236
//! unreachable Pleroma instances: 110×404, 84×403, 24×502, 11×503, 7×410 —
//! via per-domain [`FailureMode`]s, and keeps request statistics the crawl
//! census reports on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod http;
mod net;

pub use fediscope_core::failure::{FailureClass, FailureMode, StatusCode};
pub use http::{HttpRequest, HttpResponse, Method};
pub use net::{Endpoint, FailureTaxonomy, FnEndpoint, NetError, NetStats, SimNet};
