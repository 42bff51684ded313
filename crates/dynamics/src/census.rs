//! The census side of the dynamics ↔ simnet round-trip.
//!
//! [`CensusSnapshot`] rows record what one census of the live network
//! saw (true vs. observed instance counts plus the per-status failure
//! taxonomy of the probes), paced by a [`CensusCadence`]. The bridge
//! that mirrors engine events onto the network, and the async driver
//! that runs the crawler between ticks, live in the root
//! `fediscope::census` module, because the dynamics crate itself stays
//! crawler-free and server-free.

use fediscope_core::time::SimTime;
use serde::Serialize;

/// How often the round-trip driver re-runs the census, in ticks.
///
/// `every_ticks = 1` censuses after every tick; the default of 6 (one
/// simulated day of 4-hour ticks) matches the paper's daily reporting
/// granularity while keeping crawl volume manageable.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CensusCadence {
    /// Ticks between censuses. A census always runs after tick 0 and
    /// after the final tick, whatever the cadence.
    pub every_ticks: u64,
}

impl Default for CensusCadence {
    fn default() -> Self {
        CensusCadence { every_ticks: 6 }
    }
}

impl CensusCadence {
    /// Whether a census is due after `tick` of a `total_ticks` run.
    pub fn due(&self, tick: u64, total_ticks: u64) -> bool {
        tick == 0 || tick + 1 == total_ticks || tick.is_multiple_of(self.every_ticks.max(1))
    }
}

/// One census of the live network, mid-scenario: what the crawler saw
/// versus what was actually true.
///
/// `taxonomy` counts *instances* whose probe failed with each §3
/// status during this census — the paper's per-instance accounting —
/// in the paper's reporting order `[404, 403, 502, 503, 410]`, the
/// same order as `NetStats::failure_taxonomy()` (which keeps the
/// request-level cumulative view on the net itself).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CensusSnapshot {
    /// Tick after which the census ran.
    pub tick: u64,
    /// Logical time of that tick.
    pub at: SimTime,
    /// Ground truth: Pleroma instances in the engine state.
    pub true_total: u64,
    /// Ground truth: Pleroma instances answering the network.
    pub true_up: u64,
    /// Pleroma instances the crawler successfully crawled.
    pub observed: u64,
    /// Instances whose probe answered a failure status.
    pub failed_probes: u64,
    /// Instances the crawler never reached (no endpoint, no injection).
    pub unreachable: u64,
    /// §3 status-code counts for this census: `[404, 403, 502, 503, 410]`.
    pub taxonomy: [u64; 5],
}

impl CensusSnapshot {
    /// The census under-count: live Pleroma instances the crawl missed.
    /// Negative only in the pathological case of an instance dying
    /// between its probe and the end of the tick's census.
    pub fn undercount(&self) -> i64 {
        self.true_up as i64 - self.observed as i64
    }

    /// Under-count as a share of the live fleet (0 when nothing is up).
    pub fn undercount_share(&self) -> f64 {
        if self.true_up == 0 {
            0.0
        } else {
            self.undercount() as f64 / self.true_up as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_hits_endpoints_and_period() {
        let c = CensusCadence { every_ticks: 5 };
        assert!(c.due(0, 12));
        assert!(c.due(5, 12));
        assert!(c.due(10, 12));
        assert!(c.due(11, 12), "final tick always censuses");
        assert!(!c.due(3, 12));
        // Degenerate cadence never divides by zero.
        let z = CensusCadence { every_ticks: 0 };
        assert!(z.due(7, 12));
    }

    #[test]
    fn undercount_math() {
        let snap = CensusSnapshot {
            tick: 3,
            at: SimTime(0),
            true_total: 100,
            true_up: 80,
            observed: 72,
            failed_probes: 20,
            unreachable: 0,
            taxonomy: [10, 5, 3, 1, 1],
        };
        assert_eq!(snap.undercount(), 8);
        assert!((snap.undercount_share() - 0.1).abs() < 1e-12);
        let empty = CensusSnapshot {
            true_up: 0,
            observed: 0,
            ..snap
        };
        assert_eq!(empty.undercount_share(), 0.0);
    }
}
