//! Per-tick metrics — the engine's observable output.
//!
//! A [`DynamicsTrace`] is the contract the determinism guarantee is
//! stated over: the same seeds and scenario must produce a bit-identical
//! trace at any worker-thread count. [`DynamicsTrace::digest`] folds
//! every field (floats by bit pattern) into one `u64` so tests and
//! benches can compare whole runs cheaply.

use fediscope_core::failure::FailureMode;
use fediscope_core::time::SimTime;
use serde::Serialize;

/// Everything measured in one tick.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TickTrace {
    /// Tick index (0-based).
    pub tick: u64,
    /// Logical time of the tick.
    pub at: SimTime,
    /// Live federation links (undirected).
    pub links: u64,
    /// Instances answering the network.
    pub instances_up: u64,
    /// Instances that changed moderation since the run began.
    pub adopted: u64,
    /// Events applied in this tick's control phase.
    pub events: u64,
    /// Inbound post deliveries attempted.
    pub delivered: u64,
    /// Deliveries that passed the receiver's MRF pipeline.
    pub accepted: u64,
    /// Deliveries rejected by the receiver's MRF pipeline.
    pub rejected: u64,
    /// Deliveries lost to down receivers.
    pub failed: u64,
    /// Distinct `(receiver, author)` pairs rejected this tick.
    pub rejected_authors: u64,
    /// Toxic mass (max attribute score) of accepted deliveries.
    pub toxic_exposure: f64,
    /// Toxic mass the pipelines kept out (rejected deliveries).
    pub exposure_prevented: f64,
    /// Retry attempts that fired and rescheduled (receiver still in a
    /// transient outage, budget left). Zero unless the run enabled the
    /// reliability layer.
    pub retried: u64,
    /// Delivery batches redelivered to a recovered receiver.
    pub recovered: u64,
    /// Delivery batches given up on: retry budget exhausted, permanent
    /// receiver death, or mid-retry defederation.
    pub dead_lettered: u64,
    /// Down instances by §3 failure mode: `[404, 403, 502, 503, 410]`.
    pub failure_mix: Vec<u64>,
    /// Accepted toxic mass per receiving instance (seed index order).
    pub per_instance_exposure: Vec<f64>,
}

/// Index of a failure mode in [`TickTrace::failure_mix`].
pub fn failure_mix_index(mode: FailureMode) -> Option<usize> {
    match mode {
        FailureMode::Healthy => None,
        FailureMode::NotFound => Some(0),
        FailureMode::Forbidden => Some(1),
        FailureMode::BadGateway => Some(2),
        FailureMode::Unavailable => Some(3),
        FailureMode::Gone => Some(4),
    }
}

/// A whole run: scenario name, seed, and one [`TickTrace`] per tick.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DynamicsTrace {
    /// Scenario that produced the trace.
    pub scenario: String,
    /// Engine seed.
    pub seed: u64,
    /// Per-tick metrics, in tick order.
    pub ticks: Vec<TickTrace>,
}

impl DynamicsTrace {
    /// FNV-1a over every field, floats by bit pattern. Two traces are
    /// bit-identical iff their digests match (up to hash collisions —
    /// tests additionally compare with `==`, which `PartialEq` makes
    /// exact).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in self.scenario.bytes() {
            word(b as u64);
        }
        word(self.seed);
        for t in &self.ticks {
            for v in [
                t.tick,
                t.at.0,
                t.links,
                t.instances_up,
                t.adopted,
                t.events,
                t.delivered,
                t.accepted,
                t.rejected,
                t.failed,
                t.rejected_authors,
                t.toxic_exposure.to_bits(),
                t.exposure_prevented.to_bits(),
                t.retried,
                t.recovered,
                t.dead_lettered,
            ] {
                word(v);
            }
            for &c in &t.failure_mix {
                word(c);
            }
            for &e in &t.per_instance_exposure {
                word(e.to_bits());
            }
        }
        h
    }

    /// Total deliveries attempted across the run.
    pub fn total_delivered(&self) -> u64 {
        self.ticks.iter().map(|t| t.delivered).sum()
    }

    /// Total deliveries rejected across the run.
    pub fn total_rejected(&self) -> u64 {
        self.ticks.iter().map(|t| t.rejected).sum()
    }

    /// Total toxic mass that got through.
    pub fn total_exposure(&self) -> f64 {
        self.ticks.iter().map(|t| t.toxic_exposure).sum()
    }

    /// Total toxic mass the pipelines prevented.
    pub fn total_prevented(&self) -> f64 {
        self.ticks.iter().map(|t| t.exposure_prevented).sum()
    }

    /// Link count at the first tick.
    pub fn initial_links(&self) -> u64 {
        self.ticks.first().map(|t| t.links).unwrap_or(0)
    }

    /// Link count at the last tick.
    pub fn final_links(&self) -> u64 {
        self.ticks.last().map(|t| t.links).unwrap_or(0)
    }

    /// Total retry attempts that rescheduled across the run.
    pub fn total_retried(&self) -> u64 {
        self.ticks.iter().map(|t| t.retried).sum()
    }

    /// Total delivery batches recovered across the run.
    pub fn total_recovered(&self) -> u64 {
        self.ticks.iter().map(|t| t.recovered).sum()
    }

    /// Total delivery batches dead-lettered across the run.
    pub fn total_dead_lettered(&self) -> u64 {
        self.ticks.iter().map(|t| t.dead_lettered).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(tick: u64, exposure: f64) -> TickTrace {
        TickTrace {
            tick,
            at: SimTime(tick * 100),
            links: 10,
            instances_up: 5,
            adopted: 0,
            events: 0,
            delivered: 20,
            accepted: 18,
            rejected: 2,
            failed: 0,
            rejected_authors: 1,
            toxic_exposure: exposure,
            exposure_prevented: 0.5,
            retried: 3,
            recovered: 2,
            dead_lettered: 1,
            failure_mix: vec![0; 5],
            per_instance_exposure: vec![exposure],
        }
    }

    #[test]
    fn digest_separates_different_traces() {
        let a = DynamicsTrace {
            scenario: "x".into(),
            seed: 1,
            ticks: vec![tick(0, 1.0), tick(1, 2.0)],
        };
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
        b.ticks[1].toxic_exposure += 1e-9;
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a, b);
        // The reliability columns are digested too.
        let mut c = a.clone();
        c.ticks[0].recovered += 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn totals_sum_over_ticks() {
        let t = DynamicsTrace {
            scenario: "x".into(),
            seed: 1,
            ticks: vec![tick(0, 1.0), tick(1, 2.0)],
        };
        assert_eq!(t.total_delivered(), 40);
        assert_eq!(t.total_rejected(), 4);
        assert_eq!(t.total_retried(), 6);
        assert_eq!(t.total_recovered(), 4);
        assert_eq!(t.total_dead_lettered(), 2);
        assert!((t.total_exposure() - 3.0).abs() < 1e-12);
        assert!((t.total_prevented() - 1.0).abs() < 1e-12);
        assert_eq!(t.initial_links(), 10);
        assert_eq!(t.final_links(), 10);
    }

    #[test]
    fn failure_mix_indexing_covers_the_taxonomy() {
        assert_eq!(failure_mix_index(FailureMode::Healthy), None);
        let idx: Vec<usize> = FailureMode::PAPER_TAXONOMY
            .iter()
            .filter_map(|&(m, _)| failure_mix_index(m))
            .collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }
}
