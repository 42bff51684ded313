//! The event queue: a time-bucketed calendar over logical time.
//!
//! Events are ordered by `(time, sequence)` — the sequence number is
//! assigned at scheduling time, so two events scheduled for the same tick
//! pop in scheduling order. That total order is what makes a run
//! replayable: the control phase (event application) is single-threaded
//! and consumes events in exactly this order, regardless of how the
//! measurement phase fans out.
//!
//! The queue was a binary heap through PR 3; 100 K-event floods spend
//! real time sifting 40-byte elements through log-depth levels, so it is
//! now a calendar: a `BTreeMap` from fire time to the bucket of events
//! scheduled for that instant. Appends within a bucket arrive in
//! ascending sequence order by construction (the counter is monotone),
//! so a bucket is popped front to back — O(1) per event — and the map
//! keeps buckets time-ordered. Scheduling into an *earlier* due bucket
//! mid-drain (a zero-delay follow-up) stays correct because every pop
//! re-reads the first bucket.

use fediscope_core::failure::FailureMode;
use fediscope_core::rollout::RolloutWave;
use fediscope_core::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A state transition the engine knows how to apply.
///
/// Instances are addressed by their seed index (dense `u32`), not by
/// domain: event application is the hot control path of cascade runs and
/// never needs a hash lookup. Wave payloads ride behind an `Arc` so a
/// shared blocklist import (one wave, thousands of adopters) schedules
/// by refcount bump instead of deep-cloning target lists per instance.
#[derive(Debug, Clone)]
pub enum Event {
    /// A staged-rollout wave lands on an instance: enable the wave's
    /// policy kinds and merge its `SimplePolicy` targets.
    AdoptWave {
        /// Adopting instance.
        instance: u32,
        /// The wave to apply (shared — imports schedule one wave to
        /// many instances).
        wave: Arc<RolloutWave>,
    },
    /// `instance` defederates from `target`: reject-lists the target's
    /// domain and tears the federation link down.
    Defederate {
        /// The blocking instance.
        instance: u32,
        /// The blocked instance.
        target: u32,
    },
    /// The instance stops answering, in the given §3 failure mode.
    GoDown {
        /// The failing instance.
        instance: u32,
        /// How it fails (404/403/502/503/410).
        mode: FailureMode,
    },
    /// The instance comes back.
    Recover {
        /// The recovering instance.
        instance: u32,
    },
    /// Sets the instance's emission-rate multiplier (storm bursts).
    SetRate {
        /// The instance whose posting rate changes.
        instance: u32,
        /// New multiplier (1.0 = baseline).
        rate: f64,
    },
    /// A scheduled redelivery attempt for a batch that failed
    /// transiently: `sender` retries its pending deliveries to
    /// `receiver`. Scheduled by the engine itself when a retry-enabled
    /// run sees an instance go down in a transient §3 mode; fires on the
    /// same calendar as every other event, so the backoff schedule is
    /// part of the deterministic total order.
    RetryDelivery {
        /// The instance retrying its outbound batch.
        sender: u32,
        /// The instance the batch is addressed to.
        receiver: u32,
        /// Which attempt this is (1-based; bounded by the retry budget).
        attempt: u32,
        /// Posts riding in the batch (what was lost when the receiver
        /// went down; 0 under `emission_cap: 0` flood configs — the
        /// batch itself is still tracked).
        posts: u64,
    },
}

/// An event with its scheduled time and tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling order among same-time events.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

/// A deterministic future-event list: a calendar of per-instant buckets,
/// consumed in exact `(time, sequence)` order.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Fire time → events at that instant, each bucket in ascending
    /// `seq` order (appends only; the counter is monotone).
    buckets: BTreeMap<SimTime, VecDeque<(u64, Event)>>,
    next_seq: u64,
    pending: usize,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.buckets.entry(at).or_default().push_back((seq, event));
    }

    /// Pops the earliest event due at or before `now`, if any — O(1)
    /// per event plus amortised bucket bookkeeping.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Scheduled> {
        let mut entry = self.buckets.first_entry()?;
        let at = *entry.key();
        if at > now {
            return None;
        }
        let bucket = entry.get_mut();
        let (seq, event) = bucket.pop_front().expect("buckets are never left empty");
        if bucket.is_empty() {
            entry.remove();
        }
        self.pending -= 1;
        Some(Scheduled { at, seq, event })
    }

    /// When the next event fires, if any are pending.
    pub fn next_at(&self) -> Option<SimTime> {
        self.buckets.keys().next().copied()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(instance: u32, rate: f64) -> Event {
        Event::SetRate { instance, rate }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(20), rate(1, 1.0));
        q.schedule(SimTime(10), rate(2, 1.0));
        q.schedule(SimTime(10), rate(3, 1.0));
        q.schedule(SimTime(30), rate(4, 1.0));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop_due(SimTime(25)))
            .map(|s| (s.at.0, s.seq))
            .collect();
        // Same-time events keep scheduling order (seq 1 before seq 2);
        // the t=30 event is not yet due.
        assert_eq!(order, vec![(10, 1), (10, 2), (20, 0)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_at(), Some(SimTime(30)));
    }

    #[test]
    fn mid_drain_scheduling_into_an_earlier_instant_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(20), rate(1, 1.0));
        q.schedule(SimTime(10), rate(2, 1.0));
        let first = q.pop_due(SimTime(25)).unwrap();
        assert_eq!((first.at.0, first.seq), (10, 1));
        // A zero-delay follow-up lands between already-queued instants
        // (earlier bucket, later seq) and still pops in time order; a
        // same-instant follow-up pops after the bucket's earlier seqs.
        q.schedule(SimTime(15), rate(3, 1.0));
        q.schedule(SimTime(20), rate(4, 1.0));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop_due(SimTime(25)))
            .map(|s| (s.at.0, s.seq))
            .collect();
        assert_eq!(order, vec![(15, 2), (20, 0), (20, 3)]);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 4);
    }

    #[test]
    fn empty_queue_pops_nothing() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop_due(SimTime(u64::MAX)).is_none());
        assert_eq!(q.scheduled_total(), 0);
    }
}
