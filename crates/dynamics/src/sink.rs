//! The event-sink hook: mirroring engine state onto external systems.
//!
//! The engine's state lives entirely in memory ([`NetworkState`]); a
//! sink lets an external system — a live `SimNet` the crawler probes,
//! a metrics collector, a test recorder — track the same evolution
//! without the engine knowing anything about it. Sinks are strictly
//! one-way observers: they receive events *after* application and can
//! never influence the control phase, so attaching one cannot perturb
//! the determinism contract (same seed ⇒ bit-identical trace).

use crate::event::Event;
use crate::state::NetworkState;

/// Observes the engine's state transitions.
///
/// Implemented by `fediscope::census::LiveNetBridge` to keep a shared `SimNet`
/// in step with the simulation; tests implement it to record event
/// streams.
pub trait EventSink {
    /// Full-state resynchronisation. Called by
    /// [`crate::DynamicsEngine::begin`] after the scenario's `init` ran:
    /// scenarios rewrite state directly there (churn resets every
    /// failure mode, rollouts strip moderation), and none of those
    /// rewrites flow through the event queue.
    fn sync(&mut self, state: &NetworkState);

    /// Called after the engine applied `event` during a control phase.
    /// `applied` is false when the event was a no-op on engine state
    /// (link already gone, rate unchanged, ...); `state` is the
    /// post-application state.
    fn on_event(&mut self, event: &Event, applied: bool, state: &NetworkState);
}
