//! The MRF (Message Rewrite Facility) policy engine.
//!
//! Pleroma moderates federation traffic by passing every activity through a
//! configurable chain of *policies*. Each policy may pass the activity
//! through unchanged, rewrite it (e.g. strip media, force NSFW, de-list),
//! or reject it outright — mirroring Pleroma's `MRF.filter/1` contract of
//! `{:ok, object} | {:reject, reason}`. Administrators enable policies and
//! point them at target instances; the paper measures exactly this
//! configuration surface.
//!
//! This module defines:
//!
//! * [`MrfPolicy`] — the policy trait;
//! * [`PolicyContext`] — read-only environment (local domain, simulated
//!   clock, actor directory) plus a side-effect sink;
//! * [`PolicyVerdict`] / [`RejectReason`] — the filter result;
//! * [`MrfPipeline`] — ordered composition with short-circuit on reject and
//!   a per-policy decision trace.
//!
//! Policy implementations live in the sibling modules, one file per policy
//! family, each carrying its configuration knobs and unit tests.

mod context;
mod pipeline;
#[cfg(test)]
mod proptests;
mod verdict;

pub mod policies;

pub use context::{
    ActorDirectory, EffectSink, NullActorDirectory, PolicyContext, ProfileImage, SideEffect,
};
pub use pipeline::{FilterOutcome, MrfPipeline, PolicyDecision, PolicyTrace};
pub use verdict::{PolicyVerdict, RejectReason};

use crate::catalog::PolicyKind;
use crate::model::Activity;
use crate::time::SimTime;

/// Verdict of the borrow-based fast path ([`MrfPolicy::judge_ref`]).
///
/// Unlike [`PolicyVerdict`], a rejection carries only the rejecting
/// policy's [`PolicyKind`] — no allocated reason string — so bulk
/// simulation can tally millions of verdicts without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefVerdict {
    /// The activity would flow through this policy unchanged.
    Pass,
    /// The activity would be rejected by the named policy.
    Reject(PolicyKind),
    /// This policy would (or might) rewrite the activity; the caller
    /// must fall back to the owning [`MrfPolicy::filter`] path.
    NeedsClone,
}

/// A single MRF policy.
///
/// Implementations must be cheap to call and free of interior mutability
/// except through the [`PolicyContext`]'s effect sink: the same policy
/// object is shared across every activity an instance ingests.
pub trait MrfPolicy: Send + Sync {
    /// Which catalog entry this policy implements.
    fn kind(&self) -> PolicyKind;

    /// Filter one activity: pass it through (possibly rewritten) or reject.
    fn filter(&self, ctx: &PolicyContext<'_>, activity: Activity) -> PolicyVerdict;

    /// Whether this policy may *rewrite* activities it passes through.
    ///
    /// `false` promises that every `Pass` verdict returns the activity
    /// byte-identical to its input (rejections and side effects are still
    /// allowed). The default is the conservative `true`; pure policies
    /// override it so [`MrfPipeline::filter_fast_ref`] can judge borrowed
    /// activities without cloning. Only the default
    /// [`judge_ref`](Self::judge_ref) reads it, so a policy that overrides
    /// `judge_ref` has no use for it.
    fn rewrites_content(&self) -> bool {
        true
    }

    /// Judge a borrowed activity as if its `published` stamp (and the
    /// enclosed post's `created` stamp) were `published`, without taking
    /// ownership.
    ///
    /// Must decide exactly as [`filter`](Self::filter) would on a clone
    /// stamped with `published`: `Pass` iff the clone would pass
    /// *unmodified*, `Reject` iff it would be rejected, and `NeedsClone`
    /// whenever this policy would rewrite this particular activity. The
    /// default delegates to `filter` on a stamped clone when
    /// [`rewrites_content`](Self::rewrites_content) is `false` (sound:
    /// such a policy never rewrites), and returns `NeedsClone` otherwise.
    /// Hot policies override this with a true borrow-based judgement.
    ///
    /// `NeedsClone` is always sound but never free: the caller clones
    /// the activity and walks the whole owned pipeline again, on every
    /// verdict that reaches this stage. Returning it for an activity the
    /// policy would pass unchanged is a silent slowdown. Before
    /// [`policies::TagPolicy`] judged by borrow, its default `NeedsClone`
    /// sent 933 K of the 1.0-scale storm's 13.24 M fresh verdicts per
    /// 120-tick run down that path — about 0.55 s of serial CPU, half of
    /// the receiver stage, on a 2-vCPU Xeon — although the engine's
    /// untagged directory meant the policy never rewrote anything. The
    /// clones' refcount writes on shared `Arc`s also kept that stage from
    /// scaling across workers. The dynamics engine counts these fallbacks
    /// (`measure_clone_fallbacks` in its telemetry), so a hot policy that
    /// loses its borrow path shows in a run's own output.
    fn judge_ref(
        &self,
        ctx: &PolicyContext<'_>,
        activity: &Activity,
        published: SimTime,
    ) -> RefVerdict {
        if self.rewrites_content() {
            return RefVerdict::NeedsClone;
        }
        let mut stamped = activity.clone();
        stamped.published = published;
        if let Some(post) = stamped.note_mut() {
            post.created = published;
        }
        match self.filter(ctx, stamped) {
            PolicyVerdict::Pass(_) => RefVerdict::Pass,
            PolicyVerdict::Reject(reason) => RefVerdict::Reject(reason.policy),
        }
    }

    /// Human-readable one-line summary of this policy's configuration,
    /// rendered into the instance metadata the crawler scrapes.
    fn describe(&self) -> String {
        self.kind().name().to_string()
    }

    /// Downcast to the concrete [`policies::SimplePolicy`], if this *is*
    /// one. The pipeline's delta API ([`MrfPipeline::apply_simple_delta`])
    /// uses this to mutate the compiled `SimplePolicy` stage in place
    /// instead of recompiling the whole chain; every other policy keeps
    /// the `None` default.
    fn as_simple(&self) -> Option<&policies::SimplePolicy> {
        None
    }

    /// Mutable variant of [`as_simple`](Self::as_simple), reachable only
    /// through a uniquely-owned stage (`Arc::get_mut`).
    fn as_simple_mut(&mut self) -> Option<&mut policies::SimplePolicy> {
        None
    }
}
