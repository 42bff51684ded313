//! # fediscope-core
//!
//! Domain model and MRF (Message Rewrite Facility) policy engine for the
//! fediscope reproduction of *"Exploring Content Moderation in the
//! Decentralised Web: The Pleroma Case"* (ACM CoNEXT 2021).
//!
//! This crate contains everything the rest of the workspace agrees on:
//!
//! * identifiers and the simulated clock ([`id`], [`time`]),
//! * the data model of the fediverse — instances, users, posts and
//!   ActivityPub-style activities ([`model`]),
//! * the **MRF policy engine**: the [`mrf::MrfPolicy`] trait, the
//!   [`mrf::MrfPipeline`] that composes policies exactly like Pleroma's
//!   `:mrf, policies: [...]` configuration, and implementations of every
//!   in-built Pleroma policy named in the paper (plus the admin-created
//!   custom policies of Figure 7 and the "strawman" policies of §7),
//! * the [`catalog`] of all 46 policy types observed in the wild, with the
//!   descriptions of the paper's Table 3,
//! * per-instance moderation configuration ([`config`]) in the shape the
//!   paper's crawler retrieved from the instance metadata API,
//! * the paper's reported numbers as constants ([`paper`]), shared by the
//!   calibration machinery and the experiment harness,
//! * the §3 failure taxonomy ([`failure`]): the status codes unreachable
//!   instances answer with and whether a failed delivery is retried.
//!
//! The crate is deliberately free of networking and randomness: it is the
//! deterministic heart that `fediscope-server` runs online and
//! `fediscope-analysis` reasons about offline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod config;
pub mod failure;
pub mod id;
pub mod model;
pub mod mrf;
pub mod paper;
pub mod rollout;
pub mod time;

pub use catalog::{PolicyCatalog, PolicyEntry, PolicyKind};
pub use config::{InstanceModerationConfig, PolicyConfig};
pub use id::{ActivityId, Domain, InstanceId, PostId, UserId, UserRef};
pub use model::{
    Activity, ActivityKind, ActivityPayload, InstanceKind, InstanceProfile, MediaAttachment, Post,
    SoftwareVersion, User, Visibility,
};
pub use mrf::{
    EffectSink, FilterOutcome, MrfPipeline, MrfPolicy, PolicyContext, PolicyVerdict, RejectReason,
    SideEffect,
};
pub use rollout::{PolicyRollout, RolloutWave};
pub use time::{SimDuration, SimTime};
