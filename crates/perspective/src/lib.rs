//! # fediscope-perspective
//!
//! A synthetic stand-in for Google's Perspective API, which the paper used
//! to score all posts of reject-targeted instances on three attributes:
//! **toxicity**, **profanity** and **sexually explicit** content (§3,
//! *Harmful Classifications*).
//!
//! The real Perspective API is a paid, rate-limited ML service whose scores
//! drift over time; reproducing the paper requires a deterministic scorer
//! with the same interface and the same downstream semantics:
//!
//! * scores are probabilities in `[0, 1]` per attribute;
//! * a post is *harmful* if any attribute scores ≥ 0.8 (the threshold the
//!   paper takes from the Perspective developers);
//! * a user is *harmful* if the average of their posts' scores crosses the
//!   threshold on any attribute.
//!
//! Our scorer ([`Scorer`]) counts weighted lexicon hits and maps the hit
//! density through a saturating curve — monotone in the density of
//! offending vocabulary and analytically invertible, which is what lets
//! `fediscope-synthgen` author text that *measures* at a chosen score, the
//! same way real toxic communities produced high-scoring content for the
//! paper's crawl.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod lexicon;
pub mod reference;
mod scorer;
mod unified;

pub use lexicon::{lexicon_for, Lexicon, BENIGN_WORDS, LEXICONS};
pub use scorer::{Attribute, AttributeScores, Scorer};
pub use unified::{UnifiedLexicon, WeightRow};
