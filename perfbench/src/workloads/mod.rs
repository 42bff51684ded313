//! The three workloads. Each runs one closed-loop iteration per call:
//! every layer call is wrapped in a [`Tracer`] span, and the outputs are
//! checked before the iteration returns.

pub mod campaign;
pub mod experiment;
pub mod storm;

use crate::trace::Tracer;
use fediscope::dynamics::TickTrace;
use std::path::PathBuf;

/// What every iteration of a workload runs against.
pub struct Ctx {
    /// Input seed: the engine seed of `storm` and `experiment`, the
    /// crawl's seed-directory order in `campaign`.
    pub seed: u64,
    /// Scratch directory inside the checkout (shard files live here).
    pub work_dir: PathBuf,
}

/// The world every workload runs on: the paper-calibrated configuration
/// (seed 1534, scale 1.0: 9,969 instances). It is fixed rather than drawn
/// from the input seed because worlds from different seeds differ by
/// tens of percent in work, which would swamp every comparison.
pub fn world_config() -> fediscope::synthgen::WorldConfig {
    fediscope::synthgen::WorldConfig::paper()
}

/// Output checks of one iteration (or of a once-per-run oracle).
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that did not hold, with what went wrong.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Folds another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Every tick of `ticks` must deliver exactly what it accepted plus
    /// what it rejected.
    pub fn tick_identity(&mut self, label: &str, ticks: &[TickTrace]) {
        for t in ticks {
            self.check(t.delivered == t.accepted + t.rejected, || {
                format!(
                    "{label} tick {}: delivered {} != accepted {} + rejected {}",
                    t.tick, t.delivered, t.accepted, t.rejected
                )
            });
        }
    }
}

/// One completed iteration.
pub struct Iteration {
    /// Deliveries the throughput metric counts (engine deliveries, or
    /// posts the crawler collected).
    pub deliveries: u64,
    /// Values that must repeat exactly in every iteration of a run:
    /// output digests and work counts.
    pub fingerprint: Vec<(String, u64)>,
    /// Live-heap growth across state construction, in bytes (traced
    /// iterations only).
    pub state_heap: Option<i64>,
    /// The first ticks of the run, kept for the once-per-run oracle.
    pub head: Vec<TickTrace>,
    /// This iteration's own output checks.
    pub checks: Checks,
}

/// Runs the output checks `f` as their own top-level span, after the
/// layer calls, so their time shows in the trace but not in the wall.
pub fn checked<T>(tracer: &mut Tracer, f: impl FnOnce() -> T) -> T {
    tracer.span(crate::trace::CHECK_SPAN, |_| f())
}

/// FNV-1a over a byte string, folded into `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
