//! `experiment`: the world is sharded to disk once, untimed; each
//! iteration reads it back, builds one `EngineBuilder` and runs four
//! paired arms through `Experiment::run`, then renders the result and its
//! deltas against the `inaction` baseline.

use super::{checked, world_config, Checks, Ctx, Iteration};
use crate::meter::heap_delta;
use crate::trace::Tracer;
use fediscope::analysis::dynamics::render_experiment;
use fediscope::dynamics::scenarios::{
    AdoptionModel, BlocklistImportScenario, ChurnScenario, Composite, ImportConfig,
    InactionScenario, PolicyRolloutScenario, ReliabilityScenario, RolloutConfig,
};
use fediscope::dynamics::{Arm, DynamicsConfig, EngineBuilder, Experiment, MeasureMode};
use fediscope::synthgen::{write_shard_dir, ScenarioSeeds, SeedKnobs};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

/// Ticks per arm: the CLI's `experiment` default.
pub const TICKS: u64 = 36;

/// The arm every other arm is paired against.
pub const BASELINE: &str = "inaction";

/// The shard directory of this context's world.
pub fn shard_dir(ctx: &Ctx) -> PathBuf {
    ctx.work_dir
        .join(format!("shards-pid{}", std::process::id()))
}

/// Writes the world to its shard directory (untimed, once per run).
pub fn prepare(ctx: &Ctx) -> Result<(), String> {
    let dir = shard_dir(ctx);
    write_shard_dir(&world_config(), &dir)
        .map(|_| ())
        .map_err(|e| format!("cannot shard the world to {}: {e}", dir.display()))
}

/// The CLI's three default arms, built as the CLI builds them, plus a
/// retry arm: the §3 churn with the delivery-retry layer switched on.
fn arms() -> Vec<Arm> {
    let import = ImportConfig {
        adoption: AdoptionModel::HeavyTail { alpha: 3.0 },
        reset_to_default: true,
        ..ImportConfig::default()
    };
    vec![
        Arm::new(BASELINE, || Box::new(InactionScenario)),
        Arm::new("rollout", || {
            Box::new(PolicyRolloutScenario::new(RolloutConfig::default()))
        }),
        Arm::new("import-partial", move || {
            Box::new(BlocklistImportScenario::new(import.clone()))
        }),
        Arm::new("retry", || {
            Box::new(
                Composite::new()
                    .with(Box::new(ChurnScenario::default()))
                    .with(Box::new(ReliabilityScenario::default())),
            )
        }),
    ]
}

/// One experiment iteration.
pub fn iterate(ctx: &Ctx, tracer: &mut Tracer, traced: bool) -> Result<Iteration, String> {
    let dir = shard_dir(ctx);
    let seeds = tracer
        .span("synthgen.shard_read", |_| {
            ScenarioSeeds::from_shards(&dir, &SeedKnobs::default())
        })
        .map_err(|e| format!("cannot read shards from {}: {e}", dir.display()))?;
    let config = DynamicsConfig {
        seed: ctx.seed,
        ticks: TICKS,
        measure: MeasureMode::Batched,
        ..DynamicsConfig::default()
    };
    let seeds = Arc::new(seeds);
    let (builder, state_heap) = tracer.span("dynamics.state_build", |_| {
        if traced {
            let (builder, bytes) = heap_delta(|| EngineBuilder::new(config.clone(), seeds));
            (builder, Some(bytes))
        } else {
            (EngineBuilder::new(config.clone(), seeds), None)
        }
    });
    let mut experiment = Experiment::new(builder).with_baseline(BASELINE);
    for arm in arms() {
        experiment.push(arm);
    }
    let result = tracer.span("dynamics.loop", |_| experiment.run());
    let rendered = tracer.span("analysis.render", |_| {
        // The CLI's output: the arm table, then one line per delta.
        let mut out = render_experiment(&result);
        for delta in result.deltas() {
            out.push_str(&format!(
                "{} vs {}: prevented {:.1}, blocked {}, links {:+}\n",
                delta.arm,
                delta.baseline,
                delta.prevented_exposure(),
                delta.blocked_deliveries(),
                delta.final_links()
            ));
        }
        out
    });
    black_box(&rendered);
    let mut checks = Checks::default();
    let mut fingerprint = Vec::new();
    checked(tracer, || {
        for arm in &result.arms {
            checks.check(arm.trace.ticks.len() as u64 == TICKS, || {
                format!(
                    "arm {} ran {} of {TICKS} ticks",
                    arm.name,
                    arm.trace.ticks.len()
                )
            });
            checks.tick_identity(&arm.name, &arm.trace.ticks);
            fingerprint.push((format!("{}.digest", arm.name), arm.trace.digest()));
            fingerprint.push((
                format!("{}.deliveries", arm.name),
                arm.trace.total_delivered(),
            ));
        }
        let retried = result.arm("retry").map_or(0, |a| a.trace.total_retried());
        checks.check(retried > 0, || "the retry arm redrove no delivery".into());
    });
    Ok(Iteration {
        deliveries: result.arms.iter().map(|a| a.trace.total_delivered()).sum(),
        fingerprint,
        state_heap,
        head: Vec::new(),
        checks,
    })
}
