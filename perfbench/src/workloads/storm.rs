//! `storm`: worldgen → seed extraction → engine build, then a saturation
//! toxicity storm (the burst covers every tick) stepped tick by tick and
//! rendered. Measurement is almost the whole tick loop here.

use super::{checked, world_config, Checks, Ctx, Iteration};
use crate::meter::heap_delta;
use crate::trace::Tracer;
use fediscope::analysis::dynamics::render_dynamics;
use fediscope::core::time::SimDuration;
use fediscope::dynamics::scenarios::{StormConfig, ToxicityStormScenario};
use fediscope::dynamics::{DynamicsConfig, DynamicsEngine, MeasureMode, NetworkState, TickTrace};
use fediscope::synthgen::{ScenarioSeeds, World};
use std::hint::black_box;

/// Ticks per iteration: enough that a single iteration already puts
/// more than ten samples beyond the tick-latency p90.
pub const TICKS: u64 = 120;

/// Leading ticks replayed through the reference oracle once per run.
pub const ORACLE_TICKS: u64 = 3;

fn engine_config(seed: u64, ticks: u64, measure: MeasureMode) -> DynamicsConfig {
    DynamicsConfig {
        seed,
        ticks,
        measure,
        ..DynamicsConfig::default()
    }
}

/// A storm whose burst starts at the first tick and outlasts the run.
fn saturation_storm(config: &DynamicsConfig) -> ToxicityStormScenario {
    ToxicityStormScenario::new(StormConfig {
        start_offset: SimDuration(0),
        duration: SimDuration(config.tick_len.0 * (TICKS + 1)),
        ..StormConfig::default()
    })
}

/// One storm iteration.
pub fn iterate(ctx: &Ctx, tracer: &mut Tracer, traced: bool) -> Iteration {
    let world = tracer.span("synthgen.worldgen", |_| World::generate(world_config()));
    // Extraction consumes the world, which is dropped right after, as in
    // the CLI; the drop is part of the span.
    let seeds = tracer.span("synthgen.seed_extract", move |_| {
        let seeds = ScenarioSeeds::from_world(&world);
        drop(world);
        seeds
    });
    let config = engine_config(ctx.seed, TICKS, MeasureMode::Batched);
    let (mut engine, state_heap) = tracer.span("dynamics.state_build", |_| {
        if traced {
            let (engine, bytes) = heap_delta(|| DynamicsEngine::new(config.clone(), &seeds));
            (engine, Some(bytes))
        } else {
            (DynamicsEngine::new(config.clone(), &seeds), None)
        }
    });
    let mut scenario = saturation_storm(&config);
    let ticks = tracer.span("dynamics.loop", |tracer| {
        tracer.span("dynamics.begin", |_| engine.begin(&mut scenario));
        let mut ticks = Vec::with_capacity(TICKS as usize);
        for _ in 0..TICKS {
            match tracer.span("dynamics.step", |_| engine.step(&mut scenario)) {
                Some(tick) => ticks.push(tick),
                None => break,
            }
        }
        ticks
    });
    let trace = engine.finish(&scenario, ticks);
    let rendered = tracer.span("analysis.render", |_| render_dynamics(&trace));
    black_box(&rendered);
    let mut checks = Checks::default();
    let digest = checked(tracer, || {
        checks.check(trace.ticks.len() as u64 == TICKS, || {
            format!("storm ran {} of {TICKS} ticks", trace.ticks.len())
        });
        checks.tick_identity("storm", &trace.ticks);
        trace.digest()
    });
    let deliveries = trace.total_delivered();
    Iteration {
        deliveries,
        fingerprint: vec![
            ("storm.digest".into(), digest),
            ("storm.deliveries".into(), deliveries),
            (
                "storm.events".into(),
                trace.ticks.iter().map(|t| t.events).sum(),
            ),
        ],
        state_heap,
        head: trace
            .ticks
            .iter()
            .take(ORACLE_TICKS as usize)
            .cloned()
            .collect(),
        checks,
    }
}

/// The once-per-run oracle: the leading ticks of the timed run must equal
/// the per-post reference measurement over the share-nothing state.
pub fn oracle(ctx: &Ctx, head: &[TickTrace]) -> Checks {
    let seeds = ScenarioSeeds::from_world(&World::generate(world_config()));
    let config = engine_config(ctx.seed, head.len() as u64, MeasureMode::Reference);
    let mut scenario = saturation_storm(&config);
    let mut engine = DynamicsEngine::from_state(config, NetworkState::from_seeds_reference(&seeds));
    let reference = engine.run(&mut scenario);
    let mut checks = Checks::default();
    checks.check(reference.ticks.len() == head.len(), || {
        format!(
            "reference oracle ran {} of {} ticks",
            reference.ticks.len(),
            head.len()
        )
    });
    for (batched, oracle) in head.iter().zip(&reference.ticks) {
        checks.check(batched == oracle, || {
            format!(
                "storm tick {} differs from the reference oracle (delivered {} vs {})",
                batched.tick, batched.delivered, oracle.delivered
            )
        });
    }
    checks
}
