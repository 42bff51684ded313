//! The batched measurement phase counts the fresh MRF verdicts that its
//! borrow path (`filter_fast_ref`) defers to a clone plus an owned
//! pipeline walk (`HotCounter::MeasureCloneFallbacks`).
//!
//! The count is published once per receiver, so it must be a pure
//! function of the run: equal at every thread count, zero on the
//! per-post reference path (which never tries the borrow path), and far
//! below the delivery count once every hot policy judges by borrow.
//!
//! This is the only test in this binary, so arming the process-global
//! registry cannot leak into another test.

use fediscope_dynamics::scenarios::{StormConfig, ToxicityStormScenario};
use fediscope_dynamics::{DynamicsConfig, DynamicsEngine, MeasureMode};
use fediscope_synthgen::{ScenarioSeeds, World, WorldConfig};
use fediscope_telemetry::{HotCounter, RunReport, Telemetry};

fn armed_storm(seeds: &ScenarioSeeds, measure: MeasureMode, threads: usize) -> RunReport {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global();
    let telemetry = Telemetry::global();
    telemetry.reset();
    telemetry.arm();
    let config = DynamicsConfig {
        ticks: 8,
        measure,
        ..DynamicsConfig::default()
    };
    DynamicsEngine::new(config, seeds).run(&mut ToxicityStormScenario::new(StormConfig::default()));
    let report = telemetry.report("storm");
    telemetry.disarm();
    telemetry.reset();
    report
}

#[test]
fn clone_fallbacks_are_a_deterministic_small_share() {
    let seeds = ScenarioSeeds::from_world(&World::generate(WorldConfig::test_small()));
    let fallbacks = |r: &RunReport| r.counter(HotCounter::MeasureCloneFallbacks);

    let batched: Vec<RunReport> = [1, 2, 8]
        .into_iter()
        .map(|threads| armed_storm(&seeds, MeasureMode::Batched, threads))
        .collect();
    let deliveries = batched[0].counter(HotCounter::EngineDeliveries);
    assert!(deliveries > 0, "the storm must deliver");
    for (report, threads) in batched.iter().zip([1, 2, 8]) {
        assert_eq!(
            fallbacks(report),
            fallbacks(&batched[0]),
            "fallback count differs at {threads} threads"
        );
    }
    assert!(
        fallbacks(&batched[0]) * 100 < deliveries,
        "{} clone fallbacks for {deliveries} deliveries: a hot policy lost its borrow path",
        fallbacks(&batched[0])
    );

    let reference = armed_storm(&seeds, MeasureMode::Reference, 2);
    assert_eq!(reference.counter(HotCounter::EngineDeliveries), deliveries);
    assert_eq!(fallbacks(&reference), 0);
}
