//! The `fediscope` command-line tool: generate a calibrated world, run a
//! measurement campaign, save/load datasets, and print any of the paper's
//! analyses.
//!
//! ```text
//! fediscope crawl --scale 0.35 --out dataset.json   # campaign → dataset
//! fediscope report dataset.json census              # §3 census
//! fediscope report dataset.json headline            # §4/§5 headline stats
//! fediscope report dataset.json table2              # Table 2 sweep
//! fediscope report dataset.json fig1                # policy prevalence
//! fediscope report dataset.json curate              # §7 curated lists
//! fediscope report dataset.json ablation            # §7 strategy ablation
//! fediscope dynamics rollout --scale 0.1 --ticks 30 # staged MRF rollout
//! fediscope dynamics cascade                        # defederation cascade
//! fediscope dynamics churn                          # §3 failure churn
//! fediscope dynamics storm                          # toxicity-storm burst
//! fediscope dynamics composite                      # storm+churn+rollout in one timeline
//! fediscope dynamics census --census-every 6        # live census under churn (round-trip)
//! fediscope experiment --arms inaction,rollout,import-partial --baseline inaction
//!                                                   # paired-arm counterfactual with per-tick deltas
//! ```
//!
//! Every subcommand takes `--flag VALUE` pairs. An unknown flag, a flag
//! without a value or a malformed value is a usage error (exit 2),
//! reported before any work starts.

use fediscope::dynamics::DynamicsConfig;
use fediscope::harness;
use fediscope::prelude::*;
use serde::Serialize;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

fn usage() -> ExitCode {
    eprintln!("fediscope — measure content moderation in a (synthetic) fediverse");
    eprintln!();
    eprintln!("USAGE:");
    eprintln!(
        "  fediscope crawl [--scale S] [--post-scale P] [--seed N] [--peer-cap K] [--out FILE]"
    );
    eprintln!("  fediscope report FILE <census|headline|table1|table2|fig1|fig2|fig3|curate|ablation|graph>");
    eprintln!("  fediscope shard --out DIR [--scale S] [--post-scale P] [--seed N] [--threads W]");
    eprintln!("  fediscope dynamics <rollout|cascade|churn|storm|composite> [--scale S] [--seed N] [--ticks T] [--threads W] [--from-shards DIR] [--out FILE] [--telemetry-out FILE]");
    eprintln!("  fediscope dynamics census [--scale S] [--seed N] [--ticks T] [--census-every C] [--threads W] [--out FILE] [--telemetry-out FILE]");
    eprintln!("  fediscope experiment [--arms A,B,..] [--baseline NAME] [--scale S] [--seed N] [--ticks T] [--threads W] [--from-shards DIR] [--out FILE] [--telemetry-out FILE]");
    eprintln!("      arms: inaction | rollout | import-full | import-partial");
    eprintln!("      --from-shards DIR loads the world from a shard directory written by");
    eprintln!("      `fediscope shard` instead of regenerating it (the manifest's seed and");
    eprintln!("      scale win over --seed/--scale)");
    eprintln!("      --telemetry-out arms the observability registry (phase spans, hot");
    eprintln!("      counters, latency histograms) and writes the RunReport JSON there");
    ExitCode::from(2)
}

/// Every `--flag VALUE` option of every subcommand, parsed once by
/// [`Flags::parse`]. `None` means the flag was not given.
#[derive(Default)]
struct Flags {
    scale: Option<f64>,
    post_scale: Option<f64>,
    seed: Option<u64>,
    threads: Option<usize>,
    ticks: Option<u64>,
    census_every: Option<u64>,
    peer_cap: Option<usize>,
    arms: Option<String>,
    baseline: Option<String>,
    from_shards: Option<String>,
    out: Option<String>,
    telemetry_out: Option<String>,
}

impl Flags {
    /// Parses `args` as `--flag VALUE` pairs, accepting only the
    /// space-separated flags in `allowed`; a repeated flag's last value
    /// wins. The error names the offending flag.
    fn parse(args: &[String], allowed: &str) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            if !allowed.split(' ').any(|a| a == flag) {
                return Err(format!("unknown argument '{flag}'"));
            }
            let Some(value) = rest.next() else {
                return Err(format!("{flag} needs a value"));
            };
            let text = Some(value.clone());
            match flag.as_str() {
                "--scale" => flags.scale = Some(positive(flag, value)?),
                "--post-scale" => flags.post_scale = Some(positive(flag, value)?),
                "--seed" => flags.seed = Some(number(flag, value)?),
                "--threads" => flags.threads = Some(number(flag, value)?),
                "--ticks" => flags.ticks = Some(number(flag, value)?),
                "--census-every" => flags.census_every = Some(number(flag, value)?),
                "--peer-cap" => flags.peer_cap = Some(number(flag, value)?),
                "--arms" => flags.arms = text,
                "--baseline" => flags.baseline = text,
                "--from-shards" => flags.from_shards = text,
                "--out" => flags.out = text,
                "--telemetry-out" => flags.telemetry_out = text,
                other => unreachable!("{other} is in an allowed list but has no parser"),
            }
        }
        Ok(flags)
    }

    /// The paper's world at `--scale` (else `default_scale`), with
    /// `--post-scale`, `--seed` and `--threads` applied.
    fn world(&self, default_scale: f64) -> WorldConfig {
        let mut config = WorldConfig::paper();
        config.scale = self.scale.unwrap_or(default_scale);
        if let Some(p) = self.post_scale {
            config.post_scale = p;
        }
        if let Some(n) = self.seed {
            config.seed = n;
        }
        if let Some(w) = self.threads {
            config.parallelism = fediscope::synthgen::Parallelism(w);
        }
        config
    }

    /// Engine knobs for a run over seeds extracted with `seed`.
    fn engine(&self, seed: u64) -> DynamicsConfig {
        DynamicsConfig {
            seed,
            ticks: self.ticks.unwrap_or(36),
            ..DynamicsConfig::default()
        }
    }
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value '{value}'"))
}

/// A scale factor: finite and greater than zero.
fn positive(flag: &str, value: &str) -> Result<f64, String> {
    match number::<f64>(flag, value)? {
        v if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!("{flag}: '{value}' is not a positive number")),
    }
}

/// Parses `args` against `allowed`, sizes the global rayon pool from
/// `--threads`, arms telemetry for `--telemetry-out`, and runs
/// `command`; a parse error is a usage error.
fn with_flags(args: &[String], allowed: &str, command: impl FnOnce(Flags) -> ExitCode) -> ExitCode {
    let flags = match Flags::parse(args, allowed) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    // One pool sizes every parallel stage — sharded world generation,
    // the engine's measurement fan-out, and experiment arms (all
    // bit-identical at any worker count).
    if let Some(w) = flags.threads {
        if let Err(e) = rayon::ThreadPoolBuilder::new()
            .num_threads(w)
            .build_global()
        {
            eprintln!("warning: --threads not applied — {e}");
        }
    }
    // Disarmed, the registry costs nothing and records nothing.
    if flags.telemetry_out.is_some() {
        let telemetry = fediscope_telemetry::Telemetry::global();
        telemetry.reset();
        telemetry.arm();
    }
    command(flags)
}

/// Ends an engine run: the telemetry [`fediscope_telemetry::RunReport`]
/// (tables to stdout, JSON to `--telemetry-out`), then `body` as
/// pretty JSON to `--out`.
fn finish(flags: &Flags, label: &str, what: &str, body: &impl Serialize) -> ExitCode {
    if let Some(out) = &flags.telemetry_out {
        let report = fediscope_telemetry::Telemetry::global().report(label);
        println!("{}", fediscope::analysis::render_telemetry(&report));
        if !write(out, "telemetry", report.to_json()) {
            return ExitCode::FAILURE;
        }
    }
    let Some(out) = &flags.out else {
        return ExitCode::SUCCESS;
    };
    let written = match serde_json::to_string_pretty(body) {
        Ok(body) => write(out, what, body),
        Err(e) => {
            eprintln!("failed to serialize {what}: {e}");
            false
        }
    };
    if written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `body` plus a trailing newline to `out`; false on failure.
fn write(out: &str, what: &str, body: String) -> bool {
    let written = std::fs::write(out, body + "\n");
    match &written {
        Ok(()) => eprintln!("{what} written to {out}"),
        Err(e) => eprintln!("failed to write {out}: {e}"),
    }
    written.is_ok()
}

/// The engine subcommands default to a tenth of the paper's population:
/// the full 10 K instances are overkill for a trace you read in a
/// terminal.
const ENGINE_SCALE: f64 = 0.1;

/// Builds the scenario seed extract either from a shard directory
/// (`--from-shards DIR`, written by `fediscope shard`) or by generating
/// the world in-process. A shard load never materialises the corpus —
/// records stream one at a time from `world.ndjson` — and ignores
/// `--scale/--seed`: the shard manifest is authoritative for both.
fn load_seeds(flags: &Flags) -> Result<ScenarioSeeds, ExitCode> {
    use fediscope::synthgen::SeedKnobs;
    if let Some(dir) = &flags.from_shards {
        eprintln!("loading world from shards at {dir} ...");
        ScenarioSeeds::from_shards(Path::new(dir), &SeedKnobs::default()).map_err(|e| {
            eprintln!("cannot load shards from {dir}: {e}");
            ExitCode::FAILURE
        })
    } else {
        let config = flags.world(ENGINE_SCALE);
        eprintln!(
            "generating world (seed {}, scale {}) ...",
            config.seed, config.scale
        );
        Ok(ScenarioSeeds::from_world(&World::generate(config)))
    }
}

/// Writes a generated world straight to an NDJSON shard directory —
/// `world.ndjson` plus `manifest.json` — for later `--from-shards`
/// reloads. Generation streams chunk-by-chunk, so sharding a 1.0-scale
/// world never holds the full corpus in memory either.
fn shard(flags: Flags) -> ExitCode {
    let Some(out) = &flags.out else {
        eprintln!("shard requires --out DIR");
        return usage();
    };
    let config = flags.world(ENGINE_SCALE);
    eprintln!(
        "sharding world (seed {}, scale {}, post_scale {}) to {out} ...",
        config.seed, config.scale, config.post_scale
    );
    match fediscope::synthgen::write_shard_dir(&config, Path::new(out)) {
        Ok(manifest) => {
            eprintln!("wrote {} instances to {out}", manifest.instances);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to shard world to {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    const ENGINE: &str = "--scale --seed --ticks --threads --out --telemetry-out";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    match command.as_str() {
        "crawl" => with_flags(rest, "--scale --post-scale --seed --peer-cap --out", crawl),
        "report" => report(rest),
        "shard" => with_flags(rest, "--scale --post-scale --seed --threads --out", shard),
        "dynamics" => match rest.split_first() {
            Some((which, rest)) if which == "census" => {
                with_flags(rest, &format!("{ENGINE} --census-every"), census)
            }
            Some((which, rest)) => with_flags(rest, &format!("{ENGINE} --from-shards"), |flags| {
                dynamics(which, flags)
            }),
            None => usage(),
        },
        "experiment" => with_flags(
            rest,
            &format!("{ENGINE} --from-shards --arms --baseline"),
            experiment,
        ),
        _ => usage(),
    }
}

/// The counterfactual harness: N paired arms over one shared world,
/// reported as per-tick prevented-exposure deltas against a designated
/// baseline arm.
fn experiment(flags: Flags) -> ExitCode {
    use fediscope::dynamics::scenarios::{
        AdoptionModel, BlocklistImportScenario, ImportConfig, InactionScenario,
        PolicyRolloutScenario, RolloutConfig,
    };
    use fediscope::dynamics::{Arm, EngineBuilder, Experiment, Scenario};
    use std::sync::Arc;

    let arm_names: Vec<String> = flags
        .arms
        .as_deref()
        .unwrap_or("inaction,rollout,import-partial")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let baseline = flags
        .baseline
        .clone()
        .unwrap_or_else(|| arm_names.first().cloned().unwrap_or_default());
    // Every arm strips moderation back to the fresh install in `init`,
    // so all counterfactuals share the same null starting state.
    let arm_for = |name: &str| -> Option<Arm> {
        let import = |adoption: AdoptionModel| ImportConfig {
            adoption,
            reset_to_default: true,
            ..ImportConfig::default()
        };
        let factory: Box<dyn Fn() -> Box<dyn Scenario> + Send + Sync> = match name {
            "inaction" => Box::new(|| Box::new(InactionScenario)),
            "rollout" => {
                Box::new(|| Box::new(PolicyRolloutScenario::new(RolloutConfig::default())))
            }
            "import-full" => Box::new(move || {
                Box::new(BlocklistImportScenario::new(import(AdoptionModel::Full)))
            }),
            "import-partial" => Box::new(move || {
                Box::new(BlocklistImportScenario::new(import(
                    AdoptionModel::HeavyTail { alpha: 3.0 },
                )))
            }),
            _ => return None,
        };
        Some(Arm::new(name, move || factory()))
    };
    // Validate the whole arm list before paying for world generation:
    // unknown names, duplicates (Experiment::push would panic on them)
    // and the baseline designation all fail fast with usage.
    let mut arms = Vec::new();
    for (i, name) in arm_names.iter().enumerate() {
        if arm_names[..i].contains(name) {
            eprintln!("duplicate arm: {name}");
            return usage();
        }
        match arm_for(name) {
            Some(arm) => arms.push(arm),
            None => {
                eprintln!("unknown arm: {name}");
                return usage();
            }
        }
    }
    if !arm_names.iter().any(|a| a == &baseline) {
        eprintln!(
            "--baseline {baseline} is not among --arms {}",
            arm_names.join(",")
        );
        return usage();
    }
    let seeds = match load_seeds(&flags) {
        Ok(seeds) => Arc::new(seeds),
        Err(code) => return code,
    };
    let engine_config = flags.engine(seeds.seed);
    let ticks = engine_config.ticks;
    let mut experiment = Experiment::new(EngineBuilder::new(engine_config, Arc::clone(&seeds)))
        .with_baseline(baseline.clone());
    for arm in arms {
        experiment.push(arm);
    }
    eprintln!(
        "running {} paired arms ({} baseline) over {} instances / {} links for {ticks} ticks ...",
        arm_names.len(),
        baseline,
        seeds.len(),
        seeds.links.len()
    );
    let result = experiment.run();
    println!(
        "{}",
        fediscope::analysis::dynamics::render_experiment(&result)
    );
    for delta in result.deltas() {
        println!(
            "{} vs {}: prevented exposure {:.1} ({} extra blocked deliveries, {:+} links at the final tick)",
            delta.arm,
            delta.baseline,
            delta.prevented_exposure(),
            delta.blocked_deliveries(),
            delta.final_links(),
        );
    }
    let body = serde_json::json!({
        "result": result,
        "deltas": result.deltas(),
    });
    let label = format!("experiment {}", arm_names.join(","));
    finish(&flags, &label, "experiment", &body)
}

/// The composed timeline `composite` and the `census` round-trip both
/// run: a toxicity storm erupting while the §3 outage wave unfolds and
/// a staged MRF rollout races both.
fn trio() -> fediscope::dynamics::scenarios::Composite {
    use fediscope::dynamics::scenarios::{
        ChurnConfig, ChurnScenario, Composite, PolicyRolloutScenario, RolloutConfig, StormConfig,
        ToxicityStormScenario,
    };
    Composite::new()
        .with(Box::new(ToxicityStormScenario::new(StormConfig::default())))
        .with(Box::new(ChurnScenario::new(ChurnConfig::default())))
        .with(Box::new(PolicyRolloutScenario::new(
            RolloutConfig::default(),
        )))
}

fn dynamics(which: &str, flags: Flags) -> ExitCode {
    use fediscope::dynamics::scenarios::{
        CascadeConfig, ChurnConfig, ChurnScenario, DefederationCascadeScenario,
        PolicyRolloutScenario, RolloutConfig, StormConfig, ToxicityStormScenario,
    };
    let mut scenario: Box<dyn fediscope::dynamics::Scenario> = match which {
        "rollout" => Box::new(PolicyRolloutScenario::new(RolloutConfig::default())),
        "cascade" => Box::new(DefederationCascadeScenario::new(CascadeConfig::default())),
        "churn" => Box::new(ChurnScenario::new(ChurnConfig::default())),
        "storm" => Box::new(ToxicityStormScenario::new(StormConfig::default())),
        "composite" => Box::new(trio()),
        _ => return usage(),
    };
    let seeds = match load_seeds(&flags) {
        Ok(seeds) => seeds,
        Err(code) => return code,
    };
    let engine_config = flags.engine(seeds.seed);
    eprintln!(
        "running {} over {} instances / {} links for {} ticks ...",
        which,
        seeds.len(),
        seeds.links.len(),
        engine_config.ticks
    );
    let mut engine = fediscope::dynamics::DynamicsEngine::new(engine_config, &seeds);
    let trace = engine.run(scenario.as_mut());
    println!("{}", fediscope::analysis::dynamics::render_dynamics(&trace));
    let summary = fediscope::analysis::dynamics::prevention_summary(&trace);
    println!(
        "links {} -> {}   deliveries {} ({} rejected, {} lost)   exposure {:.1}   prevented {:.1} ({:.1}%)",
        summary.links.0,
        summary.links.1,
        summary.deliveries.0,
        summary.deliveries.1,
        summary.deliveries.2,
        summary.exposure,
        summary.prevented,
        summary.prevented_share * 100.0
    );
    finish(&flags, &format!("dynamics {which}"), "trace", &trace)
}

/// The dynamics ↔ simnet round-trip: run the composed scenario against
/// a live network and re-census it mid-decay.
fn census(flags: Flags) -> ExitCode {
    let every_ticks = flags.census_every.unwrap_or(6);
    let config = flags.world(ENGINE_SCALE);
    eprintln!(
        "generating world (seed {}, scale {}) and materialising the live net ...",
        config.seed, config.scale
    );
    let world = World::generate(config);
    let seeds = ScenarioSeeds::from_world(&world);
    let round_trip_config = fediscope::census::RoundTripConfig {
        engine: flags.engine(seeds.seed),
        crawler: CrawlerConfig::default(),
        cadence: fediscope::dynamics::CensusCadence { every_ticks },
    };
    let ticks = round_trip_config.engine.ticks;
    let mut scenario = trio();
    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    let result = rt.block_on(async {
        eprintln!(
            "round-tripping {} over {} instances for {ticks} ticks (census every {every_ticks}) ...",
            scenario.sub_names().join("+"),
            seeds.len(),
        );
        fediscope::census::run_round_trip_seeded(&world, &seeds, &mut scenario, round_trip_config)
            .await
    });
    println!(
        "{}",
        fediscope::analysis::dynamics::render_census(&result.census)
    );
    println!(
        "{}",
        fediscope::analysis::dynamics::render_dynamics(&result.trace)
    );
    let [n404, n403, n502, n503, n410] = result.net.stats().failure_taxonomy().as_array();
    println!(
        "bridge: {} deaths, {} recoveries, {} defederations mirrored   probe statuses: 404×{n404} 403×{n403} 502×{n502} 503×{n503} 410×{n410}",
        result.bridge.failures_applied(),
        result.bridge.recoveries_applied(),
        result.bridge.defederations_applied(),
    );
    let body = serde_json::json!({
        "trace": result.trace,
        "census": result.census,
    });
    finish(&flags, "dynamics census", "round-trip", &body)
}

fn crawl(flags: Flags) -> ExitCode {
    let config = flags.world(WorldConfig::paper().scale);
    // §3 methodology: the real crawl saw truncated Peers responses, so a
    // capped crawl reproduces the directory-thinned census (and its
    // under-count — see `fediscope-analysis::calibration`).
    let peer_cap = flags.peer_cap;
    let out = flags.out.unwrap_or_else(|| "dataset.json".to_string());

    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    rt.block_on(async move {
        eprintln!(
            "generating world (seed {}, scale {}, post_scale {}) ...",
            config.seed, config.scale, config.post_scale
        );
        let world = World::generate(config);
        eprintln!(
            "  {} instances, {} users, {} posts",
            world.instances.len(),
            world.total_users(),
            world.total_posts()
        );
        eprintln!("running the measurement campaign ...");
        if let Some(cap) = peer_cap {
            eprintln!("  (peer lists thinned to first {cap} — expect an under-count)");
        }
        let crawler_config = CrawlerConfig {
            peer_list_cap: peer_cap,
            ..CrawlerConfig::default()
        };
        let dataset = harness::crawl_world(&world, crawler_config).await;
        eprintln!(
            "  crawled {} domains, collected {} posts",
            dataset.instances.len(),
            dataset.collected_posts()
        );
        match dataset.save(&out) {
            Ok(()) => {
                eprintln!("dataset written to {out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to write {out}: {e}");
                ExitCode::FAILURE
            }
        }
    })
}

fn report(args: &[String]) -> ExitCode {
    let (Some(file), Some(which)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let dataset = match Dataset::load(file) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot load {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match which.as_str() {
        "census" => {
            let rows = fediscope::analysis::headline::crawl_census(&dataset);
            println!("{}", render_comparisons("§3 census", &rows));
        }
        "headline" => {
            let ann = HarmAnnotations::annotate(&dataset);
            for (title, rows) in [
                (
                    "§4.1 policy impact",
                    fediscope::analysis::headline::policy_impact(&dataset),
                ),
                (
                    "§4.2 reject graph",
                    fediscope::analysis::headline::reject_graph(&dataset, &ann),
                ),
                (
                    "§4.2 annotation",
                    fediscope::analysis::headline::annotation(&dataset, &ann),
                ),
                (
                    "§5 collateral damage",
                    fediscope::analysis::headline::collateral_damage(&dataset, &ann),
                ),
            ] {
                println!("{}", render_comparisons(title, &rows));
            }
        }
        "table1" => {
            let ann = HarmAnnotations::annotate(&dataset);
            let rows = fediscope::analysis::tables::table1_top_rejected(&dataset, &ann);
            let fmt = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or("NA".into());
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.domain.to_string(),
                        r.rejects.to_string(),
                        r.users.to_string(),
                        r.posts.to_string(),
                        fmt(r.toxicity),
                        fmt(r.profanity),
                        fmt(r.sexually_explicit),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    "Table 1",
                    &["instance", "rejects", "users", "posts", "tox", "prof", "sexual"],
                    &table
                )
            );
        }
        "table2" => {
            let ann = HarmAnnotations::annotate(&dataset);
            let rows = fediscope::analysis::tables::table2_threshold_sweep(&dataset, &ann);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        format!("{:.1}", r.threshold),
                        format!("{:.1}%", r.non_harmful_share * 100.0),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table("Table 2", &["threshold", "non-harmful"], &table)
            );
        }
        "fig1" => {
            let rows = fediscope::analysis::figures::fig1_policy_prevalence(&dataset);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        r.instances.to_string(),
                        format!("{:.1}%", r.instance_share * 100.0),
                        format!("{:.1}%", r.user_share * 100.0),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    "Figure 1",
                    &["policy", "instances", "inst%", "users%"],
                    &table
                )
            );
        }
        "fig2" => {
            let rows = fediscope::analysis::figures::fig2_targeted_by_action(&dataset);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.action.to_string(),
                        r.targeted_pleroma.to_string(),
                        r.targeted_non_pleroma.to_string(),
                        r.users_on_targeted.to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    "Figure 2",
                    &["action", "pleroma", "non-pleroma", "users"],
                    &table
                )
            );
        }
        "fig3" => {
            let rows = fediscope::analysis::figures::fig3_targeting_by_action(&dataset);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.action.to_string(),
                        r.targeting_instances.to_string(),
                        r.users_on_targeted.to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    "Figure 3",
                    &["action", "targeting", "users on targeted"],
                    &table
                )
            );
        }
        "curate" => {
            let ann = HarmAnnotations::annotate(&dataset);
            let lists = fediscope::analysis::curation::curate(
                &dataset,
                &ann,
                &fediscope::analysis::curation::CurationConfig::default(),
            );
            for list in [&lists.no_hate, &lists.no_porn, &lists.no_profanity] {
                println!("{} ({:?}):", list.name, list.action);
                for d in &list.entries {
                    println!("  {d}");
                }
            }
        }
        "ablation" => {
            let ann = HarmAnnotations::annotate(&dataset);
            let rows = fediscope::analysis::ablation::solutions(&dataset, &ann);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.strategy.name().to_string(),
                        format!("{:.1}%", r.innocent_blocked * 100.0),
                        format!("{:.1}%", r.innocent_degraded * 100.0),
                        format!("{:.1}%", r.harmful_blocked * 100.0),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    "§7 ablation",
                    &[
                        "strategy",
                        "innocent blocked",
                        "innocent degraded",
                        "harmful blocked"
                    ],
                    &table
                )
            );
        }
        "graph" => {
            let rows = fediscope::analysis::ablation::federation_graph(&dataset, 15);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.domain.clone(),
                        r.rejects.to_string(),
                        r.audience_lost.to_string(),
                        format!("{:.1}%", r.peer_loss_share * 100.0),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(
                    "§6 graph damage",
                    &["instance", "rejects", "audience lost", "peers lost%"],
                    &table
                )
            );
        }
        other => {
            eprintln!("unknown report: {other}");
            return usage();
        }
    }
    ExitCode::SUCCESS
}
