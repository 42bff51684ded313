//! `campaign`: the paper's own §3–§5 pipeline. Worldgen → materialised
//! servers on the simulated network → the §3 crawl from the seed
//! directory (in an order drawn from the input seed) → harm annotation →
//! the headline analyses, rendered as the CLI's `report headline` does.

use super::{checked, fnv1a, world_config, Checks, Ctx, Iteration, FNV_OFFSET};
use crate::trace::Tracer;
use fediscope::analysis::headline::{
    annotation, collateral_damage, crawl_census, policy_impact, reject_graph,
};
use fediscope::analysis::report::render_comparisons;
use fediscope::analysis::HarmAnnotations;
use fediscope::core::id::Domain;
use fediscope::crawler::{Crawler, CrawlerConfig, Dataset};
use fediscope::harness;
use fediscope::synthgen::World;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long teardown may take to retire the servers' serving tasks.
const TEARDOWN_LIMIT: Duration = Duration::from_secs(60);

/// The seed directory in an order drawn from `seed` (a Fisher–Yates
/// shuffle over SplitMix64). The crawl finds the same instances in any
/// order, so the dataset must not depend on it.
fn shuffled(directory: &[Domain], seed: u64) -> Vec<Domain> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order = directory.to_vec();
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Digest of the serialized dataset, one instance at a time so the whole
/// corpus is never held as a single string.
fn dataset_digest(dataset: &Dataset) -> Result<u64, String> {
    let mut hash = FNV_OFFSET;
    hash = fnv1a(hash, &dataset.started.0.to_le_bytes());
    hash = fnv1a(hash, &dataset.finished.0.to_le_bytes());
    for instance in &dataset.instances {
        let json = serde_json::to_string(instance).map_err(|e| e.to_string())?;
        hash = fnv1a(hash, json.as_bytes());
    }
    Ok(hash)
}

/// One campaign iteration.
pub fn iterate(ctx: &Ctx, tracer: &mut Tracer) -> Result<Iteration, String> {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .map_err(|e| format!("cannot build the runtime: {e}"))?;
    let world = tracer.span("synthgen.worldgen", |_| World::generate(world_config()));
    let materialized = tracer.span("server.materialize", |_| {
        rt.block_on(async { harness::materialize(&world) })
    });
    let crawler = Crawler::new(Arc::clone(&materialized.net), CrawlerConfig::default());
    let directory = shuffled(&world.directory, ctx.seed);
    let dataset = tracer.span("crawler.crawl", |_| rt.block_on(crawler.run(&directory)));
    let annotations = tracer.span("perspective.annotate", |_| {
        HarmAnnotations::annotate(&dataset)
    });
    let sections = tracer.span("analysis.headline", |_| {
        [
            ("§3 census", crawl_census(&dataset)),
            ("§4.1 policy impact", policy_impact(&dataset)),
            ("§4.2 reject graph", reject_graph(&dataset, &annotations)),
            ("§4.2 annotation", annotation(&dataset, &annotations)),
            (
                "§5 collateral damage",
                collateral_damage(&dataset, &annotations),
            ),
        ]
    });
    let rendered: Vec<String> = tracer.span("analysis.render", |_| {
        sections
            .iter()
            .map(|(title, rows)| render_comparisons(title, rows))
            .collect()
    });
    black_box(&rendered);
    let mut checks = Checks::default();
    let digests = checked(tracer, || {
        checks.check(dataset.instances.len() == world.instances.len(), || {
            format!(
                "the crawl found {} of {} instances",
                dataset.instances.len(),
                world.instances.len()
            )
        });
        let rows: usize = sections.iter().map(|(_, rows)| rows.len()).sum();
        checks.check(rows > 0, || "the headline analyses produced no rows".into());
        let mut headline = FNV_OFFSET;
        for (_, rows) in &sections {
            for row in rows {
                headline = fnv1a(headline, row.label.as_bytes());
                headline = fnv1a(headline, &row.measured.to_bits().to_le_bytes());
            }
        }
        (dataset_digest(&dataset), headline)
    });
    let (dataset_digest, headline_digest) = digests;
    let dataset_digest =
        dataset_digest.map_err(|e| format!("cannot serialize the dataset: {e}"))?;
    let collected = dataset.collected_posts();

    // Teardown, outside the timed spans: closing the network ends every
    // server's serving task; wait until each has let go of its server so
    // the next iteration starts on an idle pool.
    drop(crawler);
    let servers = materialized.servers;
    drop(materialized.net);
    let deadline = Instant::now() + TEARDOWN_LIMIT;
    while servers.values().any(|s| Arc::strong_count(s) > 1) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    checks.check(servers.values().all(|s| Arc::strong_count(s) == 1), || {
        "serving tasks outlived the network".into()
    });
    Ok(Iteration {
        deliveries: collected,
        fingerprint: vec![
            ("dataset.digest".into(), dataset_digest),
            ("headline.digest".into(), headline_digest),
            ("dataset.collected_posts".into(), collected),
        ],
        state_heap: None,
        head: Vec::new(),
        checks,
    })
}
