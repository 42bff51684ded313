//! The fediscope benchmark: one workload per invocation, measured for a
//! fixed number of seconds, outputs checked, result printed as one JSON
//! line. See `README.md` beside this crate for the metrics.
//!
//! ```text
//! fediscope-perfbench --workload storm|experiment|campaign [--seed N]
//!     [--seconds S] [--trace 0|1] [--out-dir DIR]
//! ```

mod host;
mod meter;
mod trace;
mod workloads;

use fediscope_telemetry::{HotCounter, Phase, RunReport, Telemetry};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{span_json, Span, Spans, Tracer};
use workloads::{Checks, Ctx, Iteration};

#[global_allocator]
static ALLOC: meter::CountingAlloc = meter::CountingAlloc;

/// The input seed when none is given: the paper world's own seed.
const DEFAULT_SEED: u64 = 1534;

/// The seed kept out of tuning, for later changes to confirm a claim on.
const HELD_OUT_SEED: u64 = 2021;

/// End-to-end metrics: every workload reports all of them, untraced.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("deliveries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every workload reports all of them from a traced
/// run; a layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("synthgen.worldgen_s", "s"),
    ("synthgen.seed_extract_s", "s"),
    ("synthgen.shard_read_s", "s"),
    ("dynamics.state_build_s", "s"),
    ("dynamics.intern_hit_ratio", "ratio"),
    ("dynamics.state_heap_mb", "MB"),
    ("dynamics.loop_s", "s"),
    ("dynamics.loop_cpu_util", "ratio"),
    ("dynamics.measure_s", "s"),
    ("dynamics.control_s", "s"),
    ("dynamics.retry_drain_s", "s"),
    ("dynamics.begin_s", "s"),
    ("dynamics.tick_close_s", "s"),
    ("dynamics.step_self_s", "s"),
    ("dynamics.tick_p50_ms", "ms"),
    ("dynamics.tick_p90_ms", "ms"),
    ("dynamics.tick_samples", "count"),
    ("dynamics.deliveries", "count"),
    ("dynamics.events", "count"),
    ("dynamics.retry_events", "count"),
    ("perspective.scorer_calls", "count"),
    ("perspective.memo_hit_ratio", "ratio"),
    ("perspective.annotate_s", "s"),
    ("server.materialize_s", "s"),
    ("crawler.crawl_s", "s"),
    ("crawler.cpu_util", "ratio"),
    ("crawler.probe_fail_ratio", "ratio"),
    ("analysis.headline_s", "s"),
    ("analysis.render_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("check_fail_share", "ratio"),
    ("check_attempted", "count"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Storm,
    Experiment,
    Campaign,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "storm" => Some(Workload::Storm),
            "experiment" => Some(Workload::Experiment),
            "campaign" => Some(Workload::Campaign),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Storm => "storm",
            Workload::Experiment => "experiment",
            Workload::Campaign => "campaign",
        }
    }

    /// The spans whose durations make up `setup_s`.
    fn setup_spans(self) -> &'static [&'static str] {
        match self {
            Workload::Storm => &[
                "synthgen.worldgen",
                "synthgen.seed_extract",
                "dynamics.state_build",
            ],
            Workload::Experiment => &["synthgen.shard_read", "dynamics.state_build"],
            Workload::Campaign => &["synthgen.worldgen", "server.materialize"],
        }
    }

    /// The span `deliveries_per_s` divides by.
    fn throughput_span(self) -> &'static str {
        match self {
            Workload::Storm | Workload::Experiment => "dynamics.loop",
            Workload::Campaign => "crawler.crawl",
        }
    }

    fn iterate(self, ctx: &Ctx, tracer: &mut Tracer, traced: bool) -> Result<Iteration, String> {
        match self {
            Workload::Storm => Ok(workloads::storm::iterate(ctx, tracer, traced)),
            Workload::Experiment => workloads::experiment::iterate(ctx, tracer, traced),
            Workload::Campaign => workloads::campaign::iterate(ctx, tracer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out-dir" => {
                flags.insert(flag.as_str(), value.clone());
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |flag: &str| flags.get(flag).map(String::as_str);
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = match get("--seed") {
        None => DEFAULT_SEED,
        Some(v) => v.parse().map_err(|_| format!("--seed {v} is not a u64"))?,
    };
    let seconds = match get("--seconds") {
        None => 10,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seconds {v} is not a whole number"))?,
    };
    let traced = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace {v} is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        out_dir: PathBuf::from(get("--out-dir").unwrap_or(".bench_build/perfbench")),
    })
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile of `values` (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One finished iteration with what the run loop observed around it.
struct Sample {
    iteration: Iteration,
    spans: Vec<Span>,
    report: Option<RunReport>,
}

impl Sample {
    fn wall(&self) -> f64 {
        Spans(&self.spans).wall()
    }

    fn setup(&self, workload: Workload) -> f64 {
        let spans = Spans(&self.spans);
        workload.setup_spans().iter().map(|n| spans.total(n)).sum()
    }

    fn deliveries_per_s(&self, workload: Workload) -> f64 {
        let secs = Spans(&self.spans).total(workload.throughput_span());
        ratio(self.iteration.deliveries as f64, secs)
    }
}

/// Per-layer values of one traced iteration.
fn layer_values(sample: &Sample) -> Vec<(&'static str, f64)> {
    let spans = Spans(&sample.spans);
    let report = sample
        .report
        .as_ref()
        .expect("traced samples carry a report");
    let phase = |p: Phase| report.phase(p).map_or(0.0, |s| s.total_nanos as f64 * 1e-9);
    let counter = |c: HotCounter| report.counter(c) as f64;
    let loop_s = spans.total("dynamics.loop");
    let crawl_s = spans.total("crawler.crawl");
    let pool = rayon::current_num_threads() as f64;
    let steps = spans.total("dynamics.step");
    let step_self = if steps > 0.0 {
        steps - phase(Phase::Control) - phase(Phase::Measurement) - phase(Phase::TickClose)
    } else {
        0.0
    };
    let probes: f64 = [
        HotCounter::ProbesSuccess,
        HotCounter::ProbesTransient,
        HotCounter::ProbesPermanent,
        HotCounter::ProbesNetError,
    ]
    .into_iter()
    .map(counter)
    .sum();
    let wall = sample.wall();
    vec![
        ("synthgen.worldgen_s", spans.total("synthgen.worldgen")),
        (
            "synthgen.seed_extract_s",
            spans.total("synthgen.seed_extract"),
        ),
        ("synthgen.shard_read_s", spans.total("synthgen.shard_read")),
        (
            "dynamics.state_build_s",
            spans.total("dynamics.state_build"),
        ),
        (
            "dynamics.intern_hit_ratio",
            ratio(
                counter(HotCounter::PipelineInternHits),
                counter(HotCounter::PipelineInternHits) + counter(HotCounter::PipelineInternMisses),
            ),
        ),
        (
            "dynamics.state_heap_mb",
            sample.iteration.state_heap.unwrap_or(0) as f64 / (1024.0 * 1024.0),
        ),
        ("dynamics.loop_s", loop_s),
        (
            "dynamics.loop_cpu_util",
            ratio(spans.cpu("dynamics.loop"), loop_s * pool),
        ),
        ("dynamics.measure_s", phase(Phase::Measurement)),
        ("dynamics.control_s", phase(Phase::Control)),
        ("dynamics.retry_drain_s", phase(Phase::RetryDrain)),
        ("dynamics.begin_s", phase(Phase::Begin)),
        ("dynamics.tick_close_s", phase(Phase::TickClose)),
        ("dynamics.step_self_s", step_self),
        ("dynamics.deliveries", counter(HotCounter::EngineDeliveries)),
        ("dynamics.events", counter(HotCounter::EventsApplied)),
        ("dynamics.retry_events", counter(HotCounter::RetryEvents)),
        ("perspective.scorer_calls", counter(HotCounter::ScorerCalls)),
        (
            "perspective.memo_hit_ratio",
            ratio(
                counter(HotCounter::ScorerMemoHits),
                counter(HotCounter::EngineDeliveries),
            ),
        ),
        (
            "perspective.annotate_s",
            spans.total("perspective.annotate"),
        ),
        ("server.materialize_s", spans.total("server.materialize")),
        ("crawler.crawl_s", crawl_s),
        (
            "crawler.cpu_util",
            ratio(
                spans.cpu("crawler.crawl"),
                crawl_s * host::tokio_shim_workers() as f64,
            ),
        ),
        (
            "crawler.probe_fail_ratio",
            ratio(probes - counter(HotCounter::ProbesSuccess), probes),
        ),
        ("analysis.headline_s", spans.total("analysis.headline")),
        ("analysis.render_s", spans.total("analysis.render")),
        (
            "trace.unattributed_share",
            ratio(wall - spans.top_level(), wall),
        ),
    ]
}

/// Values that must repeat exactly in every traced iteration of a run.
fn traced_counts(report: &RunReport) -> Vec<(String, u64)> {
    [
        HotCounter::ScorerCalls,
        HotCounter::EngineDeliveries,
        HotCounter::EventsApplied,
        HotCounter::RetryEvents,
        HotCounter::ProbesSuccess,
        HotCounter::ProbesTransient,
        HotCounter::ProbesPermanent,
        HotCounter::ProbesNetError,
        HotCounter::PipelineInternHits,
    ]
    .into_iter()
    .map(|c| (format!("telemetry.{}", c.name()), report.counter(c)))
    .collect()
}

/// Digests pinned in `digests.json`, under `<workload>` (values that hold
/// for every input seed) and `<workload>/seed<S>`: a run must reproduce
/// them.
fn pinned_digests(workload: Workload, seed: u64) -> BTreeMap<String, u64> {
    let table: serde_json::Value =
        serde_json::from_str(include_str!("../digests.json")).expect("digests.json parses");
    let name = workload.name();
    let mut out = BTreeMap::new();
    for key in [name.to_string(), format!("{name}/seed{seed}")] {
        for (entry, value) in table[key.as_str()].as_object().into_iter().flatten() {
            let hex = value.as_str().expect("pinned digests are hex strings");
            let v = u64::from_str_radix(hex, 16).expect("pinned digests are hex strings");
            out.insert(entry.clone(), v);
        }
    }
    out
}

/// Every fingerprint value must equal the first one seen under its key,
/// and the pinned value where there is one.
fn fingerprint_checks(
    samples: &[Sample],
    pinned: &BTreeMap<String, u64>,
) -> (Checks, BTreeMap<String, u64>) {
    let mut checks = Checks::default();
    let mut seen: BTreeMap<String, u64> = BTreeMap::new();
    for (i, sample) in samples.iter().enumerate() {
        let counts = sample
            .report
            .as_ref()
            .map(traced_counts)
            .unwrap_or_default();
        for (key, value) in sample.iteration.fingerprint.iter().cloned().chain(counts) {
            let first = *seen.entry(key.clone()).or_insert(value);
            checks.check(value == first, || {
                format!("iteration {i}: {key} = {value:016x}, first iteration had {first:016x}")
            });
        }
    }
    for (key, want) in pinned {
        let got = seen.get(key).copied();
        checks.check(got == Some(*want), || {
            format!("{key}: pinned {want:016x}, measured {got:016x?}")
        });
    }
    (checks, seen)
}

/// The run's metrics: end-to-end from an untraced run, per-layer from a
/// traced one (whose first iteration is a warm-up and counts for neither).
fn metrics(
    args: &Args,
    samples: &[Sample],
    checks: &Checks,
    peak_rss: f64,
) -> BTreeMap<&'static str, f64> {
    let workload = args.workload;
    let (untraced, traced): (Vec<&Sample>, Vec<&Sample>) = samples
        .iter()
        .skip(usize::from(args.traced))
        .partition(|s| s.report.is_none());
    let untraced_wall: Vec<f64> = untraced.iter().map(|s| s.wall()).collect();
    let mut metrics = BTreeMap::new();
    if !args.traced {
        let setup: Vec<f64> = untraced.iter().map(|s| s.setup(workload)).collect();
        let rate: Vec<f64> = untraced
            .iter()
            .map(|s| s.deliveries_per_s(workload))
            .collect();
        metrics.insert("wall_s", median(&untraced_wall));
        metrics.insert("setup_s", median(&setup));
        metrics.insert("deliveries_per_s", median(&rate));
        metrics.insert("peak_rss_mb", peak_rss);
        return metrics;
    }
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for sample in &traced {
        for (name, value) in layer_values(sample) {
            per_name.entry(name).or_default().push(value);
        }
    }
    for (name, values) in &per_name {
        metrics.insert(*name, median(values));
    }
    // Tick latency is read with tracing off, from the untraced half.
    let ticks_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|s| Spans(&s.spans).durations("dynamics.step"))
        .map(|secs| secs * 1e3)
        .collect();
    metrics.insert("dynamics.tick_p50_ms", quantile(&ticks_ms, 0.5));
    metrics.insert("dynamics.tick_p90_ms", quantile(&ticks_ms, 0.9));
    metrics.insert("dynamics.tick_samples", ticks_ms.len() as f64);
    let traced_wall: Vec<f64> = traced.iter().map(|s| s.wall()).collect();
    metrics.insert(
        "trace.overhead",
        ratio(median(&traced_wall), median(&untraced_wall)) - 1.0,
    );
    metrics.insert(
        "check_fail_share",
        ratio(checks.failures.len() as f64, checks.attempted as f64),
    );
    metrics.insert("check_attempted", checks.attempted as f64);
    metrics
}

fn run(args: &Args) -> Result<(serde_json::Value, Vec<String>), String> {
    let root = Path::new(".");
    let workload = args.workload;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        work_dir: args.out_dir.clone(),
    };
    let provenance = serde_json::json!({
        "workload": workload.name(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "world_seed": workloads::world_config().seed,
        "scale": workloads::world_config().scale,
        "seconds": args.seconds,
        "traced": args.traced,
        "host": host::host_block(root),
    });
    println!("{}", serde_json::json!({ "provenance": provenance }));
    if workload == Workload::Experiment {
        workloads::experiment::prepare(&ctx)?;
    }

    let telemetry = Telemetry::global();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs(args.seconds);
    // A traced run needs its warm-up plus one traced and one untraced
    // iteration.
    let min_iterations = if args.traced { 3 } else { 1 };
    let mut samples: Vec<Sample> = Vec::new();
    let mut durations: Vec<f64> = Vec::new();
    let mut checks = Checks::default();
    loop {
        let started = Instant::now();
        let i = samples.len() as u64;
        // A traced run warms up with iteration 0, then alternates: odd
        // iterations with telemetry armed and heap counting on, even ones
        // untraced (the overhead baseline and the tick latencies).
        let traced = args.traced && i % 2 == 1;
        if traced {
            telemetry.reset();
            telemetry.arm();
        }
        let mut tracer = Tracer::new(origin, i);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            workload.iterate(&ctx, &mut tracer, traced)
        }));
        let report = traced.then(|| {
            let report = telemetry.report(workload.name());
            telemetry.disarm();
            report
        });
        match outcome {
            Ok(Ok(iteration)) => samples.push(Sample {
                iteration,
                spans: tracer.into_spans(),
                report,
            }),
            Ok(Err(e)) => {
                checks.check(false, || e);
                break;
            }
            Err(_) => {
                checks.check(false, || format!("iteration {i} panicked"));
                break;
            }
        }
        // Stop once the next iteration would, by the typical length so
        // far, end past the deadline: the run measures `--seconds` of work
        // and does not overrun it.
        durations.push(started.elapsed().as_secs_f64());
        let next = Duration::from_secs_f64(median(&durations));
        if samples.len() >= min_iterations && Instant::now() + next > deadline {
            break;
        }
    }
    let peak_rss = meter::peak_rss_mb().unwrap_or(0.0);

    if workload == Workload::Storm {
        if let Some(first) = samples.first() {
            let head = &first.iteration.head;
            match catch_unwind(AssertUnwindSafe(|| workloads::storm::oracle(&ctx, head))) {
                Ok(oracle) => checks.absorb(oracle),
                Err(_) => checks.check(false, || "the reference oracle panicked".into()),
            }
        }
    }
    if workload == Workload::Experiment {
        // The shards are this run's scratch; a failed removal is harmless.
        let _ = std::fs::remove_dir_all(workloads::experiment::shard_dir(&ctx));
    }
    let pinned = pinned_digests(workload, args.seed);
    let (fingerprints, fingerprint) = fingerprint_checks(&samples, &pinned);
    checks.absorb(fingerprints);
    for sample in &mut samples {
        checks.absorb(std::mem::take(&mut sample.iteration.checks));
        // Observe, never perturb: the armed registry must count exactly
        // the deliveries the traces report.
        if let (Some(report), true) = (&sample.report, workload != Workload::Campaign) {
            let counted = report.counter(HotCounter::EngineDeliveries);
            let traced = sample.iteration.deliveries;
            checks.check(counted == traced, || {
                format!("telemetry counted {counted} deliveries, the traces {traced}")
            });
        }
    }
    if samples.is_empty() {
        checks.check(false, || "no iteration completed".into());
    }

    let metrics = metrics(args, &samples, &checks, peak_rss);
    let names: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut out = serde_json::Map::new();
    let mut table = Vec::new();
    for (name, unit) in names {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        table.push(format!("{name:<28} {value:>16.6} {unit}"));
        out.insert(
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    }
    let unknown: Vec<&&str> = metrics
        .keys()
        .filter(|k| !names.iter().any(|(n, _)| n == *k))
        .collect();
    assert!(
        unknown.is_empty(),
        "metrics without a definition: {unknown:?}"
    );
    for sample in samples.iter().filter(|s| s.report.is_some()) {
        for (name, secs) in Spans(&sample.spans).self_times() {
            table.push(format!(
                "self {name:<23} {secs:>16.6} s (run {})",
                sample.spans[0].run
            ));
        }
    }

    // At least one check always runs: every iteration checks its outputs,
    // and a run without iterations records that as a failure.
    let failed = checks.failures.len() as u64;
    let result = serde_json::json!({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": serde_json::Value::Object(out),
    });
    let record = serde_json::json!({
        "provenance": provenance,
        "iterations": samples.len(),
        "per_iteration": samples
            .iter()
            .map(|s| {
                serde_json::json!({
                    "traced": s.report.is_some(),
                    "wall_s": s.wall(),
                    "setup_s": s.setup(workload),
                    "deliveries_per_s": s.deliveries_per_s(workload),
                })
            })
            .collect::<Vec<_>>(),
        "fingerprint": fingerprint
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::Value::String(format!("{v:016x}"))))
            .collect::<serde_json::Map>(),
        "check_failures": checks.failures,
        "result": result,
    });
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        u8::from(args.traced)
    );
    let record_path = args.out_dir.join(format!("record-{stem}.json"));
    std::fs::write(&record_path, record.to_string() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", record_path.display()))?;
    if args.traced {
        let spans_path = args.out_dir.join(format!("spans-{stem}.jsonl"));
        let lines: String = samples
            .iter()
            .flat_map(|s| s.spans.iter())
            .map(|s| span_json(workload.name(), s) + "\n")
            .collect();
        std::fs::write(&spans_path, lines)
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    }
    for failure in &checks.failures {
        eprintln!("check failed: {failure}");
    }
    Ok((result, table))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One rayon worker per core, set before any parallel stage runs.
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(host::cores())
        .build_global()
    {
        eprintln!("perfbench: cannot size the rayon pool: {e}");
        return ExitCode::FAILURE;
    }
    match run(&args) {
        Ok((result, table)) => {
            for line in table {
                println!("{line}");
            }
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
