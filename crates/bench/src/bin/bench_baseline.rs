//! `bench_baseline` — the check gate's snapshot validator and perf leg,
//! both measured through the `fairem-obs` recorder rather than an
//! external profiler, so the numbers are exactly what `--metrics`
//! reports in production. Benchmark runs themselves belong to
//! `perfbench/`.
//!
//! Two modes:
//!
//! - `bench_baseline --validate <path>`: parse a `fairem-obs/1`
//!   snapshot (as written by `fairem audit --metrics <path>`), print its
//!   per-stage totals, and exit non-zero if it does not parse — the
//!   check-gate leg that keeps the snapshot schema honest.
//! - `bench_baseline --gate [<baseline path>]`: the performance gate.
//!   Fails unless (a) sequential Citations featurization beats the
//!   committed scalar baseline by ≥3×, and (b) on a generated ~10⁵-pair
//!   batch a 4-worker pool reaches 75% parallel efficiency against
//!   `min(4, available_parallelism)`. The scalar baseline is the
//!   engine-less Citations run in `BENCH_baseline.json`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use fairem_bench::{default_auditor, MATCHING_THRESHOLD};
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::features::FeatureGenerator;
use fairem_core::matcher::MatcherKind;
use fairem_core::pipeline::{FairEm360, SuiteConfig};
use fairem_core::prep::PrepConfig;
use fairem_core::schema::Table;
use fairem_core::sensitive::SensitiveAttr;
use fairem_core::threshold::default_grid;
use fairem_core::CalibrationSpec;
use fairem_core::{Exec, PairBatch, ParOutcome, Parallelism, Recorder, Snapshot, WorkerPool};
use fairem_csvio::Json;
use fairem_datasets::{citations, wdc_products, CitationsConfig, GeneratedDataset, ProductsConfig};
use fairem_bench::OrFail;

/// The CLI's default fleet — what `fairem audit` trains when no
/// `--matchers` flag is given, so the baseline matches real runs.
const MATCHERS: &[MatcherKind] = &[
    MatcherKind::DtMatcher,
    MatcherKind::RfMatcher,
    MatcherKind::LinRegMatcher,
];

/// Workers in the pool leg of the gate.
const POOL_WORKERS: usize = 4;
/// The pool leg's bar: speedup over sequential divided by
/// `min(POOL_WORKERS, available_parallelism)`.
const MIN_POOL_EFFICIENCY: f64 = 0.75;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--validate") => {
            let Some(path) = argv.get(1) else {
                eprintln!("--validate expects a snapshot path");
                return ExitCode::FAILURE;
            };
            validate(Path::new(path))
        }
        Some("--gate") => {
            let path = argv.get(1).map(String::as_str).unwrap_or("BENCH_baseline.json");
            gate(Path::new(path))
        }
        _ => {
            eprintln!("usage: bench_baseline --validate <path> | --gate [<baseline>]");
            ExitCode::FAILURE
        }
    }
}

/// One full pipeline pass under a live recorder; returns the recorder
/// snapshot (stage wall times via
/// [`fairem_obs::Snapshot::stage_totals`]).
fn run_once(dataset: &GeneratedDataset, jobs: usize) -> Snapshot {
    let observe = Recorder::enabled();
    let config = SuiteConfig {
        prep: PrepConfig {
            // Both benchmark datasets block on `title`.
            blocking_columns: vec!["title".into()],
            negative_ratio: 6.0,
            train_frac: 0.55,
            valid_frac: 0.05,
            ..PrepConfig::default()
        },
        matching_threshold: MATCHING_THRESHOLD,
        parallelism: Parallelism::Fixed(jobs),
        observe: observe.clone(),
        // Per-group calibration is a production stage since the
        // `--calibrate` flag landed; bake it into the baseline so its
        // `calib` span shows up in every measured run.
        calibration: Some(CalibrationSpec::isotonic()),
        ..SuiteConfig::default()
    };
    let sensitive: Vec<SensitiveAttr> = dataset
        .sensitive
        .iter()
        .map(|c| SensitiveAttr::categorical(c.clone()))
        .collect();
    let session = FairEm360::builder()
        .tables(dataset.table_a.clone(), dataset.table_b.clone())
        .ground_truth(dataset.matches.clone())
        .sensitive(sensitive)
        .config(config)
        .build()
        .orfail("generated datasets are schema-valid")
        .try_run(MATCHERS)
        .orfail("baseline fleet trains");
    let _ = session.audit_all(&default_auditor());
    let grid = default_grid();
    let groups = session.space.level1_of_attr(0);
    for name in session.matcher_names() {
        let _ = session.calibrated_audit(
            name,
            &[FairnessMeasure::AccuracyParity],
            Disparity::Subtraction,
            &grid,
            &groups,
        );
    }
    let _ = session
        .ensemble(0, FairnessMeasure::AccuracyParity, Disparity::Subtraction)
        .pareto_frontier();
    observe.snapshot()
}

/// Parse a `fairem-obs/1` snapshot and print per-stage totals (root
/// spans aggregated by name, first-seen order — the same reduction as
/// `Snapshot::stage_totals`).
fn validate(path: &Path) -> ExitCode {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("reading {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let json = match Json::parse(&raw) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("{} is not valid JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if json.get("schema").and_then(Json::as_str) != Some("fairem-obs/1") {
        eprintln!("{} does not carry the fairem-obs/1 schema", path.display());
        return ExitCode::FAILURE;
    }
    let Some(Json::Arr(spans)) = json.get("spans") else {
        eprintln!("{} has no spans array", path.display());
        return ExitCode::FAILURE;
    };
    let mut order: Vec<&str> = Vec::new();
    let mut totals: Vec<f64> = Vec::new();
    for span in spans {
        if span.get("parent") != Some(&Json::Null) {
            continue;
        }
        let (Some(name), Some(secs)) = (
            span.get("name").and_then(Json::as_str),
            span.get("secs").and_then(Json::as_num),
        ) else {
            eprintln!("malformed span record: {}", span.to_string_compact());
            return ExitCode::FAILURE;
        };
        match order.iter().position(|n| *n == name) {
            Some(i) => totals[i] += secs,
            None => {
                order.push(name);
                totals.push(secs);
            }
        }
    }
    if order.is_empty() {
        eprintln!("{} contains no root spans", path.display());
        return ExitCode::FAILURE;
    }
    println!("per-stage totals from {}:", path.display());
    for (name, secs) in order.iter().zip(&totals) {
        println!("  {name:>12} {secs:>10.4}s");
    }
    ExitCode::SUCCESS
}

/// The scalar-era (engine-less) Citations sequential `features` total
/// from the committed baseline — the denominator the columnar hot path
/// must beat by 3×.
fn scalar_citations_features(path: &Path) -> Option<f64> {
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return None;
    };
    runs.iter()
        .find(|r| {
            r.get("engine").is_none()
                && r.get("dataset").and_then(Json::as_str) == Some("Citations")
                && r.get("jobs").and_then(Json::as_num) == Some(1.0)
        })?
        .get("stage_secs")?
        .get("features")
        .and_then(Json::as_num)
}

/// Best-of-3 wall time for one full batch featurization under `workers`.
fn time_matrix(gen: &FeatureGenerator, pairs: &[(usize, usize)], workers: usize) -> f64 {
    let exec = Exec::with_pool(WorkerPool::new(workers));
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let outcome = gen.matrix(&PairBatch::new(pairs), &exec);
        let secs = start.elapsed().as_secs_f64();
        let ParOutcome::Complete(m) = outcome else {
            // fairem: allow(panic) — bench harness uses an inert exec that cannot interrupt
            unreachable!("inert exec must not interrupt")
        };
        assert!(m.rows() == pairs.len(), "short matrix");
        best = best.min(secs);
    }
    best
}

/// The performance gate (check.sh's perf leg). Two assertions:
///
/// 1. Sequential Citations featurization (the full pipeline `features`
///    stage, build included) is ≥3× faster than the committed scalar
///    baseline.
/// 2. On a generated ~10⁵-pair batch, a 4-worker pool reaches a
///    parallel efficiency of at least [`MIN_POOL_EFFICIENCY`]: its
///    speedup over sequential, divided by the most the host allows,
///    `min(4, available_parallelism)`. That is ≥1.5× on two hardware
///    threads, ≥3× on four or more, and on one hardware thread a pool
///    overhead of at most 1/0.75 − 1 ≈ 33%.
fn gate(baseline_path: &Path) -> ExitCode {
    let mut ok = true;

    // Leg 1: columnar vs committed scalar baseline, sequentially.
    let Some(scalar) = scalar_citations_features(baseline_path) else {
        eprintln!(
            "gate: {} has no scalar Citations jobs=1 run (engine-less, schema 1 heritage)",
            baseline_path.display()
        );
        return ExitCode::FAILURE;
    };
    let dataset = citations(&CitationsConfig::default());
    eprintln!("gate: measuring Citations sequential features...");
    let stages = run_once(&dataset, 1).stage_totals();
    let Some(features) = stages
        .iter()
        .find(|(n, _)| n == "features")
        .map(|(_, s)| *s)
    else {
        eprintln!("gate: pipeline run recorded no `features` stage");
        return ExitCode::FAILURE;
    };
    let speedup = scalar / features;
    println!(
        "gate: Citations seq features {features:.4}s vs scalar {scalar:.4}s -> {speedup:.2}x (need 3.00x)"
    );
    if speedup < 3.0 {
        eprintln!("gate: FAIL — sequential featurization regressed below the 3x bar");
        ok = false;
    }

    // Leg 2: sequential vs pooled on a ~1e5-pair generated batch.
    let d = wdc_products(&ProductsConfig::default());
    let a = Table::from_csv(d.table_a.clone()).orfail("generated table A is schema-valid");
    let b = Table::from_csv(d.table_b.clone()).orfail("generated table B is schema-valid");
    let exclude: Vec<&str> = d.sensitive.iter().map(String::as_str).collect();
    let generator = FeatureGenerator::build(&a, &b, &exclude);
    let pairs: Vec<(usize, usize)> = (0..100_000)
        .map(|i| (i % a.len(), (i * 31) % b.len()))
        .collect();
    eprintln!(
        "gate: measuring {} pairs, sequential vs {POOL_WORKERS} workers...",
        pairs.len()
    );
    let seq = time_matrix(&generator, &pairs, 1);
    let par = time_matrix(&generator, &pairs, POOL_WORKERS);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ceiling = POOL_WORKERS.min(cores);
    let speedup = seq / par;
    let efficiency = speedup / ceiling as f64;
    println!(
        "gate: 1e5-pair batch seq {seq:.4}s vs {POOL_WORKERS} workers {par:.4}s -> {speedup:.2}x \
         = {efficiency:.2} of the {ceiling}x ceiling (need {MIN_POOL_EFFICIENCY:.2}, {cores} hardware threads)"
    );
    if efficiency < MIN_POOL_EFFICIENCY {
        eprintln!("gate: FAIL — pooled featurization below the parallel-efficiency bar");
        ok = false;
    }

    if ok {
        println!("gate: PASS");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
