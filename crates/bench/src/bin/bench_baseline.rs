//! `bench_baseline` — the check gate's snapshot validator and perf leg.
//! Benchmark runs themselves belong to `perfbench/`.
//!
//! Two modes:
//!
//! - `bench_baseline --validate <path>`: parse a `fairem-obs/1`
//!   snapshot (as written by `fairem audit --metrics <path>`), print its
//!   per-stage totals, and exit non-zero if it does not parse — the
//!   check-gate leg that keeps the snapshot schema honest.
//! - `bench_baseline --gate`: the performance gate. Fails unless
//!   (a) on one fixed Citations pair batch, timed sequentially in this
//!   process, the columnar path (generator build plus `matrix`) beats
//!   the scalar oracle (`matrix_pairs`) by ≥3× at the lower bound of a
//!   bootstrap CI over interleaved trials, and (b) on a generated
//!   ~10⁵-pair batch a 4-worker pool reaches 75% parallel efficiency
//!   against `min(4, available_parallelism)`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use fairem_bench::OrFail;
use fairem_core::features::FeatureGenerator;
use fairem_core::schema::Table;
use fairem_core::{Exec, PairBatch, ParOutcome, WorkerPool};
use fairem_csvio::Json;
use fairem_datasets::{citations, wdc_products, CitationsConfig, GeneratedDataset, ProductsConfig};
use fairem_stats::{bootstrap_statistic, median};

/// Pairs in the Citations leg's fixed batch.
const CITATIONS_PAIRS: usize = 3_000;
/// Interleaved trials of the Citations leg; each times both sides.
const CITATIONS_TRIALS: usize = 9;
/// The Citations leg's bar on the scalar ÷ columnar time ratio.
const MIN_COLUMNAR_SPEEDUP: f64 = 3.0;
/// Bootstrap replicates and seed for the ratio's confidence interval.
const BOOTSTRAP_REPLICATES: usize = 2_000;
const BOOTSTRAP_SEED: u64 = 0x6a7e;

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
        Some("--gate") => gate(),
        _ => {
            eprintln!("usage: bench_baseline --validate <path> | --gate");
            ExitCode::FAILURE
        }
    }
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

/// A generated dataset's tables and the sensitive columns the
/// featurizer leaves out.
fn tables(d: &GeneratedDataset) -> (Table, Table, Vec<&str>) {
    let a = Table::from_csv(d.table_a.clone()).orfail("generated table A is schema-valid");
    let b = Table::from_csv(d.table_b.clone()).orfail("generated table B is schema-valid");
    let exclude = d.sensitive.iter().map(String::as_str).collect();
    (a, b, exclude)
}

/// The fixed pair batch `(i mod |A|, 31·i mod |B|)` over two tables.
fn pair_batch(a: &Table, b: &Table, n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i % a.len(), (i * 31) % b.len())).collect()
}

fn complete<T>(outcome: ParOutcome<T>) -> T {
    let ParOutcome::Complete(m) = outcome else {
        // fairem: allow(panic) — bench harness uses an inert exec that cannot interrupt
        unreachable!("inert exec must not interrupt")
    };
    m
}

/// The Citations leg: per-trial ratio of the scalar oracle's time to
/// the columnar path's, on one batch under `Exec::sequential()`. The
/// columnar side is charged its generator build. The sides alternate
/// which runs first, and every trial checks the two matrices agree to
/// the bit.
#[allow(deprecated)] // `matrix_pairs` is the scalar oracle this leg times
fn citations_ratios() -> Vec<f64> {
    let dataset = citations(&CitationsConfig::default());
    let (a, b, exclude) = tables(&dataset);
    let pairs = pair_batch(&a, &b, CITATIONS_PAIRS);
    let scalar_gen = FeatureGenerator::build(&a, &b, &exclude, &Exec::sequential());
    let exec = Exec::sequential();
    let mut ratios = Vec::with_capacity(CITATIONS_TRIALS);
    for trial in 0..CITATIONS_TRIALS {
        let scalar = || {
            let start = Instant::now();
            let m = scalar_gen.matrix_pairs(&a, &b, &pairs);
            (m, start.elapsed().as_secs_f64())
        };
        let columnar = || {
            let start = Instant::now();
            let gen = FeatureGenerator::build(&a, &b, &exclude, &exec);
            let m = complete(gen.matrix(&PairBatch::new(&pairs), &exec));
            (m, start.elapsed().as_secs_f64())
        };
        let ((ms, ts), (mc, tc)) = if trial % 2 == 0 {
            let s = scalar();
            (s, columnar())
        } else {
            let c = columnar();
            (scalar(), c)
        };
        let same_bits = ms.rows() == mc.rows()
            && ms.cols() == mc.cols()
            && ms
                .as_slice()
                .iter()
                .zip(mc.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same_bits, "columnar matrix diverged from the scalar oracle");
        ratios.push(ts / tc);
    }
    ratios
}

/// Best-of-3 wall time for one full batch featurization under `workers`.
fn time_matrix(gen: &FeatureGenerator, pairs: &[(usize, usize)], workers: usize) -> f64 {
    let exec = Exec::with_pool(WorkerPool::new(workers));
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let m = complete(gen.matrix(&PairBatch::new(pairs), &exec));
        let secs = start.elapsed().as_secs_f64();
        assert!(m.rows() == pairs.len(), "short matrix");
        best = best.min(secs);
    }
    best
}

/// The performance gate (check.sh's perf leg). Two assertions:
///
/// 1. On a fixed 3000-pair Citations batch, sequentially, the lower
///    bound of a seeded 95% bootstrap CI of the median per-trial
///    scalar ÷ columnar time ratio is ≥3× (see [`citations_ratios`]).
/// 2. On a generated ~10⁵-pair batch, a 4-worker pool reaches a
///    parallel efficiency of at least [`MIN_POOL_EFFICIENCY`]: its
///    speedup over sequential, divided by the most the host allows,
///    `min(4, available_parallelism)`. That is ≥1.5× on two hardware
///    threads, ≥3× on four or more, and on one hardware thread a pool
///    overhead of at most 1/0.75 − 1 ≈ 33%.
fn gate() -> ExitCode {
    let mut ok = true;

    // Leg 1: columnar vs the scalar oracle, paired in this process.
    eprintln!(
        "gate: timing {CITATIONS_PAIRS} Citations pairs, scalar vs columnar, {CITATIONS_TRIALS} trials..."
    );
    let ratios = citations_ratios();
    let ci = bootstrap_statistic(&ratios, BOOTSTRAP_REPLICATES, 0.95, BOOTSTRAP_SEED, |r, idx| {
        median(&idx.iter().map(|&i| r[i]).collect::<Vec<f64>>())
    });
    println!(
        "gate: Citations scalar/columnar median {:.2}x, 95% CI [{:.2}, {:.2}] over {} trials \
         (need lower bound {MIN_COLUMNAR_SPEEDUP:.2}x)",
        ci.estimate,
        ci.lo,
        ci.hi,
        ratios.len()
    );
    if ci.lo < MIN_COLUMNAR_SPEEDUP {
        eprintln!("gate: FAIL — sequential columnar featurization below the 3x bar");
        ok = false;
    }

    // Leg 2: sequential vs pooled on a ~1e5-pair generated batch.
    let d = wdc_products(&ProductsConfig::default());
    let (a, b, exclude) = tables(&d);
    let generator = FeatureGenerator::build(&a, &b, &exclude, &Exec::sequential());
    let pairs = pair_batch(&a, &b, 100_000);
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
