//! One audit of a batch workload, from CSV bytes in to a rendered
//! report out, through the suite's public entry points.
//!
//! Each entry point is wrapped in a benchmark span (`bench.*`). In a
//! traced run the program's own recorder is switched on as well, and
//! the stage spans it records inside `try_run` / `try_run_sharded`
//! (prep, blocking, features, train, score, shard) are grafted under
//! the benchmark span of the call that produced them.

use std::path::PathBuf;

use fairem_core::audit::{AuditConfig, Auditor};
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::matcher::MatcherKind;
use fairem_core::pipeline::{FairEm360, SuiteConfig};
use fairem_core::sensitive::SensitiveAttr;
use fairem_core::{fnv1a64, CalibrationSpec, MemBudget, Parallelism};
use fairem_csvio::parse_csv_str;
use fairem_obs::Recorder;

use crate::inputs::Inputs;
use crate::trace::Tracer;

/// Worker threads of every pool the benchmark starts. Pinned rather
/// than `Auto`, so the numbers measure the program and not how the
/// host's thread count was detected.
pub const JOBS: usize = 2;

/// Out-of-core settings of a sharded audit.
#[derive(Debug, Clone)]
pub struct Sharding {
    /// Shard count.
    pub shards: usize,
    /// Memory budget over the suite's cost model, MiB.
    pub mem_mib: u64,
    /// Checkpoint directory.
    pub ckpt: PathBuf,
    /// Reuse committed shards.
    pub resume: bool,
}

/// What one audit of a workload runs.
#[derive(Debug, Clone)]
pub struct AuditSpec {
    /// Matcher fleet.
    pub kinds: Vec<MatcherKind>,
    /// Token-blocking columns; `None` keeps the suite default.
    pub blocking: Option<Vec<String>>,
    /// Per-group isotonic calibration plus the threshold-independent
    /// audit (`--calibrate isotonic --all-thresholds`).
    pub calibrate: bool,
    /// Ensemble Pareto frontier over the first sensitive attribute.
    pub ensemble: bool,
    /// All four explanation families for the worst audited cell.
    pub explain: bool,
    /// Sharded, checkpointed execution.
    pub sharding: Option<Sharding>,
}

/// The CLI's default fleet.
pub const DEFAULT_FLEET: [MatcherKind; 3] = [
    MatcherKind::DtMatcher,
    MatcherKind::RfMatcher,
    MatcherKind::LinRegMatcher,
];

/// All ten integrated matchers: six classical, four neural.
pub const ALL_TEN: [MatcherKind; 10] = [
    MatcherKind::DtMatcher,
    MatcherKind::SvmMatcher,
    MatcherKind::RfMatcher,
    MatcherKind::LogRegMatcher,
    MatcherKind::LinRegMatcher,
    MatcherKind::NbMatcher,
    MatcherKind::DeepMatcher,
    MatcherKind::Ditto,
    MatcherKind::HierMatcher,
    MatcherKind::Mcan,
];

/// Graft the program spans recorded since the last call under the
/// tracer's innermost open span.
fn graft_new(tr: &mut Tracer, rec: &Recorder, seen: &mut Option<u64>) {
    if !tr.is_on() || !rec.is_enabled() {
        return;
    }
    let mut snap = rec.snapshot();
    snap.spans.retain(|s| seen.is_none_or(|m| s.id > m));
    if let Some(max) = snap.spans.iter().map(|s| s.id).max() {
        *seen = Some(max);
    }
    tr.graft(&snap);
}

/// Run one audit and return its rendered report. An error is a failed
/// operation: the suite refused the input, no matcher survived, or the
/// run completed degraded.
pub fn audit_once(
    spec: &AuditSpec,
    inputs: &Inputs,
    tr: &mut Tracer,
    rec: &Recorder,
) -> Result<String, String> {
    let mut seen = None;
    tr.span("bench.audit_once", |tr| {
        let suite = tr.span("bench.import", |tr| {
            let out = import(spec, inputs, rec);
            graft_new(tr, rec, &mut seen);
            out
        })?;
        let auditor = Auditor::new(AuditConfig::default());
        let disparity = Disparity::Subtraction;
        if spec.sharding.is_some() {
            let run = tr.span("bench.run", |tr| {
                let out = suite.try_run_sharded(&spec.kinds);
                graft_new(tr, rec, &mut seen);
                out
            });
            let run = run.map_err(|e| e.to_string())?;
            if run.is_degraded() || !run.quarantine().is_empty() {
                return Err("sharded run degraded".to_owned());
            }
            let reports = tr.span("bench.audit", |tr| {
                let out = run.audit_all(&auditor);
                graft_new(tr, rec, &mut seen);
                out
            });
            return Ok(format!("{reports:#?}"));
        }
        let session = tr.span("bench.run", |tr| {
            let out = suite.try_run(&spec.kinds);
            graft_new(tr, rec, &mut seen);
            out
        });
        let session = session.map_err(|e| e.to_string())?;
        if session.is_degraded() || !session.quarantine().is_empty() {
            return Err("run degraded".to_owned());
        }
        let (reports, interrupt) = tr.span("bench.audit", |tr| {
            let out = session.try_audit_all(&auditor);
            graft_new(tr, rec, &mut seen);
            out
        });
        if let Some(i) = interrupt {
            return Err(format!("audit interrupted: {i}"));
        }
        let measures = FairnessMeasure::PAPER_FIVE;
        // The report: the audits, then each optional step that ran, so
        // a run without them renders exactly like a sharded run.
        let mut report = format!("{reports:#?}");
        if spec.calibrate {
            let calibrated = tr.span("bench.calib", |tr| {
                let grid = fairem_core::threshold::default_grid();
                let groups = session.space.level1_of_attr(0);
                let out: Result<Vec<_>, String> = session
                    .matcher_names()
                    .into_iter()
                    .map(|m| {
                        session
                            .calibrated_audit(m, &measures, disparity, &grid, &groups)
                            .map_err(|e| e.to_string())
                    })
                    .collect();
                graft_new(tr, rec, &mut seen);
                out
            })?;
            report.push_str(&format!("\n{calibrated:#?}"));
        }
        if spec.ensemble {
            let frontier = tr.span("bench.ensemble", |tr| {
                let explorer = if spec.calibrate {
                    session
                        .ensemble_with_calibrators(
                            0,
                            FairnessMeasure::AccuracyParity,
                            disparity,
                            &[CalibrationSpec::isotonic()],
                        )
                        .map_err(|e| e.to_string())?
                } else {
                    session.ensemble(0, FairnessMeasure::AccuracyParity, disparity)
                };
                let (points, interrupt) = explorer.try_pareto_frontier();
                graft_new(tr, rec, &mut seen);
                match interrupt {
                    Some(i) => Err(format!("ensemble interrupted: {i}")),
                    None => Ok(points),
                }
            })?;
            report.push_str(&format!("\n{frontier:#?}"));
        }
        if spec.explain {
            let explanations = tr.span("bench.explain", |_| {
                // The worst audited cell, as the demo's explain step picks it.
                let worst = reports
                    .iter()
                    .flat_map(|r| r.entries.iter())
                    .filter(|e| e.disparity.is_finite())
                    .max_by(|a, b| a.disparity.total_cmp(&b.disparity))
                    .ok_or("no audited cell to explain")?;
                let w = session
                    .workload(&worst.matcher)
                    .map_err(|e| e.to_string())?;
                let ex = session.explainer(&w, disparity);
                Ok::<_, String>(format!(
                    "{:#?}\n{:#?}\n{:#?}\n{:#?}",
                    ex.measure_based(worst.measure, &worst.group),
                    ex.representation(&worst.group),
                    ex.subgroup(worst.measure, &worst.group),
                    ex.examples(worst.measure, &worst.group, 5, 2024),
                ))
            })?;
            report.push('\n');
            report.push_str(&explanations);
        }
        Ok(report)
    })
}

/// Parse the CSV bytes and build the suite: the import layer.
fn import(spec: &AuditSpec, inputs: &Inputs, rec: &Recorder) -> Result<FairEm360, String> {
    let table_a = parse_csv_str(&inputs.table_a).map_err(|e| e.to_string())?;
    let table_b = parse_csv_str(&inputs.table_b).map_err(|e| e.to_string())?;
    let m = parse_csv_str(&inputs.matches).map_err(|e| e.to_string())?;
    let matches = m
        .rows
        .into_iter()
        .map(|r| (r[0].clone(), r[1].clone()))
        .collect();
    let mut config = SuiteConfig {
        parallelism: Parallelism::Fixed(JOBS),
        observe: rec.clone(),
        ..SuiteConfig::default()
    };
    if let Some(cols) = &spec.blocking {
        config.prep.blocking_columns = cols.clone();
    }
    if spec.calibrate {
        config.calibration = Some(CalibrationSpec::isotonic());
    }
    if let Some(sh) = &spec.sharding {
        config.shard.shards = sh.shards;
        config.shard.checkpoint_dir = Some(sh.ckpt.clone());
        config.shard.resume = sh.resume;
        config.mem_budget = MemBudget::bytes(sh.mem_mib * 1024 * 1024);
    }
    FairEm360::builder()
        .tables(table_a, table_b)
        .ground_truth(matches)
        .sensitive(
            inputs
                .sensitive
                .iter()
                .map(|c| SensitiveAttr::categorical(c.as_str())),
        )
        .config(config)
        .build()
        .map_err(|e| e.to_string())
}

/// Digest of a rendered report: what the output checks compare.
pub fn digest(report: &str) -> u64 {
    fnv1a64(report.as_bytes())
}

/// Figures of the suite's own stage spans, given as (name, seconds,
/// note): prep and blocking, the feature build (the span noted `build
/// generator`) and matrices, training and scoring (with per-matcher
/// children), and shards.
pub fn stage_figures(spans: &[(String, f64, Option<String>)]) -> Vec<(String, f64)> {
    let total = |n: &str| -> f64 { spans.iter().filter(|s| s.0 == n).fold(0.0, |a, s| a + s.1) };
    let build = spans
        .iter()
        .filter(|s| s.0 == "features" && s.2.as_deref() == Some("build generator"))
        .fold(0.0, |a, s| a + s.1);
    let mut out = vec![
        ("blocking.s".to_owned(), total("prep") + total("blocking")),
        ("features.build_s".to_owned(), build),
        ("features.matrix_s".to_owned(), total("features") - build),
        ("train.s".to_owned(), total("train")),
        ("score.s".to_owned(), total("score")),
    ];
    let mut per_matcher: std::collections::BTreeMap<String, f64> = Default::default();
    for (name, secs, _) in spans {
        if name.starts_with("train.") || name.starts_with("score.") {
            *per_matcher.entry(format!("{name}.s")).or_default() += secs;
        }
    }
    out.extend(per_matcher);
    let shards: Vec<f64> = spans
        .iter()
        .filter(|s| s.0 == "shard")
        .map(|s| s.1)
        .collect();
    if !shards.is_empty() {
        out.push(("shard.count".to_owned(), shards.len() as f64));
        out.push(("shard.s.sum".to_owned(), shards.iter().sum()));
        out.push((
            "shard.s.p50".to_owned(),
            crate::stats::median(&shards).unwrap_or(0.0),
        ));
        out.push((
            "shard.s.max".to_owned(),
            shards.iter().copied().fold(0.0, f64::max),
        ));
    }
    out
}

/// Per-layer figures of one traced audit, read off the tracer and the
/// program's recorder. Names follow the benchmark's metric catalogue;
/// steps the workload does not run are left out.
pub fn layers(tr: &Tracer, rec: &Recorder) -> Vec<(String, f64)> {
    let Some(root) = tr.named("bench.audit_once").last() else {
        return Vec::new();
    };
    let wall = root.secs;
    let spans: Vec<(String, f64, Option<String>)> = tr
        .spans()
        .iter()
        .map(|s| (s.name.clone(), s.secs, s.note.clone()))
        .collect();
    let mut out = vec![
        ("audit.wall_s".to_owned(), wall),
        ("import.s".to_owned(), tr.total("bench.import")),
        ("audit.s".to_owned(), tr.total("bench.audit")),
    ];
    out.extend(stage_figures(&spans));
    for (step, name) in [
        ("bench.calib", "calib.s"),
        ("bench.ensemble", "ensemble.s"),
        ("bench.explain", "explain.s"),
    ] {
        if tr.named(step).next().is_some() {
            out.push((name.to_owned(), tr.total(step)));
        }
    }
    // Time inside the audit that no layer span covers: the root's own
    // time plus the part of `try_run` outside its stage spans.
    let run_self: f64 = tr.named("bench.run").map(|s| tr.self_time(s.id)).sum();
    out.push((
        "unattributed_s".to_owned(),
        tr.self_time(root.id) + run_self,
    ));

    let snap = rec.snapshot();
    let counter = |k: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let gauge = |k: &str| {
        snap.gauges
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |(_, v)| *v)
    };
    let busy: f64 = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "par.chunk_secs")
        .map_or(0.0, |(_, h)| h.sum);
    out.extend([
        ("features.pairs".to_owned(), counter("features.pairs")),
        ("mem.peak_bytes".to_owned(), gauge("mem.peak_bytes")),
        (
            "ensemble.assignments".to_owned(),
            gauge("ensemble.assignments"),
        ),
        (
            "ckpt.shards_written".to_owned(),
            counter("ckpt.shards_written"),
        ),
        (
            "ckpt.shards_skipped".to_owned(),
            counter("ckpt.shards_skipped"),
        ),
        ("par.busy_s".to_owned(), busy),
        ("par.busy_frac".to_owned(), busy / (JOBS as f64 * wall)),
    ]);
    out
}
