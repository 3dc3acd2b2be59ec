//! Shared harness for the figure-regeneration and experiment binaries:
//! builds the demo sessions (FacultyMatch, NoFlyCompas) with the same
//! parameters every figure uses, so numbers are comparable across
//! binaries. Timing lives in `perfbench/` (see its README), the one
//! benchmark runner; `bench_baseline` here only validates snapshots and
//! runs the check-gate perf leg.

use fairem_core::audit::{AuditConfig, Auditor};
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::matcher::MatcherKind;
use fairem_core::pipeline::{FairEm360, Session, SuiteConfig};
use fairem_core::prep::PrepConfig;
use fairem_core::sensitive::SensitiveAttr;
use fairem_datasets::{faculty_match, nofly_compas, FacultyConfig, GeneratedDataset, NoFlyConfig};

/// Abort with an actionable message when a value the figures rely on is
/// missing.
///
/// The figure binaries are CLI tools: a missing matcher, group, or
/// column is an operator/setup error, reported on stderr with exit
/// code 2 instead of a panic and backtrace.
pub trait OrFail<T> {
    fn orfail(self, what: &str) -> T;
}

impl<T> OrFail<T> for Option<T> {
    fn orfail(self, what: &str) -> T {
        match self {
            Some(v) => v,
            None => fail(what),
        }
    }
}

impl<T, E: std::fmt::Display> OrFail<T> for Result<T, E> {
    fn orfail(self, what: &str) -> T {
        match self {
            Ok(v) => v,
            Err(e) => fail(&format!("{what}: {e}")),
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("fairem-bench: {msg}");
    std::process::exit(2)
}

/// The matching threshold every figure evaluates at (demo Step 3).
pub const MATCHING_THRESHOLD: f64 = 0.5;
/// The fairness threshold (the demo's red line, the 20% rule).
pub const FAIRNESS_THRESHOLD: f64 = 0.2;

/// Import a generated dataset into the suite.
pub fn import(dataset: &GeneratedDataset) -> FairEm360 {
    let sensitive = dataset
        .sensitive
        .iter()
        .map(|c| SensitiveAttr::categorical(c.clone()))
        .collect::<Vec<_>>();
    FairEm360::builder()
        .tables(dataset.table_a.clone(), dataset.table_b.clone())
        .ground_truth(dataset.matches.clone())
        .sensitive(sensitive)
        .config(suite_config())
        .build()
        .orfail("generated datasets are schema-valid")
}

/// The suite configuration shared by all figures.
pub fn suite_config() -> SuiteConfig {
    SuiteConfig {
        prep: PrepConfig {
            blocking_columns: vec!["name".into()],
            negative_ratio: 6.0,
            train_frac: 0.55,
            valid_frac: 0.05,
            ..PrepConfig::default()
        },
        matching_threshold: MATCHING_THRESHOLD,
        ..SuiteConfig::default()
    }
}

/// The FacultyMatch demo dataset at paper scale.
pub fn faculty_dataset() -> GeneratedDataset {
    faculty_match(&FacultyConfig::default())
}

/// The NoFlyCompas demo dataset at paper scale.
pub fn nofly_dataset() -> GeneratedDataset {
    nofly_compas(&NoFlyConfig::default())
}

/// Train the full ten-matcher fleet on FacultyMatch (the session behind
/// Figures 1 and 3–7).
pub fn faculty_session() -> Session {
    import(&faculty_dataset())
        .try_run(&MatcherKind::ALL)
        .orfail("faculty fleet trains")
}

/// The default auditor used by the figures: single fairness, the five
/// headline measures, subtraction disparity, thresholds per the demo.
pub fn default_auditor() -> Auditor {
    Auditor::new(AuditConfig {
        measures: FairnessMeasure::PAPER_FIVE.to_vec(),
        disparity: Disparity::Subtraction,
        fairness_threshold: FAIRNESS_THRESHOLD,
        min_support: 20,
        ..AuditConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_session_builds_and_audits() {
        let s = import(&faculty_match(&FacultyConfig::small()))
            .try_run(&[MatcherKind::DtMatcher, MatcherKind::LinRegMatcher])
            .unwrap();
        let reports = s.audit_all(&default_auditor());
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| !r.entries.is_empty()));
    }
}
