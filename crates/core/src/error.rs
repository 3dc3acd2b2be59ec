//! Unified error taxonomy for suite execution.
//!
//! Every fallible path through the pipeline reports a [`SuiteError`]
//! carrying the [`Stage`] it failed in and a structured cause, replacing
//! the scattered panics the suite grew up with. Matcher-level failures
//! are deliberately *not* errors: they degrade the session (see
//! [`crate::matcher::MatcherStatus`]) and only escalate to
//! [`SuiteError::AllMatchersFailed`] when no matcher survives.

use crate::matcher::MatcherFailure;
use crate::schema::SchemaError;

/// Pipeline stage an error or matcher failure is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Reading and validating input tables and the ground truth.
    Import,
    /// Candidate generation, labeling, and splitting.
    Prep,
    /// Token / sorted-neighborhood blocking.
    Blocking,
    /// Similarity feature and token generation.
    FeatureGen,
    /// Matcher training.
    Train,
    /// Matcher scoring.
    Score,
    /// Fairness auditing.
    Audit,
    /// Ensemble / Pareto resolution.
    Resolve,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Import => "import",
            Stage::Prep => "prep",
            Stage::Blocking => "blocking",
            Stage::FeatureGen => "feature-gen",
            Stage::Train => "train",
            Stage::Score => "score",
            Stage::Audit => "audit",
            Stage::Resolve => "resolve",
        };
        f.write_str(s)
    }
}

/// A structured, stage-attributed suite failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteError {
    /// Filesystem-level failure (path + OS detail).
    Io {
        /// Path the operation touched.
        path: String,
        /// OS error text.
        detail: String,
    },
    /// Table violated the schema contract (missing/duplicate ids).
    Schema {
        /// Which table (`"tableA"`, `"tableB"`).
        table: String,
        /// The underlying schema violation.
        source: SchemaError,
    },
    /// Input data unusable at some stage (empty tables, no alignable
    /// columns, missing sensitive/blocking columns, …).
    Data {
        /// Stage that rejected the data.
        stage: Stage,
        /// Human-readable cause.
        detail: String,
    },
    /// Invalid configuration (bad split fractions, bad thresholds, …).
    Config {
        /// Human-readable cause.
        detail: String,
    },
    /// A non-matcher stage panicked; the panic was contained and
    /// converted.
    Stage {
        /// Stage the panic escaped from.
        stage: Stage,
        /// Captured panic payload.
        detail: String,
    },
    /// Every requested matcher failed; nothing is left to audit.
    AllMatchersFailed {
        /// Per-matcher stage + reason for the post-mortem.
        failures: Vec<MatcherFailure>,
    },
    /// A session accessor named a matcher that is not in the session
    /// (never trained, or quarantined by a failure).
    UnknownMatcher {
        /// The name that was asked for.
        matcher: String,
        /// The matchers the session actually holds, in registry order.
        known: Vec<String>,
    },
    /// The memory budget refused a stage's declared footprint. The
    /// numbers are the deterministic cost-model bytes (declared sizes,
    /// never allocator measurements), so the same configuration fails
    /// identically on every machine. Scoring windows already narrow to
    /// fit, so this means the training build (twice the training
    /// matrix), the resident training matrix plus retained score
    /// vectors, or a one-pair window on top of them does not fit; the
    /// remedy is a larger `--mem-budget`.
    MemExceeded {
        /// Stage whose build did not fit.
        stage: Stage,
        /// Bytes the build declared.
        requested: u64,
        /// Bytes already resident when the build was refused.
        in_use: u64,
        /// The configured budget.
        limit: u64,
    },
    /// The whole-suite budget expired (or the run was cancelled) at a
    /// pipeline stage. Per-matcher budget expiries do **not** raise
    /// this — they degrade the session exactly like a matcher panic and
    /// only escalate through [`SuiteError::AllMatchersFailed`].
    TimedOut {
        /// Stage the budget expired in.
        stage: Stage,
        /// The matcher being processed when the cut landed, if the
        /// stage was matcher-scoped.
        matcher: Option<String>,
        /// Wall time from run start to the cut.
        elapsed: std::time::Duration,
    },
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::Io { path, detail } => write!(f, "io error on {path:?}: {detail}"),
            SuiteError::Schema { table, source } => write!(f, "schema error in {table}: {source}"),
            SuiteError::Data { stage, detail } => write!(f, "data error at {stage}: {detail}"),
            SuiteError::Config { detail } => write!(f, "config error: {detail}"),
            SuiteError::Stage { stage, detail } => write!(f, "stage {stage} failed: {detail}"),
            SuiteError::AllMatchersFailed { failures } => {
                write!(f, "all {} matcher(s) failed:", failures.len())?;
                for mf in failures {
                    write!(f, " [{} at {}: {}]", mf.matcher, mf.stage, mf.reason)?;
                }
                Ok(())
            }
            SuiteError::MemExceeded {
                stage,
                requested,
                in_use,
                limit,
            } => write!(
                f,
                "memory budget exceeded at {stage}: need {requested} B with {in_use} B \
                 already resident (limit {limit} B); raise --mem-budget"
            ),
            SuiteError::TimedOut {
                stage,
                matcher,
                elapsed,
            } => {
                write!(f, "run timed out at {stage}")?;
                if let Some(m) = matcher {
                    write!(f, " (processing {m})")?;
                }
                write!(f, " after {:.3}s", elapsed.as_secs_f64())
            }
            SuiteError::UnknownMatcher { matcher, known } => {
                write!(f, "matcher {matcher:?} not in session (have: ")?;
                for (i, k) in known.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str(k)?;
                }
                f.write_str(")")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// Shorthand for suite-fallible functions.
pub type SuiteResult<T> = Result<T, SuiteError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_stage_and_cause() {
        let e = SuiteError::Data {
            stage: Stage::FeatureGen,
            detail: "no alignable feature columns".into(),
        };
        let s = e.to_string();
        assert!(s.contains("feature-gen"), "{s}");
        assert!(s.contains("no alignable"), "{s}");
    }

    #[test]
    fn all_matchers_failed_lists_each_failure() {
        let e = SuiteError::AllMatchersFailed {
            failures: vec![
                MatcherFailure::panicked("DTMatcher", Stage::Train, "injected".into()),
                MatcherFailure::panicked("SVMMatcher", Stage::Score, "boom".into()),
            ],
        };
        let s = e.to_string();
        assert!(s.contains("DTMatcher at train: injected"), "{s}");
        assert!(s.contains("SVMMatcher at score: boom"), "{s}");
    }

    #[test]
    fn unknown_matcher_names_the_alternatives() {
        let e = SuiteError::UnknownMatcher {
            matcher: "NoSuchMatcher".into(),
            known: vec!["DTMatcher".into(), "SVMMatcher".into()],
        };
        let s = e.to_string();
        assert!(s.contains("\"NoSuchMatcher\" not in session"), "{s}");
        assert!(s.contains("DTMatcher, SVMMatcher"), "{s}");
    }

    #[test]
    fn timed_out_names_stage_matcher_and_elapsed() {
        let e = SuiteError::TimedOut {
            stage: Stage::Train,
            matcher: Some("RFMatcher".into()),
            elapsed: std::time::Duration::from_millis(1250),
        };
        let s = e.to_string();
        assert!(s.contains("timed out at train"), "{s}");
        assert!(s.contains("RFMatcher"), "{s}");
        assert!(s.contains("1.250s"), "{s}");
        let anon = SuiteError::TimedOut {
            stage: Stage::FeatureGen,
            matcher: None,
            elapsed: std::time::Duration::from_secs(2),
        };
        assert!(anon.to_string().contains("timed out at feature-gen"));
    }

    #[test]
    fn mem_exceeded_carries_the_cost_model_numbers() {
        let e = SuiteError::MemExceeded {
            stage: Stage::FeatureGen,
            requested: 4096,
            in_use: 1024,
            limit: 2048,
        };
        let s = e.to_string();
        assert!(s.contains("memory budget exceeded at feature-gen"), "{s}");
        assert!(s.contains("need 4096 B"), "{s}");
        assert!(s.contains("limit 2048 B"), "{s}");
        assert!(s.contains("raise --mem-budget"), "{s}");
    }

    #[test]
    fn schema_error_wraps_source() {
        let e = SuiteError::Schema {
            table: "tableA".into(),
            source: SchemaError::DuplicateId("a0".into()),
        };
        assert!(e.to_string().contains("a0"));
    }
}
