//! The metric-name registry: the **single source of truth** for every
//! counter, gauge, histogram, and span name the suite emits.
//!
//! DESIGN.md §8 promises a stable snapshot schema and
//! `bench_baseline --validate` parses real snapshots against it; both
//! promises rot silently when a call site renames a metric or a new
//! stage invents a name nobody documents. `fairem-lint`'s
//! `metrics_registry` rule closes the loop: every
//! `.incr(/.add(/.gauge(/.observe(/.time(/.span(` call on a recorder
//! must pass a **string literal** that is declared here, and every
//! name declared here must be emitted by at least one call site —
//! drift in either direction is a lint finding.
//!
//! Conventions: dot-separated lowercase segments, `<subsystem>.<what>`
//! (histograms end in a unit suffix such as `_secs` or `_bytes`).
//! Span names are bare stage names (`import`, `train`, …) matching the
//! stage table rendered by `bench_baseline`. Per-matcher span
//! *children* (`train.DTMatcher`, `audit.3`, …) are dynamic by design
//! and are not registered — the registry covers the stable schema, not
//! the per-run fan-out.

// ---- spans (pipeline stages) ----------------------------------------

/// Root import stage: CSV → validated tables.
pub const SPAN_IMPORT: &str = "import";
/// Pair preparation: candidate generation + split + labels.
pub const SPAN_PREP: &str = "prep";
/// Blocking stage (token / sorted-neighborhood kernels).
pub const SPAN_BLOCKING: &str = "blocking";
/// Columnar feature build + per-split matrices.
pub const SPAN_FEATURES: &str = "features";
/// Per-matcher training fan-out parent.
pub const SPAN_TRAIN: &str = "train";
/// Per-matcher scoring fan-out parent.
pub const SPAN_SCORE: &str = "score";
/// One test-split shard (only when a run has more than one).
pub const SPAN_SHARD: &str = "shard";
/// Fairness audit stage.
pub const SPAN_AUDIT: &str = "audit";
/// Calibration stage parent (suite-level).
pub const SPAN_CALIB: &str = "calib";
/// Per-group calibrator fitting (fairem-calib).
pub const SPAN_CALIB_FIT: &str = "calib.fit";
/// Ensemble Pareto-frontier enumeration.
pub const SPAN_ENSEMBLE: &str = "ensemble";

// ---- counters -------------------------------------------------------

/// Rows ingested across both tables.
pub const IMPORT_ROWS: &str = "import.rows";
/// Rows quarantined on lenient import.
pub const IMPORT_QUARANTINED: &str = "import.quarantined";
/// Row chunks the feature-generator build prepared (every aligned
/// column side is cut into fixed-length chunks).
pub const FEATURES_BUILD_CHUNKS: &str = "features.build.chunks";
/// Cells the feature-generator build prepared, over every aligned
/// column of both tables.
pub const FEATURES_BUILD_CELLS: &str = "features.build.cells";
/// Candidate pairs featurized.
pub const FEATURES_PAIRS: &str = "features.pairs";
/// Blocking tokens considered eligible.
pub const BLOCKING_TOKENS: &str = "blocking.tokens";
/// Checkpoint shards skipped on resume (already committed).
pub const CKPT_SHARDS_SKIPPED: &str = "ckpt.shards_skipped";
/// Checkpoint shards written this run.
pub const CKPT_SHARDS_WRITTEN: &str = "ckpt.shards_written";
/// Checkpoint shards recomputed (stale/corrupt on disk).
pub const CKPT_SHARDS_RECOMPUTED: &str = "ckpt.shards_recomputed";
/// Parallel regions entered by the worker pool.
pub const PAR_REGIONS: &str = "par.regions";
/// Items mapped across all parallel regions.
pub const PAR_ITEMS: &str = "par.items";
/// Chunks executed by the worker pool.
pub const PAR_CHUNKS: &str = "par.chunks";
/// Calibrator groups fitted (also mirrored as a gauge).
pub const CALIB_GROUPS_FITTED: &str = "calib.groups_fitted";
/// Calibrator groups routed to the global fallback.
pub const CALIB_FALLBACKS: &str = "calib.fallbacks";
/// Validation samples consumed by calibrator fitting.
pub const CALIB_SAMPLES: &str = "calib.samples";
/// Connections accepted by the audit server.
pub const SERVE_ACCEPTED: &str = "serve.accepted";
/// Connections shed by admission control.
pub const SERVE_SHED_CONNECTIONS: &str = "serve.shed.connections";
/// Requests shed by the in-flight cap.
pub const SERVE_SHED_REQUESTS: &str = "serve.shed.requests";
/// Requests dispatched.
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Requests answered with a structured partial (deadline cut).
pub const SERVE_PARTIAL: &str = "serve.partial";
/// Requests whose handler panicked (contained per connection).
pub const SERVE_PANICS: &str = "serve.panics";
/// Connections quarantined after repeated malformed frames.
pub const SERVE_QUARANTINED: &str = "serve.quarantined";
/// Malformed-frame protocol errors.
pub const SERVE_ERRORS_PROTOCOL: &str = "serve.errors.protocol";
/// Calibrator cache hits on a served session.
pub const SERVE_CALIB_CACHE_HIT: &str = "serve.calib.cache_hit";
/// Calibrator cache misses (fit performed).
pub const SERVE_CALIB_CACHE_MISS: &str = "serve.calib.cache_miss";
/// In-flight requests severed by the drain deadline.
pub const SERVE_DRAIN_FORCED_CUTS: &str = "serve.drain.forced_cuts";

// ---- gauges ---------------------------------------------------------

/// Training-split candidate pairs.
pub const PAIRS_TRAIN: &str = "pairs.train";
/// Validation-split candidate pairs.
pub const PAIRS_VALID: &str = "pairs.valid";
/// Test-split candidate pairs.
pub const PAIRS_TEST: &str = "pairs.test";
/// Whole-run peak of the deterministic memory cost model.
pub const MEM_PEAK_BYTES: &str = "mem.peak_bytes";
/// Per-stage cost-model peak: training features.
pub const MEM_STAGE_PEAK_TRAIN: &str = "mem.stage_peak_bytes.train";
/// Per-stage cost-model peak: validation and test scoring.
pub const MEM_STAGE_PEAK_SCORE: &str = "mem.stage_peak_bytes.score";
/// Shards the test split was scored in.
pub const SHARD_COUNT: &str = "shard.count";
/// Ensemble assignments enumerated.
pub const ENSEMBLE_ASSIGNMENTS: &str = "ensemble.assignments";
/// Fleet-max per-group KS distance, uncalibrated scores.
pub const CALIB_KS_MAX_RAW: &str = "calib.ks_max.raw";
/// Fleet-max per-group KS distance, calibrated scores.
pub const CALIB_KS_MAX_CALIBRATED: &str = "calib.ks_max.calibrated";
/// Sessions resident in the serve registry.
pub const SERVE_SESSIONS_CACHED: &str = "serve.sessions.cached";

// ---- histograms -----------------------------------------------------

/// Worker-pool chunk wall time.
pub const PAR_CHUNK_SECS: &str = "par.chunk_secs";
/// Server drain wall time.
pub const SERVE_DRAIN_SECS: &str = "serve.drain_secs";
/// Per-request wall time on the audit server.
pub const SERVE_REQUEST_SECS: &str = "serve.request_secs";

/// Every registered name, for exhaustiveness checks. Kept sorted so a
/// snapshot diff against this list is itself deterministic.
pub const ALL: &[&str] = &[
    SPAN_AUDIT,
    SPAN_BLOCKING,
    BLOCKING_TOKENS,
    SPAN_CALIB,
    CALIB_FALLBACKS,
    SPAN_CALIB_FIT,
    CALIB_GROUPS_FITTED,
    CALIB_KS_MAX_CALIBRATED,
    CALIB_KS_MAX_RAW,
    CALIB_SAMPLES,
    CKPT_SHARDS_RECOMPUTED,
    CKPT_SHARDS_SKIPPED,
    CKPT_SHARDS_WRITTEN,
    SPAN_ENSEMBLE,
    ENSEMBLE_ASSIGNMENTS,
    SPAN_FEATURES,
    FEATURES_BUILD_CELLS,
    FEATURES_BUILD_CHUNKS,
    FEATURES_PAIRS,
    SPAN_IMPORT,
    IMPORT_QUARANTINED,
    IMPORT_ROWS,
    MEM_PEAK_BYTES,
    MEM_STAGE_PEAK_SCORE,
    MEM_STAGE_PEAK_TRAIN,
    PAIRS_TEST,
    PAIRS_TRAIN,
    PAIRS_VALID,
    PAR_CHUNK_SECS,
    PAR_CHUNKS,
    PAR_ITEMS,
    PAR_REGIONS,
    SPAN_PREP,
    SPAN_SCORE,
    SERVE_ACCEPTED,
    SERVE_CALIB_CACHE_HIT,
    SERVE_CALIB_CACHE_MISS,
    SERVE_DRAIN_FORCED_CUTS,
    SERVE_DRAIN_SECS,
    SERVE_ERRORS_PROTOCOL,
    SERVE_PANICS,
    SERVE_PARTIAL,
    SERVE_QUARANTINED,
    SERVE_REQUEST_SECS,
    SERVE_REQUESTS,
    SERVE_SESSIONS_CACHED,
    SERVE_SHED_CONNECTIONS,
    SERVE_SHED_REQUESTS,
    SPAN_SHARD,
    SHARD_COUNT,
    SPAN_TRAIN,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn registry_is_sorted_and_duplicate_free() {
        let mut sorted = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.as_slice(), ALL, "ALL must stay sorted and unique");
    }

    #[test]
    fn names_follow_the_dot_separated_lowercase_convention() {
        for name in ALL {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "metric name `{name}` breaks the lowercase dot convention"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'));
        }
    }
}
