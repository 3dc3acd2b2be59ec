//! The run's result: metrics by name with units, failure accounting,
//! and the one-line JSON the run ends with.

use fairem_csvio::Json;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("audit_s.p50", "s"),
    ("audit_s.p90", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: printed by every traced run, on every workload.
/// Layers that only some workloads reach (calibration, ensemble,
/// shards, checkpoints) are printed as report lines of the runs that
/// reach them.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("import.s", "s"),
    ("blocking.s", "s"),
    ("blocking.candidates", "count"),
    ("blocking.pair_quality", "ratio"),
    ("blocking.recall", "ratio"),
    ("blocking.recall.min_group", "ratio"),
    ("kernel.Levenshtein.ns_per_pair", "ns"),
    ("kernel.JaroWinkler.ns_per_pair", "ns"),
    ("kernel.JaccardWords.ns_per_pair", "ns"),
    ("kernel.JaccardQgrams.ns_per_pair", "ns"),
    ("kernel.CosineWords.ns_per_pair", "ns"),
    ("kernel.MongeElkan.ns_per_pair", "ns"),
    ("features.build_s", "s"),
    ("features.matrix_s", "s"),
    ("features.pairs", "count"),
    ("train.s", "s"),
    ("train.DTMatcher.s", "s"),
    ("train.LinRegMatcher.s", "s"),
    ("audit.s", "s"),
    ("par.busy_frac", "ratio"),
    ("mem.peak_bytes", "bytes"),
    ("mem.model_coverage", "ratio"),
    ("unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("serve.open.ms.p50", "ms"),
    ("serve.open.ms.p99", "ms"),
    ("serve.audit.ms.p50", "ms"),
    ("serve.audit.ms.p99", "ms"),
    ("serve.audit_one.ms.p50", "ms"),
    ("serve.audit_one.ms.p99", "ms"),
    ("serve.tune_threshold.ms.p50", "ms"),
    ("serve.tune_threshold.ms.p99", "ms"),
    ("serve.calibrate.ms.p50", "ms"),
    ("serve.calibrate.ms.p99", "ms"),
    ("serve.ensemble.ms.p50", "ms"),
    ("serve.ensemble.ms.p99", "ms"),
    ("serve.metrics.ms.p50", "ms"),
    ("serve.metrics.ms.p99", "ms"),
    ("serve.req_ms.p50", "ms"),
    ("serve.req_ms.p99", "ms"),
    ("serve.gen_late_ms.max", "ms"),
    ("serve.open.fail_frac", "ratio"),
];

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
    /// Every measured figure, in the order measured.
    pub figures: Vec<(String, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error from the program, or an output
    /// that did not match its reference.
    pub failed: u64,
    /// Outputs compared against a reference.
    pub checked: u64,
    /// Output checks that did not hold.
    pub mismatches: u64,
}

impl Report {
    /// Record one operation's outcome.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record one operation whose output is compared against a
    /// reference: a mismatch fails the operation and the run's checks.
    pub fn checked_op(&mut self, ran: bool, matches: bool) {
        self.op(ran && matches);
        self.checked += 1;
        if ran && !matches {
            self.mismatches += 1;
        }
    }

    /// Failed ÷ attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Record a figure (replacing an earlier one of the same name).
    pub fn put(&mut self, name: &str, value: f64) {
        match self.figures.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.figures.push((name.to_owned(), value)),
        }
    }

    /// A figure by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.figures
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Add a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The closing JSON line over `catalogue`. A failed operation (an
    /// error, a degraded run or an output mismatch) makes the run
    /// incorrect, and so does a catalogue metric the run could not
    /// measure or measured as a non-finite number, which is left out.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut metrics = Json::Obj(Vec::new());
        let mut complete = true;
        for (name, unit) in catalogue {
            match self.get(name) {
                Some(v) if v.is_finite() => metrics.push(
                    *name,
                    Json::obj([
                        ("value", Json::Num(v)),
                        ("unit", Json::Str((*unit).to_owned())),
                    ]),
                ),
                _ => complete = false,
            }
        }
        let correct = complete && self.failed == 0 && self.attempted > 0;
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_as_failures_and_fail_the_checks() {
        let mut r = Report::default();
        r.checked_op(true, true);
        r.checked_op(true, false);
        r.op(false);
        r.op(true);
        assert_eq!(r.attempted, 4);
        assert_eq!(r.failed, 2);
        assert_eq!(r.mismatches, 1);
        assert_eq!(r.fail_frac(), 0.5);
        r.put("x", 1.5);
        let j = Json::parse(&r.json(&[("x", "s")])).expect("valid JSON");
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("failed").and_then(Json::as_num), Some(2.0));
    }

    #[test]
    fn a_failed_operation_without_a_mismatch_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.checked_op(true, true);
        r.op(false);
        r.put("x", 1.5);
        assert_eq!(r.mismatches, 0);
        let j = Json::parse(&r.json(&[("x", "s")])).expect("valid JSON");
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("failed").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn json_carries_every_catalogue_metric_with_its_unit() {
        let mut r = Report::default();
        r.op(true);
        r.put("a", 0.123456789012);
        r.put("b", 2.0);
        r.put("a", 0.25);
        let line = r.json(&[("a", "s"), ("b", "ms")]);
        let j = Json::parse(&line).expect("valid JSON");
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let a = j.get("metrics").and_then(|m| m.get("a")).expect("a");
        assert_eq!(a.get("value").and_then(Json::as_num), Some(0.25));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_missing_or_non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.op(true);
        r.put("a", f64::INFINITY);
        let j = Json::parse(&r.json(&[("a", "s"), ("b", "s")])).expect("valid JSON");
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("metrics"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let j = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match j.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let want = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
    }
}
