//! The audit component (paper §2.3, "Audit" + Figure 4): evaluate a
//! workload per group × measure, compute disparities, and flag groups
//! whose disparity exceeds the fairness threshold.

use crate::fairness::{Disparity, FairnessMeasure, Paradigm};
use crate::matcher::MatcherFailure;
use crate::sensitive::{GroupId, GroupSpace};
use crate::workload::Workload;

/// Audit configuration (the demo's Step-3 form).
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Single or pairwise fairness.
    pub paradigm: Paradigm,
    /// Measures to evaluate.
    pub measures: Vec<FairnessMeasure>,
    /// Subtraction- or division-based disparity.
    pub disparity: Disparity,
    /// Disparity above this is unfair (the demo default is 0.2).
    pub fairness_threshold: f64,
    /// Groups with fewer legitimate correspondences than this are
    /// reported as insufficient-support instead of receiving a verdict.
    pub min_support: usize,
    /// Report only unfair entries.
    pub only_unfair: bool,
    /// For the pairwise paradigm: index of the sensitive attribute whose
    /// level-1 groups are paired.
    pub pairwise_attr: usize,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            paradigm: Paradigm::Single,
            measures: FairnessMeasure::PAPER_FIVE.to_vec(),
            disparity: Disparity::Subtraction,
            fairness_threshold: 0.2,
            min_support: 10,
            only_unfair: false,
            pairwise_attr: 0,
        }
    }
}

/// One audited (measure, group) cell.
#[derive(Debug, Clone)]
pub struct AuditEntry {
    /// Matcher under audit.
    pub matcher: String,
    /// Paradigm used.
    pub paradigm: Paradigm,
    /// Measure evaluated.
    pub measure: FairnessMeasure,
    /// Group display name (`"cn"`, or `"cn×de"` for pairwise).
    pub group: String,
    /// Primary group id.
    pub group_id: GroupId,
    /// Second group id for pairwise entries.
    pub group_id2: Option<GroupId>,
    /// The group-conditional value `Pr(α | β, g)`.
    pub group_value: f64,
    /// The workload-wide value `Pr(α | β)`.
    pub overall_value: f64,
    /// Disparity per the configured notion; `NaN` when the group value
    /// is undefined on this workload.
    pub disparity: f64,
    /// Number of legitimate correspondences for the group.
    pub support: usize,
    /// Verdict: disparity exceeded the fairness threshold.
    pub unfair: bool,
}

impl AuditEntry {
    /// Entry lacks enough data for a verdict.
    pub fn insufficient(&self) -> bool {
        self.disparity.is_nan()
    }
}

/// The audit result for one matcher.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Matcher name.
    pub matcher: String,
    /// Matching threshold the workload was evaluated at.
    pub matching_threshold: f64,
    /// Fairness threshold used for verdicts.
    pub fairness_threshold: f64,
    /// All audited cells.
    pub entries: Vec<AuditEntry>,
    /// Matchers that failed before this audit (degraded coverage). Empty
    /// on a clean run; populated by [`crate::pipeline::Session::audit`]
    /// so report readers see which fleet members are missing.
    pub degraded: Vec<MatcherFailure>,
}

impl AuditReport {
    /// True when the audited session lost matchers to failures.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// Entries flagged unfair.
    pub fn unfair(&self) -> impl Iterator<Item = &AuditEntry> {
        self.entries.iter().filter(|e| e.unfair)
    }

    /// Look up a single-paradigm cell by measure and group name.
    pub fn entry(&self, measure: FairnessMeasure, group: &str) -> Option<&AuditEntry> {
        self.entries
            .iter()
            .find(|e| e.measure == measure && e.group == group)
    }

    /// The maximum finite disparity across all cells (0.0 if none).
    pub fn max_disparity(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.disparity)
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// Is any cell unfair?
    pub fn any_unfair(&self) -> bool {
        self.entries.iter().any(|e| e.unfair)
    }
}

/// Executes audits over workloads.
#[derive(Debug, Clone, Default)]
pub struct Auditor {
    /// The audit configuration.
    pub config: AuditConfig,
}

impl Auditor {
    /// Create an auditor.
    pub fn new(config: AuditConfig) -> Auditor {
        Auditor { config }
    }

    /// Audit one matcher's workload over a group space.
    pub fn audit(&self, matcher: &str, workload: &Workload, space: &GroupSpace) -> AuditReport {
        let overall = workload.overall_confusion();
        let mut entries = Vec::new();
        match self.config.paradigm {
            Paradigm::Single => {
                for g in space.ids() {
                    let cm = workload.group_confusion(g);
                    let support = workload.group_support(g);
                    for &measure in &self.config.measures {
                        entries.push(self.entry(
                            matcher,
                            measure,
                            space.name(g).to_owned(),
                            g,
                            None,
                            measure.value(&overall),
                            measure.value(&cm),
                            support,
                        ));
                    }
                }
            }
            Paradigm::Pairwise => {
                let groups = space.level1_of_attr(self.config.pairwise_attr);
                for (i, &g1) in groups.iter().enumerate() {
                    for &g2 in &groups[i..] {
                        let cm = workload.pairwise_confusion(g1, g2);
                        let support = cm.total() as usize;
                        let name = format!("{}×{}", space.name(g1), space.name(g2));
                        for &measure in &self.config.measures {
                            entries.push(self.entry(
                                matcher,
                                measure,
                                name.clone(),
                                g1,
                                Some(g2),
                                measure.value(&overall),
                                measure.value(&cm),
                                support,
                            ));
                        }
                    }
                }
            }
        }
        if self.config.only_unfair {
            entries.retain(|e| e.unfair);
        }
        AuditReport {
            matcher: matcher.to_owned(),
            matching_threshold: workload.threshold,
            fairness_threshold: self.config.fairness_threshold,
            entries,
            degraded: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn entry(
        &self,
        matcher: &str,
        measure: FairnessMeasure,
        group: String,
        group_id: GroupId,
        group_id2: Option<GroupId>,
        overall_value: f64,
        group_value: f64,
        support: usize,
    ) -> AuditEntry {
        let enough = support >= self.config.min_support;
        let disparity = if enough {
            self.config
                .disparity
                .compute(overall_value, group_value, measure.higher_is_better())
        } else {
            f64::NAN
        };
        AuditEntry {
            matcher: matcher.to_owned(),
            paradigm: self.config.paradigm,
            measure,
            group,
            group_id,
            group_id2,
            group_value,
            overall_value,
            disparity,
            support,
            unfair: disparity.is_finite() && disparity > self.config.fairness_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Table;
    use crate::sensitive::{GroupVector, SensitiveAttr};
    use crate::workload::Correspondence;
    use fairem_csvio::parse_csv_str;

    fn space() -> GroupSpace {
        let t = Table::from_csv(parse_csv_str("id,g\na1,cn\na2,us\n").unwrap()).unwrap();
        GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")])
    }

    fn c(score: f64, truth: bool, left: u64, right: u64) -> Correspondence {
        Correspondence {
            a_row: 0,
            b_row: 0,
            score,
            truth,
            left: GroupVector(left),
            right: GroupVector(right),
        }
    }

    /// Workload where the matcher misses most cn true matches but not us.
    /// Group bit 0 = cn, bit 1 = us (BTreeSet order: cn < us).
    fn biased_workload() -> Workload {
        let mut items = Vec::new();
        // cn: 2/8 true matches found.
        for i in 0..8 {
            items.push(c(if i < 2 { 0.9 } else { 0.1 }, true, 0b01, 0b01));
        }
        // us: 7/8 true matches found.
        for i in 0..8 {
            items.push(c(if i < 7 { 0.9 } else { 0.1 }, true, 0b10, 0b10));
        }
        // Shared negatives, all correct.
        for _ in 0..8 {
            items.push(c(0.1, false, 0b01, 0b10));
        }
        Workload::new(items, 0.5)
    }

    #[test]
    fn flags_the_disadvantaged_group() {
        let auditor = Auditor::new(AuditConfig {
            measures: vec![FairnessMeasure::TruePositiveRateParity],
            min_support: 2,
            ..AuditConfig::default()
        });
        let report = auditor.audit("LinRegMatcher", &biased_workload(), &space());
        let cn = report
            .entry(FairnessMeasure::TruePositiveRateParity, "cn")
            .unwrap();
        let us = report
            .entry(FairnessMeasure::TruePositiveRateParity, "us")
            .unwrap();
        // Overall TPR = 9/16; cn TPR = 0.25, us = 0.875.
        assert!(cn.unfair, "cn disparity {}", cn.disparity);
        assert!(!us.unfair);
        assert!((cn.group_value - 0.25).abs() < 1e-12);
        assert!((cn.overall_value - 9.0 / 16.0).abs() < 1e-12);
        assert!(report.any_unfair());
        assert!(report.max_disparity() >= cn.disparity);
    }

    #[test]
    fn min_support_suppresses_verdicts() {
        let auditor = Auditor::new(AuditConfig {
            measures: vec![FairnessMeasure::TruePositiveRateParity],
            min_support: 1000,
            ..AuditConfig::default()
        });
        let report = auditor.audit("X", &biased_workload(), &space());
        for e in &report.entries {
            assert!(e.insufficient());
            assert!(!e.unfair);
        }
    }

    #[test]
    fn only_unfair_filters_entries() {
        let auditor = Auditor::new(AuditConfig {
            measures: vec![FairnessMeasure::TruePositiveRateParity],
            min_support: 2,
            only_unfair: true,
            ..AuditConfig::default()
        });
        let report = auditor.audit("X", &biased_workload(), &space());
        assert!(!report.entries.is_empty());
        assert!(report.entries.iter().all(|e| e.unfair));
    }

    #[test]
    fn pairwise_paradigm_pairs_groups() {
        let auditor = Auditor::new(AuditConfig {
            paradigm: Paradigm::Pairwise,
            measures: vec![FairnessMeasure::AccuracyParity],
            min_support: 1,
            ..AuditConfig::default()
        });
        let report = auditor.audit("X", &biased_workload(), &space());
        let groups: Vec<&str> = report.entries.iter().map(|e| e.group.as_str()).collect();
        // cn×cn, cn×us, us×us.
        assert_eq!(groups.len(), 3);
        assert!(groups.contains(&"cn×cn"));
        assert!(groups.contains(&"cn×us"));
        assert!(groups.contains(&"us×us"));
        // The mixed pair holds all (correct) negatives → perfect accuracy.
        let mixed = report.entries.iter().find(|e| e.group == "cn×us").unwrap();
        assert!((mixed.group_value - 1.0).abs() < 1e-12);
        assert_eq!(mixed.disparity, 0.0);
    }

    #[test]
    fn division_disparity_also_supported() {
        let auditor = Auditor::new(AuditConfig {
            measures: vec![FairnessMeasure::TruePositiveRateParity],
            disparity: Disparity::Division,
            min_support: 2,
            ..AuditConfig::default()
        });
        let report = auditor.audit("X", &biased_workload(), &space());
        let cn = report
            .entry(FairnessMeasure::TruePositiveRateParity, "cn")
            .unwrap();
        // 1 − 0.25/(9/16) = 1 − 4/9.
        assert!((cn.disparity - (1.0 - 0.25 / (9.0 / 16.0))).abs() < 1e-12);
    }
}
