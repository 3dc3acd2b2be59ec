//! Threshold-independent calibrated audits: the `CalibratedAudit`
//! report section behind `--calibrate` / `--all-thresholds`.
//!
//! Single-threshold audits answer "is the matcher fair at *this*
//! operating point"; the paper's Fig. 4 shows the answer can flip as the
//! threshold moves. This module audits the score *distributions*
//! instead: per-group Kolmogorov–Smirnov and 1-Wasserstein distances
//! against the workload-wide distribution (zero iff the group is
//! treated identically at every threshold), plus a trapezoid-swept
//! "fairness area" that integrates the max paired-group disparity of
//! each measure over the whole threshold grid. Fitting is delegated to
//! [`fairem_calib::GroupCalibrator`]; this module adapts the suite's
//! `Workload`/`GroupSpace` model onto calib's plain-slice API.

use fairem_calib::{CalibrationSpec, GroupCalibrator};
use fairem_par::{CancelToken, Interrupt, WorkerPool};
use fairem_stats::{ks_distance, trapezoid, wasserstein_1};

use crate::fairness::{Disparity, FairnessMeasure};
use crate::sensitive::{GroupId, GroupSpace};
use crate::threshold::sweep;
use crate::workload::{Correspondence, Workload};

/// Assign each correspondence to the first group (in `groups` order)
/// either side belongs to — one routing rule for fitting and applying,
/// so calibrators and audits agree on membership.
pub fn assign_groups(items: &[Correspondence], groups: &[GroupId]) -> Vec<Option<usize>> {
    items
        .iter()
        .map(|c| {
            groups
                .iter()
                .position(|&g| c.left.contains(g) || c.right.contains(g))
        })
        .collect()
}

/// Fit a [`GroupCalibrator`] on a fitting workload's scores and truth
/// labels under the given pool and cancellation token.
///
/// # Panics
/// If the fitting workload is empty or `groups` is empty.
pub fn fit_on_workload(
    spec: CalibrationSpec,
    fit: &Workload,
    groups: &[GroupId],
    pool: &WorkerPool,
    cancel: &CancelToken,
) -> Result<GroupCalibrator, Interrupt> {
    assert!(!groups.is_empty(), "need at least one calibration group");
    let scores: Vec<f64> = fit.items.iter().map(|c| c.score).collect();
    let labels: Vec<f64> = fit.items.iter().map(|c| f64::from(c.truth)).collect();
    let group_of = assign_groups(&fit.items, groups);
    GroupCalibrator::try_fit(spec, &scores, &labels, &group_of, groups.len(), pool, cancel)
}

/// Remap an evaluation workload's scores through a fitted calibrator,
/// routing each correspondence by the same group-assignment rule the
/// fit used. Threshold and truth labels are untouched.
pub fn apply_calibrator(
    cal: &GroupCalibrator,
    eval: &Workload,
    groups: &[GroupId],
) -> Workload {
    let group_of = assign_groups(&eval.items, groups);
    let items = eval
        .items
        .iter()
        .zip(&group_of)
        .map(|(c, &slot)| Correspondence {
            score: cal.transform(slot, c.score),
            ..*c
        })
        .collect();
    Workload::new(items, eval.threshold)
}

/// Score-distribution distances of one group against the whole
/// workload. Zero for both iff the group's empirical score CDF
/// coincides with the overall CDF — i.e. the group is treated
/// identically at *every* matching threshold.
#[derive(Debug, Clone)]
pub struct DistributionEntry {
    /// Group name.
    pub group: String,
    /// Number of correspondences involving the group.
    pub support: usize,
    /// Kolmogorov–Smirnov distance vs the overall score distribution.
    pub ks: f64,
    /// 1-Wasserstein distance vs the overall score distribution.
    pub wasserstein: f64,
}

/// Trapezoid-swept fairness area of one measure: the max paired-group
/// disparity integrated over the threshold grid, normalized by the grid
/// width — a threshold-free summary in the same `[0, 1]` scale as a
/// single-threshold disparity.
#[derive(Debug, Clone)]
pub struct FairnessArea {
    /// The measure swept.
    pub measure: FairnessMeasure,
    /// Normalized integral of the max disparity over the grid.
    pub area: f64,
}

/// The threshold-independent audit of one workload: per-group
/// distribution distances plus per-measure fairness areas.
#[derive(Debug, Clone)]
pub struct DistributionAudit {
    /// One row per audited group.
    pub entries: Vec<DistributionEntry>,
    /// One row per swept measure.
    pub areas: Vec<FairnessArea>,
}

impl DistributionAudit {
    /// Max finite KS distance across groups — the "KS disparity" the
    /// calibration gate in check.sh compares before/after.
    pub fn max_ks(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.ks)
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// Max finite 1-Wasserstein distance across groups.
    pub fn max_wasserstein(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.wasserstein)
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// Max finite fairness area across measures.
    pub fn max_area(&self) -> f64 {
        self.areas
            .iter()
            .map(|a| a.area)
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }
}

/// Compute the threshold-independent audit of a workload: group-wise
/// KS / 1-Wasserstein distances of score distributions (NaN for groups
/// with no evidence, mirroring the single-threshold audit's
/// insufficient-support convention) and the trapezoid-swept fairness
/// area of each measure over `grid`.
///
/// # Panics
/// If the workload is empty or `grid` has fewer than two points.
pub fn distribution_audit(
    workload: &Workload,
    space: &GroupSpace,
    groups: &[GroupId],
    measures: &[FairnessMeasure],
    disparity: Disparity,
    grid: &[f64],
) -> DistributionAudit {
    assert!(!workload.items.is_empty(), "cannot audit an empty workload");
    assert!(grid.len() >= 2, "fairness area needs at least two grid points");
    let overall: Vec<f64> = workload.items.iter().map(|c| c.score).collect();
    let entries = groups
        .iter()
        .map(|&g| {
            let group_scores: Vec<f64> = workload
                .items
                .iter()
                .filter(|c| c.left.contains(g) || c.right.contains(g))
                .map(|c| c.score)
                .collect();
            let (ks, wasserstein) = if group_scores.is_empty() {
                (f64::NAN, f64::NAN)
            } else {
                (
                    ks_distance(&group_scores, &overall),
                    wasserstein_1(&group_scores, &overall),
                )
            };
            DistributionEntry {
                group: space.name(g).to_owned(),
                support: group_scores.len(),
                ks,
                wasserstein,
            }
        })
        .collect();
    let width = grid[grid.len() - 1] - grid[0];
    let areas = measures
        .iter()
        .map(|&measure| {
            let sw = sweep(workload, space, groups, measure, grid);
            let disparities = sw.max_disparity(disparity);
            FairnessArea {
                measure,
                area: trapezoid(grid, &disparities) / width,
            }
        })
        .collect();
    DistributionAudit { entries, areas }
}

/// The `CalibratedAudit` report section: the threshold-independent
/// audit of a matcher's raw scores, side by side with the audit of the
/// per-group calibrated scores when a calibration policy is active.
#[derive(Debug, Clone)]
pub struct CalibratedAudit {
    /// Matcher audited.
    pub matcher: String,
    /// Calibration policy label (`platt:10`, …), `None` when the audit
    /// covers raw scores only (`--all-thresholds` without `--calibrate`).
    pub calibration: Option<String>,
    /// Groups that earned a dedicated calibrator fit.
    pub groups_fitted: usize,
    /// Groups routed to the global fallback.
    pub fallbacks: usize,
    /// Threshold-independent audit of the raw scores.
    pub baseline: DistributionAudit,
    /// Same audit after per-group calibration (when active).
    pub calibrated: Option<DistributionAudit>,
}

impl CalibratedAudit {
    /// Whether calibration reduced (or held) the KS disparity —
    /// `None` when no calibration ran.
    pub fn ks_improved(&self) -> Option<bool> {
        self.calibrated
            .as_ref()
            .map(|c| c.max_ks() <= self.baseline.max_ks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Table;
    use crate::sensitive::{GroupVector, SensitiveAttr};
    use crate::threshold::default_grid;
    use fairem_csvio::parse_csv_str;
    use fairem_par::Parallelism;

    fn space() -> GroupSpace {
        let t = Table::from_csv(parse_csv_str("id,g\na1,cn\na2,us\n").unwrap()).unwrap();
        GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")])
    }

    fn c(score: f64, truth: bool, bits: u64) -> Correspondence {
        Correspondence {
            a_row: 0,
            b_row: 0,
            score,
            truth,
            left: GroupVector(bits),
            right: GroupVector(bits),
        }
    }

    /// The Fig. 4 fixture: cn scores compressed into [0.25, 0.45], us
    /// spread over [0.1, 0.9], perfect ranking in both.
    fn miscalibrated() -> Workload {
        let mut items = Vec::new();
        for i in 0..40 {
            let frac = i as f64 / 40.0;
            items.push(c(0.25 + 0.20 * frac, frac > 0.5, 0b01));
            items.push(c(0.1 + 0.8 * frac, frac > 0.5, 0b10));
        }
        Workload::new(items, 0.5)
    }

    #[test]
    fn distribution_audit_flags_the_compressed_group() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let audit = distribution_audit(
            &w,
            &sp,
            &groups,
            &[FairnessMeasure::TruePositiveRateParity],
            Disparity::Subtraction,
            &default_grid(),
        );
        assert_eq!(audit.entries.len(), 2);
        // The compressed cn band is far from the pooled distribution.
        assert!(audit.max_ks() > 0.25, "{}", audit.max_ks());
        assert!(audit.max_wasserstein() > 0.05);
        // TPR disparity integrated over all thresholds is substantial.
        assert!(audit.max_area() > 0.1, "{}", audit.max_area());
    }

    #[test]
    fn calibration_shrinks_distribution_distances() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let pool = WorkerPool::with_parallelism(Parallelism::Off);
        let cal = fit_on_workload(
            CalibrationSpec::isotonic(),
            &w,
            &groups,
            &pool,
            &CancelToken::inert(),
        )
        .expect("inert token");
        let calibrated = apply_calibrator(&cal, &w, &groups);
        let measures = [FairnessMeasure::TruePositiveRateParity];
        let before =
            distribution_audit(&w, &sp, &groups, &measures, Disparity::Subtraction, &default_grid());
        let after = distribution_audit(
            &calibrated,
            &sp,
            &groups,
            &measures,
            Disparity::Subtraction,
            &default_grid(),
        );
        assert!(after.max_ks() < before.max_ks(), "{} vs {}", after.max_ks(), before.max_ks());
        assert!(after.max_wasserstein() < before.max_wasserstein());
        assert!(after.max_area() < before.max_area());
    }

    #[test]
    fn per_group_calibration_restores_fairness_at_fixed_threshold() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        // Before: cn TPR at 0.5 is 0.
        let before = w.group_confusion(groups[0]).tpr();
        assert!(before < 0.1, "{before}");
        let pool = WorkerPool::with_parallelism(Parallelism::Off);
        let cal = fit_on_workload(
            CalibrationSpec::platt(),
            &w,
            &groups,
            &pool,
            &CancelToken::inert(),
        )
        .expect("inert token");
        let calibrated = apply_calibrator(&cal, &w, &groups);
        let after = calibrated.group_confusion(groups[0]).tpr();
        assert!(after > 0.8, "calibrated cn TPR {after}");
        // us remains good.
        assert!(calibrated.group_confusion(groups[1]).tpr() > 0.8);
    }

    #[test]
    fn distribution_audit_is_threshold_invariant() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let measures = [FairnessMeasure::TruePositiveRateParity];
        let at = |t: f64| {
            distribution_audit(
                &w.with_threshold(t),
                &sp,
                &groups,
                &measures,
                Disparity::Subtraction,
                &default_grid(),
            )
        };
        let (a, b) = (at(0.35), (at(0.50)));
        // The distances and areas read the scores, not the operating
        // point: bit-for-bit equal under any workload threshold.
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.ks.to_bits(), eb.ks.to_bits());
            assert_eq!(ea.wasserstein.to_bits(), eb.wasserstein.to_bits());
        }
        assert_eq!(a.areas[0].area.to_bits(), b.areas[0].area.to_bits());
    }

    #[test]
    fn evidence_free_groups_read_nan_not_a_verdict() {
        let w = Workload::new(vec![c(0.9, true, 0b01), c(0.1, false, 0b01)], 0.5);
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let audit = distribution_audit(
            &w,
            &sp,
            &groups,
            &[FairnessMeasure::AccuracyParity],
            Disparity::Subtraction,
            &default_grid(),
        );
        assert!(audit.entries[1].ks.is_nan());
        assert!(audit.entries[1].wasserstein.is_nan());
        assert_eq!(audit.entries[1].support, 0);
        assert!(audit.max_ks().is_finite());
    }
}
