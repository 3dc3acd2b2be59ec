//! Extension experiment (paper refs \[10\]/\[12\]): threshold-sensitivity of
//! fairness, AUC-based (threshold-independent) fairness, and per-group
//! score calibration as an alternative resolution.

use fairem_bench::{faculty_session, FAIRNESS_THRESHOLD};
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::sensitive::GroupId;
use fairem_core::threshold::{auc_parity, default_grid, suggest_threshold, sweep};
use fairem_core::CalibrationSpec;
use fairem_bench::OrFail;

fn main() {
    println!("=== Extension: threshold sensitivity & calibration (LinRegMatcher) ===\n");
    let session = faculty_session();
    let groups: Vec<GroupId> = session.space.level1_of_attr(0);
    let workload = session
        .workload("LinRegMatcher")
        .orfail("LinRegMatcher trained");

    // 1. Threshold sweep of TPRP.
    let grid: Vec<f64> = (1..20).map(|i| i as f64 * 0.05).collect();
    let sw = sweep(
        &workload,
        &session.space,
        &groups,
        FairnessMeasure::TruePositiveRateParity,
        &grid,
    );
    let disp = sw.max_disparity(Disparity::Subtraction);
    println!("threshold  overall-TPR  cn-TPR  max-disparity  verdict");
    let cn_curve = &sw
        .per_group
        .iter()
        .find(|(n, _)| n == "cn")
        .orfail("cn exists")
        .1;
    for (i, &t) in sw.thresholds.iter().enumerate() {
        println!(
            "{t:>9.2} {:>12.3} {:>7.3} {:>14.3}  {}",
            sw.overall[i],
            cn_curve[i],
            disp[i],
            if disp[i] <= FAIRNESS_THRESHOLD {
                "fair"
            } else {
                "UNFAIR"
            }
        );
    }

    // 2. Constrained threshold suggestion.
    match suggest_threshold(
        &workload,
        &session.space,
        &groups,
        FairnessMeasure::TruePositiveRateParity,
        Disparity::Subtraction,
        FAIRNESS_THRESHOLD,
        &default_grid(),
    ) {
        Some(t) => println!("\nsuggested fair threshold (max F1 s.t. disparity ≤ 0.2): {t:.2}"),
        None => println!("\nno fair threshold exists on the grid"),
    }

    // 3. AUC parity: is the unfairness threshold-induced or intrinsic?
    println!("\nAUC-based (threshold-independent) fairness:");
    for e in auc_parity(&workload, &session.space, &groups, Disparity::Subtraction) {
        println!(
            "  {:<6} AUC {:.3}  disparity {:.3}",
            e.group, e.auc, e.disparity
        );
    }

    // 4. Per-group Platt calibration as a resolution.
    println!("\nper-group calibration resolution (TPRP at threshold 0.5):");
    let calibrated = session
        .calibrated_workload_with("LinRegMatcher", CalibrationSpec::platt(), &groups)
        .orfail("LinRegMatcher trained");
    for &g in &groups {
        let before = workload.group_confusion(g).tpr();
        let after = calibrated.group_confusion(g).tpr();
        println!(
            "  {:<6} TPR {:.3} → {:.3}",
            session.space.name(g),
            before,
            after
        );
    }
    let before_cn = workload.group_confusion(groups[1]).tpr();
    let after_cn = calibrated.group_confusion(groups[1]).tpr();
    println!(
        "\ncn recall change from calibration alone: {:+.3}",
        after_cn - before_cn
    );
}
