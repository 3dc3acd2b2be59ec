//! Integration tests for the extension features: threshold analysis,
//! per-group calibration, data repair, setwise sensitive attributes,
//! and the AUC-parity lens — all through the public pipeline API.

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::fairness::{Disparity, FairnessMeasure};
use fairem360::core::matcher::MatcherKind;
use fairem360::core::pipeline::{FairEm360, SuiteConfig};
use fairem360::core::sensitive::{GroupId, SensitiveAttr};
use fairem360::core::threshold::{auc_parity, default_grid, group_auc, suggest_threshold, sweep};
use fairem360::core::CalibrationSpec;
use fairem360::csvio::parse_csv_str;
use fairem360::datasets::{faculty_match, FacultyConfig};

fn faculty_session() -> fairem360::core::pipeline::Session {
    let data = faculty_match(&FacultyConfig::default());
    FairEm360::builder()
        .tables(data.table_a, data.table_b)
        .ground_truth(data.matches)
        .sensitive([SensitiveAttr::categorical("country")])
        .build()
        .unwrap()
        .try_run(&[MatcherKind::LinRegMatcher])
        .unwrap()
}

#[test]
fn threshold_sweep_and_suggestion_on_real_session() {
    let s = faculty_session();
    let groups: Vec<GroupId> = s.space.level1_of_attr(0);
    let w = s.workload("LinRegMatcher").unwrap();
    let grid = default_grid();
    let sw = sweep(
        &w,
        &s.space,
        &groups,
        FairnessMeasure::TruePositiveRateParity,
        &grid,
    );
    assert_eq!(sw.thresholds.len(), grid.len());
    assert_eq!(sw.per_group.len(), groups.len());
    // Disparity at 0.5 exceeds a 0.15 fairness line; a fair suggestion
    // exists below it.
    let disp = sw.max_disparity(Disparity::Subtraction);
    let i50 = grid.iter().position(|&t| (t - 0.5).abs() < 1e-9).unwrap();
    assert!(disp[i50] > 0.15, "disparity at 0.5: {}", disp[i50]);
    let t = suggest_threshold(
        &w,
        &s.space,
        &groups,
        FairnessMeasure::TruePositiveRateParity,
        Disparity::Subtraction,
        0.15,
        &grid,
    )
    .expect("a fair threshold exists");
    assert!(t < 0.5, "suggested {t}");
}

#[test]
fn auc_parity_shows_calibration_not_ranking_harm() {
    let s = faculty_session();
    let groups: Vec<GroupId> = s.space.level1_of_attr(0);
    let w = s.workload("LinRegMatcher").unwrap();
    let entries = auc_parity(&w, &s.space, &groups, Disparity::Subtraction);
    let cn = entries.iter().find(|e| e.group == "cn").unwrap();
    // The ranking is nearly intact even though threshold-0.5 TPR breaks.
    assert!(cn.auc > 0.9, "cn AUC {}", cn.auc);
    assert!(cn.disparity < 0.1, "cn AUC disparity {}", cn.disparity);
    for e in &entries {
        let direct = group_auc(&w, s.space.by_name(&e.group).unwrap());
        assert!((direct - e.auc).abs() < 1e-12);
    }
}

#[test]
fn calibration_resolution_reduces_cn_disparity() {
    let s = faculty_session();
    let groups: Vec<GroupId> = s.space.level1_of_attr(0);
    let cn = s.space.by_name("cn").unwrap();
    let before = s
        .workload("LinRegMatcher")
        .unwrap()
        .group_confusion(cn)
        .tpr();
    let calibrated = s
        .calibrated_workload_with("LinRegMatcher", CalibrationSpec::platt(), &groups)
        .unwrap();
    let after = calibrated.group_confusion(cn).tpr();
    assert!(after > before + 0.1, "calibration: {before} -> {after}");
}

#[test]
fn repair_resolution_reduces_cn_disparity() {
    let s = faculty_session();
    let cn = s.space.by_name("cn").unwrap();
    let auditor = Auditor::new(AuditConfig {
        measures: vec![FairnessMeasure::TruePositiveRateParity],
        min_support: 20,
        ..AuditConfig::default()
    });
    let before = auditor
        .audit(
            "LinRegMatcher",
            &s.workload("LinRegMatcher").unwrap(),
            &s.space,
        )
        .entry(FairnessMeasure::TruePositiveRateParity, "cn")
        .unwrap()
        .disparity;
    let repaired = s.retrain_with_oversampling(MatcherKind::LinRegMatcher, cn, 4, true);
    let after = auditor
        .audit("repaired", &repaired, &s.space)
        .entry(FairnessMeasure::TruePositiveRateParity, "cn")
        .unwrap()
        .disparity;
    assert!(after < before - 0.1, "repair: {before} -> {after}");
}

#[test]
fn setwise_sensitive_attribute_flows_through_pipeline() {
    // Hand-built dataset with a set-valued `lang` column.
    let a = parse_csv_str(
        "id,name,lang\n\
         a0,li wei,zh|en\na1,wang min,zh\na2,john smith,en\na3,jane doe,en\n\
         a4,hans muller,de|en\na5,petra klein,de\n",
    )
    .unwrap();
    let b = parse_csv_str(
        "id,name,lang\n\
         b0,wei li,zh|en\nb1,wang min,zh\nb2,jon smith,en\nb3,jane doe,en\n\
         b4,hans mueller,de|en\nb5,petra klein,de\n",
    )
    .unwrap();
    let matches: Vec<(String, String)> =
        (0..6).map(|i| (format!("a{i}"), format!("b{i}"))).collect();
    let session = FairEm360::builder()
        .tables(a, b)
        .ground_truth(matches)
        .sensitive([SensitiveAttr::set_valued("lang")])
        .config(SuiteConfig::fast())
        .build()
        .unwrap()
        .try_run(&[MatcherKind::DtMatcher])
        .unwrap();
    // Three languages → three groups; multi-membership encodings.
    assert_eq!(session.space.len(), 3);
    let auditor = Auditor::new(AuditConfig {
        min_support: 1,
        ..AuditConfig::default()
    });
    let report = session.audit("DTMatcher", &auditor).unwrap();
    assert_eq!(report.entries.len(), 3 * 5);
    // Entities with two languages are counted toward both groups: total
    // single-group support exceeds the workload size.
    let zh = session.space.by_name("zh").unwrap();
    let en = session.space.by_name("en").unwrap();
    let de = session.space.by_name("de").unwrap();
    let w = session.workload("DTMatcher").unwrap();
    let sum = w.group_support(zh) + w.group_support(en) + w.group_support(de);
    assert!(
        sum >= w.len(),
        "multi-membership should overlap: {sum} vs {}",
        w.len()
    );
}
