//! Shard-count equivalence suite: a session scored in any number of
//! shards, under any parallelism policy, fresh or resumed from
//! checkpoints, must serve **every** verb bit for bit like the one-shard
//! session with no memory budget — audits, workloads, threshold tuning,
//! calibration, ensembles, and explanations. Damaged or foreign
//! checkpoint files must be recomputed silently, and the memory budget
//! must be a real fence: below the resident floor a run fails, just
//! under the unbudgeted peak it narrows its windows and completes.

use std::fs;
use std::path::PathBuf;

use fairem_core::audit::{AuditConfig, Auditor};
use fairem_core::calibrate::distribution_audit;
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::matcher::{ExternalScores, MatcherKind};
use fairem_core::pipeline::{FairEm360, Session, SuiteBuilder};
use fairem_core::threshold::default_grid;
use fairem_core::error::Stage;
use fairem_core::fault::{FaultPlan, FaultSite};
use fairem_core::{Budget, CalibrationSpec, MemBudget, Parallelism, Recorder, SuiteError};
use fairem_datasets::{wdc_products, GeneratedDataset, ProductsConfig};

const POLICIES: [Parallelism; 3] = [
    Parallelism::Off,
    Parallelism::Fixed(1),
    Parallelism::Fixed(4),
];

/// Three classical matchers and a neural one.
const FLEET: [MatcherKind; 4] = [
    MatcherKind::DtMatcher,
    MatcherKind::LogRegMatcher,
    MatcherKind::NbMatcher,
    MatcherKind::DeepMatcher,
];

fn dataset() -> GeneratedDataset {
    wdc_products(&ProductsConfig::small())
}

fn config() -> fairem_core::SuiteConfig {
    let mut c = fairem_core::SuiteConfig::fast();
    c.prep.blocking_columns = vec!["title".to_owned()];
    c.calibration = Some(CalibrationSpec::isotonic());
    c
}

fn builder(d: &GeneratedDataset) -> SuiteBuilder {
    let sensitive = d
        .sensitive
        .iter()
        .map(fairem_core::sensitive::SensitiveAttr::categorical);
    FairEm360::builder()
        .tables(d.table_a.clone(), d.table_b.clone())
        .ground_truth(d.matches.clone())
        .sensitive(sensitive)
        .config(config())
}

fn auditor() -> Auditor {
    Auditor::new(AuditConfig::default())
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fairem-sharded-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn counter(rec: &Recorder, name: &str) -> u64 {
    rec.snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn gauge(rec: &Recorder, name: &str) -> Option<f64> {
    rec.snapshot()
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
}

/// Deterministic uploaded scores for the evaluation-only flow: every
/// ground-truth pair, scored by its position.
fn external(d: &GeneratedDataset) -> ExternalScores {
    ExternalScores::new(
        "Uploaded",
        d.matches
            .iter()
            .enumerate()
            .map(|(i, m)| (m.clone(), (i % 10) as f64 / 10.0)),
    )
}

/// Everything a session serves, rendered so that two renderings are
/// equal exactly when the outputs are equal bit for bit: scores as bit
/// patterns, everything else through `Debug`, which prints the
/// shortest round-tripping form of every float (`-0.0` and `NaN`
/// included).
fn verdicts(s: &Session, d: &GeneratedDataset) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let aud = auditor();
    out.push(("audit_all".to_owned(), format!("{:?}", s.audit_all(&aud))));
    let groups = s.space.level1_of_attr(0);
    let grid = default_grid();
    let measures = FairnessMeasure::PAPER_FIVE;
    let bits = |w: &fairem_core::Workload| -> Vec<(usize, usize, u64, bool, u64, u64)> {
        w.items
            .iter()
            .map(|c| {
                (
                    c.a_row,
                    c.b_row,
                    c.score.to_bits(),
                    c.truth,
                    c.left.0,
                    c.right.0,
                )
            })
            .collect()
    };
    for m in s.matcher_names() {
        let w = s.workload(m).unwrap();
        out.push((format!("workload {m}"), format!("{:?}", bits(&w))));
        out.push((
            format!("tune_threshold {m}"),
            format!("{:x}", s.tune_threshold(m).unwrap().to_bits()),
        ));
        let cal = s
            .calibrated_audit(m, &measures, Disparity::Subtraction, &grid, &groups)
            .unwrap();
        out.push((format!("calibrated_audit {m}"), format!("{cal:?}")));
        for spec in [CalibrationSpec::platt(), CalibrationSpec::isotonic()] {
            let cw = s.calibrated_workload_with(m, spec, &groups).unwrap();
            let dist = distribution_audit(
                &cw,
                &s.space,
                &groups,
                &measures,
                Disparity::Subtraction,
                &grid,
            );
            out.push((
                format!("calibrated {m} {}", spec.label()),
                format!("{:?} {dist:?}", bits(&cw)),
            ));
        }
        // Every explanation family, on the first group.
        let ex = s.explainer(&w, Disparity::Subtraction);
        let g = s.space.name(groups[0]);
        let measure = FairnessMeasure::TruePositiveRateParity;
        out.push((
            format!("explain {m}"),
            format!(
                "{:?} {:?} {:?} {:?}",
                ex.subgroup(measure, g),
                ex.measure_based(measure, g),
                ex.representation(g),
                ex.examples(measure, g, 3, 5)
            ),
        ));
    }
    out.push((
        "external_workload".to_owned(),
        format!("{:?}", bits(&s.external_workload(&external(d)))),
    ));
    out.push((
        "ensemble".to_owned(),
        format!(
            "{:?}",
            s.ensemble(0, FairnessMeasure::AccuracyParity, Disparity::Subtraction)
                .pareto_frontier()
        ),
    ));
    let specs = [CalibrationSpec::platt(), CalibrationSpec::isotonic()];
    out.push((
        "ensemble_with_calibrators".to_owned(),
        format!(
            "{:?}",
            s.ensemble_with_calibrators(
                0,
                FairnessMeasure::AccuracyParity,
                Disparity::Subtraction,
                &specs
            )
            .unwrap()
            .pareto_frontier()
        ),
    ));
    out
}

fn assert_same_verdicts(base: &[(String, String)], got: &[(String, String)], ctx: &str) {
    assert_eq!(base.len(), got.len(), "{ctx}: verdict count");
    for ((label, a), (label_b, b)) in base.iter().zip(got) {
        assert_eq!(label, label_b, "{ctx}");
        assert!(a == b, "{ctx}: {label} differs from the one-shard session");
    }
}

#[test]
fn every_verb_is_bit_for_bit_identical_across_shards_policies_and_resume() {
    let d = dataset();
    let base = builder(&d).build().unwrap().try_run(&FLEET).unwrap();
    assert_eq!(base.matcher_names().len(), FLEET.len(), "clean baseline");
    assert_ne!(base.test_size() % 5, 0, "5 shards must split unevenly");
    let baseline = verdicts(&base, &d);

    // Shard counts that divide the test split unevenly (5) as well as
    // the powers of two.
    for shards in [1, 4, 5, 8] {
        for policy in POLICIES {
            let dir = tmpdir(&format!("gate-{shards}-{policy:?}"));
            let run = |resume: bool| {
                let rec = Recorder::enabled();
                let s = builder(&d)
                    .parallelism(policy)
                    .shards(shards)
                    .checkpoint_dir(&dir)
                    .resume(resume)
                    .observe(rec.clone())
                    .build()
                    .unwrap()
                    .try_run(&FLEET)
                    .unwrap();
                (s, rec)
            };
            let (fresh, rec) = run(false);
            assert!(!fresh.is_degraded());
            assert_eq!(counter(&rec, "ckpt.shards_written"), shards as u64);
            let ctx = format!("shards={shards} {policy:?} fresh");
            assert_same_verdicts(&baseline, &verdicts(&fresh, &d), &ctx);
            drop(fresh);

            let (resumed, rec) = run(true);
            assert_eq!(counter(&rec, "ckpt.shards_skipped"), shards as u64);
            assert_eq!(counter(&rec, "ckpt.shards_written"), 0);
            assert_eq!(counter(&rec, "ckpt.shards_recomputed"), 0);
            let ctx = format!("shards={shards} {policy:?} resumed");
            assert_same_verdicts(&baseline, &verdicts(&resumed, &d), &ctx);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn matcher_budgets_cut_the_same_matchers_at_every_shard_count() {
    // Each window scores under a fresh per-matcher token, so neither a
    // step budget (one checkpoint per window) nor a wall budget (a
    // stalled scorer) can cut a matcher at 8 shards that 1 shard keeps.
    let d = dataset();
    let aud = auditor();
    let stall = FaultPlan::seeded(7).stall(MatcherKind::DtMatcher, FaultSite::Score, 60_000);
    // The wall budget must cut only the stalled matcher, whatever the
    // build profile. The slowest unstalled matcher, DeepMatcher, trains
    // and scores in about 0.21–0.39 s in an unoptimized build on a
    // 2-thread host, so 5 s is over ten times that and still far below
    // the 60 s stall.
    for (label, budget, plan) in [
        ("steps", Budget::steps(2), FaultPlan::default()),
        ("wall", Budget::wall_ms(5_000), stall),
    ] {
        let outcome = |shards: usize| {
            let s = builder(&d)
                .shards(shards)
                .matcher_budget(budget)
                .fault_plan(plan.clone())
                .build()
                .unwrap()
                .try_run(&FLEET)
                .unwrap();
            let cut: Vec<(String, Stage)> = s
                .failures()
                .iter()
                .map(|f| (f.matcher.clone(), f.stage))
                .collect();
            let names: Vec<String> = s.matcher_names().iter().map(|n| n.to_string()).collect();
            // The failure records carry wall times, so compare entries only.
            let entries: Vec<String> = s
                .audit_all(&aud)
                .iter()
                .map(|r| format!("{:?}", r.entries))
                .collect();
            (names, cut, entries)
        };
        let one = outcome(1);
        assert!(!one.0.is_empty(), "{label}: some matcher must survive");
        assert!(!one.1.is_empty(), "{label}: the budget must cut a matcher");
        assert_eq!(one, outcome(8), "{label}: 8 shards differ from 1");
    }
}

#[test]
fn try_run_sharded_is_try_run() {
    let d = dataset();
    let aud = auditor();
    let a = builder(&d)
        .shards(3)
        .build()
        .unwrap()
        .try_run(&FLEET)
        .unwrap();
    let b = builder(&d)
        .shards(3)
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    assert_eq!(
        format!("{:?}", a.audit_all(&aud)),
        format!("{:?}", b.audit_all(&aud))
    );
}

#[test]
fn corrupt_or_torn_shard_files_are_recomputed_on_resume() {
    let d = dataset();
    let aud = auditor();
    let dir = tmpdir("corrupt");
    let shards = 3;

    let first = builder(&d)
        .shards(shards)
        .checkpoint_dir(&dir)
        .build()
        .unwrap()
        .try_run(&FLEET)
        .unwrap();
    let first_reports = format!("{:?}", first.audit_all(&aud));

    // Tear one shard file in half and scribble garbage over another.
    let torn = dir.join("shard-1.json");
    let text = fs::read_to_string(&torn).unwrap();
    fs::write(&torn, &text[..text.len() / 2]).unwrap();
    fs::write(dir.join("shard-2.json"), "{not json").unwrap();

    let rec = Recorder::enabled();
    let second = builder(&d)
        .shards(shards)
        .checkpoint_dir(&dir)
        .resume(true)
        .observe(rec.clone())
        .build()
        .unwrap()
        .try_run(&FLEET)
        .unwrap();
    assert_eq!(counter(&rec, "ckpt.shards_skipped"), 1);
    assert_eq!(counter(&rec, "ckpt.shards_recomputed"), 2);
    assert_eq!(first_reports, format!("{:?}", second.audit_all(&aud)));
    // The recomputed shards were re-committed and are loadable again.
    assert_eq!(counter(&rec, "ckpt.shards_written"), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn changed_configuration_invalidates_the_run_key() {
    let d = dataset();
    let dir = tmpdir("runkey");
    let shards = 2;

    let _ = builder(&d)
        .shards(shards)
        .checkpoint_dir(&dir)
        .build()
        .unwrap()
        .try_run(&FLEET)
        .unwrap();

    // Same data, different matching threshold: nothing is reusable.
    let mut config = config();
    config.matching_threshold = 0.61;
    let rec = Recorder::enabled();
    let _ = builder(&d)
        .config(config)
        .shards(shards)
        .checkpoint_dir(&dir)
        .resume(true)
        .observe(rec.clone())
        .build()
        .unwrap()
        .try_run(&FLEET)
        .unwrap();
    assert_eq!(counter(&rec, "ckpt.shards_skipped"), 0);
    assert_eq!(counter(&rec, "ckpt.shards_recomputed"), shards as u64);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn memory_budget_fences_below_the_floor_and_narrows_windows_above_it() {
    let d = dataset();
    let aud = auditor();
    // A small training split, so the retained score vectors outweigh the
    // training matrix and their charge, not the training build, is what
    // sets the floor.
    let mut c = config();
    c.prep.train_frac = 0.1;
    c.prep.valid_frac = 0.2;
    let run = |shards: usize, budget: MemBudget| {
        let rec = Recorder::enabled();
        let out = builder(&d)
            .config(c.clone())
            .shards(shards)
            .mem_budget(budget)
            .observe(rec.clone())
            .build()
            .unwrap()
            .try_run(&FLEET);
        (out, rec)
    };

    // The unbudgeted one-shard run: its tracked peak and its floor.
    let (unlimited, rec) = run(1, MemBudget::UNLIMITED);
    let unlimited = unlimited.unwrap();
    let expected = format!("{:?}", unlimited.audit_all(&aud));
    let peak = gauge(&rec, "mem.peak_bytes").unwrap() as u64;
    // The training matrix stays resident (its build peaks at twice its
    // cost), and so does one f64 per matcher per validation and test pair.
    let train = gauge(&rec, "mem.stage_peak_bytes.train").unwrap() as u64 / 2;
    let per_pair = train / gauge(&rec, "pairs.train").unwrap() as u64;
    let pairs = gauge(&rec, "pairs.valid").unwrap() + gauge(&rec, "pairs.test").unwrap();
    let retained = 8 * pairs as u64 * FLEET.len() as u64;
    // A one-pair scoring window builds twice one pair's matrix row.
    let window = 2 * per_pair;
    let floor = (2 * train).max(train + retained + window);
    assert!(
        retained > train + 1,
        "retained {retained} must outweigh train {train}"
    );
    // The retained vectors are on the account while the windows score.
    assert!(
        gauge(&rec, "mem.stage_peak_bytes.score").unwrap() as u64 >= train + retained + window,
        "retained score vectors are not charged"
    );
    assert!(peak > floor, "peak {peak} must sit above floor {floor}");

    for shards in [1, 3] {
        // Room for the training matrix but not for the retained vectors:
        // refused at the score stage, where they are charged.
        let (err, _) = run(shards, MemBudget::bytes(train + retained - 1));
        assert!(
            matches!(
                err,
                Err(SuiteError::MemExceeded {
                    stage: Stage::Score,
                    ..
                })
            ),
            "shards={shards}: expected MemExceeded at score, got {:?}",
            err.map(|_| ())
        );
        // One byte under the floor: no one-pair window fits.
        let (err, _) = run(shards, MemBudget::bytes(floor - 1));
        assert!(
            matches!(err, Err(SuiteError::MemExceeded { .. })),
            "shards={shards}: expected MemExceeded, got {:?}",
            err.map(|_| ())
        );

        // At the floor the windows are one pair wide; one byte under the
        // unbudgeted peak they narrow less. Both complete inside the
        // budget with the unbudgeted report.
        for budget in [floor, peak - 1] {
            let (s, rec) = run(shards, MemBudget::bytes(budget));
            let got = gauge(&rec, "mem.peak_bytes").unwrap() as u64;
            assert!(
                got <= budget,
                "shards={shards}: peak {got} over the {budget}-byte budget"
            );
            assert_eq!(
                expected,
                format!("{:?}", s.unwrap().audit_all(&aud)),
                "shards={shards} budget={budget}"
            );
        }
    }
}

#[test]
fn shard_checkpoints_cover_their_windows_exactly() {
    // Kept + quarantined rows equal the input on both tables, each
    // committed shard holds one score per pair in its window for every
    // matcher, and the shards concatenate to the session's scores —
    // under every policy.
    let d = dataset();
    let dir = tmpdir("accounting");
    let shards = 4;
    for policy in POLICIES {
        let run = builder(&d)
            .parallelism(policy)
            .shards(shards)
            .checkpoint_dir(&dir)
            .build()
            .unwrap()
            .try_run(&FLEET)
            .unwrap();

        let kept_a = run.quarantine().from_table("tableA");
        let kept_b = run.quarantine().from_table("tableB");
        assert_eq!(
            run.quarantine().len(),
            kept_a + kept_b,
            "quarantine is exactly the two tables' rejects"
        );

        let plan = fairem_core::ShardPlan::partition(run.test_size(), shards);
        let store =
            fairem_core::CheckpointStore::open(&dir, read_run_key(&dir), shards, true).unwrap();
        let mut joined: Vec<Vec<u64>> = vec![Vec::new(); FLEET.len()];
        for shard in plan.shards() {
            let rec = store.load_shard(shard.index, shard.len()).unwrap();
            for (i, (name, scores)) in rec.matchers.iter().enumerate() {
                assert_eq!(
                    scores.len(),
                    shard.len(),
                    "{policy:?}: shard {} of {name} must cover its window exactly",
                    shard.index
                );
                joined[i].extend(scores.iter().map(|s| s.to_bits()));
            }
        }
        for (i, name) in run.matcher_names().iter().enumerate() {
            let w = run.workload(name).unwrap();
            let session: Vec<u64> = w.items.iter().map(|c| c.score.to_bits()).collect();
            assert_eq!(joined[i], session, "{policy:?}: {name}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Pull the committed run key back out of the manifest, so the test can
/// reopen the store the way a resuming process would.
fn read_run_key(dir: &std::path::Path) -> u64 {
    let text = fs::read_to_string(dir.join("manifest.json")).unwrap();
    let v = fairem_csvio::Json::parse(&text).unwrap();
    v.get("run_key").unwrap().as_str().unwrap().parse().unwrap()
}
