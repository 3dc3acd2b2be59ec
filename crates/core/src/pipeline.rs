//! The end-to-end suite: import → matcher selection → fairness
//! evaluation → ensemble-based resolution (the demo's four steps, §3).

use std::collections::HashMap;

use fairem_csvio::CsvTable;
use fairem_ml::Matrix;
use fairem_neural::{HashVocab, TokenPair};
use fairem_obs::{Recorder, Span, SpanStatus};
use fairem_par::{
    Budget, CancelToken, Interrupt, MemBudget, MemPressure, MemTracker, ParOutcome, Parallelism,
    WorkerPool,
};

use fairem_calib::{CalibrationSpec, GroupCalibrator};

use crate::audit::{AuditReport, Auditor};
use crate::blocking::Blocker;
use crate::calibrate::{self, CalibratedAudit};
use crate::ckpt::{fnv1a64, CheckpointStore, ShardRecord, CKPT_SCHEMA};
use crate::ensemble::EnsembleExplorer;
use crate::error::{Stage, SuiteError, SuiteResult};
use crate::exec::{Exec, PairBatch};
use crate::explain::Explainer;
use crate::fairness::{Disparity, FairnessMeasure};
use crate::fault::{self, FaultPlan, FaultSite};
use crate::features::{FeatureGenerator, MatrixError};
use crate::matcher::{
    sanitize_scores, ExternalScores, Matcher, MatcherFailure, MatcherKind, MatcherRegistry,
    MatcherTrainConfig, TrainInput, TrainedMatcher,
};
use crate::prep::{default_blocker, prepare_with, PrepConfig, PreparedData};
use crate::quarantine::QuarantineReport;
use crate::schema::Table;
use crate::sensitive::{GroupId, GroupSpace, GroupVector, SensitiveAttr};
use crate::shard::{window_len, ShardPlan, ShardPolicy};
use crate::workload::{Correspondence, Workload};

/// Suite-wide configuration.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Candidate pairing / splitting configuration.
    pub prep: PrepConfig,
    /// Matcher training hyperparameters.
    pub train: MatcherTrainConfig,
    /// Score cut-off above which a pair is predicted a match.
    pub matching_threshold: f64,
    /// Hashing-vocabulary size for the neural matchers.
    pub vocab_size: u32,
    /// Fault-injection plan (empty by default; used by robustness tests
    /// and chaos drills to rehearse degraded-mode execution).
    pub fault: FaultPlan,
    /// Worker-pool policy for the parallel hot paths (feature matrices,
    /// matcher train/score fan-out, audits, Pareto enumeration). Results
    /// are identical for every policy; only wall-clock time changes.
    pub parallelism: Parallelism,
    /// Whole-suite budget. When it expires the run stops at the next
    /// checkpoint with [`SuiteError::TimedOut`]. Unlimited by default;
    /// an unlimited budget adds no observable behavior — the run is
    /// bit-for-bit the unbudgeted one.
    pub budget: Budget,
    /// Per-matcher train/score budget. Each matcher runs under its own
    /// child token carrying this budget, so an expiry degrades only that
    /// matcher (exactly like a contained panic) and the survivors are
    /// still audited. Unlimited by default.
    pub matcher_budget: Budget,
    /// External cancellation handle: trip it (e.g. from a Ctrl-C
    /// handler) and the run winds down cooperatively at the next
    /// checkpoint, yielding partial results. Inert by default.
    pub cancel: CancelToken,
    /// Observability recorder. The default disabled recorder is
    /// bit-for-bit inert — no locks, no clock reads — so metrics-off
    /// runs are byte-identical to runs predating observability. Pass
    /// [`Recorder::enabled`] (e.g. via [`SuiteBuilder::observe`]) to
    /// collect per-stage spans and `par.*` pool metrics.
    pub observe: Recorder,
    /// Candidate-generation scheme. `None` (the default) runs token
    /// blocking over [`PrepConfig::blocking_columns`] /
    /// [`PrepConfig::max_block`]; set via [`SuiteBuilder::blocker`] to
    /// swap in e.g. [`crate::blocking::SortedNeighborhood`] without
    /// touching prep.
    pub blocker: Option<std::sync::Arc<dyn Blocker>>,
    /// Memory budget over the deterministic cost model (feature-matrix
    /// and retained score-vector bytes). Unlimited by default; under a
    /// finite budget the scoring windows narrow to stay inside it, and
    /// only a budget below the floor fails, with
    /// [`SuiteError::MemExceeded`]: the larger of the training build
    /// (twice the training matrix) and the training matrix plus the
    /// retained score vectors plus a one-pair window.
    pub mem_budget: MemBudget,
    /// Shard count, checkpoint directory, and resume flag for scoring
    /// the test split. No setting changes a result.
    pub shard: ShardPolicy,
    /// Per-group score-calibration policy (ref \[10\] style). `None`
    /// (the default) audits raw scores only; a spec makes
    /// [`Session::calibrated_audit`] fit and apply a
    /// [`fairem_calib::GroupCalibrator`] without the caller re-passing
    /// the spec.
    pub calibration: Option<CalibrationSpec>,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            prep: PrepConfig::default(),
            train: MatcherTrainConfig::default(),
            matching_threshold: 0.5,
            vocab_size: 512,
            fault: FaultPlan::default(),
            parallelism: Parallelism::Auto,
            budget: Budget::UNLIMITED,
            matcher_budget: Budget::UNLIMITED,
            cancel: CancelToken::inert(),
            observe: Recorder::disabled(),
            blocker: None,
            mem_budget: MemBudget::UNLIMITED,
            shard: ShardPolicy::default(),
            calibration: None,
        }
    }
}

impl SuiteConfig {
    /// A reduced configuration for fast tests.
    pub fn fast() -> SuiteConfig {
        SuiteConfig {
            train: MatcherTrainConfig::fast(),
            vocab_size: 128,
            ..SuiteConfig::default()
        }
    }
}

/// The one front door for assembling a suite run: collect tables,
/// ground truth, sensitive attributes, and configuration, then
/// [`SuiteBuilder::build`] into a validated [`FairEm360`].
///
/// ```ignore
/// let session = FairEm360::builder()
///     .tables(a, b)
///     .ground_truth(matches)
///     .sensitive([SensitiveAttr::categorical("country")])
///     .parallelism(Parallelism::Fixed(4))
///     .build()?
///     .try_run(&MatcherKind::NON_NEURAL)?;
/// ```
///
/// By default the builder imports leniently — rows with empty or
/// duplicate ids are quarantined (inspect them via
/// [`FairEm360::quarantine`]) instead of failing the dataset. Call
/// [`SuiteBuilder::strict`] to turn any schema violation into an error.
#[derive(Debug, Default)]
pub struct SuiteBuilder {
    table_a: Option<CsvTable>,
    table_b: Option<CsvTable>,
    matches: Vec<(String, String)>,
    sensitive: Vec<SensitiveAttr>,
    config: SuiteConfig,
    strict: bool,
}

impl SuiteBuilder {
    /// The two tables to match (left and right).
    pub fn tables(mut self, table_a: CsvTable, table_b: CsvTable) -> SuiteBuilder {
        self.table_a = Some(table_a);
        self.table_b = Some(table_b);
        self
    }

    /// Ground-truth match id pairs `(id_a, id_b)`.
    pub fn ground_truth(mut self, matches: Vec<(String, String)>) -> SuiteBuilder {
        self.matches = matches;
        self
    }

    /// The sensitive attributes to audit on (appended).
    pub fn sensitive(
        mut self,
        attrs: impl IntoIterator<Item = SensitiveAttr>,
    ) -> SuiteBuilder {
        self.sensitive.extend(attrs);
        self
    }

    /// Replace the whole configuration.
    pub fn config(mut self, config: SuiteConfig) -> SuiteBuilder {
        self.config = config;
        self
    }

    /// Worker-pool policy for the run (shorthand for mutating
    /// [`SuiteConfig::parallelism`]).
    pub fn parallelism(mut self, parallelism: Parallelism) -> SuiteBuilder {
        self.config.parallelism = parallelism;
        self
    }

    /// Fault-injection plan (shorthand for mutating
    /// [`SuiteConfig::fault`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> SuiteBuilder {
        self.config.fault = plan;
        self
    }

    /// Whole-suite budget (shorthand for mutating
    /// [`SuiteConfig::budget`]). When it expires, `try_run` returns
    /// [`SuiteError::TimedOut`] at the next checkpoint.
    pub fn budget(mut self, budget: Budget) -> SuiteBuilder {
        self.config.budget = budget;
        self
    }

    /// Per-matcher budget (shorthand for mutating
    /// [`SuiteConfig::matcher_budget`]). An expiry cuts only that
    /// matcher; the session degrades and the survivors are audited.
    pub fn matcher_budget(mut self, budget: Budget) -> SuiteBuilder {
        self.config.matcher_budget = budget;
        self
    }

    /// External cancellation handle (shorthand for mutating
    /// [`SuiteConfig::cancel`]): trip it from another thread — e.g. a
    /// Ctrl-C handler — to wind the run down cooperatively.
    pub fn cancel_token(mut self, token: CancelToken) -> SuiteBuilder {
        self.config.cancel = token;
        self
    }

    /// Observability recorder (shorthand for mutating
    /// [`SuiteConfig::observe`]): pass [`Recorder::enabled`] to collect
    /// per-stage spans, counters, and pool metrics for this run and its
    /// session's audits/ensembles. The default disabled recorder keeps
    /// the run bit-for-bit identical to one without observability.
    pub fn observe(mut self, recorder: Recorder) -> SuiteBuilder {
        self.config.observe = recorder;
        self
    }

    /// Candidate-generation scheme (shorthand for mutating
    /// [`SuiteConfig::blocker`]): e.g.
    /// `.blocker(SortedNeighborhood { key_column: "name".into(), window: 5 })`.
    /// Without it the suite token-blocks over
    /// [`PrepConfig::blocking_columns`].
    pub fn blocker(mut self, blocker: impl Blocker + 'static) -> SuiteBuilder {
        self.config.blocker = Some(std::sync::Arc::new(blocker));
        self
    }

    /// Number of test-split shards (shorthand for mutating
    /// [`ShardPolicy::shards`]): the test pairs are cut into `n`
    /// contiguous shards, each scored and checkpointed on its own. The
    /// session is bit-for-bit the one-shard session.
    pub fn shards(mut self, n: usize) -> SuiteBuilder {
        self.config.shard.shards = n;
        self
    }

    /// Memory budget over the deterministic cost model (shorthand for
    /// mutating [`SuiteConfig::mem_budget`]).
    pub fn mem_budget(mut self, budget: MemBudget) -> SuiteBuilder {
        self.config.mem_budget = budget;
        self
    }

    /// Directory for `fairem-ckpt/2` shard checkpoints (shorthand for
    /// mutating [`ShardPolicy::checkpoint_dir`]). Each completed shard
    /// is committed there with atomic rename, so a killed run can be
    /// resumed.
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> SuiteBuilder {
        self.config.shard.checkpoint_dir = Some(dir.into());
        self
    }

    /// Reuse committed shards from the checkpoint directory when their
    /// run key matches (shorthand for mutating [`ShardPolicy::resume`]).
    pub fn resume(mut self, resume: bool) -> SuiteBuilder {
        self.config.shard.resume = resume;
        self
    }

    /// Per-group score-calibration policy for the session (shorthand
    /// for mutating [`SuiteConfig::calibration`]): e.g.
    /// `.calibration(CalibrationSpec::isotonic())`. The fitted
    /// calibrators live session-side; audits stay on raw scores unless
    /// the calibrated entry points are used.
    pub fn calibration(mut self, spec: CalibrationSpec) -> SuiteBuilder {
        self.config.calibration = Some(spec);
        self
    }

    /// Treat any schema violation as an error instead of quarantining
    /// the offending rows.
    pub fn strict(mut self) -> SuiteBuilder {
        self.strict = true;
        self
    }

    /// Validate and import. Missing tables are a
    /// [`SuiteError::Config`]; schema problems are quarantined (or, in
    /// strict mode, returned as [`SuiteError::Schema`]).
    pub fn build(self) -> SuiteResult<FairEm360> {
        let SuiteBuilder {
            table_a,
            table_b,
            matches,
            sensitive,
            config,
            strict,
        } = self;
        let (Some(table_a), Some(table_b)) = (table_a, table_b) else {
            return Err(SuiteError::Config {
                detail: "both tables are required: call .tables(table_a, table_b)".into(),
            });
        };
        if strict {
            let table_a = Table::from_csv(table_a).map_err(|source| SuiteError::Schema {
                table: "tableA".into(),
                source,
            })?;
            let table_b = Table::from_csv(table_b).map_err(|source| SuiteError::Schema {
                table: "tableB".into(),
                source,
            })?;
            Ok(FairEm360 {
                table_a,
                table_b,
                matches,
                sensitive,
                config,
                quarantine: QuarantineReport::default(),
            })
        } else {
            FairEm360::import_with(table_a, table_b, matches, sensitive, config)
                .map(|(suite, _quarantine)| suite)
        }
    }
}

/// Step 1 (data import): a dataset loaded into the suite, ready to run.
#[derive(Debug)]
pub struct FairEm360 {
    table_a: Table,
    table_b: Table,
    matches: Vec<(String, String)>,
    sensitive: Vec<SensitiveAttr>,
    config: SuiteConfig,
    quarantine: QuarantineReport,
}

impl FairEm360 {
    /// Start assembling a suite run — the front door for new code.
    pub fn builder() -> SuiteBuilder {
        SuiteBuilder::default()
    }

    /// Rows quarantined during import (empty in strict mode).
    pub fn quarantine(&self) -> &QuarantineReport {
        &self.quarantine
    }

    /// Fault-tolerant import: rows with empty or duplicate ids are
    /// quarantined (first occurrence kept) instead of failing the whole
    /// dataset, and the returned [`QuarantineReport`] itemizes every
    /// rejection. A missing `id` column is still a hard error. When the
    /// config arms an import-site fault, rows are corrupted *before*
    /// hygiene runs, so injected damage flows through the same
    /// quarantine machinery as real damage.
    pub fn import_with(
        table_a: CsvTable,
        table_b: CsvTable,
        matches: Vec<(String, String)>,
        sensitive: Vec<SensitiveAttr>,
        config: SuiteConfig,
    ) -> SuiteResult<(FairEm360, QuarantineReport)> {
        let span = config.observe.span("import");
        let mut table_a = table_a;
        let mut table_b = table_b;
        if config.fault.corrupts_import() {
            for t in [&mut table_a, &mut table_b] {
                if let Some(id_col) = t.column_index("id") {
                    config.fault.corrupt_rows(&mut t.rows, id_col);
                }
            }
        }
        config
            .observe
            .add("import.rows", (table_a.rows.len() + table_b.rows.len()) as u64);
        let mut quarantine = QuarantineReport::default();
        let (table_a, qa) =
            Table::from_csv_lenient(table_a, "tableA").map_err(|source| SuiteError::Schema {
                table: "tableA".into(),
                source,
            })?;
        let (table_b, qb) =
            Table::from_csv_lenient(table_b, "tableB").map_err(|source| SuiteError::Schema {
                table: "tableB".into(),
                source,
            })?;
        quarantine.extend(qa);
        quarantine.extend(qb);
        config
            .observe
            .add("import.quarantined", quarantine.len() as u64);
        span.note(format!("{} row(s) quarantined", quarantine.len()));
        drop(span);
        Ok((
            FairEm360 {
                table_a,
                table_b,
                matches,
                sensitive,
                config,
                quarantine: quarantine.clone(),
            },
            quarantine,
        ))
    }

    /// Replace the configuration.
    pub fn with_config(mut self, config: SuiteConfig) -> FairEm360 {
        self.config = config;
        self
    }

    /// Step 2 (matcher selection) + training + scoring: run the
    /// Matching-and-Evaluation flow with the given integrated matchers,
    /// producing a [`Session`] that holds the trained fleet and every
    /// survivor's validation and test scores.
    ///
    /// Fault-tolerant: stage panics become [`SuiteError::Stage`],
    /// per-matcher train/score panics degrade the session instead of
    /// aborting it (the survivors are still audited), and every matcher
    /// score passes a non-finite/out-of-range clamp before thresholding.
    /// Only when *no* matcher survives does the run fail, with
    /// [`SuiteError::AllMatchersFailed`] carrying the post-mortem.
    ///
    /// Budgets degrade along the same seams: a per-matcher budget expiry
    /// ([`SuiteConfig::matcher_budget`]) cuts only that matcher, while a
    /// whole-suite expiry or external cancel ([`SuiteConfig::budget`],
    /// [`SuiteConfig::cancel`]) stops the run at the next checkpoint
    /// with [`SuiteError::TimedOut`]. With everything unlimited (the
    /// default) the run is bit-for-bit the unbudgeted one.
    ///
    /// Scoring is out of core by construction: the test split is cut
    /// into [`ShardPolicy::shards`] contiguous shards, each featurized in
    /// windows that fit [`SuiteConfig::mem_budget`], and checkpointed
    /// per [`ShardPolicy::checkpoint_dir`]. None of it changes a result.
    pub fn try_run(self, kinds: &[MatcherKind]) -> SuiteResult<Session> {
        self.run_front(kinds)?.into_session()
    }

    /// The same as [`FairEm360::try_run`], which honors the shard
    /// policy itself; kept for callers written against the name.
    pub fn try_run_sharded(self, kinds: &[MatcherKind]) -> SuiteResult<Session> {
        self.try_run(kinds)
    }

    /// The front of the run: prep → blocking → feature-generator build →
    /// train-split featurization → training. Everything here is global
    /// on purpose — the TF-IDF corpus, the splits, and the trained
    /// matchers see all the data, which is what makes the windowed,
    /// sharded back half independent of where its windows fall.
    fn run_front(self, kinds: &[MatcherKind]) -> SuiteResult<Front> {
        let FairEm360 {
            table_a,
            table_b,
            matches,
            sensitive,
            config,
            mut quarantine,
        } = self;
        let plan = config.fault.clone();
        let obs = config.observe.clone();
        // One token for the whole run: every stage checkpoints it, every
        // matcher trains/scores under a child of it, and the session
        // keeps it so audits and ensembles observe the same handle.
        let suite_token = config.cancel.child(config.budget);

        let prep_span = obs.span("prep");
        suite_token.checkpoint().map_err(|i| {
            cut_span(&prep_span, &i);
            timed_out(Stage::Prep, i)
        })?;
        let space = fault::guard(|| GroupSpace::extract(&[&table_a, &table_b], sensitive))
            .map_err(|detail| {
                prep_span.set_status(SpanStatus::Panicked);
                SuiteError::Stage {
                    stage: Stage::Prep,
                    detail,
                }
            })?;
        let enc_a = space.encode_table(&table_a);
        let enc_b = space.encode_table(&table_b);
        drop(prep_span);

        // The one execution context every batch stage runs under: the
        // suite pool and token, unlimited per-call budget (the suite
        // budget lives on the token itself), the suite recorder, and the
        // run's memory account (unlimited trackers record but never
        // reject, so budget-free runs are bit-for-bit unchanged).
        let pool = WorkerPool::with_parallelism(config.parallelism).observe(obs.clone());
        let exec = Exec::with_pool(pool.clone())
            .cancel(suite_token.clone())
            .observe(obs.clone())
            .mem(MemTracker::with_budget(config.mem_budget));

        let blocking_span = obs.span("blocking");
        let blocker: std::sync::Arc<dyn Blocker> = match &config.blocker {
            Some(b) => std::sync::Arc::clone(b),
            None => std::sync::Arc::new(default_blocker(&config.prep)),
        };
        blocking_span.note(format!("scheme: {}", blocker.name()));
        let (prepared, prep_quarantine) = fault::guard(|| {
            prepare_with(
                &table_a,
                &table_b,
                &matches,
                &config.prep,
                blocker.as_ref(),
                &exec,
            )
        })
        .map_err(|detail| {
            blocking_span.set_status(SpanStatus::Panicked);
            SuiteError::Stage {
                stage: Stage::Blocking,
                detail,
            }
        })??;
        quarantine.extend(prep_quarantine);
        obs.gauge("pairs.train", prepared.train_idx.len() as f64);
        obs.gauge("pairs.valid", prepared.valid_idx.len() as f64);
        obs.gauge("pairs.test", prepared.test_idx.len() as f64);
        drop(blocking_span);

        let exclude: Vec<&str> = space.attrs().iter().map(|a| a.column.as_str()).collect();
        let build_span = obs.span("features");
        build_span.note("build generator");
        suite_token.checkpoint().map_err(|i| {
            cut_span(&build_span, &i);
            timed_out(Stage::FeatureGen, i)
        })?;
        plan.stall_if_armed(FaultSite::FeatureGen, None, &suite_token)
            .map_err(|i| {
                cut_span(&build_span, &i);
                timed_out(Stage::FeatureGen, i)
            })?;
        let features = fault::guard(|| {
            plan.trip(FaultSite::FeatureGen, None);
            FeatureGenerator::build(&table_a, &table_b, &exclude, &exec)
        })
        .map_err(|detail| {
            build_span.set_status(SpanStatus::Panicked);
            SuiteError::Stage {
                stage: Stage::FeatureGen,
                detail,
            }
        })?;
        drop(build_span);
        let vocab = HashVocab::new(config.vocab_size);

        let (train_pairs, train_labels) = prepared.split(&prepared.train_idx);
        let train_features = feature_matrix(&features, &exec, None, "train", &train_pairs)?;
        // The training matrix stays resident for the whole run (repair /
        // calibration reuse it), so its cost is persisted on the account.
        exec.mem
            .try_hold(features.matrix_cost(train_pairs.len()))
            .map_err(|m| mem_exceeded(Stage::FeatureGen, m))?
            .persist();
        obs.gauge("mem.stage_peak_bytes.train", exec.mem.peak() as f64);
        let train_tokens = features.tokenize_all(&PairBatch::new(&train_pairs), &vocab);
        let input = TrainInput {
            features: &train_features,
            tokens: &train_tokens,
            labels: &train_labels,
        };
        suite_token
            .checkpoint()
            .map_err(|i| timed_out(Stage::Train, i))?;
        let (registry, failures) = MatcherRegistry::train_isolated(
            kinds,
            &input,
            &config.train,
            &plan,
            &pool,
            &suite_token,
            config.matcher_budget,
        );

        Ok(Front {
            table_a,
            table_b,
            space,
            enc_a,
            enc_b,
            prepared,
            features,
            vocab,
            registry,
            failures,
            train_pairs,
            train_labels,
            train_features,
            train_tokens,
            quarantine,
            pool,
            exec,
            suite_token,
            obs,
            plan,
            config,
        })
    }
}

/// Everything the back half needs from the front: built features,
/// trained fleet, splits, and the run's execution handles.
struct Front {
    table_a: Table,
    table_b: Table,
    space: GroupSpace,
    enc_a: Vec<GroupVector>,
    enc_b: Vec<GroupVector>,
    prepared: PreparedData,
    features: FeatureGenerator,
    vocab: HashVocab,
    registry: MatcherRegistry,
    failures: Vec<MatcherFailure>,
    train_pairs: Vec<(usize, usize)>,
    train_labels: Vec<f64>,
    train_features: Matrix,
    train_tokens: Vec<TokenPair>,
    quarantine: QuarantineReport,
    pool: WorkerPool,
    exec: Exec,
    suite_token: CancelToken,
    obs: Recorder,
    plan: FaultPlan,
    config: SuiteConfig,
}

impl Front {
    /// The back half: score the validation and test splits and assemble
    /// a [`Session`]. Both splits are featurized in windows as wide as
    /// the memory budget allows, and each window's matrix is dropped as
    /// soon as the fleet has scored it; only the score vectors stay.
    /// The test split is first cut into a deterministic [`ShardPlan`];
    /// with a checkpoint directory each clean shard's raw scores are
    /// committed, and [`ShardPolicy::resume`] reuses committed shards
    /// from an earlier (killed) run of the same key. Scoring is per
    /// pair, so the session is bit-for-bit the same for every shard
    /// count, window width, and resume. With one shard and no budget
    /// this is a single window per split.
    fn into_session(self) -> SuiteResult<Session> {
        let Front {
            table_a,
            table_b,
            space,
            enc_a,
            enc_b,
            prepared,
            features,
            vocab,
            registry,
            failures,
            train_pairs,
            train_labels,
            train_features,
            train_tokens,
            quarantine,
            pool,
            exec,
            suite_token,
            obs,
            plan,
            config,
        } = self;
        // The next stage is featurization (of the validation split).
        suite_token
            .checkpoint()
            .map_err(|i| timed_out(Stage::FeatureGen, i))?;
        let fleet: Vec<_> = registry.iter().collect();
        let fleet_names: Vec<String> = fleet.iter().map(|m| m.name().to_owned()).collect();
        let (valid_pairs, valid_labels) = prepared.split(&prepared.valid_idx);
        let (test_pairs, test_labels) = prepared.split(&prepared.test_idx);

        // The retained score vectors live as long as the session, so they
        // are charged up front: a budget with no room for them next to the
        // training matrix fails here, before any window is built.
        let retained = 8 * ((valid_pairs.len() + test_pairs.len()) * fleet.len()) as u64;
        exec.mem
            .try_hold(retained)
            .map_err(|m| mem_exceeded(Stage::Score, m))?
            .persist();

        // Both splits score through one scorer, so the validation split
        // gets the same per-matcher token and fault discipline as the test
        // split. A matcher it knocks out is skipped from then on and its
        // partial scores are discarded.
        let mut scorer = FleetScorer {
            fleet: &fleet,
            pool: &pool,
            suite_token: &suite_token,
            plan: &plan,
            budget: config.matcher_budget,
            dead: vec![false; fleet.len()],
            failures,
        };

        // Validation scores, raw, for threshold tuning and calibration.
        let mut valid_scores: Vec<Vec<f64>> = vec![Vec::new(); fleet.len()];
        score_in_windows(
            &features,
            &vocab,
            &exec,
            None,
            "valid",
            &valid_pairs,
            |matrix, tokens| scorer.score(None, matrix, tokens, &mut valid_scores),
        )?;

        let shard_plan = ShardPlan::partition(test_pairs.len(), config.shard.shards.max(1));
        obs.gauge("shard.count", shard_plan.len() as f64);
        let store = match &config.shard.checkpoint_dir {
            Some(dir) => {
                let key = run_key(
                    &table_a,
                    &table_b,
                    &space,
                    &config,
                    &fleet_names,
                    shard_plan.len(),
                );
                Some(CheckpointStore::open(
                    dir,
                    key,
                    shard_plan.len(),
                    config.shard.resume,
                )?)
            }
            None => None,
        };

        // Raw test scores per matcher, aligned with `fleet`.
        let mut test_scores: Vec<Vec<f64>> = vec![Vec::new(); fleet.len()];
        for shard in shard_plan.shards() {
            suite_token
                .checkpoint()
                .map_err(|i| timed_out(Stage::Score, i))?;
            let shard_span = (shard_plan.len() > 1).then(|| {
                let span = obs.span("shard");
                span.note(format!(
                    "shard {} [{}..{})",
                    shard.index, shard.start, shard.end
                ));
                span
            });
            let resumed = store
                .as_ref()
                .filter(|_| config.shard.resume)
                .and_then(|s| s.resume_shard(shard.index, shard.len(), &fleet_names, &obs));
            if let Some(rec) = resumed {
                for (acc, (_, s)) in test_scores.iter_mut().zip(rec.matchers) {
                    acc.extend(s);
                }
                if let Some(span) = &shard_span {
                    span.note("resumed from checkpoint");
                }
                continue;
            }
            let mut shard_scores: Vec<Vec<f64>> = vec![Vec::new(); fleet.len()];
            let pairs = &test_pairs[shard.start..shard.end];
            score_in_windows(
                &features,
                &vocab,
                &exec,
                shard_span.as_ref(),
                "test",
                pairs,
                |matrix, toks| {
                    let score_span = match &shard_span {
                        Some(s) => s.child("score"),
                        None => obs.span("score"),
                    };
                    scorer.score(Some(&score_span), matrix, toks, &mut shard_scores);
                },
            )?;
            let rec = ShardRecord {
                matchers: fleet_names.iter().cloned().zip(shard_scores).collect(),
            };
            // Checkpoint only clean shards: once the fleet is degraded, a
            // shard record no longer describes the full fleet and a later
            // resume must recompute it instead of trusting it.
            if scorer.dead.iter().all(|&d| !d) {
                if let Some(store) = &store {
                    store.store_shard(shard.index, shard.len(), &rec)?;
                    obs.add("ckpt.shards_written", 1);
                }
            }
            for (acc, (_, s)) in test_scores.iter_mut().zip(rec.matchers) {
                acc.extend(s);
            }
        }
        let FleetScorer { dead, failures, .. } = scorer;
        obs.gauge("mem.peak_bytes", exec.mem.peak() as f64);
        obs.gauge("mem.stage_peak_bytes.score", exec.mem.peak() as f64);

        // Poisoning and the clamp act on whole vectors, after the last
        // shard, so they cannot depend on where shards or windows fell.
        let mut scores = HashMap::new();
        let mut valid = HashMap::new();
        let mut clamped_scores = 0usize;
        for (i, (mut s, v)) in test_scores.into_iter().zip(valid_scores).enumerate() {
            if dead[i] {
                continue;
            }
            let m = fleet[i];
            if plan.poisons(m.kind()) {
                plan.corrupt_scores(m.kind(), &mut s);
            }
            clamped_scores += sanitize_scores(&mut s);
            scores.insert(m.name().to_owned(), s);
            valid.insert(m.name().to_owned(), v);
        }
        if scores.is_empty() && (!failures.is_empty() || !fleet.is_empty()) {
            return Err(SuiteError::AllMatchersFailed { failures });
        }

        // Pseudo-workload over the training split (scores = truth) for
        // train-side representation explanations.
        let train_workload = Workload::new(
            train_pairs
                .iter()
                .zip(&train_labels)
                .map(|(&(ra, rb), &y)| Correspondence {
                    a_row: ra,
                    b_row: rb,
                    score: y,
                    truth: y == 1.0,
                    left: enc_a[ra],
                    right: enc_b[rb],
                })
                .collect(),
            0.5,
        );

        Ok(Session {
            table_a,
            table_b,
            space,
            prepared,
            features,
            registry,
            matching_threshold: config.matching_threshold,
            enc_a,
            enc_b,
            vocab,
            test_pairs,
            test_labels,
            scores,
            train_workload,
            train_pairs,
            train_labels,
            train_features,
            train_tokens,
            train_config: config.train,
            valid_pairs,
            valid_labels,
            valid_scores: valid,
            calibration: config.calibration,
            failures,
            quarantine,
            clamped_scores,
            parallelism: config.parallelism,
            mem: exec.mem,
            cancel: suite_token,
            observe: obs,
        })
    }
}

/// One stage-cut error with no matcher attribution.
fn timed_out(stage: Stage, interrupt: Interrupt) -> SuiteError {
    SuiteError::TimedOut {
        stage,
        matcher: None,
        elapsed: interrupt.elapsed,
    }
}

/// Annotate a stage span that ended in a cooperative cut, so the
/// Interrupt record carries (and the trace shows) which span the
/// budget/cancel severed.
fn cut_span(span: &Span, i: &Interrupt) {
    span.set_status(SpanStatus::Cut);
    span.note(i.to_string());
}

/// Convert a memory-budget refusal into its suite error.
fn mem_exceeded(stage: Stage, m: MemPressure) -> SuiteError {
    SuiteError::MemExceeded {
        stage,
        requested: m.requested,
        in_use: m.in_use,
        limit: m.limit,
    }
}

/// Build one feature matrix (a split, or a window of one) under the
/// run's execution context, converting panics, budget refusals, and
/// cooperative cuts into suite errors. The `features` span sits under
/// `parent` when there is one (a shard), else at the root.
fn feature_matrix(
    features: &FeatureGenerator,
    exec: &Exec,
    parent: Option<&Span>,
    split: &str,
    pairs: &[(usize, usize)],
) -> SuiteResult<Matrix> {
    let span = match parent {
        Some(p) => p.child("features"),
        None => exec.recorder.span("features"),
    };
    span.note(format!("{split} split: {} pair(s)", pairs.len()));
    match features.try_matrix(&PairBatch::new(pairs), exec) {
        Err(MatrixError::Panic(p)) => {
            span.set_status(SpanStatus::Panicked);
            Err(SuiteError::Stage {
                stage: Stage::FeatureGen,
                detail: p.to_string(),
            })
        }
        Err(MatrixError::Mem(m)) => {
            span.note(m.to_string());
            Err(mem_exceeded(Stage::FeatureGen, m))
        }
        Ok(ParOutcome::Interrupted { interrupt, .. }) => {
            cut_span(&span, &interrupt);
            Err(timed_out(Stage::FeatureGen, interrupt))
        }
        Ok(ParOutcome::Complete(m)) => Ok(m),
    }
}

/// Featurize `pairs` window by window — each window as wide as the
/// memory headroom allows, at least one pair — and hand each window's
/// matrix and tokens to `score` before the next window is built, so at
/// most one window's matrix exists at a time. An empty split still
/// makes one empty window, so every split leaves the same span shape.
fn score_in_windows(
    features: &FeatureGenerator,
    vocab: &HashVocab,
    exec: &Exec,
    parent: Option<&Span>,
    split: &str,
    pairs: &[(usize, usize)],
    mut score: impl FnMut(&Matrix, &[TokenPair]),
) -> SuiteResult<()> {
    // Transient build bytes per pair (the staging-plus-matrix factor
    // `try_matrix` declares) — drives the deterministic window width.
    let per_pair = 2 * features.matrix_cost(1);
    let mut start = 0;
    loop {
        let width = window_len(pairs.len() - start, exec.mem.headroom(), per_pair);
        let end = (start + width).min(pairs.len());
        let window = &pairs[start..end];
        let matrix = feature_matrix(features, exec, parent, split, window)?;
        let tokens = features.tokenize_all(&PairBatch::new(window), vocab);
        score(&matrix, &tokens);
        start = end;
        if start >= pairs.len() {
            return Ok(());
        }
    }
}

/// Scores windows with the live fleet, for either split. Every matcher
/// scores each window under a fresh child of the suite token, so the
/// matcher budget applies per window and no shard count or window width
/// changes who survives. A matcher that is cut or panics is marked dead
/// and skipped from then on; its failure is recorded once.
struct FleetScorer<'a> {
    fleet: &'a [&'a TrainedMatcher],
    pool: &'a WorkerPool,
    suite_token: &'a CancelToken,
    plan: &'a FaultPlan,
    budget: Budget,
    dead: Vec<bool>,
    failures: Vec<MatcherFailure>,
}

impl FleetScorer<'_> {
    /// Score one window, appending each survivor's scores to its slot in
    /// `out`. `span` (the test split's `score` span) gets one
    /// `score.<matcher>` child per live matcher; validation windows run
    /// without spans.
    fn score(
        &mut self,
        span: Option<&Span>,
        matrix: &Matrix,
        tokens: &[TokenPair],
        out: &mut [Vec<f64>],
    ) {
        let live: Vec<usize> = (0..self.fleet.len()).filter(|&i| !self.dead[i]).collect();
        let outcomes = self.pool.par_map_isolated(live.len(), |j| {
            let m = self.fleet[live[j]];
            let span = span.map(|s| s.child(&format!("score.{}", m.name())));
            // Pessimistic status (see train_isolated): a contained panic
            // leaves the record at `Panicked`.
            if let Some(s) = &span {
                s.set_status(SpanStatus::Panicked);
            }
            let token = self.suite_token.child(self.budget);
            let cut = |i: &Interrupt| {
                if let Some(s) = &span {
                    cut_span(s, i);
                }
            };
            self.plan
                .stall_if_armed(FaultSite::Score, Some(m.kind()), &token)
                .inspect_err(&cut)?;
            token.checkpoint().inspect_err(&cut)?;
            self.plan.trip(FaultSite::Score, Some(m.kind()));
            let s = m.score_batch(matrix, tokens);
            if let Some(s) = &span {
                s.set_status(SpanStatus::Ok);
            }
            Ok(s)
        });
        for (&i, outcome) in live.iter().zip(outcomes) {
            let name = self.fleet[i].name();
            match outcome {
                Ok(Ok(s)) => out[i].extend(s),
                Ok(Err(interrupt)) => {
                    self.dead[i] = true;
                    self.failures
                        .push(MatcherFailure::interrupted(name, Stage::Score, interrupt));
                }
                Err(reason) => {
                    self.dead[i] = true;
                    self.failures
                        .push(MatcherFailure::panicked(name, Stage::Score, reason));
                }
            }
        }
    }
}

/// The canonical run fingerprint for checkpoint reuse: FNV-1a 64 over a
/// description of everything that determines shard *content* — both
/// tables (schema and cells), prep/train configuration, threshold,
/// vocabulary, sensitive columns, the surviving fleet, the blocking
/// scheme, and the shard count (shard boundaries move with it). The
/// memory budget is deliberately excluded: shard results are
/// window-size independent, so a resume may change `--mem-budget`.
fn run_key(
    table_a: &Table,
    table_b: &Table,
    space: &GroupSpace,
    config: &SuiteConfig,
    fleet_names: &[String],
    shards: usize,
) -> u64 {
    let sens: Vec<&str> = space.attrs().iter().map(|a| a.column.as_str()).collect();
    let blocker = config
        .blocker
        .as_ref()
        .map_or_else(|| "token".to_owned(), |b| b.name().to_owned());
    let desc = format!(
        "{}|a:{:x}|b:{:x}|prep:{:?}|train:{:?}|thr:{:x}|vocab:{}|sens:{:?}|fleet:{:?}|blocker:{}|shards:{}",
        CKPT_SCHEMA,
        table_fingerprint(table_a),
        table_fingerprint(table_b),
        config.prep,
        config.train,
        config.matching_threshold.to_bits(),
        config.vocab_size,
        sens,
        fleet_names,
        blocker,
        shards
    );
    fnv1a64(desc.as_bytes())
}

/// FNV-1a 64 over a table's columns, ids, and every cell (with
/// unit-separator framing so cell boundaries can't alias).
fn table_fingerprint(t: &Table) -> u64 {
    let mut buf = String::new();
    for c in t.columns() {
        buf.push_str(c);
        buf.push('\u{1f}');
    }
    for r in 0..t.len() {
        buf.push_str(t.id(r));
        buf.push('\u{1f}');
        for c in 0..t.columns().len() {
            buf.push_str(t.value(r, c));
            buf.push('\u{1f}');
        }
        buf.push('\u{1e}');
    }
    fnv1a64(buf.as_bytes())
}

/// A trained, scored session — the state behind demo Steps 3 and 4.
/// It holds each surviving matcher's validation and test score vectors
/// (and the resident training matrix), never a test feature matrix, so
/// a session is the same whether it was scored in one window or many,
/// in one shard or many, or resumed from checkpoints.
#[derive(Debug)]
pub struct Session {
    /// Left table.
    pub table_a: Table,
    /// Right table.
    pub table_b: Table,
    /// The extracted group space.
    pub space: GroupSpace,
    /// Pairing and splits.
    pub prepared: PreparedData,
    /// The fitted feature generator.
    pub features: FeatureGenerator,
    /// The trained matcher fleet.
    pub registry: MatcherRegistry,
    /// Matching threshold for workloads.
    pub matching_threshold: f64,
    enc_a: Vec<GroupVector>,
    enc_b: Vec<GroupVector>,
    vocab: HashVocab,
    test_pairs: Vec<(usize, usize)>,
    test_labels: Vec<f64>,
    scores: HashMap<String, Vec<f64>>,
    train_workload: Workload,
    train_pairs: Vec<(usize, usize)>,
    train_labels: Vec<f64>,
    train_features: Matrix,
    train_tokens: Vec<TokenPair>,
    train_config: MatcherTrainConfig,
    valid_pairs: Vec<(usize, usize)>,
    valid_labels: Vec<f64>,
    valid_scores: HashMap<String, Vec<f64>>,
    calibration: Option<CalibrationSpec>,
    failures: Vec<MatcherFailure>,
    quarantine: QuarantineReport,
    clamped_scores: usize,
    parallelism: Parallelism,
    mem: MemTracker,
    cancel: CancelToken,
    observe: Recorder,
}

impl Session {
    /// Names of the matchers with cached test scores — i.e. the
    /// survivors. Matchers that failed at train or score time are
    /// excluded, so audits, ensembles, and Pareto exploration run over
    /// this degraded fleet transparently.
    pub fn matcher_names(&self) -> Vec<&str> {
        self.registry
            .iter()
            .map(|m| m.name())
            .filter(|n| self.scores.contains_key(*n))
            .collect()
    }

    /// Per-matcher casualties (train- or score-stage), empty on a clean
    /// run.
    pub fn failures(&self) -> &[MatcherFailure] {
        &self.failures
    }

    /// Rows quarantined during import and prep.
    pub fn quarantine(&self) -> &QuarantineReport {
        &self.quarantine
    }

    /// Number of matcher scores repaired by the non-finite/range clamp.
    pub fn clamped_scores(&self) -> usize {
        self.clamped_scores
    }

    /// True when at least one requested matcher failed (the session
    /// completed over a reduced fleet).
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Fleet coverage as `(survivors, requested)`.
    pub fn coverage(&self) -> (usize, usize) {
        let survivors = self.matcher_names().len();
        (survivors, survivors + self.failures.len())
    }

    /// Number of test correspondences.
    pub fn test_size(&self) -> usize {
        self.test_pairs.len()
    }

    /// The training-split pseudo-workload (for representation analysis).
    pub fn train_workload(&self) -> &Workload {
        &self.train_workload
    }

    /// The worker-pool policy this session was run (and audits) with.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The error for a matcher name the session does not hold.
    fn unknown_matcher(&self, matcher: &str) -> SuiteError {
        SuiteError::UnknownMatcher {
            matcher: matcher.to_owned(),
            known: self
                .matcher_names()
                .iter()
                .map(|n| (*n).to_owned())
                .collect(),
        }
    }

    /// Build the evaluation workload for a trained matcher. A name the
    /// session does not hold (never trained, or quarantined by a
    /// failure) is a [`SuiteError::UnknownMatcher`], not a panic.
    pub fn workload(&self, matcher: &str) -> SuiteResult<Workload> {
        let scores = self
            .scores
            .get(matcher)
            .ok_or_else(|| self.unknown_matcher(matcher))?;
        Ok(self.workload_from_scores(scores.clone()))
    }

    /// Build a workload from raw scores aligned with the test pairs
    /// (used for ensemble strategies and custom score vectors).
    pub fn workload_from_scores(&self, scores: Vec<f64>) -> Workload {
        assert_eq!(scores.len(), self.test_pairs.len(), "score/test alignment");
        let items = self
            .test_pairs
            .iter()
            .zip(&self.test_labels)
            .zip(scores)
            .map(|((&(ra, rb), &y), score)| Correspondence {
                a_row: ra,
                b_row: rb,
                score,
                truth: y == 1.0,
                left: self.enc_a[ra],
                right: self.enc_b[rb],
            })
            .collect();
        Workload::new(items, self.matching_threshold)
    }

    /// Score the session's test split with any [`Matcher`] (e.g. one
    /// trained outside the session or an ensemble adapter) and return
    /// the aligned score vector. The test split is featurized again in
    /// windows under the session's memory account.
    ///
    /// # Panics
    /// When featurization panics, or a one-pair window no longer fits
    /// the memory budget.
    pub fn score_test_with(&self, matcher: &dyn Matcher) -> Vec<f64> {
        let exec =
            Exec::with_pool(WorkerPool::with_parallelism(self.parallelism)).mem(self.mem.clone());
        let mut scores = Vec::with_capacity(self.test_pairs.len());
        let outcome = score_in_windows(
            &self.features,
            &self.vocab,
            &exec,
            None,
            "test",
            &self.test_pairs,
            |m, t| scores.extend(matcher.score_batch(m, t)),
        );
        match outcome {
            Ok(()) => scores,
            // fairem: allow(panic) — documented # Panics contract: the windows fit when the session was scored, so only a contained featurization panic lands here.
            Err(e) => panic!("scoring the test split failed: {e}"),
        }
    }

    /// Build a workload for uploaded external scores (the
    /// Evaluation-Only flow): pairs the user never scored default to 0.
    pub fn external_workload(&self, ext: &ExternalScores) -> Workload {
        let scores = self
            .test_pairs
            .iter()
            .map(|&(ra, rb)| ext.score_ids(self.table_a.id(ra), self.table_b.id(rb)))
            .collect();
        self.workload_from_scores(scores)
    }

    /// Step 3: audit one matcher. When the session is degraded, the
    /// report carries the failed matchers so readers see the reduced
    /// coverage alongside the verdicts. Unknown names are a
    /// [`SuiteError::UnknownMatcher`].
    pub fn audit(&self, matcher: &str, auditor: &Auditor) -> SuiteResult<AuditReport> {
        let mut report = auditor.audit(matcher, &self.workload(matcher)?, &self.space);
        report.degraded = self.failures.clone();
        Ok(report)
    }

    /// Audit every surviving matcher, fanned out over the session's
    /// worker pool (one matcher per work item; each audit covers every
    /// measure). Reports come back in [`Session::matcher_names`] order
    /// for any worker count.
    pub fn audit_all(&self, auditor: &Auditor) -> Vec<AuditReport> {
        self.try_audit_all(auditor).0
    }

    /// Cancellable [`Session::audit_all`]: when the run token trips
    /// mid-fleet, returns the contiguous prefix of reports finished so
    /// far plus the [`Interrupt`] record — the graceful-shutdown path
    /// for Step 3. With no budget configured the interrupt is `None` and
    /// the reports are exactly the `audit_all` output.
    pub fn try_audit_all(&self, auditor: &Auditor) -> (Vec<AuditReport>, Option<Interrupt>) {
        self.try_audit_all_within(auditor, &self.cancel)
    }

    /// [`Session::try_audit_all`] under an explicit cancellation token
    /// instead of the session's own run token. This is the repeated-read
    /// entry point for long-lived callers (the audit server): the session
    /// and its cached feature matrices live on across requests while each
    /// request audits under its *own* deadline token, so one expired
    /// request degrades to a partial report without tripping anything
    /// shared. Reports come back in [`Session::matcher_names`] order for
    /// any worker count, bit-identical across tokens that never trip.
    pub fn try_audit_all_within(
        &self,
        auditor: &Auditor,
        cancel: &CancelToken,
    ) -> (Vec<AuditReport>, Option<Interrupt>) {
        let names = self.matcher_names();
        let span = self.observe.span("audit");
        let pool =
            WorkerPool::with_parallelism(self.parallelism).observe(self.observe.clone());
        let outcome = pool.par_map_within(names.len(), cancel, |i| {
            let _child = span.child(&format!("audit.{}", names[i]));
            self.audit(names[i], auditor)
        });
        let (reports, interrupt) = match outcome {
            ParOutcome::Complete(reports) => (reports, None),
            ParOutcome::Interrupted {
                done, interrupt, ..
            } => {
                span.set_status(SpanStatus::Cut);
                span.note(interrupt.to_string());
                (done, Some(interrupt))
            }
        };
        (
            reports
                .into_iter()
                .filter_map(Result::ok) // names are known, so always Ok
                .collect(),
            interrupt,
        )
    }

    /// The run's cancellation token: audits, ensembles, and any caller
    /// polling for graceful shutdown observe this handle.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The observability recorder the run recorded into (disabled unless
    /// [`SuiteBuilder::observe`] attached an enabled one). Snapshot it
    /// after audits/ensembles to get the full per-stage picture.
    pub fn recorder(&self) -> &Recorder {
        &self.observe
    }

    /// Build an explainer over a matcher's workload (the workload must
    /// outlive the explainer, so the caller holds it).
    pub fn explainer<'s>(&'s self, workload: &'s Workload, disparity: Disparity) -> Explainer<'s> {
        Explainer::new(
            workload,
            &self.space,
            &self.table_a,
            &self.table_b,
            Some(&self.train_workload),
            disparity,
        )
    }

    /// Step 4: build the ensemble explorer over the level-1 groups of a
    /// sensitive attribute, scoring assignments under `measure`.
    pub fn ensemble(
        &self,
        attr_index: usize,
        measure: FairnessMeasure,
        disparity: Disparity,
    ) -> EnsembleExplorer {
        let groups: Vec<GroupId> = self.space.level1_of_attr(attr_index);
        let workloads: Vec<(String, Workload)> = self
            .matcher_names()
            .iter()
            .filter_map(|n| {
                // `matcher_names` only lists matchers with cached scores.
                let scores = self.scores.get(*n)?;
                Some(((*n).to_owned(), self.workload_from_scores(scores.clone())))
            })
            .collect();
        let refs: Vec<(String, &Workload)> =
            workloads.iter().map(|(n, w)| (n.clone(), w)).collect();
        EnsembleExplorer::build(&refs, &self.space, &groups, measure, disparity)
            .with_parallelism(self.parallelism)
            .with_cancel(self.cancel.clone())
            .with_observe(self.observe.clone())
    }

    /// Tune a matcher's matching threshold on the *validation* split:
    /// returns the grid threshold maximizing validation F1, falling back
    /// to the session default when the validation split is empty or F1
    /// is undefined everywhere. This is the data-driven answer to the
    /// demo's Step-3 "specify the matching threshold" knob. Unknown
    /// names are a [`SuiteError::UnknownMatcher`].
    pub fn tune_threshold(&self, matcher: &str) -> SuiteResult<f64> {
        let scores = self
            .valid_scores
            .get(matcher)
            .ok_or_else(|| self.unknown_matcher(matcher))?;
        if self.valid_labels.is_empty() {
            return Ok(self.matching_threshold);
        }
        let truths: Vec<bool> = self.valid_labels.iter().map(|&y| y == 1.0).collect();
        let mut best: Option<(f64, f64)> = None; // (f1, threshold)
        for i in 1..100 {
            let t = i as f64 / 100.0;
            let preds: Vec<bool> = scores.iter().map(|&s| s >= t).collect();
            let f1 = fairem_ml::f1_score(&preds, &truths);
            if f1.is_finite() && best.is_none_or(|(bf, _)| f1 > bf) {
                best = Some((f1, t));
            }
        }
        Ok(best.map_or(self.matching_threshold, |(_, t)| t))
    }

    /// Data-repair resolution (refs \[12\]/\[16\] style): retrain a matcher
    /// with the target group's training pairs oversampled, and return
    /// the repaired evaluation workload. `positives_only` replicates
    /// only the group's matching pairs (the recall lever).
    pub fn retrain_with_oversampling(
        &self,
        kind: MatcherKind,
        group: crate::sensitive::GroupId,
        factor: usize,
        positives_only: bool,
    ) -> Workload {
        let left: Vec<crate::sensitive::GroupVector> = self
            .train_pairs
            .iter()
            .map(|&(ra, _)| self.enc_a[ra])
            .collect();
        let right: Vec<crate::sensitive::GroupVector> = self
            .train_pairs
            .iter()
            .map(|&(_, rb)| self.enc_b[rb])
            .collect();
        let idx = crate::repair::oversample_group(
            &self.train_labels,
            &left,
            &right,
            group,
            factor,
            positives_only,
        );
        let features = self.train_features.select_rows(&idx);
        let tokens: Vec<TokenPair> = idx.iter().map(|&i| self.train_tokens[i].clone()).collect();
        let labels: Vec<f64> = idx.iter().map(|&i| self.train_labels[i]).collect();
        let input = TrainInput {
            features: &features,
            tokens: &tokens,
            labels: &labels,
        };
        let matcher = kind.train(&input, &self.train_config);
        self.workload_from_scores(self.score_test_with(&matcher))
    }

    /// The session's configured calibration policy (from
    /// [`SuiteBuilder::calibration`]), if any.
    pub fn calibration(&self) -> Option<CalibrationSpec> {
        self.calibration
    }

    /// Fit a [`GroupCalibrator`] for one matcher under `spec`: per-group
    /// fits on the *validation* split (falling back to the training
    /// split when the validation split is empty — small runs with
    /// `valid_frac: 0.0` still calibrate, just on held-in data), with
    /// groups below the spec's support floor routed to the global fit.
    /// Fitting fans out over the session's worker pool (bit-for-bit
    /// identical for every [`Parallelism`] policy) and observes the
    /// session's cancellation token. Unknown names are a
    /// [`SuiteError::UnknownMatcher`].
    pub fn group_calibrator(
        &self,
        matcher: &str,
        spec: CalibrationSpec,
        groups: &[GroupId],
    ) -> SuiteResult<GroupCalibrator> {
        let valid = self
            .valid_scores
            .get(matcher)
            .ok_or_else(|| self.unknown_matcher(matcher))?;
        let (pairs, labels, mut scores) = if self.valid_labels.is_empty() {
            let m = self
                .registry
                .iter()
                .find(|m| m.name() == matcher)
                .ok_or_else(|| self.unknown_matcher(matcher))?;
            (
                &self.train_pairs,
                &self.train_labels,
                m.score_batch(&self.train_features, &self.train_tokens),
            )
        } else {
            (&self.valid_pairs, &self.valid_labels, valid.clone())
        };
        // Same boundary contract as test-time scoring.
        sanitize_scores(&mut scores);
        let items: Vec<Correspondence> = pairs
            .iter()
            .zip(labels.iter())
            .zip(scores)
            .map(|((&(ra, rb), &y), score)| Correspondence {
                a_row: ra,
                b_row: rb,
                score,
                truth: y == 1.0,
                left: self.enc_a[ra],
                right: self.enc_b[rb],
            })
            .collect();
        let fit_workload = Workload::new(items, self.matching_threshold);
        let pool = WorkerPool::with_parallelism(self.parallelism).observe(self.observe.clone());
        calibrate::fit_on_workload(spec, &fit_workload, groups, &pool, &self.cancel)
            .map_err(|i| timed_out(Stage::Audit, i))
    }

    /// Evaluation workload with per-group calibrated scores: fit via
    /// [`Session::group_calibrator`], then remap the matcher's test
    /// scores. Unknown names are a [`SuiteError::UnknownMatcher`].
    pub fn calibrated_workload_with(
        &self,
        matcher: &str,
        spec: CalibrationSpec,
        groups: &[GroupId],
    ) -> SuiteResult<Workload> {
        let cal = self.group_calibrator(matcher, spec, groups)?;
        Ok(calibrate::apply_calibrator(
            &cal,
            &self.workload(matcher)?,
            groups,
        ))
    }

    /// The threshold-independent `CalibratedAudit` section for one
    /// matcher: KS / 1-Wasserstein score-distribution distances per
    /// group and the trapezoid-swept fairness area per measure, for the
    /// raw scores — and, when the session has a calibration policy
    /// ([`SuiteBuilder::calibration`]), the same audit after per-group
    /// calibration, side by side. Runs under a `calib` root span with
    /// `calib.*` counters when observability is on.
    pub fn calibrated_audit(
        &self,
        matcher: &str,
        measures: &[FairnessMeasure],
        disparity: Disparity,
        grid: &[f64],
        groups: &[GroupId],
    ) -> SuiteResult<CalibratedAudit> {
        self.cancel
            .checkpoint()
            .map_err(|i| timed_out(Stage::Audit, i))?;
        let span = self.observe.span("calib");
        let w = self.workload(matcher)?;
        let baseline =
            calibrate::distribution_audit(&w, &self.space, groups, measures, disparity, grid);
        let mut report = CalibratedAudit {
            matcher: matcher.to_owned(),
            calibration: None,
            groups_fitted: 0,
            fallbacks: 0,
            baseline,
            calibrated: None,
        };
        if let Some(spec) = self.calibration {
            let cal = match self.group_calibrator(matcher, spec, groups) {
                Ok(cal) => cal,
                Err(e) => {
                    span.set_status(SpanStatus::Cut);
                    drop(span);
                    return Err(e);
                }
            };
            let cw = calibrate::apply_calibrator(&cal, &w, groups);
            report.calibration = Some(spec.label());
            report.groups_fitted = cal.groups_fitted();
            report.fallbacks = cal.fallbacks();
            report.calibrated = Some(calibrate::distribution_audit(
                &cw,
                &self.space,
                groups,
                measures,
                disparity,
                grid,
            ));
        }
        drop(span);
        Ok(report)
    }

    /// Step 4 with calibrator choice as an extra knob: each surviving
    /// matcher contributes its raw workload plus one per-group-calibrated
    /// variant per spec (named `{matcher}+{spec label}`), and the Pareto
    /// explorer enumerates over all of them — calibrator choice sits in
    /// the assignment space right next to matcher choice.
    pub fn ensemble_with_calibrators(
        &self,
        attr_index: usize,
        measure: FairnessMeasure,
        disparity: Disparity,
        specs: &[CalibrationSpec],
    ) -> SuiteResult<EnsembleExplorer> {
        let groups: Vec<GroupId> = self.space.level1_of_attr(attr_index);
        let mut workloads: Vec<(String, Workload)> = Vec::new();
        for n in self.matcher_names() {
            // `matcher_names` only lists matchers with cached scores.
            let Some(scores) = self.scores.get(n) else {
                continue;
            };
            let raw = self.workload_from_scores(scores.clone());
            for spec in specs {
                let cal = self.group_calibrator(n, *spec, &groups)?;
                workloads.push((
                    format!("{n}+{}", spec.label()),
                    calibrate::apply_calibrator(&cal, &raw, &groups),
                ));
            }
            workloads.push((n.to_owned(), raw));
        }
        let refs: Vec<(String, &Workload)> =
            workloads.iter().map(|(n, w)| (n.clone(), w)).collect();
        Ok(
            EnsembleExplorer::build(&refs, &self.space, &groups, measure, disparity)
                .with_parallelism(self.parallelism)
                .with_cancel(self.cancel.clone())
                .with_observe(self.observe.clone()),
        )
    }

    /// Matching-quality summary of a matcher on the test split
    /// (F1 / precision / recall / accuracy at the session threshold) —
    /// the demo's matcher-selection card. Unknown names are a
    /// [`SuiteError::UnknownMatcher`].
    pub fn performance(&self, matcher: &str) -> SuiteResult<MatcherPerformance> {
        let w = self.workload(matcher)?;
        let cm = w.overall_confusion();
        Ok(MatcherPerformance {
            matcher: matcher.to_owned(),
            f1: cm.f1(),
            precision: cm.ppv(),
            recall: cm.tpr(),
            accuracy: cm.accuracy(),
        })
    }
}

/// Test-split matching quality of one matcher.
#[derive(Debug, Clone)]
pub struct MatcherPerformance {
    /// Matcher name.
    pub matcher: String,
    /// F1 at the session threshold.
    pub f1: f64,
    /// Precision (PPV).
    pub precision: f64,
    /// Recall (TPR).
    pub recall: f64,
    /// Accuracy.
    pub accuracy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use fairem_csvio::parse_csv_str;

    /// A tiny but learnable two-group dataset: duplicated people with
    /// noisy B-side copies plus distractors.
    fn dataset() -> (CsvTable, CsvTable, Vec<(String, String)>) {
        let mut a = String::from("id,name,university,country\n");
        let mut b = String::from("id,name,university,country\n");
        let mut matches = Vec::new();
        let people = [
            ("li wei", "wei li", "cn"),
            ("zhang min", "min zhang", "cn"),
            ("wang jun", "wang jun", "cn"),
            ("liu yan", "liu yan", "cn"),
            ("john smith", "jon smith", "us"),
            ("mary jones", "mary jones", "us"),
            ("david brown", "david brown", "us"),
            ("susan miller", "susan miler", "us"),
        ];
        for (i, (name_a, name_b, g)) in people.iter().enumerate() {
            a.push_str(&format!("a{i},{name_a},state university,{g}\n"));
            b.push_str(&format!("b{i},{name_b},state univ,{g}\n"));
            matches.push((format!("a{i}"), format!("b{i}")));
        }
        // Distractors sharing tokens.
        let extras = [
            ("li min", "cn"),
            ("zhang wei", "cn"),
            ("james smith", "us"),
            ("mary brown", "us"),
        ];
        for (i, (name, g)) in extras.iter().enumerate() {
            b.push_str(&format!("bx{i},{name},state university,{g}\n"));
        }
        (
            parse_csv_str(&a).unwrap(),
            parse_csv_str(&b).unwrap(),
            matches,
        )
    }

    fn config() -> SuiteConfig {
        SuiteConfig {
            prep: PrepConfig {
                train_frac: 0.5,
                valid_frac: 0.0,
                negative_ratio: f64::INFINITY,
                ..PrepConfig::default()
            },
            ..SuiteConfig::fast()
        }
    }

    fn session() -> Session {
        let (a, b, m) = dataset();
        FairEm360::builder()
            .tables(a, b)
            .ground_truth(m)
            .sensitive([SensitiveAttr::categorical("country")])
            .config(config())
            .build()
            .unwrap()
            .try_run(&[MatcherKind::DtMatcher, MatcherKind::LinRegMatcher])
            .unwrap()
    }

    #[test]
    fn builder_selects_the_blocking_scheme() {
        use crate::blocking::SortedNeighborhood;
        let (a, b, m) = dataset();
        let s = FairEm360::builder()
            .tables(a, b)
            .ground_truth(m)
            .sensitive([SensitiveAttr::categorical("country")])
            .config(config())
            .blocker(SortedNeighborhood {
                key_column: "name".into(),
                window: 4,
            })
            .build()
            .unwrap()
            .try_run(&[MatcherKind::DtMatcher])
            .unwrap();
        assert_eq!(s.matcher_names(), vec!["DTMatcher"]);
        assert!(s.test_size() > 0);
    }

    #[test]
    fn end_to_end_flow_produces_auditable_workloads() {
        let s = session();
        assert_eq!(s.matcher_names(), vec!["DTMatcher", "LinRegMatcher"]);
        assert!(s.test_size() > 0);
        let w = s.workload("DTMatcher").unwrap();
        assert_eq!(w.len(), s.test_size());
        let auditor = Auditor::new(AuditConfig {
            min_support: 1,
            ..AuditConfig::default()
        });
        let report = s.audit("DTMatcher", &auditor).unwrap();
        assert!(!report.entries.is_empty());
        let all = s.audit_all(&auditor);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn external_workload_maps_ids() {
        let s = session();
        // Score every test pair 1.0 via the external path.
        let preds: Vec<((String, String), f64)> = s
            .test_pairs
            .iter()
            .map(|&(ra, rb)| {
                (
                    (s.table_a.id(ra).to_owned(), s.table_b.id(rb).to_owned()),
                    1.0,
                )
            })
            .collect();
        let ext = ExternalScores::new("Mine", preds);
        let w = s.external_workload(&ext);
        let cm = w.overall_confusion();
        assert_eq!(cm.fn_ + cm.tn, 0.0); // everything predicted match
    }

    #[test]
    fn performance_summary_is_finite_for_trained_matcher() {
        let s = session();
        let p = s.performance("DTMatcher").unwrap();
        assert!(p.accuracy.is_finite());
        assert_eq!(p.matcher, "DTMatcher");
    }

    #[test]
    fn ensemble_explorer_builds_from_session() {
        let s = session();
        let e = s.ensemble(0, FairnessMeasure::AccuracyParity, Disparity::Subtraction);
        assert_eq!(e.groups().len(), 2);
        assert_eq!(e.matchers().len(), 2);
        let f = e.pareto_frontier();
        assert!(!f.is_empty());
    }

    #[test]
    fn tune_threshold_returns_grid_point_or_default() {
        let (a, b, m) = dataset();
        // With a validation split.
        let s = FairEm360::builder()
            .tables(a.clone(), b.clone())
            .ground_truth(m.clone())
            .sensitive([SensitiveAttr::categorical("country")])
            .config(SuiteConfig {
                prep: PrepConfig {
                    train_frac: 0.5,
                    valid_frac: 0.2,
                    negative_ratio: f64::INFINITY,
                    ..PrepConfig::default()
                },
                ..SuiteConfig::fast()
            })
            .build()
            .unwrap()
            .try_run(&[MatcherKind::DtMatcher])
            .unwrap();
        let t = s.tune_threshold("DTMatcher").unwrap();
        assert!((0.0..=1.0).contains(&t));
        // Without one: falls back to the session default.
        let s = FairEm360::builder()
            .tables(a, b)
            .ground_truth(m)
            .sensitive([SensitiveAttr::categorical("country")])
            .config(config())
            .build()
            .unwrap()
            .try_run(&[MatcherKind::DtMatcher])
            .unwrap();
        assert_eq!(s.tune_threshold("DTMatcher").unwrap(), s.matching_threshold);
    }

    #[test]
    fn explainer_runs_on_session_workload() {
        let s = session();
        let w = s.workload("LinRegMatcher").unwrap();
        let ex = s.explainer(&w, Disparity::Subtraction);
        let rep = ex.representation("cn");
        assert!(rep.share_overall > 0.0);
        assert!(rep.train_shares.is_some());
    }

    #[test]
    fn unknown_matcher_is_a_checked_error() {
        let s = session();
        for outcome in [
            s.workload("MCAN").map(|_| ()),
            s.tune_threshold("MCAN").map(|_| ()),
            s.performance("MCAN").map(|_| ()),
            s.calibrated_workload_with("MCAN", CalibrationSpec::platt(), &[])
                .map(|_| ()),
        ] {
            match outcome {
                Err(SuiteError::UnknownMatcher { matcher, known }) => {
                    assert_eq!(matcher, "MCAN");
                    assert_eq!(known, vec!["DTMatcher", "LinRegMatcher"]);
                }
                other => panic!("expected UnknownMatcher, got {other:?}"),
            }
        }
    }

    #[test]
    fn builder_without_tables_is_a_config_error() {
        let err = FairEm360::builder().build().expect_err("must fail");
        assert!(matches!(err, SuiteError::Config { .. }), "{err}");
        assert!(err.to_string().contains(".tables("), "{err}");
    }

    #[test]
    fn builder_strict_mode_surfaces_schema_errors() {
        let bad = parse_csv_str("id,name\na0,x\na0,y\n").unwrap();
        let good = parse_csv_str("id,name\nb0,z\n").unwrap();
        let err = FairEm360::builder()
            .tables(bad.clone(), good.clone())
            .strict()
            .build()
            .expect_err("duplicate id must fail strict import");
        assert!(matches!(err, SuiteError::Schema { .. }), "{err}");
        // Lenient default quarantines instead.
        let suite = FairEm360::builder().tables(bad, good).build().unwrap();
        assert_eq!(suite.quarantine().len(), 1);
    }

    #[test]
    fn sessions_agree_across_parallelism_policies() {
        let run = |p: Parallelism| {
            let (a, b, m) = dataset();
            FairEm360::builder()
                .tables(a, b)
                .ground_truth(m)
                .sensitive([SensitiveAttr::categorical("country")])
                .config(config())
                .parallelism(p)
                .build()
                .unwrap()
                .try_run(&[MatcherKind::DtMatcher, MatcherKind::LinRegMatcher])
                .unwrap()
        };
        let base = run(Parallelism::Off);
        let wide = run(Parallelism::Fixed(4));
        for name in base.matcher_names() {
            let (wb, ww) = (base.workload(name).unwrap(), wide.workload(name).unwrap());
            assert_eq!(wb.len(), ww.len());
            for (x, y) in wb.items.iter().zip(&ww.items) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{name}");
            }
        }
    }
}
