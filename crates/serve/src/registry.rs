//! The session registry: import once, audit many times.
//!
//! A [`SessionSpec`] canonically names a workload (generator, seed,
//! matchers, threshold). The registry caches one built
//! [`fairem_core::pipeline::Session`] per spec behind an `Arc`, so
//! concurrent connections opening the same spec share the same trained
//! matchers and score vectors — the "import once, serve repeated
//! reads" shape the suite demo implies. Builds for the *same* spec are
//! serialized on a per-slot mutex (the second opener waits, then gets
//! the cache hit); builds for *different* specs proceed in parallel.
//!
//! Determinism note: execution parallelism is deliberately **not** part
//! of the cache key. The suite's contract is that results are identical
//! under every worker-pool policy, so two requests differing only in
//! parallelism must share one session — and byte-identical replies.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fairem_core::fnv1a64;
use fairem_core::matcher::MatcherKind;
use fairem_core::pipeline::{FairEm360, Session, SuiteConfig};
use fairem_core::sensitive::{GroupId, SensitiveAttr};
use fairem_core::{CalibrationSpec, GroupCalibrator, SuiteError};
use fairem_datasets::GENERATORS;
use fairem_obs::Recorder;
use fairem_par::{CancelToken, Parallelism};

/// Matchers trained when `open` names none: one tree, one linear model
/// — the cheapest pair that still gives ensemble/tune requests
/// something to compare.
pub const DEFAULT_MATCHERS: [MatcherKind; 2] =
    [MatcherKind::DtMatcher, MatcherKind::LinRegMatcher];

/// Canonical description of a server-side workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Generator name (`faculty`, `products`, `citations`,
    /// `noflycompas`).
    pub dataset: String,
    /// Generator seed; 0 keeps the generator default.
    pub seed: u64,
    /// Matchers to train, in request order.
    pub matchers: Vec<MatcherKind>,
    /// Matching threshold.
    pub threshold: f64,
    /// Shard count the test split is scored in. Every count serves the
    /// same verbs and the same bytes; more shards mean smaller
    /// checkpoint units.
    pub shards: usize,
}

impl SessionSpec {
    /// Resolve the wire-level `open` arguments into a spec, validating
    /// dataset and matcher names up front so errors surface before any
    /// expensive work.
    pub fn resolve(
        dataset: &str,
        seed: u64,
        matchers: &[String],
        threshold: f64,
        shards: usize,
    ) -> Result<SessionSpec, String> {
        if !GENERATORS.contains(&dataset) {
            return Err(format!(
                "unknown dataset {dataset:?} (expected {})",
                GENERATORS.join("|")
            ));
        }
        if shards == 0 {
            return Err("shards must be at least 1".to_owned());
        }
        let kinds: Vec<MatcherKind> = if matchers.is_empty() {
            DEFAULT_MATCHERS.to_vec()
        } else {
            matchers
                .iter()
                .map(|m| m.parse::<MatcherKind>().map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?
        };
        Ok(SessionSpec {
            dataset: dataset.to_owned(),
            seed,
            matchers: kinds,
            threshold,
            shards,
        })
    }

    /// Stable cache key: every field that affects session *content*
    /// (and nothing that does not — see the module note on
    /// parallelism). The shard count is included even though sharding
    /// never changes a reply, because it names the per-spec checkpoint
    /// directory and the shard layout inside it.
    pub fn key(&self) -> String {
        let names: Vec<&str> = self.matchers.iter().map(|m| m.name()).collect();
        format!(
            "{}#{}#{}#{:.4}#s{}",
            self.dataset,
            self.seed,
            names.join(","),
            self.threshold,
            self.shards
        )
    }
}

/// A cached session plus the spec key it was built from.
#[derive(Debug)]
pub struct SessionEntry {
    /// The registry key this entry is cached under.
    pub key: String,
    /// The built session. It is `Send + Sync` and every read takes
    /// `&self`, so any number of connection threads read concurrently.
    pub session: Session,
    /// Per-group calibrators fitted on this session, keyed by
    /// `matcher#spec-label`. Fitting is deterministic, so a lost race
    /// just produces the identical calibrator twice; the cache exists
    /// to make repeat `calibrate` requests cheap, not for correctness.
    calibrators: Mutex<BTreeMap<String, Arc<GroupCalibrator>>>,
}

impl SessionEntry {
    /// Fetch (or fit and cache) the per-group calibrator for
    /// `matcher` under `spec` on this entry's session.
    pub fn calibrator(
        &self,
        matcher: &str,
        spec: CalibrationSpec,
        groups: &[GroupId],
        observe: &Recorder,
    ) -> Result<Arc<GroupCalibrator>, SuiteError> {
        let key = format!("{matcher}#{}", spec.label());
        {
            let cache = match self.calibrators.lock() {
                Ok(c) => c,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(cal) = cache.get(&key) {
                observe.incr("serve.calib.cache_hit");
                return Ok(Arc::clone(cal));
            }
        }
        // Fit outside the lock: a slow fit must not block readers of
        // other calibrators on the same session.
        observe.incr("serve.calib.cache_miss");
        let fitted = Arc::new(self.session.group_calibrator(matcher, spec, groups)?);
        let mut cache = match self.calibrators.lock() {
            Ok(c) => c,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ok(Arc::clone(cache.entry(key).or_insert(fitted)))
    }
}

/// Why an `open` could not produce a session.
#[derive(Debug)]
pub enum OpenError {
    /// The cache is at capacity and the spec is not already resident.
    Full {
        /// The configured capacity.
        max: usize,
    },
    /// The suite build failed (bad data, config, or a deadline cut).
    Suite(SuiteError),
}

/// One cache slot: the outer registry map only ever holds `Arc<Slot>`,
/// so the registry lock is released before any build starts, and two
/// openers of the same spec serialize on the slot — not on the whole
/// registry.
#[derive(Debug, Default)]
struct Slot {
    cell: Mutex<Option<Arc<SessionEntry>>>,
}

/// Bounded, keyed session cache.
#[derive(Debug)]
pub struct SessionRegistry {
    max: usize,
    checkpoint_dir: Option<PathBuf>,
    slots: Mutex<BTreeMap<String, Arc<Slot>>>,
}

impl SessionRegistry {
    /// A registry holding at most `max` sessions.
    pub fn new(max: usize) -> SessionRegistry {
        SessionRegistry {
            max: max.max(1),
            checkpoint_dir: None,
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// Root directory for session-build checkpoints. Each spec
    /// checkpoints under its own subdirectory (keyed by a hash of the
    /// spec key), so a server killed or drained mid-build resumes the
    /// completed shards on restart instead of redoing them.
    pub fn with_checkpoint_dir(mut self, dir: Option<PathBuf>) -> SessionRegistry {
        self.checkpoint_dir = dir;
        self
    }

    /// Number of specs with a slot (built or building).
    pub fn len(&self) -> usize {
        self.slots.lock().map(|s| s.len()).unwrap_or(0)
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the session for `spec`, building it under `cancel` on a
    /// miss. Returns the shared entry and whether it was already
    /// cached. The build inherits the request token, so an `open` that
    /// outlives its deadline is cut at the next suite checkpoint and
    /// surfaces as [`SuiteError::TimedOut`].
    pub fn get_or_build(
        &self,
        spec: &SessionSpec,
        parallelism: Parallelism,
        cancel: &CancelToken,
        observe: &Recorder,
    ) -> Result<(Arc<SessionEntry>, bool), OpenError> {
        let key = spec.key();
        let slot = {
            let mut slots = match self.slots.lock() {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
            match slots.get(&key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    if slots.len() >= self.max {
                        return Err(OpenError::Full { max: self.max });
                    }
                    let slot = Arc::new(Slot::default());
                    slots.insert(key.clone(), Arc::clone(&slot));
                    slot
                }
            }
        };
        let mut cell = match slot.cell.lock() {
            Ok(c) => c,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(entry) = cell.as_ref() {
            return Ok((Arc::clone(entry), true));
        }
        match build_session(spec, parallelism, cancel, observe, self.checkpoint_dir.as_deref()) {
            Ok(session) => {
                let entry = Arc::new(SessionEntry {
                    key: key.clone(),
                    session,
                    calibrators: Mutex::new(BTreeMap::new()),
                });
                *cell = Some(Arc::clone(&entry));
                Ok((entry, false))
            }
            Err(e) => {
                drop(cell);
                // A failed build must not squat on capacity: evict the
                // empty slot (unless a concurrent opener already filled
                // it, which get_or_build re-checks next time anyway).
                if let Ok(mut slots) = self.slots.lock() {
                    let still_empty = slots
                        .get(&key)
                        .is_some_and(|s| s.cell.lock().map(|c| c.is_none()).unwrap_or(false));
                    if still_empty {
                        slots.remove(&key);
                    }
                }
                Err(OpenError::Suite(e))
            }
        }
    }
}

fn build_session(
    spec: &SessionSpec,
    parallelism: Parallelism,
    cancel: &CancelToken,
    observe: &Recorder,
    checkpoint_root: Option<&std::path::Path>,
) -> Result<Session, SuiteError> {
    let data = fairem_datasets::generate(&spec.dataset, spec.seed).ok_or_else(|| {
        SuiteError::Config {
            detail: format!("unknown dataset {:?}", spec.dataset),
        }
    })?;
    let sensitive: Vec<SensitiveAttr> = data
        .sensitive
        .iter()
        .map(SensitiveAttr::categorical)
        .collect();
    let mut config = SuiteConfig {
        matching_threshold: spec.threshold,
        parallelism,
        cancel: cancel.clone(),
        observe: observe.clone(),
        ..SuiteConfig::fast()
    };
    // The default blocking column is `name`; the bibliographic and
    // product generators have none, but both emit `title`.
    if matches!(spec.dataset.as_str(), "citations" | "products") {
        config.prep.blocking_columns = vec!["title".to_owned()];
    }
    let mut builder = FairEm360::builder()
        .tables(data.table_a, data.table_b)
        .ground_truth(data.matches)
        .sensitive(sensitive)
        .config(config)
        .shards(spec.shards);
    if let Some(root) = checkpoint_root {
        // Per-spec subdirectory so distinct specs never collide on
        // shard files; the run key inside each directory still guards
        // against stale content.
        let sub = root.join(format!("{:016x}", fnv1a64(spec.key().as_bytes())));
        builder = builder.checkpoint_dir(sub).resume(true);
    }
    builder.build()?.try_run(&spec.matchers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_par::Budget;

    fn spec() -> SessionSpec {
        SessionSpec::resolve("faculty", 7, &[], 0.5, 1).expect("valid spec")
    }

    #[test]
    fn resolve_validates_names_up_front() {
        assert!(SessionSpec::resolve("faculty", 0, &[], 0.5, 1).is_ok());
        assert!(SessionSpec::resolve("mars", 0, &[], 0.5, 1)
            .expect_err("bad dataset")
            .contains("unknown dataset"));
        assert!(
            SessionSpec::resolve("faculty", 0, &["NopeMatcher".into()], 0.5, 1)
                .expect_err("bad matcher")
                .contains("unknown matcher")
        );
        assert!(SessionSpec::resolve("faculty", 0, &[], 0.5, 0)
            .expect_err("zero shards")
            .contains("at least 1"));
    }

    #[test]
    fn keys_are_canonical_and_distinguish_content_fields() {
        let base = spec();
        assert_eq!(base.key(), "faculty#7#DTMatcher,LinRegMatcher#0.5000#s1");
        let mut other = spec();
        other.threshold = 0.4;
        assert_ne!(base.key(), other.key());
        let mut sharded = spec();
        sharded.shards = 4;
        assert_ne!(base.key(), sharded.key());
    }

    #[test]
    fn second_open_of_the_same_spec_is_a_cache_hit() {
        let reg = SessionRegistry::new(4);
        let token = CancelToken::with_budget(Budget::UNLIMITED);
        let rec = Recorder::disabled();
        let (a, cached_a) = reg
            .get_or_build(&spec(), Parallelism::Fixed(1), &token, &rec)
            .expect("first open builds");
        assert!(!cached_a);
        let (b, cached_b) = reg
            .get_or_build(&spec(), Parallelism::Fixed(2), &token, &rec)
            .expect("second open attaches");
        assert!(cached_b);
        // Same Arc: parallelism is not part of the identity.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn capacity_is_enforced_and_failed_builds_do_not_leak_slots() {
        let reg = SessionRegistry::new(1);
        let token = CancelToken::with_budget(Budget::UNLIMITED);
        let rec = Recorder::disabled();
        // A build cut before it starts fails… and must release its slot.
        let cut = CancelToken::with_budget(Budget::UNLIMITED);
        cut.cancel();
        let err = reg
            .get_or_build(&spec(), Parallelism::Fixed(1), &cut, &rec)
            .expect_err("cancelled build fails");
        assert!(matches!(err, OpenError::Suite(_)), "{err:?}");
        assert!(reg.is_empty(), "failed build leaked a slot");

        // Fill the single slot, then a different spec is shed as full.
        reg.get_or_build(&spec(), Parallelism::Fixed(1), &token, &rec)
            .expect("build fills the slot");
        let mut other = spec();
        other.seed = 8;
        match reg.get_or_build(&other, Parallelism::Fixed(1), &token, &rec) {
            Err(OpenError::Full { max }) => assert_eq!(max, 1),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    fn counter(rec: &Recorder, name: &str) -> u64 {
        rec.snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    #[test]
    fn sharded_specs_checkpoint_and_resume_across_registry_lifetimes() {
        let dir = std::env::temp_dir().join(format!(
            "fairem-serve-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let token = CancelToken::with_budget(Budget::UNLIMITED);
        let sharded = SessionSpec::resolve("faculty", 7, &[], 0.5, 3).expect("valid spec");

        // First server lifetime: builds from scratch, committing every
        // shard under the per-spec checkpoint subdirectory.
        let rec1 = Recorder::enabled();
        let reg1 = SessionRegistry::new(4).with_checkpoint_dir(Some(dir.clone()));
        let (entry, cached) = reg1
            .get_or_build(&sharded, Parallelism::Fixed(1), &token, &rec1)
            .expect("sharded build");
        assert!(!cached);
        assert_eq!(counter(&rec1, "ckpt.shards_written"), 3);
        assert_eq!(counter(&rec1, "ckpt.shards_skipped"), 0);
        drop(reg1); // the server process dies here…

        // …and a fresh registry over the same root resumes every shard.
        let rec2 = Recorder::enabled();
        let reg2 = SessionRegistry::new(4).with_checkpoint_dir(Some(dir.clone()));
        let (resumed, cached) = reg2
            .get_or_build(&sharded, Parallelism::Fixed(1), &token, &rec2)
            .expect("resumed build");
        assert!(!cached, "a new registry starts with an empty cache");
        assert_eq!(counter(&rec2, "ckpt.shards_skipped"), 3);
        assert_eq!(counter(&rec2, "ckpt.shards_written"), 0);

        // The resumed sharded session audits bit-for-bit like a
        // one-shard session of the same workload.
        let auditor = fairem_core::audit::Auditor::new(fairem_core::audit::AuditConfig::default());
        let (full, _) = reg2
            .get_or_build(&spec(), Parallelism::Fixed(1), &token, &rec2)
            .expect("one-shard build");
        let from_full = full.session.try_audit_all_within(&auditor, &token).0;
        let from_shards = resumed.session.try_audit_all_within(&auditor, &token).0;
        assert!(!from_full.is_empty());
        assert_eq!(from_full.len(), from_shards.len());
        for (a, b) in from_full.iter().zip(&from_shards) {
            assert_eq!(
                fairem_core::report::audit_json(a).to_string_compact(),
                fairem_core::report::audit_json(b).to_string_compact(),
                "sharded resume must reproduce the one-shard audit"
            );
        }
        drop(entry);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_generator_opens() {
        let reg = SessionRegistry::new(4);
        let token = CancelToken::with_budget(Budget::UNLIMITED);
        let rec = Recorder::disabled();
        for dataset in GENERATORS {
            let spec = SessionSpec::resolve(dataset, 0, &[], 0.5, 1).expect("valid spec");
            let (entry, _) = reg
                .get_or_build(&spec, Parallelism::Fixed(1), &token, &rec)
                .unwrap_or_else(|e| panic!("open dataset={dataset} failed: {e:?}"));
            assert!(entry.session.test_size() > 0, "{dataset}: empty test split");
            assert!(!entry.session.matcher_names().is_empty(), "{dataset}");
        }
        assert_eq!(reg.len(), GENERATORS.len());
    }
}
