//! Crash-safe shard checkpoints: the `fairem-ckpt/2` on-disk format.
//!
//! A checkpoint directory holds one `manifest.json` describing the run
//! (schema, run key, shard count) plus one `shard-<idx>.json` per
//! committed shard carrying each matcher's raw test scores over the
//! shard's pairs. Scores are stored as the 16-hex-digit bit pattern of
//! each `f64`, so a resumed session holds exactly the vectors the
//! original run scored (`-0.0`, subnormals, and NaN included), and a
//! FNV-1a digest over the payload catches any damaged byte. Every write
//! goes to a `.tmp` sibling first and is published with `fs::rename` —
//! the atomic-commit idiom — so a `kill -9` at any instant leaves
//! either the previous committed file or none, never a torn one.
//! Readers treat *anything* unexpected (missing file, parse error,
//! schema/run-key/index/width mismatch, digest mismatch, a fleet that
//! differs from the run's) as "not committed" and recompute the shard;
//! resume is therefore always safe, merely slower when files are
//! damaged.
//!
//! The run key is an FNV-1a 64 hash over a canonical description of the
//! inputs and the knobs that change shard content (see
//! [`crate::pipeline`]); it deliberately excludes the memory budget —
//! shard results are window-size independent, so a resume may use a
//! different `--mem-budget` than the run it resumes.

use std::fmt::Write as _;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use fairem_csvio::Json;
use fairem_obs::Recorder;

use crate::error::SuiteError;

/// The checkpoint schema tag.
pub const CKPT_SCHEMA: &str = "fairem-ckpt/2";

/// FNV-1a 64-bit over a byte string — the suite's hand-rolled, stable,
/// dependency-free fingerprint (also used for run keys).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One committed shard's results: each matcher's raw test scores over
/// the shard's pairs, in fleet order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardRecord {
    /// `(matcher name, scores)` in fleet order; every vector is as long
    /// as the shard.
    pub matchers: Vec<(String, Vec<f64>)>,
}

/// A checkpoint directory bound to one run key.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    run_key: u64,
    shards: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory for a run.
    ///
    /// When `resume` is false, or the existing manifest does not match
    /// this run's key/shard count/schema, a fresh manifest is committed
    /// and any stale shard files are ignored by the run-key check on
    /// load. When `resume` is true and the manifest matches, committed
    /// shard files become reusable.
    pub fn open(
        dir: &Path,
        run_key: u64,
        shards: usize,
        resume: bool,
    ) -> Result<CheckpointStore, SuiteError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let store = CheckpointStore {
            dir: dir.to_path_buf(),
            run_key,
            shards,
        };
        let manifest_ok = resume && store.manifest_matches();
        if !manifest_ok {
            store.write_manifest()?;
        }
        Ok(store)
    }

    /// The run key this store is bound to.
    pub fn run_key(&self) -> u64 {
        self.run_key
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index}.json"))
    }

    fn manifest_matches(&self) -> bool {
        let Ok(text) = fs::read_to_string(self.manifest_path()) else {
            return false;
        };
        let Ok(v) = Json::parse(&text) else {
            return false;
        };
        v.get("schema").and_then(Json::as_str) == Some(CKPT_SCHEMA)
            && v.get("run_key").and_then(Json::as_str) == Some(self.run_key.to_string().as_str())
            && v.get("shards").and_then(Json::as_num) == Some(self.shards as f64)
    }

    fn write_manifest(&self) -> Result<(), SuiteError> {
        let v = Json::obj([
            ("schema", Json::Str(CKPT_SCHEMA.into())),
            ("run_key", Json::Str(self.run_key.to_string())),
            ("shards", Json::Num(self.shards as f64)),
        ]);
        self.commit(&self.manifest_path(), &v.to_string_pretty())
    }

    /// Load a committed shard of `width` pairs. `None` means
    /// "recompute": the file is missing, torn, from a different run or
    /// schema, damaged (digest mismatch), or holds a score vector of the
    /// wrong length — never an error, because recomputation is always a
    /// valid answer.
    pub fn load_shard(&self, index: usize, width: usize) -> Option<ShardRecord> {
        let text = fs::read_to_string(self.shard_path(index)).ok()?;
        let v = Json::parse(&text).ok()?;
        if v.get("schema").and_then(Json::as_str) != Some(CKPT_SCHEMA)
            || v.get("run_key").and_then(Json::as_str) != Some(self.run_key.to_string().as_str())
            || v.get("shard").and_then(Json::as_num) != Some(index as f64)
            || v.get("width").and_then(Json::as_num) != Some(width as f64)
        {
            return None;
        }
        let Json::Arr(items) = v.get("matchers")? else {
            return None;
        };
        let mut encoded = Vec::with_capacity(items.len());
        for item in items {
            encoded.push((item.get("name")?.as_str()?, item.get("scores")?.as_str()?));
        }
        if v.get("digest")?.as_str()? != digest(index, width, &encoded) {
            return None;
        }
        let mut matchers = Vec::with_capacity(encoded.len());
        for (name, hex) in encoded {
            matchers.push((name.to_owned(), decode_scores(hex, width)?));
        }
        Some(ShardRecord { matchers })
    }

    /// The resume lookup: a committed shard of `width` pairs whose fleet
    /// is exactly `fleet` (same names, same order). Counts the outcome
    /// on `obs` — `ckpt.shards_skipped` when reused,
    /// `ckpt.shards_recomputed` when anything about the file is off.
    pub fn resume_shard(
        &self,
        index: usize,
        width: usize,
        fleet: &[String],
        obs: &Recorder,
    ) -> Option<ShardRecord> {
        let rec = self.load_shard(index, width).filter(|rec| {
            rec.matchers.len() == fleet.len()
                && rec.matchers.iter().zip(fleet).all(|((n, _), f)| n == f)
        });
        match rec {
            Some(_) => obs.add("ckpt.shards_skipped", 1),
            None => obs.add("ckpt.shards_recomputed", 1),
        }
        rec
    }

    /// Commit a shard's results: serialize, write `shard-<idx>.json.tmp`,
    /// atomic `rename` into place. Every vector must be `width` long.
    pub fn store_shard(
        &self,
        index: usize,
        width: usize,
        record: &ShardRecord,
    ) -> Result<(), SuiteError> {
        let hex: Vec<String> = record
            .matchers
            .iter()
            .map(|(_, s)| encode_scores(s))
            .collect();
        let encoded: Vec<(&str, &str)> = record
            .matchers
            .iter()
            .zip(&hex)
            .map(|((n, _), h)| (n.as_str(), h.as_str()))
            .collect();
        let v = Json::obj([
            ("schema", Json::Str(CKPT_SCHEMA.into())),
            ("run_key", Json::Str(self.run_key.to_string())),
            ("shard", Json::Num(index as f64)),
            ("width", Json::Num(width as f64)),
            ("digest", Json::Str(digest(index, width, &encoded))),
            (
                "matchers",
                Json::arr(encoded.iter().map(|(name, hex)| {
                    Json::obj([
                        ("name", Json::Str((*name).to_owned())),
                        ("scores", Json::Str((*hex).to_owned())),
                    ])
                })),
            ),
        ]);
        self.commit(&self.shard_path(index), &v.to_string_compact())
    }

    fn commit(&self, path: &Path, text: &str) -> Result<(), SuiteError> {
        let tmp = path.with_extension("json.tmp");
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            fs::rename(&tmp, path)
        };
        write().map_err(|e| io_err(path, &e))
    }
}

/// Each score as the 16 lowercase hex digits of its bit pattern.
fn encode_scores(scores: &[f64]) -> String {
    let mut out = String::with_capacity(16 * scores.len());
    for s in scores {
        let _ = write!(out, "{:016x}", s.to_bits());
    }
    out
}

/// Inverse of [`encode_scores`]; `None` unless `hex` is exactly `width`
/// words of 16 hex digits.
fn decode_scores(hex: &str, width: usize) -> Option<Vec<f64>> {
    let bytes = hex.as_bytes();
    if bytes.len() != 16 * width {
        return None;
    }
    bytes
        .chunks(16)
        .map(|word| {
            let mut bits = 0u64;
            for &b in word {
                bits = (bits << 4) | u64::from(char::from(b).to_digit(16)?);
            }
            Some(f64::from_bits(bits))
        })
        .collect()
}

/// FNV-1a over the shard's identity and encoded payload, framed with
/// unit separators so field boundaries cannot alias.
fn digest(index: usize, width: usize, encoded: &[(&str, &str)]) -> String {
    let mut buf = format!("{index}\u{1f}{width}\u{1f}");
    for (name, hex) in encoded {
        buf.push_str(name);
        buf.push('\u{1f}');
        buf.push_str(hex);
        buf.push('\u{1e}');
    }
    format!("{:016x}", fnv1a64(buf.as_bytes()))
}

fn io_err(path: &Path, e: &std::io::Error) -> SuiteError {
    SuiteError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fairem-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Scores that stress the encoding: signed zeros, the subnormal
    /// range, the unit interval's ends, and non-finite values.
    fn edge_scores() -> Vec<f64> {
        vec![
            -0.0,
            0.0,
            1.0,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            0.1 + 0.2,
            f64::NAN,
            f64::NEG_INFINITY,
        ]
    }

    fn record() -> ShardRecord {
        let s = edge_scores();
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        ShardRecord {
            matchers: vec![("DTMatcher".into(), s), ("Ditto".into(), rev)],
        }
    }

    const WIDTH: usize = 8;

    fn bits(r: &ShardRecord) -> Vec<(String, Vec<u64>)> {
        r.matchers
            .iter()
            .map(|(n, s)| (n.clone(), s.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    fn fleet() -> Vec<String> {
        vec!["DTMatcher".into(), "Ditto".into()]
    }

    fn counter(rec: &Recorder, name: &str) -> u64 {
        rec.snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"fairem"), fnv1a64(b"fairem"));
        assert_ne!(fnv1a64(b"fairem"), fnv1a64(b"fairen"));
    }

    #[test]
    fn shard_records_round_trip_every_score_to_the_bit() {
        let d = tmpdir("roundtrip");
        let s = CheckpointStore::open(&d, 42, 3, false).unwrap();
        assert!(s.load_shard(0, WIDTH).is_none(), "nothing committed yet");
        let r = record();
        s.store_shard(0, WIDTH, &r).unwrap();
        let back = s.load_shard(0, WIDTH).unwrap();
        assert_eq!(bits(&back), bits(&r));
        assert!(s.load_shard(1, WIDTH).is_none());
        // An empty shard (zero-width) round-trips too.
        let empty = ShardRecord {
            matchers: vec![("DTMatcher".into(), Vec::new())],
        };
        s.store_shard(2, 0, &empty).unwrap();
        assert_eq!(bits(&s.load_shard(2, 0).unwrap()), bits(&empty));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn resume_honors_run_key_and_shard_count() {
        let d = tmpdir("runkey");
        let s = CheckpointStore::open(&d, 7, 2, false).unwrap();
        s.store_shard(1, WIDTH, &record()).unwrap();
        // Same key, resume: the shard is reusable.
        let again = CheckpointStore::open(&d, 7, 2, true).unwrap();
        assert!(again.load_shard(1, WIDTH).is_some());
        // Different key: the stale file is rejected on load.
        let other = CheckpointStore::open(&d, 8, 2, true).unwrap();
        assert!(other.load_shard(1, WIDTH).is_none());
        // Different shard count with the old key: manifest mismatch is
        // rewritten; stale shard indices stay loadable only if the key
        // and width still match.
        let wider = CheckpointStore::open(&d, 7, 4, true).unwrap();
        assert!(wider.load_shard(1, WIDTH).is_some());
        let _ = fs::remove_dir_all(&d);
    }

    /// Commit a clean record at shard 0, let `damage` rewrite the file,
    /// then resume it: the shard must be recomputed (and counted as
    /// such), never trusted and never a panic.
    fn assert_recomputed(tag: &str, damage: impl Fn(&Path, &str)) {
        let d = tmpdir(tag);
        let s = CheckpointStore::open(&d, 9, 2, false).unwrap();
        s.store_shard(0, WIDTH, &record()).unwrap();
        let p = d.join("shard-0.json");
        let text = fs::read_to_string(&p).unwrap();
        damage(&p, &text);
        let obs = Recorder::enabled();
        let resumed = CheckpointStore::open(&d, 9, 2, true).unwrap();
        assert!(
            resumed.resume_shard(0, WIDTH, &fleet(), &obs).is_none(),
            "{tag}: damaged shard was trusted"
        );
        assert_eq!(counter(&obs, "ckpt.shards_recomputed"), 1, "{tag}");
        assert_eq!(counter(&obs, "ckpt.shards_skipped"), 0, "{tag}");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn clean_shards_are_skipped_and_counted() {
        let d = tmpdir("clean");
        let s = CheckpointStore::open(&d, 9, 2, false).unwrap();
        s.store_shard(0, WIDTH, &record()).unwrap();
        let obs = Recorder::enabled();
        let rec = s.resume_shard(0, WIDTH, &fleet(), &obs).unwrap();
        assert_eq!(bits(&rec), bits(&record()));
        assert_eq!(counter(&obs, "ckpt.shards_skipped"), 1);
        assert_eq!(counter(&obs, "ckpt.shards_recomputed"), 0);
        // A different fleet (order matters) is not this run's shard.
        let swapped = vec!["Ditto".to_owned(), "DTMatcher".to_owned()];
        assert!(s.resume_shard(0, WIDTH, &swapped, &obs).is_none());
        assert_eq!(counter(&obs, "ckpt.shards_recomputed"), 1);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn truncated_shard_files_are_recomputed() {
        let d = tmpdir("truncate-all");
        let s = CheckpointStore::open(&d, 9, 2, false).unwrap();
        s.store_shard(0, WIDTH, &record()).unwrap();
        let p = d.join("shard-0.json");
        let text = fs::read_to_string(&p).unwrap();
        // Every proper prefix — a torn write that bypassed the rename.
        for cut in 0..text.len() {
            fs::write(&p, &text.as_bytes()[..cut]).unwrap();
            assert!(
                s.load_shard(0, WIDTH).is_none(),
                "prefix of {cut} bytes was trusted"
            );
        }
        let _ = fs::remove_dir_all(&d);
        assert_recomputed("truncate", |p, text| {
            fs::write(p, &text[..text.len() / 2]).unwrap();
        });
    }

    #[test]
    fn a_flipped_byte_anywhere_is_recomputed() {
        let d = tmpdir("flip-all");
        let s = CheckpointStore::open(&d, 9, 2, false).unwrap();
        s.store_shard(0, WIDTH, &record()).unwrap();
        let p = d.join("shard-0.json");
        let clean = fs::read(&p).unwrap();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            fs::write(&p, &bytes).unwrap();
            assert!(
                s.load_shard(0, WIDTH).is_none(),
                "flip at byte {i} was trusted"
            );
        }
        let _ = fs::remove_dir_all(&d);
        assert_recomputed("flip", |p, text| {
            // Flip one hex digit inside the first score vector.
            let at = text.find("\"scores\":\"").unwrap() + 12;
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
            fs::write(p, bytes).unwrap();
        });
    }

    #[test]
    fn a_score_vector_of_the_wrong_width_is_recomputed() {
        // Stored at one width, resumed at another.
        let d = tmpdir("width");
        let s = CheckpointStore::open(&d, 9, 2, false).unwrap();
        s.store_shard(0, WIDTH, &record()).unwrap();
        let obs = Recorder::enabled();
        assert!(s.resume_shard(0, WIDTH + 1, &fleet(), &obs).is_none());
        assert_eq!(counter(&obs, "ckpt.shards_recomputed"), 1);
        // A record whose own vectors disagree with its declared width.
        let mut short = record();
        short.matchers[1].1.pop();
        s.store_shard(1, WIDTH, &short).unwrap();
        assert!(s.resume_shard(1, WIDTH, &fleet(), &obs).is_none());
        assert_eq!(counter(&obs, "ckpt.shards_recomputed"), 2);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn an_unparsable_score_is_recomputed() {
        assert_recomputed("unparsable", |p, text| {
            // Replace one score word with non-hex text and re-seal the
            // digest, so only the score parse can reject it.
            let v = Json::parse(text).unwrap();
            let Some(Json::Arr(items)) = v.get("matchers") else {
                panic!("matchers array")
            };
            let mut encoded: Vec<(String, String)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_owned(),
                        m.get("scores").unwrap().as_str().unwrap().to_owned(),
                    )
                })
                .collect();
            encoded[0].1.replace_range(0..16, "zzzzzzzzzzzzzzzz");
            let refs: Vec<(&str, &str)> = encoded
                .iter()
                .map(|(n, h)| (n.as_str(), h.as_str()))
                .collect();
            let sealed = Json::obj([
                ("schema", Json::Str(CKPT_SCHEMA.into())),
                ("run_key", Json::Str("9".into())),
                ("shard", Json::Num(0.0)),
                ("width", Json::Num(WIDTH as f64)),
                ("digest", Json::Str(digest(0, WIDTH, &refs))),
                (
                    "matchers",
                    Json::arr(refs.iter().map(|(n, h)| {
                        Json::obj([
                            ("name", Json::Str((*n).to_owned())),
                            ("scores", Json::Str((*h).to_owned())),
                        ])
                    })),
                ),
            ]);
            fs::write(p, sealed.to_string_compact()).unwrap();
        });
        assert!(decode_scores("zzzzzzzzzzzzzzzz", 1).is_none());
        assert!(
            decode_scores("+fffffffffffffff", 1).is_none(),
            "no sign prefix"
        );
    }

    #[test]
    fn a_leftover_version_one_directory_is_recomputed() {
        let d = tmpdir("v1");
        fs::create_dir_all(&d).unwrap();
        // The previous format: histogram buckets and a clamp tally.
        fs::write(
            d.join("manifest.json"),
            "{\"schema\":\"fairem-ckpt/1\",\"run_key\":\"9\",\"shards\":2}",
        )
        .unwrap();
        fs::write(
            d.join("shard-0.json"),
            "{\"schema\":\"fairem-ckpt/1\",\"run_key\":\"9\",\"shard\":0,\"clamped\":\"0\",\
             \"matchers\":[{\"name\":\"DTMatcher\",\"counts\":[{\"left\":\"1\",\"right\":\"2\",\
             \"pred\":true,\"truth\":false,\"n\":\"8\"}]}]}",
        )
        .unwrap();
        let obs = Recorder::enabled();
        let s = CheckpointStore::open(&d, 9, 2, true).unwrap();
        let names = vec!["DTMatcher".to_owned()];
        assert!(s.resume_shard(0, WIDTH, &names, &obs).is_none());
        assert_eq!(counter(&obs, "ckpt.shards_recomputed"), 1);
        // The manifest was rewritten under the current schema.
        let m = fs::read_to_string(d.join("manifest.json")).unwrap();
        assert!(m.contains(CKPT_SCHEMA), "{m}");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn a_manifest_nested_past_the_parser_cap_is_recomputed() {
        // Hostile nesting in both files: far past the JSON depth cap, so
        // an uncapped recursive parser would overflow the stack.
        let deep = "[".repeat(100_000);
        let d = tmpdir("deep");
        let s = CheckpointStore::open(&d, 9, 2, false).unwrap();
        s.store_shard(0, WIDTH, &record()).unwrap();
        fs::write(d.join("manifest.json"), &deep).unwrap();
        fs::write(d.join("shard-0.json"), &deep).unwrap();
        let obs = Recorder::enabled();
        let resumed = CheckpointStore::open(&d, 9, 2, true).unwrap();
        assert!(resumed.resume_shard(0, WIDTH, &fleet(), &obs).is_none());
        assert_eq!(counter(&obs, "ckpt.shards_recomputed"), 1);
        assert_eq!(counter(&obs, "ckpt.shards_skipped"), 0);
        // The unreadable manifest was replaced under the current schema.
        let m = fs::read_to_string(d.join("manifest.json")).unwrap();
        assert!(m.contains(CKPT_SCHEMA), "{m}");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn fresh_open_without_resume_invalidates_nothing_but_rewrites_manifest() {
        let d = tmpdir("fresh");
        let s = CheckpointStore::open(&d, 5, 2, false).unwrap();
        s.store_shard(0, WIDTH, &record()).unwrap();
        // Re-open without resume: loads still check the key, and the
        // old committed file has the right key, so the caller decides
        // whether to reuse (the pipeline only calls load when resuming).
        let s2 = CheckpointStore::open(&d, 5, 2, false).unwrap();
        assert!(s2.load_shard(0, WIDTH).is_some());
        let _ = fs::remove_dir_all(&d);
    }
}
