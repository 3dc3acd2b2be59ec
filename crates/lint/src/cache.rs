//! The incremental cache: per-file analysis artifacts keyed by FNV-1a
//! content hash.
//!
//! A warm run re-reads every file (the read is how change is detected)
//! but skips re-lexing, re-parsing, and re-running the per-file rules
//! for files whose bytes are unchanged — the cached artifact carries
//! everything downstream passes need: the pre-suppression local
//! findings, the pragma list, and the [`ItemIndex`] the cross-file
//! rules query. Cross-file rules and pragma suppression are
//! recomputed every run (they depend on the whole walk, not one
//! file), which is what keeps cold and warm findings bit-identical.
//!
//! The file is versioned (`fairem-lint-cache/2`); any load failure —
//! missing file, version skew, malformed JSON, an unknown rule name
//! from an older catalog — degrades to a cold run, never to an error.
//! Cached findings carry their message text, so a change to a rule's
//! message bumps the version.

use std::collections::BTreeMap;
use std::path::Path;

use fairem_csvio::Json;

use crate::items::{
    EnumItem, FnItem, ImplItem, ItemIndex, LockEdge, LockField, MetricCall, PathRef, StrConst,
    UseItem,
};
use crate::rules::Finding;
use crate::source::Pragma;

/// Cache schema version tag.
pub const FORMAT: &str = "fairem-lint-cache/2";

/// One file's full analysis artifact — everything the driver needs to
/// skip re-analyzing an unchanged file.
#[derive(Debug, Clone)]
pub struct FileArtifact {
    /// Workspace-relative path (finding prefix).
    pub rel: String,
    /// FNV-1a 64 hash of the file bytes.
    pub hash: u64,
    /// Local-rule findings **before** pragma suppression.
    pub raw: Vec<Finding>,
    pub pragmas: Vec<Pragma>,
    pub items: ItemIndex,
}

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rule names are `&'static str` in [`Finding`]; a cached rule string
/// must intern back to the live catalog. `None` (an unknown name from
/// a different lint version) invalidates the entry.
fn intern_rule(name: &str) -> Option<&'static str> {
    const KNOWN: &[&str] = &[
        "clock",
        "fs",
        "thread",
        "rng",
        "hash_iter",
        "panic",
        "unsafe_comment",
        "float_order",
        "hermetic_deps",
        "pragma",
        "stale_pragma",
        "metrics_registry",
        "lock_order",
        "exit_code",
    ];
    KNOWN.iter().find(|k| **k == name).copied()
}

/// Load a cache file into a rel → artifact map. Any failure yields an
/// empty map (cold run).
pub fn load(path: &Path) -> BTreeMap<String, FileArtifact> {
    let Ok(body) = std::fs::read_to_string(path) else {
        return BTreeMap::new();
    };
    let Ok(doc) = Json::parse(&body) else {
        return BTreeMap::new();
    };
    if doc.get("format").and_then(Json::as_str) != Some(FORMAT) {
        return BTreeMap::new();
    }
    let mut out = BTreeMap::new();
    let Some(files) = doc.get("files").and_then(Json::as_arr) else {
        return BTreeMap::new();
    };
    for f in files {
        if let Some(a) = artifact_from(f) {
            out.insert(a.rel.clone(), a);
        }
    }
    out
}

/// Write `artifacts` (tmp + rename, so a crashed run never leaves a
/// torn cache behind).
pub fn save(path: &Path, artifacts: &[FileArtifact]) -> Result<(), String> {
    let doc = Json::obj([
        ("format", Json::Str(FORMAT.into())),
        (
            "files",
            Json::Arr(artifacts.iter().map(artifact_to).collect()),
        ),
    ]);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc.to_string_compact())
        .map_err(|e| format!("fairem-lint: cannot write cache {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("fairem-lint: cannot commit cache {}: {e}", path.display()))
}

fn s(v: &str) -> Json {
    Json::Str(v.to_owned())
}
fn n(v: usize) -> Json {
    Json::Num(v as f64)
}

fn artifact_to(a: &FileArtifact) -> Json {
    let items = &a.items;
    Json::obj([
        ("rel", s(&a.rel)),
        ("hash", Json::Str(format!("{:016x}", a.hash))),
        (
            "raw",
            Json::Arr(
                a.raw
                    .iter()
                    .map(|f| {
                        Json::Arr(vec![n(f.line), s(f.rule), s(&f.msg)])
                    })
                    .collect(),
            ),
        ),
        (
            "pragmas",
            Json::Arr(
                a.pragmas
                    .iter()
                    .map(|p| {
                        Json::Arr(vec![
                            n(p.line),
                            s(&p.rule),
                            Json::Bool(p.justified),
                            Json::Bool(p.own_line),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fns",
            Json::Arr(
                items
                    .fns
                    .iter()
                    .map(|f| Json::Arr(vec![s(&f.name), n(f.line), n(f.end_line)]))
                    .collect(),
            ),
        ),
        (
            "impls",
            Json::Arr(
                items
                    .impls
                    .iter()
                    .map(|i| Json::Arr(vec![s(&i.ty), n(i.line)]))
                    .collect(),
            ),
        ),
        (
            "uses",
            Json::Arr(
                items
                    .uses
                    .iter()
                    .map(|u| Json::Arr(vec![s(&u.path), n(u.line)]))
                    .collect(),
            ),
        ),
        (
            "lock_fields",
            Json::Arr(
                items
                    .lock_fields
                    .iter()
                    .map(|f| Json::Arr(vec![s(&f.name), n(f.line)]))
                    .collect(),
            ),
        ),
        (
            "lock_edges",
            Json::Arr(
                items
                    .lock_edges
                    .iter()
                    .map(|e| {
                        Json::Arr(vec![
                            s(&e.first),
                            s(&e.then),
                            n(e.line),
                            Json::Bool(e.is_test),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "metric_calls",
            Json::Arr(
                items
                    .metric_calls
                    .iter()
                    .map(|c| {
                        Json::Arr(vec![
                            s(&c.method),
                            c.name.as_deref().map(s).unwrap_or(Json::Null),
                            n(c.line),
                            Json::Bool(c.is_test),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "enums",
            Json::Arr(
                items
                    .enums
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("name", s(&e.name)),
                            ("line", n(e.line)),
                            (
                                "variants",
                                Json::Arr(
                                    e.variants
                                        .iter()
                                        .map(|(v, l)| Json::Arr(vec![s(v), n(*l)]))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "str_consts",
            Json::Arr(
                items
                    .str_consts
                    .iter()
                    .map(|c| Json::Arr(vec![s(&c.name), s(&c.value), n(c.line)]))
                    .collect(),
            ),
        ),
        (
            "path_refs",
            Json::Arr(
                items
                    .path_refs
                    .iter()
                    .map(|p| Json::Arr(vec![s(&p.base), s(&p.name), n(p.line)]))
                    .collect(),
            ),
        ),
        (
            "wildcards",
            Json::Arr(
                items
                    .wildcards
                    .iter()
                    .map(|(l, t)| Json::Arr(vec![n(*l), Json::Bool(*t)]))
                    .collect(),
            ),
        ),
    ])
}

fn artifact_from(v: &Json) -> Option<FileArtifact> {
    let rel = v.get("rel")?.as_str()?.to_owned();
    let hash = u64::from_str_radix(v.get("hash")?.as_str()?, 16).ok()?;
    let mut raw = Vec::new();
    for f in v.get("raw")?.as_arr()? {
        let f = f.as_arr()?;
        raw.push(Finding {
            rel: rel.clone(),
            line: f.first()?.as_usize()?,
            rule: intern_rule(f.get(1)?.as_str()?)?,
            msg: f.get(2)?.as_str()?.to_owned(),
        });
    }
    let mut pragmas = Vec::new();
    for p in v.get("pragmas")?.as_arr()? {
        let p = p.as_arr()?;
        pragmas.push(Pragma {
            line: p.first()?.as_usize()?,
            rule: p.get(1)?.as_str()?.to_owned(),
            justified: p.get(2)?.as_bool()?,
            own_line: p.get(3)?.as_bool()?,
        });
    }
    let mut items = ItemIndex::default();
    for f in v.get("fns")?.as_arr()? {
        let f = f.as_arr()?;
        items.fns.push(FnItem {
            name: f.first()?.as_str()?.to_owned(),
            line: f.get(1)?.as_usize()?,
            end_line: f.get(2)?.as_usize()?,
        });
    }
    for i in v.get("impls")?.as_arr()? {
        let i = i.as_arr()?;
        items.impls.push(ImplItem {
            ty: i.first()?.as_str()?.to_owned(),
            line: i.get(1)?.as_usize()?,
        });
    }
    for u in v.get("uses")?.as_arr()? {
        let u = u.as_arr()?;
        items.uses.push(UseItem {
            path: u.first()?.as_str()?.to_owned(),
            line: u.get(1)?.as_usize()?,
        });
    }
    for f in v.get("lock_fields")?.as_arr()? {
        let f = f.as_arr()?;
        items.lock_fields.push(LockField {
            name: f.first()?.as_str()?.to_owned(),
            line: f.get(1)?.as_usize()?,
        });
    }
    for e in v.get("lock_edges")?.as_arr()? {
        let e = e.as_arr()?;
        items.lock_edges.push(LockEdge {
            first: e.first()?.as_str()?.to_owned(),
            then: e.get(1)?.as_str()?.to_owned(),
            line: e.get(2)?.as_usize()?,
            is_test: e.get(3)?.as_bool()?,
        });
    }
    for c in v.get("metric_calls")?.as_arr()? {
        let c = c.as_arr()?;
        items.metric_calls.push(MetricCall {
            method: c.first()?.as_str()?.to_owned(),
            name: match c.get(1)? {
                Json::Null => None,
                other => Some(other.as_str()?.to_owned()),
            },
            line: c.get(2)?.as_usize()?,
            is_test: c.get(3)?.as_bool()?,
        });
    }
    for e in v.get("enums")?.as_arr()? {
        let mut variants = Vec::new();
        for var in e.get("variants")?.as_arr()? {
            let var = var.as_arr()?;
            variants.push((var.first()?.as_str()?.to_owned(), var.get(1)?.as_usize()?));
        }
        items.enums.push(EnumItem {
            name: e.get("name")?.as_str()?.to_owned(),
            line: e.get("line")?.as_usize()?,
            variants,
        });
    }
    for c in v.get("str_consts")?.as_arr()? {
        let c = c.as_arr()?;
        items.str_consts.push(StrConst {
            name: c.first()?.as_str()?.to_owned(),
            value: c.get(1)?.as_str()?.to_owned(),
            line: c.get(2)?.as_usize()?,
        });
    }
    for p in v.get("path_refs")?.as_arr()? {
        let p = p.as_arr()?;
        items.path_refs.push(PathRef {
            base: p.first()?.as_str()?.to_owned(),
            name: p.get(1)?.as_str()?.to_owned(),
            line: p.get(2)?.as_usize()?,
        });
    }
    for w in v.get("wildcards")?.as_arr()? {
        let w = w.as_arr()?;
        items
            .wildcards
            .push((w.first()?.as_usize()?, w.get(1)?.as_bool()?));
    }
    Some(FileArtifact {
        rel,
        hash,
        raw,
        pragmas,
        items,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let src = "use std::sync::Mutex;\nstruct S { a: Mutex<u32> }\n\
                   pub enum SuiteError { Io }\n\
                   pub const N: &str = \"x.y\";\n\
                   // fairem: allow(panic) — documented\n\
                   fn f(recorder: &Recorder) { recorder.incr(\"x.y\"); let v: Option<u32> = None; v.expect(\"boom\"); }\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        let items = ItemIndex::parse(&file);
        let a = FileArtifact {
            rel: file.rel.clone(),
            hash: fnv1a(src.as_bytes()),
            raw: vec![Finding {
                rel: file.rel.clone(),
                line: 6,
                rule: "panic",
                msg: "`.expect(` outside test code".into(),
            }],
            pragmas: file.pragmas.clone(),
            items,
        };
        let doc = Json::obj([
            ("format", Json::Str(FORMAT.into())),
            ("files", Json::Arr(vec![artifact_to(&a)])),
        ]);
        let back = Json::parse(&doc.to_string_compact()).unwrap();
        let b = artifact_from(back.get("files").unwrap().as_arr().unwrap().first().unwrap())
            .unwrap();
        assert_eq!(b.rel, a.rel);
        assert_eq!(b.hash, a.hash);
        assert_eq!(b.raw, a.raw);
        assert_eq!(b.items, a.items);
        assert_eq!(b.pragmas.len(), a.pragmas.len());
        assert!(b.pragmas[0].justified);
    }

    #[test]
    fn unknown_rule_invalidates_the_entry() {
        let v = Json::obj([
            ("rel", Json::Str("a.rs".into())),
            ("hash", Json::Str("00000000000000ff".into())),
            (
                "raw",
                Json::Arr(vec![Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Str("rule_from_the_future".into()),
                    Json::Str("?".into()),
                ])]),
            ),
        ]);
        assert!(artifact_from(&v).is_none());
    }
}
