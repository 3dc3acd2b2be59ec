//! The batch workloads: audit-citations, demo-faculty and
//! sharded-scale. The parent makes the inputs and checks the outputs;
//! each audit process is a worker child whose memory is read from
//! outside.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fairem_core::matcher::MatcherKind;
use fairem_obs::Recorder;

use crate::audit::{audit_once, digest, layers, AuditSpec, Sharding, ALL_TEN, DEFAULT_FLEET};
use crate::child::{wait_for_parent, Worker};
use crate::inputs::{generate, Data, Inputs};
use crate::probe::probe;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::sys::{self, Stopwatch};
use crate::trace::Tracer;
use crate::Workload;

/// Rows per table of the sharded-scale workload.
pub const SCALE_ROWS: usize = 128_000;
/// Candidate pairs per row of the sharded-scale workload.
pub const SCALE_BLOCK_WIDTH: usize = 8;
/// Shards of the sharded-scale audit.
pub const SCALE_SHARDS: usize = 16;
/// Memory budget of the sharded-scale audit, MiB of the cost model.
pub const SCALE_MEM_MIB: u64 = 40;
/// An untraced run sets up at least this many times; `setup_s` is the
/// median.
pub const SETUP_MIN_REPS: usize = 3;
/// Cheap set-ups repeat until this much time is spent. Input generation
/// runs at the host's speed of the moment, which drifts over seconds, so
/// the median must span several seconds to read the same from run to run.
pub const SETUP_MIN_SECS: f64 = 3.0;
/// Upper bound on set-up repetitions.
pub const SETUP_MAX_REPS: usize = 1000;

/// Whether set-up should run again after `times`.
pub fn setup_again(times: &[f64]) -> bool {
    times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECS && times.len() < SETUP_MAX_REPS)
}

/// Input sets a workload's audits rotate over. Different generated
/// datasets cost differently, so a run measures several and reports
/// across them rather than depending on one seed's dataset.
pub fn sets_of(w: Workload) -> usize {
    match w {
        // Sixteen sets of ~9 timed audits each: with four, which
        // datasets a seed drew moved audit_s by more than host noise.
        Workload::AuditCitations => 16,
        Workload::DemoFaculty => 3,
        // One set: the set-up's unsharded reference costs a full audit.
        Workload::ShardedScale => 1,
    }
}

/// Directory of input set `k` under the inputs root.
pub fn set_dir(root: &Path, k: usize) -> PathBuf {
    root.join(k.to_string())
}

/// The generator a workload draws from.
pub fn data_of(w: Workload) -> Data {
    match w {
        Workload::AuditCitations => Data::Citations,
        Workload::DemoFaculty => Data::Faculty,
        Workload::ShardedScale => Data::Scale {
            rows: SCALE_ROWS,
            block_width: SCALE_BLOCK_WIDTH,
        },
    }
}

/// Blocking columns a workload's audits use.
pub fn blocking_of(w: Workload) -> Vec<String> {
    match w {
        Workload::AuditCitations => vec!["title".to_owned()],
        _ => fairem_core::prep::PrepConfig::default().blocking_columns,
    }
}

/// What one audit of `w` runs. `sharding` is only read for
/// sharded-scale; without it that workload's audit is the unsharded
/// reference.
pub fn spec_of(w: Workload, sharding: Option<Sharding>) -> AuditSpec {
    match w {
        Workload::AuditCitations => AuditSpec {
            kinds: DEFAULT_FLEET.to_vec(),
            blocking: Some(blocking_of(w)),
            calibrate: true,
            ensemble: true,
            explain: false,
            sharding: None,
        },
        Workload::DemoFaculty => AuditSpec {
            kinds: ALL_TEN.to_vec(),
            blocking: None,
            calibrate: false,
            ensemble: true,
            explain: true,
            sharding: None,
        },
        Workload::ShardedScale => AuditSpec {
            kinds: vec![MatcherKind::DtMatcher, MatcherKind::LinRegMatcher],
            blocking: None,
            calibrate: false,
            ensemble: false,
            explain: false,
            sharding,
        },
    }
}

// ---------------------------------------------------------------------
// Worker side

fn op_line(tag: &str, set: usize, secs: f64, out: &Result<String, String>) -> String {
    match out {
        Ok(report) => format!("op {tag} {set} {secs} {:016x}", digest(report)),
        Err(e) => format!("fail {tag} {set} {secs} {}", e.replace('\n', " ")),
    }
}

fn timed(
    spec: &AuditSpec,
    inputs: &Inputs,
    tr: &mut Tracer,
    rec: &Recorder,
) -> (f64, Result<String, String>) {
    let start = Stopwatch::start();
    let out = audit_once(spec, inputs, tr, rec);
    (start.secs(), out)
}

/// Write out a traced audit: its layer figures, then every span as
/// `span <run> <id> <parent|-> <start_s|-> <secs> <name>`.
fn print_trace(tr: &Tracer, rec: &Recorder) {
    for (k, v) in layers(tr, rec) {
        println!("layer {k} {v}");
    }
    let opt = |v: Option<String>| v.unwrap_or_else(|| "-".to_owned());
    for s in tr.spans() {
        println!(
            "span {} {} {} {} {} {}",
            s.run,
            s.id,
            opt(s.parent.map(|p| p.to_string())),
            opt(s.start_s.map(|t| t.to_string())),
            s.secs,
            s.name
        );
    }
}

/// `worker loop <workload> <root> <seconds>`: one untimed warm-up audit
/// per input set under `root` (its report is the set's reference), then
/// a closed loop of audits for `seconds`, rotating over the sets. An
/// audit starts only if, at the last audit's duration, it would end
/// within the window; at least one always runs.
pub fn worker_loop(w: Workload, root: &Path, seconds: f64) -> Result<(), String> {
    let sets = (0..sets_of(w))
        .map(|k| Inputs::read(&set_dir(root, k)).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let spec = spec_of(w, None);
    let off = Recorder::disabled();
    let mut n = 0;
    let mut audit = |tag: &str| {
        let k = n % sets.len();
        n += 1;
        let (secs, out) = timed(&spec, &sets[k], &mut Tracer::off(), &off);
        println!("{}", op_line(tag, k, secs, &out));
        secs
    };
    for _ in 0..sets.len() {
        audit("w");
    }
    let start = Stopwatch::start();
    let mut last = audit("u");
    while start.secs() + last <= seconds {
        last = audit("u");
    }
    println!("ready");
    wait_for_parent();
    Ok(())
}

/// `worker once <workload> <dir> <ckpt|-> <resume 0|1> <traced 0|1>`:
/// one audit, sharded when a checkpoint directory is given.
pub fn worker_once(
    w: Workload,
    dir: &Path,
    ckpt: Option<PathBuf>,
    resume: bool,
    traced: bool,
) -> Result<(), String> {
    let inputs = Inputs::read(dir).map_err(|e| e.to_string())?;
    let spec = spec_of(
        w,
        ckpt.map(|ckpt| Sharding {
            shards: SCALE_SHARDS,
            mem_mib: SCALE_MEM_MIB,
            ckpt,
            resume,
        }),
    );
    let (mut tr, rec) = if traced {
        (Tracer::new(1), Recorder::enabled())
    } else {
        (Tracer::off(), Recorder::disabled())
    };
    let (secs, out) = timed(&spec, &inputs, &mut tr, &rec);
    println!("{}", op_line(if traced { "t" } else { "u" }, 0, secs, &out));
    if traced {
        print_trace(&tr, &rec);
    }
    println!("ready");
    wait_for_parent();
    Ok(())
}

/// `worker traced <workload> <dir> <reps>`: one untimed warm-up audit
/// (the reference), then `reps` pairs of one untraced and one traced
/// audit, interleaved, then the layer figures of the last traced audit.
pub fn worker_traced(w: Workload, dir: &Path, reps: usize) -> Result<(), String> {
    let inputs = Inputs::read(dir).map_err(|e| e.to_string())?;
    let spec = spec_of(w, None);
    let (secs, out) = timed(&spec, &inputs, &mut Tracer::off(), &Recorder::disabled());
    println!("{}", op_line("w", 0, secs, &out));
    let mut last = None;
    for r in 0..reps {
        let (secs, out) = timed(&spec, &inputs, &mut Tracer::off(), &Recorder::disabled());
        println!("{}", op_line("u", 0, secs, &out));
        let mut tr = Tracer::new(r as u64);
        let rec = Recorder::enabled();
        let (secs, out) = timed(&spec, &inputs, &mut tr, &rec);
        println!("{}", op_line("t", 0, secs, &out));
        last = Some((tr, rec));
    }
    if let Some((tr, rec)) = last {
        print_trace(&tr, &rec);
    }
    println!("ready");
    wait_for_parent();
    Ok(())
}

// ---------------------------------------------------------------------
// Parent side

/// One parsed `op`/`fail` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// `w` warm-up, `u` untraced, `t` traced.
    pub tag: String,
    /// Input set audited.
    pub set: usize,
    /// Wall time of the audit.
    pub secs: f64,
    /// Report digest; `None` if the audit failed.
    pub digest: Option<String>,
}

/// What a worker reported.
#[derive(Debug, Default)]
pub struct WorkerOut {
    /// Its audits, in order.
    pub ops: Vec<Op>,
    /// Layer figures of its traced audit.
    pub layers: Vec<(String, f64)>,
    /// Spans of its traced audit, as printed.
    pub spans: Vec<String>,
    /// Its peak resident set, MiB.
    pub rss_mib: f64,
}

/// Parse a worker's `op`/`fail`, `layer` and `span` lines.
pub fn parse_lines(lines: &[String]) -> Result<WorkerOut, String> {
    let mut out = WorkerOut::default();
    for l in lines {
        if l.starts_with("span ") {
            out.spans.push(l.clone());
            continue;
        }
        let bad = || format!("bad line {l:?}");
        let mut w = l.splitn(5, ' ');
        let (kind, a, b, c, d) = (w.next(), w.next(), w.next(), w.next(), w.next());
        match (kind, a, b, c) {
            (Some("op" | "fail"), Some(tag), Some(set), Some(secs)) => out.ops.push(Op {
                tag: tag.to_owned(),
                set: set.parse().map_err(|_| bad())?,
                secs: secs.parse().map_err(|_| bad())?,
                digest: if kind == Some("op") {
                    d.map(str::to_owned)
                } else {
                    None
                },
            }),
            (Some("layer"), Some(name), Some(v), None) => out
                .layers
                .push((name.to_owned(), v.parse().map_err(|_| bad())?)),
            _ => return Err(format!("unexpected worker line {l:?}")),
        }
    }
    Ok(out)
}

/// Run a worker to `ready` and collect what it reported.
fn run_worker(args: Vec<String>) -> Result<WorkerOut, String> {
    let mut worker = Worker::spawn(&args)?;
    let lines = worker.until_ready()?;
    let rss_mib = worker.peak_rss_mib()?;
    worker.finish()?;
    Ok(WorkerOut {
        rss_mib,
        ..parse_lines(&lines)?
    })
}

fn arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// The benchmark seed of input set `k` of a run with seed `seed`. Runs
/// with different seeds share no input set while a workload has at most
/// 64 sets.
pub fn set_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(k as u64)
}

/// Make the input sets (timing each repetition, once when `once`) and
/// keep the last ones under `dir`. For sharded-scale the set-up also computes
/// the unsharded reference report, whose digest is returned.
fn setup(
    w: Workload,
    seed: u64,
    dir: &Path,
    once: bool,
    rep: &mut Report,
) -> Result<Option<String>, String> {
    let mut times = Vec::new();
    let mut reference = None;
    let mut bytes = 0;
    while times.is_empty() || (!once && setup_again(&times)) {
        sys::remove_dir(dir);
        let start = Stopwatch::start();
        bytes = 0;
        for k in 0..sets_of(w) {
            let inputs = generate(data_of(w), set_seed(seed, k))?;
            inputs
                .write(&set_dir(dir, k))
                .map_err(|e| format!("writing inputs: {e}"))?;
            bytes += inputs.bytes();
        }
        if w == Workload::ShardedScale {
            let ops = run_worker(vec![
                "once".into(),
                w.name().into(),
                arg(&set_dir(dir, 0)),
                "-".into(),
                "0".into(),
                "0".into(),
            ])?
            .ops;
            let d = ops.first().and_then(|o| o.digest.clone());
            rep.op(d.is_some());
            if reference.is_some() && reference != d {
                rep.checked_op(true, false);
            }
            reference = reference.or(d);
        }
        times.push(start.secs());
    }
    rep.note(format!(
        "setup: {} input set(s), {bytes} bytes of CSV",
        sets_of(w)
    ));
    rep.put("setup_s", median(&times).unwrap_or(0.0));
    rep.note(crate::stats::describe_setup(&times));
    if w == Workload::ShardedScale && reference.is_none() {
        return Err("unsharded reference audit failed".to_owned());
    }
    Ok(reference)
}

/// Check each audit against its input set's reference digest and count
/// it. The reference is `given` (for set 0) if any, else the digest of
/// the set's first warm-up audit. An audit that is not a warm-up and has
/// no reference fails its check: no timed audit passes unchecked.
fn check(ops: &[Op], given: Option<&str>, rep: &mut Report) {
    let mut reference: BTreeMap<usize, String> =
        given.map(|g| (0, g.to_owned())).into_iter().collect();
    for o in ops {
        let Some(d) = &o.digest else {
            rep.op(false);
            continue;
        };
        match reference.get(&o.set) {
            Some(r) => rep.checked_op(true, d == r),
            None if o.tag == "w" => {
                reference.insert(o.set, d.clone());
                rep.op(true);
            }
            None => rep.checked_op(true, false),
        }
    }
}

/// Wall times of the audits tagged `tag` that produced a report; a
/// failed audit is not a latency sample.
fn succeeded(ops: &[Op], tag: &str) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.tag == tag && o.digest.is_some())
        .map(|o| o.secs)
        .collect()
}

fn latency_figures(audits: &[f64], rep: &mut Report) {
    if let (Some(p50), Some(p90)) = (percentile(audits, 50.0), percentile(audits, 90.0)) {
        rep.put("audit_s.p50", p50.value);
        rep.put("audit_s.p90", p90.value);
        rep.note(format!("audit_s.p50 = {}", p50.describe("s")));
        rep.note(format!("audit_s.p90 = {}", p90.describe("s")));
    }
}

/// Run a batch workload; figures and checks go into `rep`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let inputs_dir = dir.join("inputs");
    let reference = setup(w, seed, &inputs_dir, trace, rep)?;
    // Traced runs, probes and sharded-scale use the first input set.
    let set0 = set_dir(&inputs_dir, 0);
    match (w, trace) {
        (Workload::ShardedScale, false) => {
            sharded_timed(w, &set0, dir, seconds, reference.as_deref(), rep)
        }
        (Workload::ShardedScale, true) => {
            sharded_traced(w, seed, &set0, dir, reference.as_deref(), rep)
        }
        (_, false) => {
            let out = run_worker(vec![
                "loop".into(),
                w.name().into(),
                arg(&inputs_dir),
                seconds.to_string(),
            ])?;
            check(&out.ops, None, rep);
            let rss = out.rss_mib;
            latency_figures(&succeeded(&out.ops, "u"), rep);
            rep.put("peak_rss_mib", rss);
            rep.note(format!("peak_rss_mib = {rss:.1} MiB (audit worker VmHWM)"));
            Ok(())
        }
        (_, true) => {
            let reps = if w == Workload::AuditCitations { 3 } else { 1 };
            let out = run_worker(vec![
                "traced".into(),
                w.name().into(),
                arg(&set0),
                reps.to_string(),
            ])?;
            check(&out.ops, None, rep);
            traced_figures(&out.ops, &out, rep);
            probe_figures(w, seed, &set0, rep)
        }
    }
}

/// Overhead, layer figures, memory coverage and spans of a traced
/// worker; `ops` are the audits the overhead is measured over.
fn traced_figures(ops: &[Op], traced: &WorkerOut, rep: &mut Report) {
    let rss = traced.rss_mib;
    if let (Some(u), Some(t)) = (median(&succeeded(ops, "u")), median(&succeeded(ops, "t"))) {
        rep.put("trace.overhead_frac", t / u - 1.0);
        rep.note(format!("traced audit {t:.4} s vs untraced {u:.4} s"));
    }
    for (k, v) in &traced.layers {
        rep.put(k, *v);
    }
    for s in &traced.spans {
        rep.note(s.clone());
    }
    let peak = rep.get("mem.peak_bytes").unwrap_or(0.0);
    rep.put("mem.model_coverage", peak / (rss * 1024.0 * 1024.0));
    rep.note(format!(
        "memory: cost model peak {:.1} MiB vs measured peak RSS {rss:.1} MiB",
        peak / (1024.0 * 1024.0)
    ));
}

/// The layer probes of a traced run: blocking and kernels on the
/// workload's own inputs, then the serve probe.
fn probe_figures(
    w: Workload,
    seed: u64,
    inputs_dir: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let inputs = Inputs::read(inputs_dir).map_err(|e| e.to_string())?;
    for (k, v) in probe(&inputs, &blocking_of(w))? {
        rep.put(&k, v);
    }
    crate::serve::probe(seed, rep)
}

fn sharded_args(
    w: Workload,
    inputs: &Path,
    ckpt: &Path,
    resume: bool,
    traced: bool,
) -> Vec<String> {
    vec![
        "once".into(),
        w.name().into(),
        arg(inputs),
        arg(ckpt),
        u8::from(resume).to_string(),
        u8::from(traced).to_string(),
    ]
}

fn sharded_timed(
    w: Workload,
    inputs: &Path,
    dir: &Path,
    seconds: f64,
    reference: Option<&str>,
    rep: &mut Report,
) -> Result<(), String> {
    // Each audit is a process of its own, as a CLI run would be: a cold
    // audit into a fresh checkpoint directory, the resume over it, then
    // more cold audits while they fit in the window.
    let start = Stopwatch::start();
    let (mut cold, mut resumed, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = 0.0;
    while rss.is_empty() || start.secs() + last <= seconds {
        let ckpt = dir.join(format!("ckpt{}", cold.len()));
        let out = run_worker(sharded_args(w, inputs, &ckpt, false, false))?;
        check(&out.ops, reference, rep);
        last = out.ops.iter().map(|o| o.secs).sum();
        cold.extend(succeeded(&out.ops, "u"));
        rss.push(out.rss_mib);
        if resumed.is_empty() {
            let out = run_worker(sharded_args(w, inputs, &ckpt, true, false))?;
            check(&out.ops, reference, rep);
            resumed.extend(succeeded(&out.ops, "u"));
        }
        sys::remove_dir(&ckpt);
    }
    rep.note(format!("cold audits: {cold:?} s; resumed: {resumed:?} s"));
    latency_figures(&cold, rep);
    if let Some(p) = percentile(&resumed, 50.0) {
        rep.put("resume_s", p.value);
        rep.note(format!("resume_s = {}", p.describe("s")));
    }
    let peak = rss.iter().copied().fold(0.0, f64::max);
    rep.put("peak_rss_mib", peak);
    rep.note(format!(
        "peak_rss_mib = {peak:.1} MiB (largest cold sharded audit worker VmHWM, {SCALE_MEM_MIB} MiB budget)"
    ));
    Ok(())
}

fn sharded_traced(
    w: Workload,
    seed: u64,
    inputs: &Path,
    dir: &Path,
    reference: Option<&str>,
    rep: &mut Report,
) -> Result<(), String> {
    let ckpt_u = dir.join("ckpt-untraced");
    let untraced = run_worker(sharded_args(w, inputs, &ckpt_u, false, false))?;
    check(&untraced.ops, reference, rep);
    let ckpt = dir.join("ckpt-traced");
    let cold = run_worker(sharded_args(w, inputs, &ckpt, false, true))?;
    check(&cold.ops, reference, rep);
    let ops: Vec<Op> = untraced.ops.iter().chain(&cold.ops).cloned().collect();
    traced_figures(&ops, &cold, rep);
    let bytes = dir_bytes(&ckpt);
    rep.put("ckpt.bytes", bytes as f64);
    let resumed = run_worker(sharded_args(w, inputs, &ckpt, true, true))?;
    check(&resumed.ops, reference, rep);
    let get = |k: &str| {
        resumed
            .layers
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |(_, v)| *v)
    };
    rep.put("ckpt.read_s", get("shard.s.sum"));
    rep.put("ckpt.shards_skipped", get("ckpt.shards_skipped"));
    rep.put("resume.features.build_s", get("features.build_s"));
    rep.note(format!(
        "checkpoint: {bytes} bytes written over {} shard(s); resume skipped {} shard(s), reading them took {:.4} s",
        rep.get("ckpt.shards_written").unwrap_or(0.0),
        get("ckpt.shards_skipped"),
        get("shard.s.sum")
    ));
    probe_figures(w, seed, inputs, rep)
}

fn dir_bytes(dir: &Path) -> u64 {
    sys::list(dir).iter().map(|p| sys::file_len(p)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_lines_parse_into_ops_and_layers() {
        let lines: Vec<String> = [
            "op u 2 0.25 00000000deadbeef",
            "fail t 0 0.5 run degraded: x y",
            "layer blocking.s 0.031",
            "span 0 1 0 0.5 0.25 bench.import",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = parse_lines(&lines).expect("parses");
        assert_eq!(out.ops.len(), 2);
        assert_eq!(out.ops[0].digest.as_deref(), Some("00000000deadbeef"));
        assert_eq!(out.ops[1].digest, None);
        assert_eq!(out.ops[1].tag, "t");
        assert_eq!(out.ops[0].set, 2);
        assert_eq!(out.layers, vec![("blocking.s".to_owned(), 0.031)]);
        assert_eq!(
            out.spans,
            vec!["span 0 1 0 0.5 0.25 bench.import".to_owned()]
        );
        assert!(parse_lines(&["garbage".to_owned()]).is_err());
    }

    fn op(tag: &str, set: usize, d: Option<&str>) -> Op {
        Op {
            tag: tag.into(),
            set,
            secs: 0.1,
            digest: d.map(str::to_owned),
        }
    }

    #[test]
    fn output_checks_fail_a_diverging_or_failed_audit() {
        let mut rep = Report::default();
        check(
            &[
                op("w", 0, Some("a")),
                op("w", 1, Some("x")),
                op("u", 0, Some("a")),
                op("u", 1, Some("x")),
                op("u", 0, Some("b")),
                op("u", 1, None),
            ],
            None,
            &mut rep,
        );
        assert_eq!(rep.attempted, 6);
        assert_eq!(rep.failed, 2);
        assert_eq!(rep.mismatches, 1);
        let mut rep = Report::default();
        check(&[op("u", 0, Some("a"))], Some("r"), &mut rep);
        assert_eq!(rep.failed, 1);
        assert_eq!(rep.mismatches, 1);
    }

    #[test]
    fn one_timed_audit_per_set_is_still_compared_with_its_warm_up() {
        // demo-faculty's shape: a warm-up per set, then one timed audit
        // per set. The diverging timed audit of set 1 is caught.
        let mut rep = Report::default();
        check(
            &[
                op("w", 0, Some("a")),
                op("w", 1, Some("x")),
                op("w", 2, Some("p")),
                op("u", 0, Some("a")),
                op("u", 1, Some("y")),
                op("u", 2, Some("p")),
            ],
            None,
            &mut rep,
        );
        assert_eq!((rep.attempted, rep.failed, rep.mismatches), (6, 1, 1));
    }

    #[test]
    fn a_timed_audit_without_a_reference_fails_its_check() {
        let mut rep = Report::default();
        check(
            &[op("u", 0, Some("a")), op("u", 0, Some("a"))],
            None,
            &mut rep,
        );
        assert_eq!((rep.failed, rep.mismatches), (2, 2));
    }

    #[test]
    fn failed_audits_are_not_latency_samples() {
        let mut ops = vec![op("w", 0, Some("a")), op("u", 0, Some("a"))];
        ops.push(Op {
            secs: 0.001,
            ..op("u", 0, None)
        });
        assert_eq!(succeeded(&ops, "u"), vec![0.1]);
    }
}
