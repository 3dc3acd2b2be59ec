//! The FairEM360 benchmark: four workloads, measured end to end (with
//! tracing off) and layer by layer (in a separate traced run).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `audit-citations`, `demo-faculty`, `sharded-scale` (see
//! README.md for why each exists and what it predicts); every traced
//! run also runs the serve probe. The run prints a report, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Inputs
//! and checkpoints go under `.bench_work/` in the working directory and
//! are removed at the end.

mod audit;
mod batch;
mod child;
mod host;
mod inputs;
mod probe;
mod report;
mod sched;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Citations batch audit with calibration and the ensemble frontier.
    AuditCitations,
    /// The paper's demo flow on FacultyMatch with all ten matchers.
    DemoFaculty,
    /// Out-of-core sharded audit with checkpoints, then a resume.
    ShardedScale,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::AuditCitations,
        Workload::DemoFaculty,
        Workload::ShardedScale,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AuditCitations => "audit-citations",
            Workload::DemoFaculty => "demo-faculty",
            Workload::ShardedScale => "sharded-scale",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(v)?),
            "--seed" => seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?,
            "--seconds" => {
                seconds = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn worker(argv: &[String]) -> Result<(), String> {
    let get = |i: usize| {
        argv.get(i)
            .map(String::as_str)
            .ok_or("worker: missing argument")
    };
    let flag = |i: usize| get(i).map(|v| v == "1");
    match get(0)? {
        "server" => serve::worker_server(),
        mode => {
            let w = Workload::parse(get(1)?)?;
            let dir = PathBuf::from(get(2)?);
            match mode {
                "loop" => batch::worker_loop(w, &dir, get(3)?.parse().map_err(|_| "bad seconds")?),
                "once" => {
                    let ckpt = Some(get(3)?).filter(|c| *c != "-").map(PathBuf::from);
                    batch::worker_once(w, &dir, ckpt, flag(4)?, flag(5)?)
                }
                "traced" => batch::worker_traced(w, &dir, get(3)?.parse().map_err(|_| "bad reps")?),
                other => Err(format!("unknown worker mode {other:?}")),
            }
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut rep = Report::default();
    rep.note(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    rep.note(host::tag());
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let out = batch::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &dir,
        &mut rep,
    );
    sys::remove_dir(&dir);
    out?;
    rep.note(format!(
        "fail_frac = {} ({} failed of {} attempted; {} output(s) compared with a reference, {} mismatched)",
        rep.fail_frac(),
        rep.failed,
        rep.attempted,
        rep.checked,
        rep.mismatches
    ));
    Ok(rep)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        return match worker(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(rep) => {
            let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            for l in &rep.lines {
                println!("# {l}");
            }
            let mut rest: Vec<&(String, f64)> = rep
                .figures
                .iter()
                .filter(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
                .collect();
            rest.sort_by(|a, b| a.0.cmp(&b.0));
            for (n, v) in rest {
                println!("# figure {n} = {v}");
            }
            println!("{}", rep.json(catalogue));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
