//! The serve probe: open-loop mixed requests against the audit server,
//! part of every traced run.
//!
//! A server (a worker child) is started and its sessions are opened
//! first, so every pipeline stage runs before the timed part; the timed
//! part only sends requests whose sessions are already cached. Requests
//! are due on a fixed schedule and dealt round-robin over two
//! connections; each is timed from its due time.

use std::time::Duration;

use fairem_core::{Budget, CancelToken, Parallelism};
use fairem_obs::Recorder;
use fairem_serve::{serve, Client, ServeConfig};

use crate::audit::JOBS;
use crate::child::{wait_for_parent, Worker};
use crate::inputs::{dataset_seed, mix64};
use crate::report::Report;
use crate::sched::{deal, drive, uniform, Outcome, WallClock};
use crate::stats::percentile;
use crate::sys::{Background, Stopwatch};

/// Connections the load generator uses (at most one per hardware
/// thread of the reference host).
pub const CONNS: usize = 2;
/// Offered rate, requests per second.
pub const RATE: f64 = 100.0;
/// Length of the open-loop phase: 400 requests at 100 req/s.
pub const PROBE_SECS: f64 = 4.0;
/// Faculty sessions served at once. `open` requests rotate each
/// connection over them.
pub const SESSIONS: usize = 4;
/// Generators `open` accepts; each probe opens all of them once.
pub const OPEN_PROBE: [&str; 4] = ["faculty", "noflycompas", "citations", "products"];
/// Matchers of the served sessions.
const MATCHERS: &str = "DTMatcher,LinRegMatcher";
/// A reply slower than this is a transport failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The request mix: command and weight. `{open}` switches the
/// connection to the next cached faculty session. `audit DTMatcher`
/// doubles as the output check.
const MIX: [(&str, u64); 8] = [
    ("{open}", 2),
    ("audit", 4),
    ("audit DTMatcher", 4),
    ("audit LinRegMatcher", 2),
    ("tune_threshold DTMatcher", 2),
    ("calibrate DTMatcher", 1),
    ("ensemble", 2),
    ("metrics", 3),
];
/// Metric name of each mix entry.
const VERB_NAMES: [&str; 8] = [
    "open",
    "audit",
    "audit_one",
    "audit_one",
    "tune_threshold",
    "calibrate",
    "ensemble",
    "metrics",
];
const OPEN: usize = 0;
const PROBE: usize = 2;

/// Per-verb metric names, each verb once, in mix order.
pub fn verbs() -> Vec<&'static str> {
    let mut out: Vec<&str> = Vec::new();
    for v in VERB_NAMES {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Which mix entry request `i` is, drawn from the seed.
pub fn verb_of(seed: u64, i: usize) -> usize {
    let total: u64 = MIX.iter().map(|(_, w)| w).sum();
    let mut pick = mix64(mix64(seed) ^ i as u64) % total;
    for (k, (_, w)) in MIX.iter().enumerate() {
        if pick < *w {
            return k;
        }
        pick -= w;
    }
    MIX.len() - 1
}

fn open_cmd(dataset: &str, seed: u64) -> String {
    format!(
        "open dataset={dataset} seed={} matchers={MATCHERS}",
        dataset_seed(seed)
    )
}

/// `open` commands of the served faculty sessions for run seed `seed`.
fn session_cmds(seed: u64) -> Vec<String> {
    (0..SESSIONS as u64)
        .map(|k| {
            open_cmd(
                "faculty",
                seed.wrapping_mul(SESSIONS as u64).wrapping_add(k),
            )
        })
        .collect()
}

fn is_ok(body: &str) -> bool {
    Client::status_of(body) == "ok"
}

/// `worker server`: run the server until stdin closes.
pub fn worker_server() -> Result<(), String> {
    let root = CancelToken::with_budget(Budget::UNLIMITED);
    let stop = root.clone();
    let watcher = Background::spawn(move || {
        wait_for_parent();
        stop.cancel();
    });
    let cfg = ServeConfig {
        parallelism: Parallelism::Fixed(JOBS),
        ..ServeConfig::default()
    };
    let out = serve(cfg, root, Recorder::disabled(), |addr| {
        println!("addr {addr}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
    });
    watcher.join()?;
    out.map(|_| ())
}

/// A started server with its sessions open.
struct Served {
    worker: Worker,
    conns: Vec<Client>,
    /// `open` command of each served session.
    sessions: Vec<String>,
    /// The probe reply of each session, taken before the timed part.
    probes: Vec<String>,
    /// Each connection's working session.
    current: Vec<usize>,
}

impl Served {
    fn send(&mut self, conn: usize, cmd: &str) -> Result<String, String> {
        self.conns[conn]
            .send(cmd)
            .map_err(|e| format!("{cmd}: {e}"))
    }

    /// Close the connections and stop the server.
    fn stop(mut self) -> Result<(), String> {
        for c in &mut self.conns {
            let _ = c.send("close");
        }
        self.conns.clear();
        self.worker.finish()
    }
}

/// Start a server, open the faculty sessions (cold on the first
/// connection, cache hits on the other), run the open probe over all
/// four generators, and take each session's probe reply.
fn start(seed: u64, rep: &mut Report) -> Result<Served, String> {
    let mut worker = Worker::spawn(&["server".to_owned()])?;
    let addr = worker
        .next_line()
        .and_then(|l| l.strip_prefix("addr ").map(str::to_owned))
        .ok_or("server did not report its address")?;
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        conns.push(
            Client::connect(&addr, REPLY_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))?,
        );
    }
    let mut s = Served {
        worker,
        conns,
        sessions: session_cmds(seed),
        probes: Vec::new(),
        current: Vec::new(),
    };
    for k in 0..SESSIONS {
        for c in 0..CONNS {
            let open = s.sessions[k].clone();
            let body = s.send(c, &open)?;
            rep.op(is_ok(&body));
            if !is_ok(&body) {
                return Err(format!("{open} failed: {body}"));
            }
            if c == 0 {
                let probe = s.send(0, MIX[PROBE].0)?;
                rep.op(is_ok(&probe));
                if !is_ok(&probe) {
                    return Err(format!("probe audit failed: {probe}"));
                }
                s.probes.push(probe);
            }
        }
    }
    let mut failed_opens = 0;
    for ds in OPEN_PROBE {
        let body = s.send(CONNS - 1, &open_cmd(ds, seed))?;
        if !is_ok(&body) {
            failed_opens += 1;
            rep.note(format!("open probe: dataset={ds} failed: {body}"));
        }
    }
    rep.put(
        "serve.open.fail_frac",
        f64::from(failed_opens) / OPEN_PROBE.len() as f64,
    );
    // Each connection starts on its own session.
    for c in 0..CONNS {
        let open = s.sessions[c % SESSIONS].clone();
        let body = s.send(c, &open)?;
        rep.op(is_ok(&body));
        s.current.push(c % SESSIONS);
    }
    Ok(s)
}

/// Requests sent, each with its mix entry.
type Sent = Vec<(Outcome, usize)>;

/// Send the mix at `rate` for `secs` seconds, open loop.
fn phase(s: &mut Served, seed: u64, rate: f64, secs: f64) -> Sent {
    let due = uniform(rate, Duration::from_secs_f64(secs));
    let parts = deal(&due, s.conns.len());
    let start = Stopwatch::starting_in(Duration::from_millis(5));
    let (sessions, probes) = (&s.sessions, &s.probes);
    let work: Vec<_> = s
        .conns
        .iter_mut()
        .zip(parts)
        .zip(s.current.iter_mut())
        .collect();
    let outcomes: Vec<Outcome> = crate::sys::scoped_map(work, |((conn, part), cur)| {
        let mut clock = WallClock::new(start);
        drive(&part, &mut clock, |i| {
            let v = verb_of(seed, i);
            let next = (*cur + 1) % SESSIONS;
            let cmd = if v == OPEN {
                sessions[next].as_str()
            } else {
                MIX[v].0
            };
            match conn.send(cmd) {
                Ok(body) if is_ok(&body) => {
                    if v == OPEN {
                        *cur = next;
                    }
                    v != PROBE || body == probes[*cur]
                }
                _ => false,
            }
        })
    })
    .into_iter()
    .flatten()
    .flatten()
    .collect();
    outcomes
        .into_iter()
        .map(|o| (o, verb_of(seed, o.index)))
        .collect()
}

fn account(sent: &Sent, rep: &mut Report) {
    for (o, v) in sent {
        // A probe reply that differs is an output mismatch; any other
        // failure is a failed request.
        if *v == PROBE {
            rep.checked_op(true, o.ok);
        } else {
            rep.op(o.ok);
        }
    }
}

fn latencies(sent: &Sent, keep: impl Fn(usize) -> bool) -> Vec<f64> {
    sent.iter()
        .filter(|(_, v)| keep(*v))
        .map(|(o, _)| o.latency_ms())
        .collect()
}

/// Run the serve probe: start a server with its sessions, send the mix
/// open loop at [`RATE`] for [`PROBE_SECS`], and record the `serve.*`
/// figures and checks in `rep`.
pub fn probe(seed: u64, rep: &mut Report) -> Result<(), String> {
    let mut s = start(seed, rep)?;
    let sent = phase(&mut s, seed, RATE, PROBE_SECS);
    s.stop()?;
    account(&sent, rep);
    for name in verbs() {
        let ms = latencies(&sent, |x| VERB_NAMES[x] == name);
        for q in [50.0, 99.0] {
            if let Some(p) = percentile(&ms, q) {
                rep.put(&format!("serve.{name}.ms.p{q}"), p.value);
                rep.note(format!("serve.{name}.ms.p{q} = {}", p.describe("ms")));
            }
        }
    }
    let all = latencies(&sent, |_| true);
    for q in [50.0, 99.0] {
        if let Some(p) = percentile(&all, q) {
            rep.put(&format!("serve.req_ms.p{q}"), p.value);
            rep.note(format!(
                "serve.req_ms.p{q} = {} at {RATE} req/s over {CONNS} connections, timed from the due time",
                p.describe("ms")
            ));
        }
    }
    let late = sent.iter().map(|(o, _)| o.late_ms()).fold(0.0, f64::max);
    rep.put("serve.gen_late_ms.max", late);
    let failed = sent.iter().filter(|(o, _)| !o.ok).count();
    rep.put("serve.failed", failed as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_seeded_and_follows_its_weights() {
        let a: Vec<usize> = (0..2000).map(|i| verb_of(5, i)).collect();
        let b: Vec<usize> = (0..2000).map(|i| verb_of(5, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, (0..2000).map(|i| verb_of(6, i)).collect::<Vec<_>>());
        let share = |k: usize| a.iter().filter(|&&v| v == k).count() as f64 / a.len() as f64;
        // Weight 4 of 20 for `audit`, 1 of 20 for `calibrate`.
        assert!((share(1) - 0.2).abs() < 0.04, "{}", share(1));
        assert!((share(5) - 0.05).abs() < 0.02, "{}", share(5));
    }

    #[test]
    fn every_verb_has_a_per_layer_metric_pair() {
        let names: Vec<&str> = crate::report::PER_LAYER.iter().map(|(n, _)| *n).collect();
        for v in verbs() {
            for q in ["p50", "p99"] {
                let m = format!("serve.{v}.ms.{q}");
                assert!(names.contains(&m.as_str()), "{m} missing");
            }
        }
    }
}
