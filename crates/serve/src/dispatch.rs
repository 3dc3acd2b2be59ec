//! Request dispatch: one parsed [`Request`] in, one structured [`Reply`]
//! out, under a per-request cancel token.
//!
//! Every reply is a JSON object with a `status` discriminant:
//!
//! - `ok` — the request completed in full.
//! - `partial` — the request's deadline (or a server drain) cut it at a
//!   checkpoint; whatever completed is included, plus the interrupt
//!   cause. The server-side analogue of the CLI's exit-4 path.
//! - `busy` — admission control shed the request; carries a
//!   `retry_after_ms` hint and never blocks.
//! - `error` — the request was understood but cannot be served
//!   (unknown matcher, no open session, cache full, …) or was
//!   malformed (those also cost a protocol strike).
//! - `bye` — the server is closing this connection (client `close`,
//!   drain, or quarantine).

use std::sync::Arc;
use std::time::Instant;

use fairem_core::audit::{AuditConfig, Auditor};
use fairem_core::calibrate::{apply_calibrator, distribution_audit};
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::report::audit_json;
use fairem_core::threshold::default_grid;
use fairem_core::{CalibrationSpec, SuiteError};
use fairem_csvio::Json;
use fairem_par::{CancelCause, CancelToken, Interrupt};

use crate::proto::Request;
use crate::registry::{OpenError, SessionEntry, SessionSpec};
use crate::server::Shared;

/// Broad reply class, for the connection loop's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyClass {
    /// Request served in full.
    Ok,
    /// Shed by admission control.
    Busy,
    /// Cut by a deadline — degraded content included.
    Partial,
    /// Structured failure.
    Error,
    /// Connection is closing.
    Bye,
}

/// A framed reply plus its connection-level consequences.
#[derive(Debug)]
pub struct Reply {
    /// JSON body (compact encoding).
    pub body: String,
    /// Close the connection after sending this reply.
    pub disconnect: bool,
    /// Count a protocol strike against this connection.
    pub strike: bool,
    /// Accounting class.
    pub class: ReplyClass,
}

impl Reply {
    fn finish(mut json: Json, class: ReplyClass) -> Reply {
        let status = match class {
            ReplyClass::Ok => "ok",
            ReplyClass::Busy => "busy",
            ReplyClass::Partial => "partial",
            ReplyClass::Error => "error",
            ReplyClass::Bye => "bye",
        };
        // `status` leads every reply object for easy eyeballing.
        let mut obj = Json::obj([("status", Json::Str(status.to_owned()))]);
        if let Json::Obj(rest) = &mut json {
            if let Json::Obj(head) = &mut obj {
                head.append(rest);
            }
        }
        Reply {
            body: obj.to_string_compact(),
            disconnect: false,
            strike: false,
            class,
        }
    }

    /// A full-success reply with extra payload fields.
    pub fn ok(extra: Json) -> Reply {
        Reply::finish(extra, ReplyClass::Ok)
    }

    /// An admission-control shed with a retry hint.
    pub fn busy(scope: &str, retry_after_ms: u64) -> Reply {
        Reply::finish(
            Json::obj([
                ("scope", Json::Str(scope.to_owned())),
                ("retry_after_ms", Json::Num(retry_after_ms as f64)),
            ]),
            ReplyClass::Busy,
        )
    }

    /// A deadline-cut reply carrying partial payload.
    pub fn partial(interrupt: &Interrupt, mut extra: Json) -> Reply {
        let mut fields = Json::obj([("interrupt", Json::Str(interrupt.to_string()))]);
        if let (Json::Obj(head), Json::Obj(rest)) = (&mut fields, &mut extra) {
            head.append(rest);
        }
        Reply::finish(fields, ReplyClass::Partial)
    }

    /// A structured error.
    pub fn error(detail: impl Into<String>) -> Reply {
        Reply::finish(
            Json::obj([("detail", Json::Str(detail.into()))]),
            ReplyClass::Error,
        )
    }

    /// A goodbye frame; always disconnects.
    pub fn bye(reason: &str) -> Reply {
        let mut r = Reply::finish(
            Json::obj([("reason", Json::Str(reason.to_owned()))]),
            ReplyClass::Bye,
        );
        r.disconnect = true;
        r
    }

    /// Mark this reply as costing a protocol strike.
    pub fn with_strike(mut self) -> Reply {
        self.strike = true;
        self
    }

    /// Mark this reply as the last one on the connection.
    pub fn with_disconnect(mut self) -> Reply {
        self.disconnect = true;
        self
    }
}

/// Per-connection dispatch state: the working session, if any.
#[derive(Debug, Default)]
pub struct ConnCtx {
    /// Session selected by the last successful `open`.
    pub session: Option<Arc<SessionEntry>>,
}

/// Serve one request. The caller has already acquired an in-flight slot
/// (except for `ping`/`close`, which bypass admission) and wrapped this
/// in the panic guard; `token` is this request's child of the server
/// root and carries the per-request deadline.
pub fn dispatch(
    req: Request,
    conn: &mut ConnCtx,
    shared: &Shared,
    token: &CancelToken,
) -> Reply {
    match req {
        Request::Ping => Reply::ok(Json::obj([("proto", Json::Str(crate::proto::MAGIC.into()))])),
        Request::Close => Reply::bye("close"),
        Request::Metrics => metrics(shared),
        Request::Boom => {
            // fairem: allow(panic) — deliberate chaos hook: storm tests prove a poisoned request kills only its own connection.
            panic!("boom: deliberate chaos panic requested by client")
        }
        Request::Stall(ms) => stall(ms, token),
        Request::Open {
            dataset,
            seed,
            matchers,
            threshold,
            shards,
        } => open(&dataset, seed, &matchers, threshold, shards, conn, shared, token),
        Request::Audit(matcher) => audit(matcher.as_deref(), conn, shared, token),
        Request::TuneThreshold(matcher) => tune(&matcher, conn, token),
        Request::Calibrate { matcher, spec } => calibrate(&matcher, spec, conn, shared, token),
        Request::Ensemble => ensemble(conn, token),
    }
}

/// The default audit configuration served for `audit` requests —
/// paper-five measures, single paradigm, demo thresholds.
fn auditor() -> Auditor {
    Auditor::new(AuditConfig::default())
}

fn require_session(conn: &ConnCtx) -> Result<&Arc<SessionEntry>, Reply> {
    conn.session
        .as_ref()
        .ok_or_else(|| Reply::error("no open session — send `open` first"))
}

fn metrics(shared: &Shared) -> Reply {
    let snap = shared.recorder.snapshot().to_json();
    match Json::parse(&snap) {
        Ok(snapshot) => Reply::ok(Json::obj([
            ("enabled", Json::Bool(shared.recorder.is_enabled())),
            ("snapshot", snapshot),
        ])),
        Err(e) => Reply::error(format!("snapshot serialization failed: {e}")),
    }
}

fn stall(ms: u64, token: &CancelToken) -> Reply {
    let start = Instant::now();
    let target = std::time::Duration::from_millis(ms);
    while start.elapsed() < target {
        if let Err(interrupt) = token.checkpoint() {
            return Reply::partial(
                &interrupt,
                Json::obj([(
                    "stalled_ms",
                    Json::Num(start.elapsed().as_millis() as f64),
                )]),
            );
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Reply::ok(Json::obj([("stalled_ms", Json::Num(ms as f64))]))
}

#[allow(clippy::too_many_arguments)]
fn open(
    dataset: &str,
    seed: u64,
    matchers: &[String],
    threshold: f64,
    shards: usize,
    conn: &mut ConnCtx,
    shared: &Shared,
    token: &CancelToken,
) -> Reply {
    let spec = match SessionSpec::resolve(dataset, seed, matchers, threshold, shards) {
        Ok(s) => s,
        Err(detail) => return Reply::error(detail),
    };
    match shared
        .registry
        .get_or_build(&spec, shared.parallelism, token, &shared.recorder)
    {
        Ok((entry, cached)) => {
            shared.recorder.gauge(
                "serve.sessions.cached",
                shared.registry.len() as f64,
            );
            let names: Vec<Json> = entry
                .session
                .matcher_names()
                .iter()
                .map(|n| Json::Str((*n).to_owned()))
                .collect();
            let reply = Json::obj([
                ("key", Json::Str(entry.key.clone())),
                ("cached", Json::Bool(cached)),
                ("matchers", Json::Arr(names)),
                ("pairs", Json::Num(entry.session.test_size() as f64)),
                ("degraded", Json::Bool(entry.session.is_degraded())),
                ("shards", Json::Num(shards.max(1) as f64)),
            ]);
            conn.session = Some(entry);
            Reply::ok(reply)
        }
        Err(OpenError::Full { max }) => {
            Reply::error(format!("session cache full ({max} specs resident)"))
        }
        Err(OpenError::Suite(SuiteError::TimedOut {
            stage,
            matcher,
            elapsed,
        })) => {
            // The build was cut by this request's deadline (or a server
            // drain): degraded outcome, not a client fault.
            let interrupt = Interrupt {
                cause: token.cause().unwrap_or(CancelCause::Deadline),
                elapsed,
                steps: 0,
            };
            Reply::partial(
                &interrupt,
                Json::obj([
                    ("stage", Json::Str(stage.to_string())),
                    (
                        "matcher",
                        matcher.map(Json::Str).unwrap_or(Json::Null),
                    ),
                ]),
            )
        }
        Err(OpenError::Suite(e)) => Reply::error(format!("open failed: {e}")),
    }
}

fn audit(
    matcher: Option<&str>,
    conn: &mut ConnCtx,
    shared: &Shared,
    token: &CancelToken,
) -> Reply {
    let entry = match require_session(conn) {
        Ok(e) => e,
        Err(r) => return r,
    };
    let auditor = auditor();
    match matcher {
        Some(name) => {
            if let Err(interrupt) = token.checkpoint() {
                return Reply::partial(&interrupt, Json::obj([("reports", Json::Arr(vec![]))]));
            }
            match entry.session.audit(name, &auditor) {
                Ok(report) => Reply::ok(Json::obj([(
                    "reports",
                    Json::Arr(vec![audit_json(&report)]),
                )])),
                Err(e) => Reply::error(format!("audit failed: {e}")),
            }
        }
        None => {
            let (reports, interrupt) =
                entry.session.try_audit_all_within(&auditor, token);
            let _ = shared; // counters recorded by the caller
            let body = Json::obj([(
                "reports",
                Json::Arr(reports.iter().map(audit_json).collect::<Vec<_>>()),
            )]);
            match interrupt {
                None => Reply::ok(body),
                Some(i) => Reply::partial(&i, body),
            }
        }
    }
}

fn tune(matcher: &str, conn: &mut ConnCtx, token: &CancelToken) -> Reply {
    let entry = match require_session(conn) {
        Ok(e) => e,
        Err(r) => return r,
    };
    let session = &entry.session;
    if let Err(interrupt) = token.checkpoint() {
        return Reply::partial(&interrupt, Json::Obj(Vec::new()));
    }
    match session.tune_threshold(matcher) {
        Ok(threshold) => Reply::ok(Json::obj([
            ("matcher", Json::Str(matcher.to_owned())),
            ("threshold", Json::Num(threshold)),
        ])),
        Err(e) => Reply::error(format!("tune_threshold failed: {e}")),
    }
}

fn calibrate(
    matcher: &str,
    spec: CalibrationSpec,
    conn: &mut ConnCtx,
    shared: &Shared,
    token: &CancelToken,
) -> Reply {
    let entry = match require_session(conn) {
        Ok(e) => e,
        Err(r) => return r,
    };
    let session = &entry.session;
    if let Err(interrupt) = token.checkpoint() {
        return Reply::partial(&interrupt, Json::Obj(Vec::new()));
    }
    let groups = session.space.level1_of_attr(0);
    let cal = match entry.calibrator(matcher, spec, &groups, &shared.recorder) {
        Ok(c) => c,
        Err(e) => return Reply::error(format!("calibrate failed: {e}")),
    };
    let w = match session.workload(matcher) {
        Ok(w) => w,
        Err(e) => return Reply::error(format!("calibrate failed: {e}")),
    };
    // Threshold-independent headline: distribution distances vs the
    // overall score distribution, before and after calibration, under
    // the same defaults the `audit` verb serves.
    let grid = default_grid();
    let measures = FairnessMeasure::PAPER_FIVE;
    let before = distribution_audit(
        &w,
        &session.space,
        &groups,
        &measures,
        Disparity::Subtraction,
        &grid,
    );
    let cw = apply_calibrator(&cal, &w, &groups);
    let after = distribution_audit(
        &cw,
        &session.space,
        &groups,
        &measures,
        Disparity::Subtraction,
        &grid,
    );
    Reply::ok(Json::obj([
        ("matcher", Json::Str(matcher.to_owned())),
        ("calibration", Json::Str(spec.label())),
        ("groups_fitted", Json::Num(cal.groups_fitted() as f64)),
        ("fallbacks", Json::Num(cal.fallbacks() as f64)),
        ("ks_raw", Json::Num(before.max_ks())),
        ("ks_calibrated", Json::Num(after.max_ks())),
        ("w1_raw", Json::Num(before.max_wasserstein())),
        ("w1_calibrated", Json::Num(after.max_wasserstein())),
    ]))
}

fn ensemble(conn: &mut ConnCtx, token: &CancelToken) -> Reply {
    let entry = match require_session(conn) {
        Ok(e) => e,
        Err(r) => return r,
    };
    let session = &entry.session;
    if let Err(interrupt) = token.checkpoint() {
        return Reply::partial(&interrupt, Json::obj([("frontier", Json::Arr(vec![]))]));
    }
    let explorer = session
        .ensemble(0, FairnessMeasure::AccuracyParity, Disparity::Subtraction)
        .with_cancel(token.clone());
    let (points, interrupt) = explorer.try_pareto_frontier();
    let frontier: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj([
                (
                    "assignment",
                    Json::Arr(
                        p.assignment
                            .iter()
                            .map(|&i| Json::Num(i as f64))
                            .collect::<Vec<_>>(),
                    ),
                ),
                ("performance", Json::Num(p.performance)),
                ("unfairness", Json::Num(p.unfairness)),
            ])
        })
        .collect();
    let body = Json::obj([("frontier", Json::Arr(frontier))]);
    match interrupt {
        None => Reply::ok(body),
        Some(i) => Reply::partial(&i, body),
    }
}
