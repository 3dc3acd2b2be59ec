//! # fairem-serve — the hermetic audit server
//!
//! FairEM360 is an *interactive* suite: a user imports a workload once,
//! then iterates — audit, tune a threshold, explore ensembles, look at
//! the metrics, audit again. This crate turns the one-shot pipeline
//! into that shape: a dependency-free TCP server (std::net only,
//! workspace-internal deps only — the fairem-lint hermeticity contract
//! applies here like everywhere else) holding many cached
//! [`fairem_core::pipeline::Session`]s and serving repeated reads over
//! the hand-rolled length-prefixed [`proto`] (`fairem-serve/1`).
//!
//! The robustness machinery built for the CLI carries over wholesale:
//!
//! | CLI behavior                    | server behavior                       |
//! |---------------------------------|---------------------------------------|
//! | `--timeout` exit-4 partial text | per-request `partial` reply           |
//! | SIGINT cooperative wind-down    | graceful drain under a drain budget   |
//! | matcher panic → degraded run    | request panic → one connection closed |
//! | row quarantine (bounded)        | protocol-strike quarantine (bounded)  |
//! | `--metrics` snapshot file       | `metrics` request + drain snapshot    |
//!
//! Modules: [`proto`] (framing + grammar), [`registry`] (bounded keyed
//! session cache), [`dispatch`] (request → structured reply),
//! [`server`] (accept/worker loops, admission, drain), [`client`]
//! (scripted peer + the storm driver used by tests and check.sh).

pub mod client;
pub mod dispatch;
pub mod proto;
pub mod registry;
pub mod server;

pub use client::{run_storm, Client, StormConfig, StormReport};
pub use dispatch::{Reply, ReplyClass};
pub use proto::{FrameReader, ProtoError, Request, MAGIC, MAX_BODY, MAX_STRIKES};
pub use registry::{SessionRegistry, SessionSpec};
pub use server::{serve, ServeConfig, ServeSummary};
