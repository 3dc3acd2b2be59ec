//! # fairem-par
//!
//! A from-scratch, std-only parallel execution engine for the suite:
//! a fixed-size [`WorkerPool`] with chunked [`WorkerPool::par_map`]
//! over index ranges, deterministic result
//! ordering (output is identical to sequential execution, bit for bit,
//! regardless of worker count), and panic capture that integrates with
//! the suite's degraded-mode error taxonomy.
//!
//! Four layers:
//!
//! - [`Parallelism`] — the user-facing policy (`Off` / `Auto` /
//!   `Fixed(n)`), threaded through `SuiteConfig` and the CLI `--jobs`
//!   flag. `Auto` consults the `FAIREM_JOBS` environment variable before
//!   falling back to the hardware thread count.
//! - [`contain`] — the panic-containment primitive (drop-guarded quiet
//!   hook + `catch_unwind`) shared by the pool and by
//!   `fairem-core::fault::guard`.
//! - [`CancelToken`] / [`Budget`] — cooperative cancellation: tokens
//!   with optional wall-clock deadlines and step allowances, polled at
//!   chunk boundaries by the pool and at epoch/step boundaries by the
//!   trainers, so a hung or slow region is cut without killing threads.
//! - [`WorkerPool`] — the scheduler: workers pull index chunks from an
//!   atomic cursor and results are stitched back in chunk order, so a
//!   run with 4 workers produces exactly the sequence a run with 1
//!   worker (or no pool at all) produces. The `*_within` variants
//!   observe a token between chunks and report partial progress via
//!   [`ParOutcome`].
//!
//! The pool optionally carries a `fairem-obs` [`Recorder`]
//! ([`WorkerPool::observe`]): enabled regions count chunks and time
//! them into `par.*` metrics, while the default disabled recorder keeps
//! every region on the exact pre-instrumentation code path. That handle
//! is the crate's only dependency (itself dependency-free), so the
//! engine stays hermetic.

mod cancel;
mod contain;
mod parallelism;
mod pool;

pub use cancel::{
    Budget, CancelCause, CancelToken, Interrupt, MemBudget, MemHold, MemPressure, MemTracker,
};
pub use contain::{contain, panic_message};
pub use fairem_obs::Recorder;
pub use parallelism::{Parallelism, JOBS_ENV};
pub use pool::{ChunkPanic, ParOutcome, WorkerPool};
