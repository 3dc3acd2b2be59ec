//! The benchmark's one boundary with the clock, the filesystem and
//! ad-hoc threads.
//!
//! The workspace linter keeps all three out of the suite's compute
//! code. A benchmark exists to read the clock, to write its inputs and
//! to drive concurrent clients, so every such call is made here, each
//! under its pragma, and the rest of the benchmark stays lint-clean.

use std::path::{Path, PathBuf};
// fairem: allow(clock) — the benchmark's timer is built on the wall clock
use std::time::{Duration, Instant};

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // fairem: allow(clock) — the benchmark's timer is built on the wall clock
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            // fairem: allow(clock) — the benchmark's timer is built on the wall clock
            start: Instant::now(),
        }
    }

    /// A timer whose zero lies `ahead` in the future; it reads zero
    /// until then.
    pub fn starting_in(ahead: Duration) -> Stopwatch {
        Stopwatch {
            // fairem: allow(clock) — the benchmark's timer is built on the wall clock
            start: Instant::now() + ahead,
        }
    }

    /// Time since the start (zero before a future start).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// [`Stopwatch::elapsed`] in seconds.
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Sleep the calling thread.
pub fn sleep(d: Duration) {
    std::thread::sleep(d);
}

/// Run `f` on one scoped thread per item of `work`, returning results
/// in item order. A thread that panicked yields `None`.
pub fn scoped_map<T: Send, R: Send>(work: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<Option<R>> {
    let f = &f;
    // fairem: allow(thread) — one load-generator thread per client connection
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    })
}

/// Run `f` on a thread of its own; join it with [`Background::join`].
pub struct Background(std::thread::JoinHandle<()>);

impl Background {
    /// Start `f`.
    pub fn spawn(f: impl FnOnce() + Send + 'static) -> Background {
        // fairem: allow(thread) — the server worker watches its parent on a side thread
        Background(std::thread::spawn(f))
    }

    /// Wait for the thread; an error if it panicked.
    pub fn join(self) -> Result<(), String> {
        self.0
            .join()
            .map_err(|_| "background thread panicked".to_owned())
    }
}

/// Read a file to a string.
pub fn read_to_string(p: impl AsRef<Path>) -> std::io::Result<String> {
    // fairem: allow(fs) — the benchmark reads its inputs, /proc and the source tree
    std::fs::read_to_string(p)
}

/// Read a file's bytes.
pub fn read(p: &Path) -> std::io::Result<Vec<u8>> {
    // fairem: allow(fs) — the benchmark reads its inputs, /proc and the source tree
    std::fs::read(p)
}

/// Write a file, creating its directory first.
pub fn write(p: &Path, body: &str) -> std::io::Result<()> {
    if let Some(dir) = p.parent() {
        // fairem: allow(fs) — the benchmark writes its generated inputs
        std::fs::create_dir_all(dir)?;
    }
    // fairem: allow(fs) — the benchmark writes its generated inputs
    std::fs::write(p, body)
}

/// Remove a directory tree, ignoring a missing one.
pub fn remove_dir(p: &Path) {
    // fairem: allow(fs) — the benchmark removes its own work directory
    let _ = std::fs::remove_dir_all(p);
}

/// Entries of a directory (empty if it cannot be read).
pub fn list(p: &Path) -> Vec<PathBuf> {
    // fairem: allow(fs) — the benchmark sizes checkpoints and digests sources
    std::fs::read_dir(p)
        .map(|it| it.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default()
}

/// Size of a file in bytes (0 if it cannot be read).
pub fn file_len(p: &Path) -> u64 {
    // fairem: allow(fs) — the benchmark sizes checkpoints and digests sources
    std::fs::metadata(p).map_or(0, |m| m.len())
}
