//! Worker processes: the benchmark runs each audit process (and the
//! server) as a child of itself, so their memory is measured from
//! outside and nothing the load generator holds is counted.
//!
//! A child writes one result per line to stdout, then `ready`, then
//! waits for its stdin to close. While it waits, the parent reads the
//! child's peak resident set (`VmHWM`) from `/proc`.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// A running worker.
pub struct Worker {
    proc: Child,
    stdin: Option<ChildStdin>,
    lines: BufReader<ChildStdout>,
}

impl Worker {
    /// Start `<this binary> worker <args…>`.
    pub fn spawn(args: &[String]) -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut proc = Command::new(exe)
            .arg("worker")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning worker: {e}"))?;
        let stdin = proc.stdin.take();
        let stdout = proc.stdout.take().ok_or("worker stdout not piped")?;
        Ok(Worker {
            proc,
            stdin,
            lines: BufReader::new(stdout),
        })
    }

    /// The next line the worker printed, without its newline; `None`
    /// once it closed stdout.
    pub fn next_line(&mut self) -> Option<String> {
        let mut s = String::new();
        match self.lines.read_line(&mut s) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(s.trim_end().to_owned()),
        }
    }

    /// Lines up to (not including) `ready`. An error if the worker
    /// exited first.
    pub fn until_ready(&mut self) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        loop {
            match self.next_line() {
                Some(l) if l == "ready" => return Ok(out),
                Some(l) => out.push(l),
                None => return Err(format!("worker exited before ready: {out:?}")),
            }
        }
    }

    /// Peak resident set of the worker so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(self.proc.id())
    }

    /// Close the worker's stdin and wait for it to exit cleanly.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        let _ = self.lines.read_to_string(&mut rest);
        let status = self
            .proc
            .wait()
            .map_err(|e| format!("waiting for worker: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("worker exited with {status}"))
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // A worker abandoned on an error path must not outlive the run.
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
            let _ = self.proc.wait();
        }
    }
}

/// `VmHWM` of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = crate::sys::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Worker side: block until the parent closes stdin.
pub fn wait_for_parent() {
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
}
