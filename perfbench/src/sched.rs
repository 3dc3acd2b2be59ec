//! Open-loop load: requests are due on a fixed schedule whether or not
//! earlier replies have come back.
//!
//! Each request is timed from when it was *due*, not from when it was
//! sent, so a stall shows up in the latency of every request queued
//! behind it. How late the generator itself ran (sent − due) is kept
//! next to it, so a client that could not keep up is visible too.

use std::time::Duration;

use crate::sys::{self, Stopwatch};

/// Due times, as offsets from the start of a step, for `rate` requests
/// per second over `length`: evenly spaced, the first one at zero.
pub fn uniform(rate: f64, length: Duration) -> Vec<Duration> {
    let n = (rate * length.as_secs_f64()).round() as usize;
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Index of the request in the step's schedule.
    pub index: usize,
    /// When it was due.
    pub due: Duration,
    /// When the client actually sent it.
    pub sent: Duration,
    /// When its reply arrived (or the failure was seen).
    pub done: Duration,
    /// Whether the reply was a success and passed its output check.
    pub ok: bool,
}

impl Outcome {
    /// Latency from the due time, in ms. A failed request counts as
    /// missing every limit, so it reads as infinite.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done.saturating_sub(self.due)).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Time as the load generator sees it. The real clock sleeps; the test
/// clock only advances, so the scheduler's arithmetic is checked
/// without depending on how busy the host is.
pub trait Clock {
    /// Time since the step started.
    fn now(&mut self) -> Duration;
    /// Block until `at` (returns at once if it has passed).
    fn sleep_until(&mut self, at: Duration);
}

/// Wall clock anchored at a start shared by every connection.
pub struct WallClock {
    start: Stopwatch,
}

impl WallClock {
    /// A clock whose zero is `start`.
    pub fn new(start: Stopwatch) -> WallClock {
        WallClock { start }
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&mut self, at: Duration) {
        let now = self.start.elapsed();
        if at > now {
            sys::sleep(at - now);
        }
    }
}

/// Drive one connection through its share of the schedule: for each
/// `(index, due)` wait until it is due (never before), send it with
/// `send`, and record the outcome. A connection carries one request at
/// a time, so a slow reply delays the next send, and that delay is
/// charged to the delayed request.
pub fn drive(
    due: &[(usize, Duration)],
    clock: &mut impl Clock,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(due.len());
    for &(index, at) in due {
        clock.sleep_until(at);
        let sent = clock.now();
        let ok = send(index);
        let done = clock.now();
        out.push(Outcome {
            index,
            due: at,
            sent,
            done,
            ok,
        });
    }
    out
}

/// Split a schedule round-robin over `conns` connections.
pub fn deal(due: &[Duration], conns: usize) -> Vec<Vec<(usize, Duration)>> {
    let mut parts = vec![Vec::new(); conns.max(1)];
    for (i, &d) in due.iter().enumerate() {
        parts[i % conns.max(1)].push((i, d));
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Virtual time shared by the clock and the fake server: sleeping
    /// jumps forward, and serving a request costs its service time.
    #[derive(Clone)]
    struct FakeClock {
        now: std::rc::Rc<std::cell::Cell<Duration>>,
    }

    impl Clock for FakeClock {
        fn now(&mut self) -> Duration {
            self.now.get()
        }
        fn sleep_until(&mut self, at: Duration) {
            self.now.set(self.now.get().max(at));
        }
    }

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn uniform_schedule_spaces_requests_by_the_rate() {
        let due = uniform(100.0, Duration::from_secs(1));
        assert_eq!(due.len(), 100);
        assert_eq!(due[0], Duration::ZERO);
        assert_eq!(due[1], ms(10));
        assert_eq!(due[99], ms(990));
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        // Four requests due every 10 ms on one connection; the first
        // takes 35 ms to serve, the rest 1 ms each.
        let due: Vec<(usize, Duration)> = (0..4).map(|i| (i, ms(10 * i as u64))).collect();
        let mut clock = FakeClock {
            now: Default::default(),
        };
        let server = clock.clone();
        let cost = [35u64, 1, 1, 1];
        let out = drive(&due, &mut clock, |i| {
            server.now.set(server.now.get() + ms(cost[i]));
            true
        });
        // Request 1 was due at 10 ms but could only go out at 35 ms.
        assert_eq!(out[1].sent, ms(35));
        assert_eq!(out[1].late_ms(), 25.0);
        // Its latency runs from the due time: 36 − 10 = 26 ms, not the
        // 1 ms the server spent on it.
        assert_eq!(out[1].latency_ms(), 26.0);
        // The backlog drains: request 3 is due at 30 ms, sent at 37 ms.
        assert_eq!(out[3].sent, ms(37));
        assert_eq!(out[3].latency_ms(), 8.0);
        assert_eq!(out[0].latency_ms(), 35.0);
    }

    #[test]
    fn a_failed_request_misses_every_limit_but_keeps_its_lateness() {
        let failed = Outcome {
            index: 0,
            due: ms(10),
            sent: ms(14),
            done: ms(15),
            ok: false,
        };
        assert!(failed.latency_ms().is_infinite());
        assert_eq!(failed.late_ms(), 4.0);
    }

    #[test]
    fn deal_spreads_requests_round_robin() {
        let due = uniform(10.0, Duration::from_secs(1));
        let parts = deal(&due, 2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 5);
        assert_eq!(parts[1][0], (1, ms(100)));
    }
}
