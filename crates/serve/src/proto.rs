//! The `fairem-serve/1` wire protocol: length-prefixed frames and the
//! request grammar.
//!
//! A frame is one ASCII header line followed by exactly `len` body
//! bytes:
//!
//! ```text
//! fairem-serve/1 <len>\n<len bytes of UTF-8 body>
//! ```
//!
//! Both directions use the same framing. Requests are single-line verb
//! commands (`open dataset=faculty seed=7`, `audit DTMatcher`, …);
//! replies are JSON objects whose `status` field is one of `ok`,
//! `busy`, `partial`, `error`, or `bye`. The framing is deliberately
//! trivial to hand-parse: the header is bounded (no unbounded line
//! scan), the body length is bounded (no allocation amplification), and
//! a malformed header resyncs at the next newline so one garbage line
//! costs one strike, not the connection's framing.

use std::io::Write;

use fairem_core::CalibrationSpec;

/// Protocol magic — first token of every frame header.
pub const MAGIC: &str = "fairem-serve/1";

/// Longest accepted header line (including the newline). `MAGIC` plus a
/// length that can describe [`MAX_BODY`] fits in well under half this.
pub const MAX_HEADER: usize = 64;

/// Largest accepted frame body. Audit replies over the bundled
/// generators are a few KiB; a megabyte leaves headroom without letting
/// a hostile peer balloon the buffer.
pub const MAX_BODY: usize = 1024 * 1024;

/// Protocol strikes before a connection is quarantined (disconnected),
/// mirroring the importer's bounded row-quarantine semantics.
pub const MAX_STRIKES: u32 = 3;

/// A framing violation. Each one costs the peer a strike; the decoder
/// has already resynchronized past the offending bytes when it returns
/// one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// No newline within [`MAX_HEADER`] bytes.
    UnterminatedHeader,
    /// Header line did not start with [`MAGIC`].
    BadMagic(String),
    /// Header length field missing or not a decimal integer.
    BadLength(String),
    /// Declared body length exceeds [`MAX_BODY`].
    Oversize(usize),
    /// Body bytes were not valid UTF-8.
    BodyNotUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::UnterminatedHeader => {
                write!(f, "header not terminated within {MAX_HEADER} bytes")
            }
            ProtoError::BadMagic(got) => write!(f, "expected {MAGIC:?} header, got {got:?}"),
            ProtoError::BadLength(got) => write!(f, "bad frame length {got:?}"),
            ProtoError::Oversize(len) => write!(f, "frame body {len} exceeds {MAX_BODY} bytes"),
            ProtoError::BodyNotUtf8 => write!(f, "frame body is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Incremental frame decoder. Feed it raw bytes as they arrive; pull
/// complete frames (or framing errors) out with
/// [`FrameReader::next_frame`]. After an error the internal buffer has
/// already been advanced past the malformed region, so callers just
/// count the strike and keep pulling.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty decoder.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Append raw bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Are there buffered bytes that do not yet form a complete frame?
    /// Used by the server's stall detector: a peer holding a partial
    /// frame open without progress is eventually quarantined.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Decode the next complete frame body, if one is buffered.
    ///
    /// - `Ok(Some(body))` — a full frame was decoded and consumed.
    /// - `Ok(None)` — no complete frame yet; feed more bytes.
    /// - `Err(e)` — framing violation; the malformed bytes have been
    ///   discarded (resync at the next newline) so the *next* call sees
    ///   clean input.
    pub fn next_frame(&mut self) -> Result<Option<String>, ProtoError> {
        let nl = match self.buf.iter().take(MAX_HEADER).position(|&b| b == b'\n') {
            Some(i) => i,
            None if self.buf.len() >= MAX_HEADER => {
                // Runaway header: drop through the next newline if one
                // exists, else clear everything buffered.
                match self.buf.iter().position(|&b| b == b'\n') {
                    Some(i) => self.buf.drain(..=i),
                    None => self.buf.drain(..),
                };
                return Err(ProtoError::UnterminatedHeader);
            }
            None => return Ok(None),
        };
        let header = String::from_utf8_lossy(&self.buf[..nl]).into_owned();
        let header = header.trim_end_matches('\r');
        let (magic, len) = match header.split_once(' ') {
            Some((m, l)) => (m, l),
            None => {
                self.buf.drain(..=nl);
                return Err(ProtoError::BadMagic(clip(header)));
            }
        };
        if magic != MAGIC {
            let got = clip(header);
            self.buf.drain(..=nl);
            return Err(ProtoError::BadMagic(got));
        }
        let len: usize = match len.parse() {
            Ok(n) => n,
            Err(_) => {
                let got = clip(len);
                self.buf.drain(..=nl);
                return Err(ProtoError::BadLength(got));
            }
        };
        if len > MAX_BODY {
            self.buf.drain(..=nl);
            return Err(ProtoError::Oversize(len));
        }
        if self.buf.len() < nl + 1 + len {
            return Ok(None); // header parsed, body still in flight
        }
        let body: Vec<u8> = self.buf.drain(..nl + 1 + len).skip(nl + 1).collect();
        match String::from_utf8(body) {
            Ok(s) => Ok(Some(s)),
            Err(_) => Err(ProtoError::BodyNotUtf8),
        }
    }
}

/// Truncate peer-supplied text for inclusion in an error message.
fn clip(s: &str) -> String {
    const LIMIT: usize = 32;
    if s.len() <= LIMIT {
        s.to_owned()
    } else {
        let cut = (0..=LIMIT).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0);
        format!("{}…", &s[..cut])
    }
}

/// Encode one frame around `body`.
pub fn encode_frame(body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + MAX_HEADER);
    out.extend_from_slice(MAGIC.as_bytes());
    out.extend_from_slice(format!(" {}\n", body.len()).as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Write one frame to `w` and flush it.
pub fn write_frame(w: &mut impl Write, body: &str) -> std::io::Result<()> {
    w.write_all(&encode_frame(body))?;
    w.flush()
}

/// A parsed client request. The grammar is one verb plus optional
/// space-separated arguments; `open` takes `key=value` pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe — always answered, never counted against the
    /// in-flight cap, so health checks succeed under full load.
    Ping,
    /// Import a dataset (or attach to the cached session for the same
    /// spec) and make it this connection's working session.
    Open {
        /// Generator name: `faculty`, `products`, `citations`,
        /// `noflycompas`.
        dataset: String,
        /// Generator seed (0 = generator default).
        seed: u64,
        /// Matchers to train (empty = server default pair).
        matchers: Vec<String>,
        /// Matching threshold.
        threshold: f64,
        /// Shard count the test split is scored in (checkpointed per
        /// shard when the server has a checkpoint root). Every count
        /// serves every verb with the same bytes.
        shards: usize,
    },
    /// Audit one matcher, or all of them when no name is given.
    Audit(Option<String>),
    /// Validation-split threshold sweep for one matcher.
    TuneThreshold(String),
    /// Per-group score calibration for one matcher: fit (or reuse the
    /// session-cached) calibrator and report the threshold-independent
    /// distribution distances before and after.
    Calibrate {
        /// Matcher to calibrate.
        matcher: String,
        /// Calibrator family and minimum per-group support.
        spec: CalibrationSpec,
    },
    /// Pareto frontier over the first sensitive attribute.
    Ensemble,
    /// Cooperative busy-loop for `millis` — deterministic stand-in for
    /// a slow request when rehearsing deadlines and admission control.
    Stall(u64),
    /// Snapshot of the server's fairem-obs recorder.
    Metrics,
    /// Deliberate panic inside the request guard — chaos hook proving
    /// per-connection isolation.
    Boom,
    /// Polite goodbye; the server replies `bye` and closes.
    Close,
}

impl Request {
    /// Parse a request body. Errors are human-readable and become
    /// structured `error` replies (and a strike) on the wire.
    pub fn parse(body: &str) -> Result<Request, String> {
        let mut words = body.split_whitespace();
        let verb = words.next().ok_or("empty request")?;
        match verb {
            "ping" => Ok(Request::Ping),
            "metrics" => Ok(Request::Metrics),
            "ensemble" => Ok(Request::Ensemble),
            "boom" => Ok(Request::Boom),
            "close" => Ok(Request::Close),
            "audit" => Ok(Request::Audit(words.next().map(str::to_owned))),
            "tune_threshold" => {
                let m = words.next().ok_or("tune_threshold needs a matcher name")?;
                Ok(Request::TuneThreshold(m.to_owned()))
            }
            "calibrate" => {
                let m = words.next().ok_or("calibrate needs a matcher name")?;
                let spec = match words.next() {
                    None => CalibrationSpec::isotonic(),
                    Some(raw) => CalibrationSpec::parse(raw)?.ok_or(
                        "calibrate spec `none` does nothing — pick platt or isotonic",
                    )?,
                };
                Ok(Request::Calibrate {
                    matcher: m.to_owned(),
                    spec,
                })
            }
            "stall" => {
                let ms = words.next().ok_or("stall needs a duration in millis")?;
                ms.parse()
                    .map(Request::Stall)
                    .map_err(|_| format!("bad stall duration {ms:?}"))
            }
            "open" => {
                let mut dataset = "faculty".to_owned();
                let mut seed = 0u64;
                let mut matchers = Vec::new();
                let mut threshold = 0.5f64;
                let mut shards = 1usize;
                for pair in words {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("open arguments are key=value, got {pair:?}"))?;
                    match k {
                        "dataset" => dataset = v.to_owned(),
                        "seed" => {
                            seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                        }
                        "matchers" => {
                            matchers = v.split(',').map(str::to_owned).collect();
                        }
                        "threshold" => {
                            threshold = v.parse().map_err(|_| format!("bad threshold {v:?}"))?;
                            if !(0.0..=1.0).contains(&threshold) {
                                return Err(format!("threshold {threshold} outside [0, 1]"));
                            }
                        }
                        "shards" => {
                            shards = v.parse().map_err(|_| format!("bad shard count {v:?}"))?;
                            if shards == 0 {
                                return Err("shards must be at least 1".to_owned());
                            }
                        }
                        other => return Err(format!("unknown open argument {other:?}")),
                    }
                }
                Ok(Request::Open {
                    dataset,
                    seed,
                    matchers,
                    threshold,
                    shards,
                })
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(r: &mut FrameReader) -> Vec<Result<String, ProtoError>> {
        let mut out = Vec::new();
        loop {
            match r.next_frame() {
                Ok(Some(b)) => out.push(Ok(b)),
                Ok(None) => return out,
                Err(e) => out.push(Err(e)),
            }
        }
    }

    #[test]
    fn frames_round_trip_through_the_incremental_decoder() {
        let mut r = FrameReader::new();
        let wire = [encode_frame("ping"), encode_frame("audit DTMatcher")].concat();
        // Feed a byte at a time: the decoder must never mis-frame on a
        // partial header or body.
        let mut got = Vec::new();
        for b in wire {
            r.feed(&[b]);
            for f in drain(&mut r) {
                got.push(f.expect("clean input"));
            }
        }
        assert_eq!(got, vec!["ping".to_owned(), "audit DTMatcher".to_owned()]);
        assert!(!r.has_partial());
    }

    #[test]
    fn empty_bodies_and_multibyte_utf8_survive() {
        let mut r = FrameReader::new();
        r.feed(&encode_frame(""));
        r.feed(&encode_frame("naïve café — ✓"));
        let got = drain(&mut r);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].as_deref(), Ok(""));
        assert_eq!(got[1].as_deref(), Ok("naïve café — ✓"));
    }

    #[test]
    fn malformed_headers_cost_one_error_and_resync() {
        let mut r = FrameReader::new();
        r.feed(b"total garbage\n");
        r.feed(&encode_frame("ping"));
        let got = drain(&mut r);
        assert!(matches!(got[0], Err(ProtoError::BadMagic(_))), "{got:?}");
        assert_eq!(got[1].as_deref(), Ok("ping"));

        let mut r = FrameReader::new();
        r.feed(b"fairem-serve/1 notanumber\n");
        r.feed(&encode_frame("ping"));
        let got = drain(&mut r);
        assert!(matches!(got[0], Err(ProtoError::BadLength(_))), "{got:?}");
        assert_eq!(got[1].as_deref(), Ok("ping"));

        let mut r = FrameReader::new();
        r.feed(b"fairem-serve/9 4\n");
        let got = drain(&mut r);
        assert!(matches!(got[0], Err(ProtoError::BadMagic(_))), "{got:?}");
    }

    #[test]
    fn unterminated_and_oversize_headers_are_bounded() {
        let mut r = FrameReader::new();
        r.feed(&vec![b'x'; MAX_HEADER + 10]);
        let got = drain(&mut r);
        assert!(
            matches!(got[0], Err(ProtoError::UnterminatedHeader)),
            "{got:?}"
        );
        // Recovery after the stray newline closes the garbage run.
        r.feed(b"\n");
        let _ = drain(&mut r);
        r.feed(&encode_frame("ping"));
        assert_eq!(drain(&mut r)[0].as_deref(), Ok("ping"));

        let mut r = FrameReader::new();
        r.feed(format!("{MAGIC} {}\n", MAX_BODY + 1).as_bytes());
        let got = drain(&mut r);
        assert!(matches!(got[0], Err(ProtoError::Oversize(_))), "{got:?}");
    }

    #[test]
    fn non_utf8_bodies_are_rejected_not_lossy_decoded() {
        let mut r = FrameReader::new();
        r.feed(format!("{MAGIC} 2\n").as_bytes());
        r.feed(&[0xff, 0xfe]);
        let got = drain(&mut r);
        assert!(matches!(got[0], Err(ProtoError::BodyNotUtf8)), "{got:?}");
        // And the bad bytes were consumed: the stream is clean again.
        r.feed(&encode_frame("ping"));
        assert_eq!(drain(&mut r)[0].as_deref(), Ok("ping"));
    }

    #[test]
    fn request_grammar_parses_the_full_verb_set() {
        assert_eq!(Request::parse("ping"), Ok(Request::Ping));
        assert_eq!(Request::parse("  audit  "), Ok(Request::Audit(None)));
        assert_eq!(
            Request::parse("audit DTMatcher"),
            Ok(Request::Audit(Some("DTMatcher".into())))
        );
        assert_eq!(
            Request::parse("tune_threshold SVMMatcher"),
            Ok(Request::TuneThreshold("SVMMatcher".into()))
        );
        assert_eq!(
            Request::parse("calibrate DTMatcher"),
            Ok(Request::Calibrate {
                matcher: "DTMatcher".into(),
                spec: CalibrationSpec::isotonic(),
            })
        );
        assert_eq!(
            Request::parse("calibrate RFMatcher platt:25"),
            Ok(Request::Calibrate {
                matcher: "RFMatcher".into(),
                spec: CalibrationSpec::platt().with_min_support(25),
            })
        );
        assert_eq!(Request::parse("stall 250"), Ok(Request::Stall(250)));
        assert_eq!(
            Request::parse(
                "open dataset=products seed=9 matchers=DTMatcher,NBMatcher threshold=0.4 shards=4"
            ),
            Ok(Request::Open {
                dataset: "products".into(),
                seed: 9,
                matchers: vec!["DTMatcher".into(), "NBMatcher".into()],
                threshold: 0.4,
                shards: 4,
            })
        );
        // Defaults when `open` carries no arguments.
        assert_eq!(
            Request::parse("open"),
            Ok(Request::Open {
                dataset: "faculty".into(),
                seed: 0,
                matchers: vec![],
                threshold: 0.5,
                shards: 1,
            })
        );
    }

    #[test]
    fn request_grammar_rejects_malformed_commands() {
        for bad in [
            "",
            "  ",
            "frobnicate",
            "tune_threshold",
            "stall",
            "stall fast",
            "open dataset",
            "open seed=abc",
            "calibrate",
            "calibrate DTMatcher none",
            "calibrate DTMatcher sigmoid",
            "calibrate DTMatcher isotonic:0",
            "open threshold=1.5",
            "open color=red",
            "open shards=0",
            "open shards=many",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// Regression: a header split across several partial reads is not a
    /// violation, and a malformed frame trickled in byte-by-byte costs
    /// exactly one strike — quarantine counts *frames*, never *reads*.
    /// (An earlier revision of the stall detector was tempted to strike
    /// per short read, which would quarantine any client on a slow or
    /// fragmenting link.)
    #[test]
    fn resync_strikes_count_frames_not_partial_reads() {
        let mut r = FrameReader::new();
        let mut frames: Vec<String> = Vec::new();
        let mut strikes = 0u32;
        let mut pump = |r: &mut FrameReader, frames: &mut Vec<String>, strikes: &mut u32| {
            for f in drain(r) {
                match f {
                    Ok(b) => frames.push(b),
                    Err(_) => *strikes += 1,
                }
            }
        };

        // One clean frame, its header split across three reads: every
        // intermediate pull is Ok(None), never an error.
        for chunk in [&b"fairem-se"[..], b"rve/1 ", b"5\nhe"] {
            r.feed(chunk);
            pump(&mut r, &mut frames, &mut strikes);
            assert_eq!(strikes, 0, "a partial header is not a violation");
            assert!(frames.is_empty(), "no frame before the body completes");
            assert!(r.has_partial(), "the decoder is mid-frame");
        }
        r.feed(b"llo");
        pump(&mut r, &mut frames, &mut strikes);
        assert_eq!(frames, ["hello"]);
        assert_eq!(strikes, 0);

        // A malformed header line dripped in byte-by-byte: exactly one
        // strike, charged only when the full line (frame) is present.
        for &b in b"garbage header line\n" {
            r.feed(&[b]);
            pump(&mut r, &mut frames, &mut strikes);
        }
        assert_eq!(strikes, 1, "one malformed frame = one strike");

        // The decoder has resynced: another fragmented-but-valid frame
        // decodes cleanly right after the junk.
        for chunk in [&b"fairem-serv"[..], b"e/1 2", b"\nok"] {
            r.feed(chunk);
            pump(&mut r, &mut frames, &mut strikes);
        }
        assert_eq!(frames, ["hello", "ok"]);
        assert_eq!(strikes, 1);
        assert!(
            strikes < MAX_STRIKES,
            "a slow link plus one bad frame must not quarantine the peer"
        );
        assert!(!r.has_partial());
    }
}
