//! Plain-text trace serialization.
//!
//! Format (one request per line, `#`-prefixed comments ignored):
//!
//! ```text
//! # esp-trace v1
//! footprint 65536
//! 0 W 1234 1 S
//! 0 W 2000 4 -
//! 1000 R 1234 1 -
//! ```
//!
//! Columns: arrival time in nanoseconds, `R`/`W`, starting LSN (4 KB
//! sectors), length in sectors, `S` for synchronous writes (`-` otherwise).
//! The `footprint` header comes once, before the first request.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use esp_sim::SimTime;

use crate::request::{IoOp, IoRequest, Trace};

/// A malformed trace file.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line that does not follow the format.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The `footprint` header is missing.
    MissingFootprint,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            ParseTraceError::Malformed { line, reason } => {
                write!(f, "malformed trace at line {line}: {reason}")
            }
            ParseTraceError::MissingFootprint => {
                write!(f, "trace is missing the `footprint <sectors>` header")
            }
        }
    }
}

impl Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

/// Writes `trace` in the text format to `w` (pass `&mut writer` to keep the
/// writer).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    writeln!(w, "# esp-trace v1")?;
    writeln!(w, "footprint {}", trace.footprint_sectors)?;
    for r in trace {
        let op = match r.op {
            IoOp::Read => 'R',
            IoOp::Write => 'W',
        };
        let sync = if r.sync { 'S' } else { '-' };
        writeln!(
            w,
            "{} {} {} {} {}",
            r.arrival.as_nanos(),
            op,
            r.lsn,
            r.sectors,
            sync
        )?;
    }
    Ok(())
}

/// Reads a trace in the text format from `r` (pass `&mut reader` to keep the
/// reader).
///
/// # Errors
///
/// Returns [`ParseTraceError`] on I/O failure or malformed input.
pub fn load_trace<R: Read>(r: R) -> Result<Trace, ParseTraceError> {
    let reader = BufReader::new(r);
    let mut trace: Option<Trace> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("footprint ") {
            if trace.is_some() {
                return Err(ParseTraceError::Malformed {
                    line: line_no,
                    reason: "repeated footprint header".into(),
                });
            }
            let fp = rest
                .trim()
                .parse::<u64>()
                .map_err(|e| ParseTraceError::Malformed {
                    line: line_no,
                    reason: format!("bad footprint: {e}"),
                })?;
            trace = Some(Trace::new(fp));
            continue;
        }
        let trace_ref = trace.as_mut().ok_or(ParseTraceError::MissingFootprint)?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 5 {
            return Err(ParseTraceError::Malformed {
                line: line_no,
                reason: format!("expected 5 fields, got {}", fields.len()),
            });
        }
        let malformed = |reason: String| ParseTraceError::Malformed {
            line: line_no,
            reason,
        };
        let arrival = fields[0]
            .parse::<u64>()
            .map_err(|e| malformed(format!("bad arrival: {e}")))?;
        let lsn = fields[2]
            .parse::<u64>()
            .map_err(|e| malformed(format!("bad lsn: {e}")))?;
        let sectors = fields[3]
            .parse::<u32>()
            .map_err(|e| malformed(format!("bad length: {e}")))?;
        if sectors == 0 {
            return Err(malformed("zero-length request".into()));
        }
        let end = lsn
            .checked_add(u64::from(sectors))
            .ok_or_else(|| malformed(format!("lsn {lsn} + length {sectors} overflows")))?;
        if end > trace_ref.footprint_sectors {
            return Err(malformed("request exceeds footprint".into()));
        }
        let arrival = SimTime::from_nanos(arrival);
        let req = match (fields[1], fields[4]) {
            ("R", _) => IoRequest::read(arrival, lsn, sectors),
            ("W", "S") => IoRequest::write(arrival, lsn, sectors, true),
            ("W", "-") => IoRequest::write(arrival, lsn, sectors, false),
            (op, sync) => return Err(malformed(format!("bad op/sync markers `{op}`/`{sync}`"))),
        };
        trace_ref.push(req);
    }
    trace.ok_or(ParseTraceError::MissingFootprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SyntheticConfig};

    #[test]
    fn round_trip_preserves_trace() {
        let cfg = SyntheticConfig {
            requests: 500,
            r_small: 0.7,
            r_synch: 0.4,
            read_fraction: 0.2,
            ..SyntheticConfig::default()
        };
        let t = generate(&cfg);
        let mut buf = Vec::new();
        save_trace(&t, &mut buf).unwrap();
        let back = load_trace(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\nfootprint 100\n# mid comment\n0 W 0 1 S\n";
        let t = load_trace(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.requests[0].sync);
    }

    #[test]
    fn missing_footprint_is_an_error() {
        let text = "0 W 0 1 S\n";
        assert!(matches!(
            load_trace(text.as_bytes()),
            Err(ParseTraceError::MissingFootprint)
        ));
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "footprint 100\n0 W 0 1 S\nnot a line\n";
        match load_trace(text.as_bytes()) {
            Err(ParseTraceError::Malformed { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn a_repeated_footprint_header_is_an_error() {
        let text = "footprint 100\n0 W 0 1 S\nfootprint 50\n";
        match load_trace(text.as_bytes()) {
            Err(ParseTraceError::Malformed { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("footprint"), "reason: {reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn out_of_footprint_rejected() {
        let text = "footprint 4\n0 W 2 4 -\n";
        assert!(matches!(
            load_trace(text.as_bytes()),
            Err(ParseTraceError::Malformed { .. })
        ));
    }

    #[test]
    fn zero_length_rejected() {
        let text = "footprint 4\n0 W 0 0 -\n";
        assert!(load_trace(text.as_bytes()).is_err());
    }

    #[test]
    fn lsn_overflow_is_an_error_not_a_panic() {
        let text = format!("footprint 100\n0 W {} 8 -\n", u64::MAX - 2);
        match load_trace(text.as_bytes()) {
            Err(ParseTraceError::Malformed { line, reason }) => {
                assert_eq!(line, 2);
                assert!(reason.contains("overflow"), "reason: {reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = ParseTraceError::Malformed {
            line: 7,
            reason: "bad lsn".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }
}
