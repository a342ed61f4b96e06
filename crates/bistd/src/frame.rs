//! The wire framing of the campaign service: length-prefixed JSON
//! documents over any byte stream.
//!
//! One frame is an ASCII header line `BISTD/<version> <len>\n`,
//! followed by exactly `len` bytes of UTF-8 JSON payload and a closing
//! `\n`. The explicit length lets both sides read a complete document
//! without scanning for delimiters inside the payload, the version in
//! every header lets a daemon reject clients from the future with a
//! structured error instead of garbage parsing, and
//! [`MAX_FRAME_BYTES`] bounds what a malicious or confused peer can
//! make the other side buffer.

use std::fmt;
use std::io::{self, BufRead, Write};

/// The protocol generation spoken by this build (the `1` in
/// `BISTD/1`). Bumped on any incompatible framing or message change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard upper bound on a frame's payload length, in bytes. A header
/// advertising more is rejected before any payload is read.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Everything that can go wrong reading or writing one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The header line was not `BISTD/<version> <len>`.
    BadHeader {
        /// What was wrong with it.
        detail: String,
    },
    /// The peer speaks a protocol generation this build does not.
    UnsupportedVersion {
        /// The version the peer advertised.
        version: u32,
    },
    /// The advertised payload length exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The advertised length.
        len: usize,
    },
    /// The stream ended mid-frame (header promised more bytes than
    /// arrived).
    Truncated,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::BadHeader { detail } => write!(f, "bad frame header: {detail}"),
            FrameError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::TooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one complete frame, returning its payload text.
///
/// `Ok(None)` means the stream ended cleanly *between* frames (the
/// peer hung up); [`FrameError::Truncated`] means it ended inside one.
///
/// # Errors
///
/// Any [`FrameError`]; after a non-`Io` error the stream position is
/// undefined and the connection should be closed.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<String>, FrameError> {
    let mut header = Vec::new();
    reader.read_until(b'\n', &mut header)?;
    if header.is_empty() {
        return Ok(None);
    }
    if header.last() != Some(&b'\n') {
        return Err(FrameError::Truncated);
    }
    header.pop();
    let len = parse_header(&header)?;
    let mut payload = vec![0u8; len + 1];
    reader.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    if payload.pop() != Some(b'\n') {
        return Err(FrameError::BadHeader { detail: "payload is not newline-terminated".into() });
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::BadHeader { detail: "payload is not valid UTF-8".into() })
}

/// Writes `payload` as one frame and flushes the stream. Header,
/// payload and closing newline go out in one write, so an unbuffered
/// socket sends the frame as one segment instead of three.
///
/// # Errors
///
/// [`FrameError::TooLarge`] if the payload exceeds [`MAX_FRAME_BYTES`],
/// or [`FrameError::Io`] from the stream.
pub fn write_frame(writer: &mut impl Write, payload: &str) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { len: payload.len() });
    }
    let mut frame = format!("BISTD/{PROTOCOL_VERSION} {}\n", payload.len()).into_bytes();
    frame.reserve_exact(payload.len() + 1);
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Parses a header line (without its trailing newline) into the
/// advertised payload length, checking version and size bounds.
fn parse_header(header: &[u8]) -> Result<usize, FrameError> {
    let text = std::str::from_utf8(header)
        .map_err(|_| FrameError::BadHeader { detail: "header is not valid UTF-8".into() })?;
    let rest = text.strip_prefix("BISTD/").ok_or_else(|| FrameError::BadHeader {
        detail: format!("expected 'BISTD/<version> <len>', got '{}'", clip(text)),
    })?;
    let (version, len) = rest
        .split_once(' ')
        .ok_or_else(|| FrameError::BadHeader { detail: "missing payload length".into() })?;
    let version: u32 = version.parse().map_err(|_| FrameError::BadHeader {
        detail: format!("unparseable version '{}'", clip(version)),
    })?;
    if version != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion { version });
    }
    let len: usize = len.parse().map_err(|_| FrameError::BadHeader {
        detail: format!("unparseable payload length '{}'", clip(len)),
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { len });
    }
    Ok(len)
}

/// Truncates peer-supplied text before echoing it into an error
/// message.
fn clip(text: &str) -> String {
    if text.len() <= 40 {
        text.to_string()
    } else {
        let cut = (0..=40).rev().find(|i| text.is_char_boundary(*i)).unwrap_or(0);
        format!("{}…", &text[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip(payload: &str) -> String {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        read_frame(&mut BufReader::new(&wire[..])).unwrap().unwrap()
    }

    #[test]
    fn frames_round_trip() {
        assert_eq!(roundtrip("{}"), "{}");
        assert_eq!(roundtrip(""), "");
        let nasty = "{\"s\":\"line1\\nline2 BISTD/1 99\"}";
        assert_eq!(roundtrip(nasty), nasty);
        // Unicode payloads carry byte (not char) lengths.
        assert_eq!(roundtrip("\"héllo 😀\""), "\"héllo 😀\"");
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "first").unwrap();
        write_frame(&mut wire, "second").unwrap();
        let mut r = BufReader::new(&wire[..]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("first"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn garbage_headers_are_structured_errors() {
        for (wire, needle) in [
            (&b"HELLO\nxx"[..], "expected 'BISTD/"),
            (&b"BISTD/one 4\nabcd\n"[..], "unparseable version"),
            (&b"BISTD/1 four\nabcd\n"[..], "unparseable payload length"),
            (&b"BISTD/1\n"[..], "missing payload length"),
            (&b"\xff\xfe\n"[..], "not valid UTF-8"),
        ] {
            let err = read_frame(&mut BufReader::new(wire)).unwrap_err();
            assert!(
                matches!(err, FrameError::BadHeader { .. }),
                "{}: {err}",
                String::from_utf8_lossy(wire)
            );
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn version_and_size_violations_are_distinct_errors() {
        let future = b"BISTD/2 2\n{}\n";
        assert!(matches!(
            read_frame(&mut BufReader::new(&future[..])).unwrap_err(),
            FrameError::UnsupportedVersion { version: 2 }
        ));
        let huge = format!("BISTD/1 {}\n", MAX_FRAME_BYTES + 1);
        assert!(matches!(
            read_frame(&mut BufReader::new(huge.as_bytes())).unwrap_err(),
            FrameError::TooLarge { .. }
        ));
        let mut sink = Vec::new();
        let long = "x".repeat(MAX_FRAME_BYTES + 1);
        assert!(matches!(write_frame(&mut sink, &long).unwrap_err(), FrameError::TooLarge { .. }));
    }

    #[test]
    fn truncation_is_reported_not_hung() {
        // Header promises more payload than the stream holds.
        let wire = b"BISTD/1 10\nabc";
        assert!(matches!(
            read_frame(&mut BufReader::new(&wire[..])).unwrap_err(),
            FrameError::Truncated
        ));
        // Header line itself cut off.
        let wire = b"BISTD/1 1";
        assert!(matches!(
            read_frame(&mut BufReader::new(&wire[..])).unwrap_err(),
            FrameError::Truncated
        ));
    }

    #[test]
    fn long_garbage_is_clipped_in_error_text() {
        let wire = format!("{}\n", "junk".repeat(50));
        let err = read_frame(&mut BufReader::new(wire.as_bytes())).unwrap_err();
        assert!(err.to_string().len() < 120, "{err}");
    }
}
