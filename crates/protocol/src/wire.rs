//! Length-prefixed wire frames for the `gcs-node` socket daemon.
//!
//! Pure bytes in, bytes out — the sans-IO counterpart of a real
//! transport. A frame on the wire is
//!
//! ```text
//! [u32 LE payload length][u8 kind][payload]
//! ```
//!
//! with the kind byte counted in the length. Three kinds exist:
//!
//! | kind | frame | payload |
//! |---|---|---|
//! | 1 | [`Frame::Hello`] | `first: u64 LE`, `count: u64 LE` — the sender hosts node IDs `[first, first+count)` |
//! | 2 | [`Frame::Flood`] | `src, dst: u64 LE`, then `sent_at, logical, max_est, min_lb, max_ub` as `f64::to_bits` LE |
//! | 3 | [`Frame::Shutdown`] | empty — the sender is leaving; close the connection |
//!
//! All floats travel as raw IEEE-754 bits, so a value survives the wire
//! bit-exactly — the same property the simulation's trace seals rely on.
//! [`Frame::decode`] works on a growing receive buffer: it either
//! consumes exactly one frame, reports that more bytes are needed, or
//! rejects the stream as corrupt (oversized length prefix, unknown kind,
//! payload length not matching the kind, a flood node ID beyond `u32`).

use gcs_net::NodeId;
use gcs_sim::SimTime;

use crate::flood::FloodMsg;

/// Largest payload length this protocol ever produces; anything bigger
/// in a length prefix means the stream is corrupt or not ours, and is
/// rejected before any allocation.
pub const MAX_PAYLOAD: u32 = 64;

const KIND_HELLO: u8 = 1;
const KIND_FLOOD: u8 = 2;
const KIND_SHUTDOWN: u8 = 3;

const HELLO_LEN: u32 = 1 + 16;
const FLOOD_LEN: u32 = 1 + 56;
const SHUTDOWN_LEN: u32 = 1;

/// One protocol frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame {
    /// Connection preamble: the sender hosts node IDs
    /// `[first, first + count)`.
    Hello {
        /// First hosted node ID.
        first: u64,
        /// Number of hosted nodes.
        count: u64,
    },
    /// One flood message from `src` to `dst` (the §3.1 send instant
    /// travels with it).
    Flood {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Send instant on the sender's run clock.
        sent_at: SimTime,
        /// The flood body.
        msg: FloodMsg,
    },
    /// Graceful goodbye.
    Shutdown,
}

/// Why a byte stream could not be decoded as frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The kind byte is not a known frame kind.
    UnknownKind(u8),
    /// The payload length does not match the kind's fixed layout.
    BadLength {
        /// The offending kind byte.
        kind: u8,
        /// The length the prefix claimed.
        len: u32,
    },
    /// A flood's `src` or `dst` does not fit the `u32` node ID space.
    IdOutOfRange(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversize(n) => {
                write!(
                    f,
                    "frame length {n} exceeds the protocol maximum {MAX_PAYLOAD}"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadLength { kind, len } => {
                write!(f, "frame kind {kind} cannot have payload length {len}")
            }
            WireError::IdOutOfRange(id) => {
                write!(f, "node ID {id} exceeds the u32 node ID space")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

fn get_f64(buf: &[u8], at: usize) -> f64 {
    f64::from_bits(get_u64(buf, at))
}

impl Frame {
    /// Appends this frame's encoding (length prefix included) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Frame::Hello { first, count } => {
                out.extend_from_slice(&HELLO_LEN.to_le_bytes());
                out.push(KIND_HELLO);
                put_u64(out, first);
                put_u64(out, count);
            }
            Frame::Flood {
                src,
                dst,
                sent_at,
                msg,
            } => {
                out.extend_from_slice(&FLOOD_LEN.to_le_bytes());
                out.push(KIND_FLOOD);
                put_u64(out, u64::from(src.0));
                put_u64(out, u64::from(dst.0));
                put_f64(out, sent_at.as_secs());
                put_f64(out, msg.logical);
                put_f64(out, msg.max_est);
                put_f64(out, msg.min_lb);
                put_f64(out, msg.max_ub);
            }
            Frame::Shutdown => {
                out.extend_from_slice(&SHUTDOWN_LEN.to_le_bytes());
                out.push(KIND_SHUTDOWN);
            }
        }
    }

    /// This frame's encoding as a fresh buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + FLOOD_LEN as usize);
        self.encode(&mut out);
        out
    }

    /// Decodes one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a partial frame (read
    /// more bytes and retry), `Ok(Some((frame, consumed)))` on success —
    /// the caller drops `consumed` bytes from the front — and an error
    /// when the stream cannot be ours.
    ///
    /// # Errors
    ///
    /// See [`WireError`]; a corrupt stream is not recoverable and the
    /// connection should be dropped.
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversize(len));
        }
        let total = 4 + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        if len == 0 {
            return Err(WireError::BadLength { kind: 0, len });
        }
        let kind = buf[4];
        let frame = match (kind, len) {
            (KIND_HELLO, HELLO_LEN) => Frame::Hello {
                first: get_u64(buf, 5),
                count: get_u64(buf, 13),
            },
            (KIND_FLOOD, FLOOD_LEN) => {
                let node = |at| {
                    let raw = get_u64(buf, at);
                    u32::try_from(raw)
                        .map(NodeId)
                        .map_err(|_| WireError::IdOutOfRange(raw))
                };
                Frame::Flood {
                    src: node(5)?,
                    dst: node(13)?,
                    sent_at: SimTime::from_secs(get_f64(buf, 21)),
                    msg: FloodMsg {
                        logical: get_f64(buf, 29),
                        max_est: get_f64(buf, 37),
                        min_lb: get_f64(buf, 45),
                        max_ub: get_f64(buf, 53),
                    },
                }
            }
            (KIND_SHUTDOWN, SHUTDOWN_LEN) => Frame::Shutdown,
            (KIND_HELLO | KIND_FLOOD | KIND_SHUTDOWN, _) => {
                return Err(WireError::BadLength { kind, len })
            }
            (other, _) => return Err(WireError::UnknownKind(other)),
        };
        Ok(Some((frame, total)))
    }
}

/// A streaming frame decoder: feed received bytes in, take decoded
/// frames out. Keeps at most one partial frame buffered.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// Propagates [`WireError`] from [`Frame::decode`]; the stream is
    /// corrupt and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match Frame::decode(&self.buf)? {
            Some((frame, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flood() -> Frame {
        Frame::Flood {
            src: NodeId(3),
            dst: NodeId(4),
            sent_at: SimTime::from_secs(1.25),
            msg: FloodMsg {
                logical: 1.2499,
                max_est: 1.2625,
                min_lb: 0.5,
                max_ub: 2.75,
            },
        }
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        for frame in [
            Frame::Hello { first: 4, count: 2 },
            flood(),
            Frame::Shutdown,
        ] {
            let bytes = frame.to_bytes();
            let (back, consumed) = Frame::decode(&bytes).unwrap().unwrap();
            assert_eq!(back, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let bytes = flood().to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(Frame::decode(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        // Oversized length prefix.
        let huge = 1_000_000u32.to_le_bytes();
        assert_eq!(Frame::decode(&huge), Err(WireError::Oversize(1_000_000)));
        // Unknown kind.
        let mut bad = vec![];
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(99);
        assert_eq!(Frame::decode(&bad), Err(WireError::UnknownKind(99)));
        // Known kind, wrong payload length.
        let mut short = vec![];
        short.extend_from_slice(&2u32.to_le_bytes());
        short.push(KIND_FLOOD);
        short.push(0);
        assert_eq!(
            Frame::decode(&short),
            Err(WireError::BadLength {
                kind: KIND_FLOOD,
                len: 2
            })
        );
        // Zero-length frame (no kind byte at all).
        let zero = 0u32.to_le_bytes();
        assert_eq!(
            Frame::decode(&zero),
            Err(WireError::BadLength { kind: 0, len: 0 })
        );
        // A well-formed flood whose dst lies beyond the u32 ID space.
        let mut wide = flood().to_bytes();
        let beyond = u64::from(u32::MAX) + 1;
        wide[13..21].copy_from_slice(&beyond.to_le_bytes());
        assert_eq!(Frame::decode(&wide), Err(WireError::IdOutOfRange(beyond)));
    }

    #[test]
    fn reader_reassembles_a_fragmented_stream() {
        let mut stream = Vec::new();
        let frames = [
            Frame::Hello { first: 0, count: 3 },
            flood(),
            Frame::Shutdown,
        ];
        for f in &frames {
            f.encode(&mut stream);
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        // Feed one byte at a time: every frame must still come out whole.
        for b in stream {
            reader.extend(&[b]);
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }
}
