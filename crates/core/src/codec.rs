//! The versioned, length-prefixed frame codec of the on-disk
//! [`checkpoint`](crate::checkpoint) format.
//!
//! Every frame is `magic (4) + version (u16 LE) + kind (u8) + payload
//! length (u32 LE) + payload`. The decoder rejects — as
//! [`std::io::ErrorKind::InvalidData`] — anything with a wrong magic, an
//! unknown version or kind, or an oversized length, and the checkpoint's
//! payload decoder demands *exact* consumption, so a truncated or
//! bit-flipped frame is always detected rather than silently reinterpreted.
//! The checkpoint's section and whole-file checksums sit on top: damage
//! anywhere in a file costs that file, never a wrong state.

use std::io::{self, Read};

/// Frame magic: "ASCF".
pub const MAGIC: [u8; 4] = *b"ASCF";
/// Frame-format version; bumped on any incompatible layout change.
pub const VERSION: u16 = 1;
/// Fixed frame-header length: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4;
/// Upper bound on one frame's payload (64 MiB) — far above any real
/// checkpoint section, low enough that a corrupted length field cannot ask
/// the reader to allocate the address space.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// What a frame carries. The byte values are the on-disk kind bytes of
/// every checkpoint ever written, so they are fixed: a kind that is retired
/// leaves its byte unknown, never reused. Bytes 0–9 are retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// First frame of a checkpoint file: run identity (config fingerprint,
    /// sequence, occurrence) plus the section count that follows.
    CheckpointHeader = 10,
    /// One checkpoint section: a section id, its checksum and its body.
    CheckpointSection = 11,
    /// Terminates a checkpoint file with a whole-file checksum; a file that
    /// ends without it was torn mid-write and is rejected.
    CheckpointEnd = 12,
}

impl FrameKind {
    fn from_byte(byte: u8) -> Option<FrameKind> {
        Some(match byte {
            10 => FrameKind::CheckpointHeader,
            11 => FrameKind::CheckpointSection,
            12 => FrameKind::CheckpointEnd,
            _ => return None,
        })
    }
}

/// One decoded frame: its kind and raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message kind from the frame header.
    pub kind: FrameKind,
    /// The payload bytes, exactly as framed.
    pub payload: Vec<u8>,
}

fn malformed(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Encodes one frame: header + payload, ready for a single `write_all`.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize, "oversized frame payload");
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(kind as u8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Reads one frame, or `None` on a clean end-of-stream (EOF before the
/// first header byte — how a file ends after its last frame, or early
/// without its terminating frame).
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] for a malformed header (wrong magic,
/// unknown version/kind, oversized length); [`io::ErrorKind::UnexpectedEof`]
/// for a stream truncated mid-frame; any other I/O error as-is.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish a clean close (EOF at a frame boundary) from truncation:
    // zero bytes of a new frame is the former, a partial header the latter.
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match reader.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated header")),
            n => filled += n,
        }
    }
    if header[..4] != MAGIC {
        return Err(malformed("bad frame magic"));
    }
    if u16::from_le_bytes([header[4], header[5]]) != VERSION {
        return Err(malformed("unsupported frame version"));
    }
    let Some(kind) = FrameKind::from_byte(header[6]) else {
        return Err(malformed("unknown frame kind"));
    };
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]);
    if len > MAX_PAYLOAD {
        return Err(malformed("oversized frame payload"));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(Some(Frame { kind, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_header_rejections() {
        let payload: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(7)).collect();
        let framed = encode_frame(FrameKind::CheckpointSection, &payload);
        assert_eq!(framed.len(), HEADER_LEN + payload.len());

        let mut reader = std::io::Cursor::new(framed.clone());
        let frame = read_frame(&mut reader).unwrap().expect("one frame present");
        assert_eq!(frame.kind, FrameKind::CheckpointSection);
        assert_eq!(frame.payload, payload);
        // Clean EOF at the boundary, not an error.
        assert!(read_frame(&mut reader).unwrap().is_none());

        // Wrong magic.
        let mut bad = framed.clone();
        bad[0] ^= 1;
        let err = read_frame(&mut std::io::Cursor::new(bad)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Unknown version.
        let mut bad = framed.clone();
        bad[4] = 0xff;
        assert!(read_frame(&mut std::io::Cursor::new(bad)).is_err());
        // Unknown kind.
        let mut bad = framed.clone();
        bad[6] = 0xff;
        assert!(read_frame(&mut std::io::Cursor::new(bad)).is_err());
        // Oversized length field.
        let mut bad = framed.clone();
        bad[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(bad)).is_err());
        // Truncation mid-header and mid-payload.
        for cut in 1..framed.len() {
            let err = read_frame(&mut std::io::Cursor::new(framed[..cut].to_vec())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn kind_bytes_are_pinned_to_the_on_disk_format() {
        // Every checkpoint on disk carries these bytes; an enum edit that
        // moved one would orphan all of them. Bytes 0–9 are retired kinds
        // (8 and 9 framed the trajectory-cache snapshot that checkpoints no
        // longer write) and must stay unknown.
        let pinned = [
            (FrameKind::CheckpointHeader, 10u8),
            (FrameKind::CheckpointSection, 11),
            (FrameKind::CheckpointEnd, 12),
        ];
        for (kind, byte) in pinned {
            assert_eq!(kind as u8, byte, "{kind:?}");
            assert_eq!(FrameKind::from_byte(byte), Some(kind));
        }
        for byte in (0..=u8::MAX).filter(|b| !(10..=12).contains(b)) {
            assert_eq!(FrameKind::from_byte(byte), None, "kind byte {byte}");
        }
    }
}
