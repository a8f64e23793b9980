//! The versioned, length-prefixed frame codec of the on-disk formats: the
//! cache [`snapshot`](crate::snapshot) and the run
//! [`checkpoint`](crate::checkpoint).
//!
//! Every frame is `magic (4) + version (u16 LE) + kind (u8) + payload
//! length (u32 LE) + payload`. The decoder rejects — as
//! [`std::io::ErrorKind::InvalidData`] — anything with a wrong magic, an
//! unknown version or kind, or an oversized length, and every payload
//! decoder demands *exact* consumption, so a truncated or bit-flipped frame
//! is always detected rather than silently reinterpreted. Entry payloads
//! additionally carry the [`CacheEntry`] integrity checksum they were
//! sealed with: [`decode_entry`] rebuilds the entry *with* that checksum
//! (never re-deriving it — that would launder corruption into a
//! freshly-sealed valid entry) and drops anything
//! [`CacheEntry::verify`] rejects. Corruption anywhere in a file therefore
//! costs one dropped frame, never a wrong fast-forward — the same "free to
//! fail" economy as speculation itself.

use std::io::{self, Read};

use asc_tvm::delta::SparseBytes;

use crate::cache::{CacheEntry, CacheStats, CACHE_STATS_WIRE_LEN};

/// Frame magic: "ASCF".
pub const MAGIC: [u8; 4] = *b"ASCF";
/// Frame-format version; bumped on any incompatible layout change.
pub const VERSION: u16 = 1;
/// Fixed frame-header length: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4;
/// Upper bound on one frame's payload (64 MiB) — far above any real entry,
/// low enough that a corrupted length field cannot ask the reader to
/// allocate the address space.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// What a frame carries. The byte values are the on-disk kind bytes of
/// every snapshot and checkpoint ever written, so they are fixed: a kind
/// that is retired leaves its byte unknown, never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// First frame of a snapshot stream: serialized stats + entry count.
    SnapshotHeader = 7,
    /// One entry of a snapshot stream.
    Entry = 8,
    /// Terminates a snapshot stream; empty payload. A stream that ends
    /// without it was truncated.
    SnapshotEnd = 9,
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
            7 => FrameKind::SnapshotHeader,
            8 => FrameKind::Entry,
            9 => FrameKind::SnapshotEnd,
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

fn take_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let word = bytes.get(*at..*at + 4)?;
    *at += 4;
    Some(u32::from_le_bytes(word.try_into().ok()?))
}

fn take_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let word = bytes.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(word.try_into().ok()?))
}

/// Encodes one entry payload: rip, instruction count, the checksum it was
/// sealed with, then both sparse sets.
pub fn encode_entry(entry: &CacheEntry) -> Vec<u8> {
    let mut buf =
        Vec::with_capacity(4 + 8 + 8 + entry.start.encoded_len() + entry.end.encoded_len());
    buf.extend_from_slice(&entry.rip.to_le_bytes());
    buf.extend_from_slice(&entry.instructions.to_le_bytes());
    buf.extend_from_slice(&entry.checksum().to_le_bytes());
    entry.start.encode_into(&mut buf);
    entry.end.encode_into(&mut buf);
    buf
}

/// Decodes (and integrity-checks) one entry payload. Returns `None` for any
/// malformed, truncated, over-long or checksum-failing payload — the caller
/// counts it as a rejected frame and moves on.
pub fn decode_entry(payload: &[u8]) -> Option<CacheEntry> {
    let mut at = 0usize;
    let rip = take_u32(payload, &mut at)?;
    let instructions = take_u64(payload, &mut at)?;
    let checksum = take_u64(payload, &mut at)?;
    let (start, used) = SparseBytes::decode_from(&payload[at..])?;
    at += used;
    let (end, used) = SparseBytes::decode_from(&payload[at..])?;
    at += used;
    if at != payload.len() {
        return None;
    }
    let entry = CacheEntry::from_parts_unchecked(rip, start, end, instructions, checksum);
    entry.verify().then_some(entry)
}

/// Encodes a snapshot-stream header: the exporting cache's counters plus
/// the number of entry frames that follow.
pub fn encode_snapshot_header(stats: &CacheStats, count: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CACHE_STATS_WIRE_LEN + 8);
    buf.extend_from_slice(&stats.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    buf
}

/// Decodes a snapshot-stream header; `None` on any malformation.
pub fn decode_snapshot_header(payload: &[u8]) -> Option<(CacheStats, u64)> {
    if payload.len() != CACHE_STATS_WIRE_LEN + 8 {
        return None;
    }
    let stats = CacheStats::from_le_bytes(&payload[..CACHE_STATS_WIRE_LEN])?;
    let count = u64::from_le_bytes(payload[CACHE_STATS_WIRE_LEN..].try_into().ok()?);
    Some((stats, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_learn::rng::{Rng, XorShiftRng};

    fn random_entry(rng: &mut XorShiftRng) -> CacheEntry {
        let sparse = |rng: &mut XorShiftRng| {
            let len = (rng.next_u64() % 24) as usize;
            let pairs: Vec<(u32, u8)> = (0..len)
                .map(|_| ((rng.next_u64() % 4096) as u32, (rng.next_u64() & 0xff) as u8))
                .collect();
            SparseBytes::from_pairs(pairs)
        };
        let start = sparse(rng);
        let end = sparse(rng);
        CacheEntry::new((rng.next_u64() & 0xffff_ffff) as u32, start, end, rng.next_u64() >> 20)
    }

    #[test]
    fn entry_roundtrip_is_bit_identical_including_checksum() {
        let mut rng = XorShiftRng::new(0xA5C0);
        for _ in 0..200 {
            let entry = random_entry(&mut rng);
            let payload = encode_entry(&entry);
            let decoded = decode_entry(&payload).expect("well-formed payload decodes");
            // Derived PartialEq includes the private checksum field.
            assert_eq!(decoded, entry);
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let mut rng = XorShiftRng::new(7);
        for _ in 0..8 {
            let entry = random_entry(&mut rng);
            let payload = encode_entry(&entry);
            for byte in 0..payload.len() {
                for bit in 0..8 {
                    let mut flipped = payload.clone();
                    flipped[byte] ^= 1u8 << bit;
                    // A flip may still parse structurally (e.g. in padding-free
                    // value bytes), but then the checksum refuses it; a flip in
                    // a length field breaks exact consumption. Either way the
                    // decode must not return an entry that differs from the
                    // original while claiming validity.
                    if let Some(decoded) = decode_entry(&flipped) {
                        panic!(
                            "bit flip at byte {byte} bit {bit} decoded as a valid entry \
                             (rip {}, {} instructions)",
                            decoded.rip, decoded.instructions
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let mut rng = XorShiftRng::new(99);
        for _ in 0..8 {
            let entry = random_entry(&mut rng);
            let payload = encode_entry(&entry);
            for cut in 0..payload.len() {
                assert!(
                    decode_entry(&payload[..cut]).is_none(),
                    "prefix of length {cut} decoded as a valid entry"
                );
            }
            // Trailing garbage breaks exact consumption too.
            let mut extended = payload.clone();
            extended.push(0);
            assert!(decode_entry(&extended).is_none());
        }
    }

    #[test]
    fn frame_roundtrip_and_header_rejections() {
        let entry = random_entry(&mut XorShiftRng::new(3));
        let payload = encode_entry(&entry);
        let framed = encode_frame(FrameKind::Entry, &payload);
        assert_eq!(framed.len(), HEADER_LEN + payload.len());

        let mut reader = std::io::Cursor::new(framed.clone());
        let frame = read_frame(&mut reader).unwrap().expect("one frame present");
        assert_eq!(frame.kind, FrameKind::Entry);
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
        // Every snapshot and checkpoint on disk carries these bytes; an enum
        // edit that moved one would orphan all of them.
        let pinned = [
            (FrameKind::SnapshotHeader, 7u8),
            (FrameKind::Entry, 8),
            (FrameKind::SnapshotEnd, 9),
            (FrameKind::CheckpointHeader, 10),
            (FrameKind::CheckpointSection, 11),
            (FrameKind::CheckpointEnd, 12),
        ];
        for (kind, byte) in pinned {
            assert_eq!(kind as u8, byte, "{kind:?}");
            assert_eq!(FrameKind::from_byte(byte), Some(kind));
        }
        for byte in (0..=u8::MAX).filter(|b| !(7..=12).contains(b)) {
            assert_eq!(FrameKind::from_byte(byte), None, "kind byte {byte}");
        }
    }

    #[test]
    fn snapshot_header_roundtrips() {
        let cache = crate::cache::TrajectoryCache::new(16);
        cache.insert(random_entry(&mut XorShiftRng::new(5)));
        let stats = cache.stats();
        let payload = encode_snapshot_header(&stats, 123);
        let (decoded, count) = decode_snapshot_header(&payload).unwrap();
        assert_eq!(count, 123);
        assert_eq!(decoded.inserted, stats.inserted);
        assert!(decode_snapshot_header(&payload[..payload.len() - 1]).is_none());
    }
}
