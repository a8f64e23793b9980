//! Trajectory-cache snapshots: the `.cache` sibling every checkpoint
//! carries (see [`checkpoint::cache_path_for`](crate::checkpoint::cache_path_for)),
//! which warms a resumed run's cache.
//!
//! A snapshot file is one frame stream — the
//! [`Entry`](crate::codec::FrameKind::Entry) frames, then
//! [`SnapshotEnd`](crate::codec::FrameKind::SnapshotEnd) — so snapshots and
//! checkpoints share every decoder and every rejection rule of
//! [`codec`]. Loading re-proves each entry through the codec's checksum
//! verification: an individually corrupt entry is counted and skipped, while
//! a truncated or desynced file (or one that opens with a retired frame
//! kind) stops the load at the damage, keeping everything decoded before
//! it. [`save`] writes through a temp file and renames, so a crash mid-save
//! leaves the previous snapshot intact rather than a half-written one.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

use crate::cache::{CacheEntry, TrajectoryCache};
use crate::codec::{self, FrameKind};

/// What a [`load`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotLoad {
    /// Entries decoded, verified and inserted.
    pub loaded: u64,
    /// Frames rejected: corrupt entries skipped, plus one for a stream that
    /// ended without its `SnapshotEnd` (truncation) or lost framing sync.
    pub rejected: u64,
    /// Whether the stream terminated cleanly with `SnapshotEnd`.
    pub complete: bool,
}

/// Exports every live entry of `cache` to `path`, returning how many were
/// written. The export is a point-in-time walk (see
/// [`TrajectoryCache::for_each_entry`]).
///
/// # Errors
/// Propagates file creation and write failures. The target is written as
/// `<path>.tmp` and renamed into place only after a successful flush.
pub fn save(cache: &TrajectoryCache, path: &Path) -> io::Result<u64> {
    let mut entries: Vec<CacheEntry> = Vec::new();
    cache.for_each_entry(|entry| entries.push(entry.clone()));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut writer = BufWriter::new(File::create(&tmp)?);
    for entry in &entries {
        writer.write_all(&codec::encode_frame(FrameKind::Entry, &codec::encode_entry(entry)))?;
    }
    writer.write_all(&codec::encode_frame(FrameKind::SnapshotEnd, &[]))?;
    writer.flush()?;
    drop(writer);
    std::fs::rename(&tmp, path)?;
    Ok(entries.len() as u64)
}

/// Replays a snapshot file into `cache`. See [`SnapshotLoad`] for the
/// damage accounting.
///
/// # Errors
/// Propagates open failures (a missing file is the caller's cold-start
/// signal). Damage inside the file degrades to a partial load, not an
/// error.
pub fn load(cache: &TrajectoryCache, path: &Path) -> io::Result<SnapshotLoad> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut result = SnapshotLoad::default();
    loop {
        let frame = match codec::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Truncation (clean EOF without SnapshotEnd, or EOF mid-frame)
            // and desync both stop the load at the damage.
            Ok(None) | Err(_) => {
                result.rejected += 1;
                return Ok(result);
            }
        };
        match frame.kind {
            FrameKind::Entry => match codec::decode_entry(&frame.payload) {
                Some(entry) => {
                    cache.insert(entry);
                    result.loaded += 1;
                }
                None => result.rejected += 1,
            },
            FrameKind::SnapshotEnd => {
                result.complete = true;
                return Ok(result);
            }
            _ => {
                result.rejected += 1;
                return Ok(result);
            }
        }
    }
}
