//! Crash-durable run state: occurrence-boundary checkpoints an interrupted
//! `accelerate` run resumes from bit-identically.
//!
//! A checkpoint file is a short stream of [`codec`] frames — a
//! [`CheckpointHeader`](crate::codec::FrameKind::CheckpointHeader) (config
//! fingerprint, sequence, occurrence, section count), one
//! [`CheckpointSection`](crate::codec::FrameKind::CheckpointSection) per
//! state component, and a
//! [`CheckpointEnd`](crate::codec::FrameKind::CheckpointEnd) carrying a
//! whole-file checksum — so checkpoints inherit the frame codec's framing
//! and rejection rules. Each section payload carries its own FNV-1a checksum
//! over the body, and the end frame's checksum chains the header and every
//! section body, so *any* bit flip or truncation anywhere in the file is
//! detected. [`load_newest`] scans a directory newest-sequence-first and
//! returns the first fully intact checkpoint — a damaged newest file falls
//! back to the previous one, and a directory with nothing intact cleanly
//! reports none. The loader never returns a wrong state.
//!
//! Only what bit-identity strictly needs is mandatory: the machine
//! [`StateVector`](asc_tvm::StateVector) and the run counters. Fast-forwards
//! are applied only on a full read-set match, so a resumed run with a cold
//! predictor bank and cold economics still converges to the identical final
//! state — the learned state (predictor bank, economics EMA) rides along as
//! *optional* sections purely to warm the resume. The trajectory cache is
//! not persisted at all: it holds only acceleration state, so every run,
//! fresh or resumed, starts with an empty cache (a `.cache` file an older
//! build left beside its checkpoints is ignored). Planner-mode runs
//! deliberately omit the bank/economics sections: that state lives on the
//! planner thread and re-warms after resume, the same degrade path a dead
//! planner takes.
//!
//! There is no separate RNG-cursor section: the runtime has no free-running
//! RNG. The only seeded randomness (fault injection's `event_rng`) is a pure
//! function of `(seed, stream, occurrence ordinal)`, so checkpointing the
//! occurrence ordinal *is* checkpointing the RNG cursor.
//!
//! Writes go through a temp file and an atomic rename, and [`save`] prunes
//! to the newest `keep` files, so a crash mid-save leaves prior checkpoints
//! untouched. The failure model this module participates in is tabulated
//! in `ROBUSTNESS.md` at the repository root.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use asc_learn::persist::{self, Reader};
use asc_tvm::delta::fnv1a;

use crate::codec::{self, FrameKind};
use crate::config::AscConfig;
use crate::recognizer::RecognizedIp;

/// Section id for the run counters (rip, occurrence/instruction counters).
const SECTION_RUN: u8 = 1;
/// Section id for the raw machine state vector.
const SECTION_STATE: u8 = 2;
/// Section id for the optional predictor-bank blob.
const SECTION_BANK: u8 = 3;
/// Section id for the optional economics blob.
const SECTION_ECON: u8 = 4;

/// Everything a resumed run needs to continue bit-identically, plus the
/// optional learned state that warms it up.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// Monotonic sequence number; also the file name's ordinal.
    pub sequence: u64,
    /// Fingerprint of the execution-shaping config fields (see
    /// [`config_fingerprint`]); a resume under a different config starts
    /// fresh instead of replaying state the new config cannot interpret.
    pub fingerprint: u64,
    /// RIP occurrences the run had counted when this checkpoint was taken.
    pub occurrence: u64,
    /// The recognized IP the run converged on.
    pub rip: RecognizedIp,
    /// Unique instruction pointers seen during recognition.
    pub unique_ips: usize,
    /// Instructions the recognizer spent converging.
    pub converge_instructions: u64,
    /// Cumulative instructions *executed* up to this checkpoint (the
    /// recognizer's spend plus the main machine's instret at save time) —
    /// the resumed machine restarts its own counter at zero, so budget
    /// arithmetic needs the running total.
    pub resume_instret: u64,
    /// Cumulative instructions fast-forwarded up to this checkpoint.
    pub fast_forwarded: u64,
    /// The machine state vector's raw bytes at the checkpointed occurrence.
    pub state: Vec<u8>,
    /// Serialized [`PredictorBank`](crate::predictor_bank::PredictorBank)
    /// state, when the run mode keeps the bank on the main thread.
    pub bank: Option<Vec<u8>>,
    /// Serialized [`SpeculationEconomics`](crate::economics::SpeculationEconomics)
    /// state, saved alongside the bank.
    pub economics: Option<Vec<u8>>,
}

/// Checkpoint activity counters, reported through
/// [`RunReport::checkpoints`](crate::runtime::RunReport::checkpoints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints successfully written (tmp flushed and renamed).
    pub saves: u64,
    /// Checkpoint writes that failed; the run continues — durability
    /// degrades, correctness does not.
    pub save_failures: u64,
    /// Occurrence ordinal of the newest successful save.
    pub last_occurrence: u64,
    /// Total bytes of the checkpoint files this run wrote.
    pub bytes_written: u64,
    /// Whether this run restored a checkpoint instead of starting fresh.
    pub resumed: bool,
    /// Sequence number of the restored checkpoint (0 when not resumed).
    pub resume_sequence: u64,
    /// Checkpoint files rejected during the resume scan (torn, truncated,
    /// bit-flipped, or fingerprint-mismatched).
    pub rejected_files: u64,
}

/// What a [`load_newest`] scan found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointScan {
    /// The newest fully intact, fingerprint-matching checkpoint, if any.
    pub checkpoint: Option<RunCheckpoint>,
    /// Files examined and rejected before (or instead of) finding it.
    pub rejected_files: u64,
}

/// Hashes the config fields that shape execution and learned-state layout.
///
/// A checkpoint taken under one recognizer/predictor configuration must not
/// seed a run under another: the recognized IP, excitation shapes and
/// learned-state layout would silently disagree. Deliberately *excluded*:
/// `instruction_budget` (resuming with a larger budget is the point),
/// `workers`/`planner` and all supervision, checkpoint and watchdog
/// settings — those change scheduling and durability, never the trajectory.
pub fn config_fingerprint(config: &AscConfig) -> u64 {
    let mut buf = Vec::with_capacity(128);
    persist::put_u64(&mut buf, config.explore_instructions);
    persist::put_usize(&mut buf, config.evaluation_occurrences);
    persist::put_usize(&mut buf, config.evaluation_training);
    persist::put_usize(&mut buf, config.candidate_count);
    persist::put_u64(&mut buf, config.min_superstep);
    persist::put_u64(&mut buf, config.max_superstep);
    persist::put_usize(&mut buf, config.rollout_depth);
    // A retired setting's only value, kept so saved checkpoints still match.
    persist::put_str(&mut buf, "Default");
    persist::put_usize(&mut buf, config.max_excited_bits);
    // Likewise the retired `mistake_log_capacity`.
    persist::put_usize(&mut buf, 4096);
    fnv1a(buf)
}

/// Combines [`config_fingerprint`] with the program's initial state: a
/// checkpoint must only ever seed a resume of the *same program on the same
/// input* under the same execution-shaping config — anything else is a
/// different trajectory.
pub fn run_fingerprint(config: &AscConfig, initial: &asc_tvm::state::StateVector) -> u64 {
    let mut buf = Vec::with_capacity(8 + initial.as_bytes().len());
    persist::put_u64(&mut buf, config_fingerprint(config));
    buf.extend_from_slice(initial.as_bytes());
    fnv1a(buf)
}

/// The checkpoint file path for a sequence number.
pub fn checkpoint_path_for(dir: &Path, sequence: u64) -> PathBuf {
    dir.join(format!("ckpt-{sequence:08}.asc"))
}

fn encode_section(id: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9 + body.len());
    payload.push(id);
    persist::put_u64(&mut payload, fnv1a(body.iter().copied()));
    payload.extend_from_slice(body);
    payload
}

fn encode_run_section(ckpt: &RunCheckpoint) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    persist::put_u32(&mut body, ckpt.rip.ip);
    persist::put_usize(&mut body, ckpt.rip.stride);
    persist::put_f64(&mut body, ckpt.rip.mean_superstep);
    persist::put_f64(&mut body, ckpt.rip.accuracy);
    persist::put_f64(&mut body, ckpt.rip.score);
    persist::put_usize(&mut body, ckpt.unique_ips);
    persist::put_u64(&mut body, ckpt.converge_instructions);
    persist::put_u64(&mut body, ckpt.resume_instret);
    persist::put_u64(&mut body, ckpt.fast_forwarded);
    body
}

fn decode_run_section(body: &[u8]) -> Option<(RecognizedIp, usize, u64, u64, u64)> {
    let mut reader = Reader::new(body);
    let rip = RecognizedIp {
        ip: reader.u32()?,
        stride: reader.usize()?,
        mean_superstep: reader.f64()?,
        accuracy: reader.f64()?,
        score: reader.f64()?,
    };
    let unique_ips = reader.usize()?;
    let converge = reader.u64()?;
    let resume_instret = reader.u64()?;
    let fast_forwarded = reader.u64()?;
    if !reader.is_empty() {
        return None;
    }
    Some((rip, unique_ips, converge, resume_instret, fast_forwarded))
}

/// Writes `ckpt` to its sequence-numbered file in `dir`, creating the
/// directory if needed, then prunes all but the newest `keep` checkpoints.
/// Returns the bytes written.
///
/// # Errors
/// Propagates directory creation, write and rename failures. The target is
/// written as `<path>.tmp` and renamed into place only after a successful
/// flush, so a failed save never damages prior checkpoints. Prune errors
/// are swallowed — stale files cost disk, not correctness.
pub fn save(dir: &Path, ckpt: &RunCheckpoint, keep: usize) -> io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let sections: Vec<(u8, &[u8])> = {
        let mut sections: Vec<(u8, &[u8])> = Vec::with_capacity(4);
        sections.push((SECTION_RUN, &[]));
        sections.push((SECTION_STATE, ckpt.state.as_slice()));
        if let Some(bank) = &ckpt.bank {
            sections.push((SECTION_BANK, bank.as_slice()));
        }
        if let Some(econ) = &ckpt.economics {
            sections.push((SECTION_ECON, econ.as_slice()));
        }
        sections
    };
    let run_body = encode_run_section(ckpt);

    let mut header = Vec::with_capacity(28);
    persist::put_u64(&mut header, ckpt.fingerprint);
    persist::put_u64(&mut header, ckpt.sequence);
    persist::put_u64(&mut header, ckpt.occurrence);
    persist::put_u32(&mut header, sections.len() as u32);

    // The end frame's checksum chains the header and every section body, so
    // damage to the header (which no section checksum covers) or a swapped
    // section is caught at the file level.
    let mut digest: Vec<u8> = Vec::with_capacity(8 * (1 + sections.len()));
    digest.extend_from_slice(&fnv1a(header.iter().copied()).to_le_bytes());

    let path = checkpoint_path_for(dir, ckpt.sequence);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut writer = BufWriter::new(File::create(&tmp)?);
    let mut written = 0u64;
    let mut emit = |writer: &mut BufWriter<File>, frame: Vec<u8>| -> io::Result<()> {
        written += frame.len() as u64;
        writer.write_all(&frame)
    };
    emit(&mut writer, codec::encode_frame(FrameKind::CheckpointHeader, &header))?;
    for &(id, body) in &sections {
        let body = if id == SECTION_RUN { run_body.as_slice() } else { body };
        digest.extend_from_slice(&fnv1a(body.iter().copied()).to_le_bytes());
        emit(
            &mut writer,
            codec::encode_frame(FrameKind::CheckpointSection, &encode_section(id, body)),
        )?;
    }
    let mut end = Vec::with_capacity(8);
    persist::put_u64(&mut end, fnv1a(digest.iter().copied()));
    emit(&mut writer, codec::encode_frame(FrameKind::CheckpointEnd, &end))?;
    writer.flush()?;
    drop(writer);
    std::fs::rename(&tmp, &path)?;
    prune(dir, keep);
    Ok(written)
}

/// Deletes all but the newest `keep` checkpoint files. Best-effort: IO
/// errors leave stale files behind, nothing more.
fn prune(dir: &Path, keep: usize) {
    let mut sequences = scan_sequences(dir);
    sequences.sort_unstable_by(|a, b| b.cmp(a));
    for seq in sequences.into_iter().skip(keep.max(1)) {
        let _ = std::fs::remove_file(checkpoint_path_for(dir, seq));
    }
}

/// Sequence numbers of every `ckpt-*.asc` file in `dir`, unsorted.
fn scan_sequences(dir: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut sequences = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("ckpt-").and_then(|s| s.strip_suffix(".asc")) else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            sequences.push(seq);
        }
    }
    sequences
}

/// Scans `dir` newest-sequence-first and returns the first fully intact
/// checkpoint whose fingerprint matches, counting everything rejected on
/// the way. A missing directory or a directory with nothing intact returns
/// no checkpoint — a fresh run, never a wrong one.
pub fn load_newest(dir: &Path, fingerprint: u64) -> CheckpointScan {
    let mut sequences = scan_sequences(dir);
    sequences.sort_unstable_by(|a, b| b.cmp(a));
    let mut scan = CheckpointScan::default();
    for seq in sequences {
        match parse_file(&checkpoint_path_for(dir, seq), seq) {
            Some(ckpt) if ckpt.fingerprint == fingerprint => {
                scan.checkpoint = Some(ckpt);
                return scan;
            }
            // Intact but for a different config: unusable here, counted so
            // the report shows why a warm start did not happen.
            Some(_) | None => scan.rejected_files += 1,
        }
    }
    scan
}

/// Parses and fully verifies one checkpoint file. Any framing error, failed
/// checksum, duplicate or missing section, trailing garbage, or
/// sequence/filename disagreement rejects the whole file.
fn parse_file(path: &Path, expected_sequence: u64) -> Option<RunCheckpoint> {
    let mut reader = BufReader::new(File::open(path).ok()?);
    let header = codec::read_frame(&mut reader).ok()??;
    if header.kind != FrameKind::CheckpointHeader {
        return None;
    }
    let (fingerprint, sequence, occurrence, section_count) = {
        let mut r = Reader::new(&header.payload);
        let fields = (r.u64()?, r.u64()?, r.u64()?, r.u32()?);
        if !r.is_empty() {
            return None;
        }
        fields
    };
    if sequence != expected_sequence || section_count > 16 {
        return None;
    }

    let mut digest: Vec<u8> = Vec::with_capacity(8 * (1 + section_count as usize));
    digest.extend_from_slice(&fnv1a(header.payload.iter().copied()).to_le_bytes());

    let mut run: Option<Vec<u8>> = None;
    let mut state: Option<Vec<u8>> = None;
    let mut bank: Option<Vec<u8>> = None;
    let mut econ: Option<Vec<u8>> = None;
    for _ in 0..section_count {
        let frame = codec::read_frame(&mut reader).ok()??;
        if frame.kind != FrameKind::CheckpointSection {
            return None;
        }
        let mut r = Reader::new(&frame.payload);
        let id = r.take(1)?[0];
        let checksum = r.u64()?;
        let body = r.take(r.remaining())?;
        if fnv1a(body.iter().copied()) != checksum {
            return None;
        }
        digest.extend_from_slice(&checksum.to_le_bytes());
        let slot = match id {
            SECTION_RUN => &mut run,
            SECTION_STATE => &mut state,
            SECTION_BANK => &mut bank,
            SECTION_ECON => &mut econ,
            _ => return None,
        };
        if slot.replace(body.to_vec()).is_some() {
            return None;
        }
    }

    let end = codec::read_frame(&mut reader).ok()??;
    if end.kind != FrameKind::CheckpointEnd {
        return None;
    }
    let expected_end = {
        let mut r = Reader::new(&end.payload);
        let checksum = r.u64()?;
        if !r.is_empty() {
            return None;
        }
        checksum
    };
    if fnv1a(digest.iter().copied()) != expected_end {
        return None;
    }
    // The end frame must be the last thing in the file: trailing bytes mean
    // the stream is not the one that was checksummed.
    match codec::read_frame(&mut reader) {
        Ok(None) => {}
        _ => return None,
    }

    let (rip, unique_ips, converge_instructions, resume_instret, fast_forwarded) =
        decode_run_section(&run?)?;
    Some(RunCheckpoint {
        sequence,
        fingerprint,
        occurrence,
        rip,
        unique_ips,
        converge_instructions,
        resume_instret,
        fast_forwarded,
        state: state?,
        bank,
        economics: econ,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("asc-ckpt-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample(sequence: u64, fingerprint: u64) -> RunCheckpoint {
        RunCheckpoint {
            sequence,
            fingerprint,
            occurrence: 40 + sequence,
            rip: RecognizedIp {
                ip: 0x42,
                stride: 2,
                mean_superstep: 123.5,
                accuracy: 0.875,
                score: 108.0625,
            },
            unique_ips: 17,
            converge_instructions: 9_001,
            resume_instret: 123_456 + sequence,
            fast_forwarded: 77_000,
            state: (0..64u8).map(|b| b.wrapping_mul(3).wrapping_add(sequence as u8)).collect(),
            bank: Some(vec![1, 2, 3, 4, 5]),
            economics: Some(vec![9, 8, 7]),
        }
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = TempDir::new("roundtrip");
        let fp = config_fingerprint(&AscConfig::default());
        let ckpt = sample(3, fp);
        let bytes = save(&dir.0, &ckpt, 4).expect("save");
        assert!(bytes > 0);
        let scan = load_newest(&dir.0, fp);
        assert_eq!(scan.rejected_files, 0);
        assert_eq!(scan.checkpoint, Some(ckpt));

        // Optional sections stay optional through the roundtrip.
        let mut bare = sample(4, fp);
        bare.bank = None;
        bare.economics = None;
        save(&dir.0, &bare, 4).expect("save bare");
        assert_eq!(load_newest(&dir.0, fp).checkpoint, Some(bare));
    }

    #[test]
    fn pruning_keeps_only_the_newest_k() {
        let dir = TempDir::new("prune");
        let fp = 7;
        for seq in 1..=5 {
            save(&dir.0, &sample(seq, fp), 2).expect("save");
        }
        let mut kept = scan_sequences(&dir.0);
        kept.sort_unstable();
        assert_eq!(kept, vec![4, 5]);
        assert_eq!(load_newest(&dir.0, fp).checkpoint, Some(sample(5, fp)));
    }

    #[test]
    fn any_single_byte_flip_or_truncation_falls_back_to_the_older_intact_file() {
        let dir = TempDir::new("damage");
        let fp = 11;
        save(&dir.0, &sample(1, fp), 4).expect("save older");
        save(&dir.0, &sample(2, fp), 4).expect("save newer");
        let newest = checkpoint_path_for(&dir.0, 2);
        let pristine = std::fs::read(&newest).expect("read newest");
        let older = sample(1, fp);

        for pos in 0..pristine.len() {
            let mut damaged = pristine.clone();
            damaged[pos] ^= 0x10;
            std::fs::write(&newest, &damaged).unwrap();
            let scan = load_newest(&dir.0, fp);
            // Never a wrong state: either the damage is caught and the older
            // checkpoint loads, or (impossible for a checksummed stream) the
            // flip is invisible. Both outcomes must be an exact parse.
            assert_eq!(
                scan.checkpoint.as_ref(),
                Some(&older),
                "flip at byte {pos} did not fall back cleanly"
            );
            assert_eq!(scan.rejected_files, 1, "flip at byte {pos} not counted");
        }
        for len in 0..pristine.len() {
            std::fs::write(&newest, &pristine[..len]).unwrap();
            let scan = load_newest(&dir.0, fp);
            assert_eq!(
                scan.checkpoint.as_ref(),
                Some(&older),
                "truncation to {len} bytes did not fall back cleanly"
            );
        }

        // With the older file gone too, damage means a clean cold start.
        std::fs::write(&newest, &pristine[..pristine.len() / 2]).unwrap();
        std::fs::remove_file(checkpoint_path_for(&dir.0, 1)).unwrap();
        let scan = load_newest(&dir.0, fp);
        assert_eq!(scan.checkpoint, None);
        assert_eq!(scan.rejected_files, 1);
    }

    #[test]
    fn fingerprint_mismatch_is_a_cold_start_and_fingerprints_track_semantics() {
        let dir = TempDir::new("fingerprint");
        save(&dir.0, &sample(1, 5), 4).expect("save");
        let scan = load_newest(&dir.0, 6);
        assert_eq!(scan.checkpoint, None);
        assert_eq!(scan.rejected_files, 1);

        let base = AscConfig::default();
        let mut semantic = base.clone();
        semantic.max_superstep += 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&semantic));
        let mut durability = base.clone();
        durability.checkpoint.interval = 9_999;
        durability.workers = 7;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&durability));
    }

    #[test]
    fn fingerprints_of_the_stock_configs_are_pinned() {
        // The values checkpoints already on disk carry: a change here makes
        // every one of them a cold start.
        assert_eq!(config_fingerprint(&AscConfig::default()), 0x28f0_9bf2_6575_86b9);
        assert_eq!(config_fingerprint(&AscConfig::for_tests()), 0x1e7e_f185_c653_fa38);
    }

    #[test]
    fn missing_directory_reports_none_without_error() {
        let scan = load_newest(Path::new("/nonexistent/asc-ckpt-dir"), 1);
        assert_eq!(scan, CheckpointScan::default());
    }
}
