//! Property-based tests over the core data structures and invariants:
//! instruction encoding, dependency tracking, sparse captures, the
//! determinism of the transition function and the on-disk formats.
//!
//! The build environment is offline, so instead of `proptest` these use a
//! seeded in-repo generator ([`asc::learn::rng::XorShiftRng`]) driving many
//! randomized cases per property — deterministic across runs, so a failure
//! reproduces exactly.

use asc::learn::rng::{Rng, XorShiftRng};
use asc::tvm::delta::SparseBytes;
use asc::tvm::deps::{DepStatus, DepVector};
use asc::tvm::encode::{decode, encode};
use asc::tvm::exec::{transition, StepOutcome};
use asc::tvm::isa::{Instruction, Opcode};
use asc::tvm::state::StateVector;

const CASES: usize = 256;

fn gen_index(rng: &mut XorShiftRng, bound: usize) -> usize {
    (rng.next_u64() % bound as u64) as usize
}

fn gen_u8(rng: &mut XorShiftRng) -> u8 {
    rng.next_u64() as u8
}

#[test]
fn instruction_encoding_roundtrips() {
    let mut rng = XorShiftRng::new(0x5eed_0001);
    for _ in 0..CASES {
        let opcode = Opcode::ALL[gen_index(&mut rng, Opcode::ALL.len())];
        let instruction = Instruction {
            opcode,
            a: (rng.next_u64() % 16) as u8,
            b: (rng.next_u64() % 16) as u8,
            c: (rng.next_u64() % 16) as u8,
            imm: rng.next_u64() as u32 as i32,
        };
        let decoded = decode(&encode(&instruction), 0).unwrap();
        assert_eq!(decoded, instruction);
    }
}

#[test]
fn dependency_fsm_read_and_write_sets_are_disjoint_unions() {
    let mut rng = XorShiftRng::new(0x5eed_0002);
    for _ in 0..CASES {
        let mut deps = DepVector::new(32);
        let ops = gen_index(&mut rng, 200);
        for _ in 0..ops {
            let index = gen_index(&mut rng, 32);
            if rng.gen_bool(0.5) {
                deps.note_read(index);
            } else {
                deps.note_write(index);
            }
        }
        // Every touched byte is in the read set, the write set, or both; and
        // read-only bytes have status Read, write-only bytes Written.
        for index in 0..32 {
            let status = deps.status(index);
            let in_read = deps.read_set().contains(&index);
            let in_write = deps.write_set().contains(&index);
            match status {
                DepStatus::Null => assert!(!in_read && !in_write),
                DepStatus::Read => assert!(in_read && !in_write),
                DepStatus::Written => assert!(!in_read && in_write),
                DepStatus::WrittenAfterRead => assert!(in_read && in_write),
            }
        }
    }
}

#[test]
fn word_wide_dependency_notes_match_a_per_byte_reference() {
    // `DepVector` applies the FSM to a 4- or 8-byte access as one word
    // operation; a `Vec<DepStatus>` stepped byte by byte is the reference.
    // Random mixed-width, unaligned reads and writes, with the last byte of
    // the vector in range of every width.
    let mut rng = XorShiftRng::new(0x5eed_0009);
    for _ in 0..CASES {
        let len = 8 + gen_index(&mut rng, 120);
        let mut deps = DepVector::new(len);
        let mut reference = vec![DepStatus::Null; len];
        for _ in 0..gen_index(&mut rng, 64) {
            let width = [1, 4, 8][gen_index(&mut rng, 3)];
            // One access in four ends exactly at the last byte.
            let index =
                if rng.gen_bool(0.25) { len - width } else { gen_index(&mut rng, len - width + 1) };
            let write = rng.gen_bool(0.5);
            if write {
                deps.note_write_range(index, width);
            } else {
                deps.note_read_range(index, width);
            }
            for s in &mut reference[index..index + width] {
                *s = if write { s.after_write() } else { s.after_read() };
            }
        }
        let statuses: Vec<DepStatus> = (0..len).map(|i| deps.status(i)).collect();
        assert_eq!(statuses, reference, "len {len}");
        // The one-pass capture reads the same sets back.
        let (mut start, mut end) = (StateVector::new(len).unwrap(), StateVector::new(len).unwrap());
        for i in 0..len {
            start.set_byte(i, gen_u8(&mut rng));
            end.set_byte(i, gen_u8(&mut rng));
        }
        let in_set = |keep: fn(DepStatus) -> bool| {
            reference.iter().enumerate().filter(move |(_, &s)| keep(s)).map(|(i, _)| i)
        };
        let touched = reference.iter().filter(|&&s| s != DepStatus::Null).count();
        assert_eq!(deps.touched(), touched, "len {len}");
        let (read, written) = SparseBytes::capture_sets(&mut deps, &start, &end);
        assert_eq!(read, SparseBytes::capture(&start, in_set(DepStatus::in_read_set)), "len {len}");
        assert_eq!(
            written,
            SparseBytes::capture(&end, in_set(DepStatus::in_write_set)),
            "len {len}"
        );
        // The capture leaves every status `Null` for the next superstep.
        assert_eq!(deps.touched(), 0, "len {len}");
    }
}

#[test]
fn sparse_capture_apply_restores_captured_bytes() {
    let mut rng = XorShiftRng::new(0x5eed_0003);
    for _ in 0..CASES {
        let mut state = StateVector::new(64).unwrap();
        for i in 0..state.len_bytes() {
            state.set_byte(i, gen_u8(&mut rng));
        }
        let count = 1 + gen_index(&mut rng, 31);
        let indices: Vec<usize> = (0..count).map(|_| gen_index(&mut rng, 64)).collect();
        let capture = SparseBytes::capture(&state, indices.iter().copied());
        assert!(capture.matches(&state));
        // Applying the capture to a zeroed state makes it match.
        let mut blank = StateVector::new(64).unwrap();
        capture.apply(&mut blank);
        assert!(capture.matches(&blank));
    }
}

#[test]
fn transition_is_deterministic_and_dep_tracking_is_transparent() {
    // A small loop program; executing it twice (with and without dependency
    // tracking) must give byte-identical states.
    for iterations in (1i32..60).step_by(7) {
        let program = asc::asm::assemble(&format!(
            "main:\n movi r1, {iterations}\nloop:\n add r2, r2, r1\n sub r1, r1, 1\n cmpi r1, 0\n jne loop\n halt\n"
        )).unwrap();
        let mut a = program.initial_state().unwrap();
        let mut b = program.initial_state().unwrap();
        let mut deps = DepVector::new(b.len_bytes());
        loop {
            let ra = transition(&mut a, None).unwrap();
            let rb = transition(&mut b, Some(&mut deps)).unwrap();
            assert_eq!(ra, rb);
            if ra == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(a, b);
        assert!(deps.touched() > 0);
    }
}

/// The trajectory cache's grouped value-hash index must be *equivalent* to
/// the retained reference scan (`scan_best_match`): for any population —
/// including replace and FIFO-evict churn, shared and singleton dependency
/// shapes, and with the junk filter on or off — `peek` returns an entry
/// whose instruction count equals the scan's best and whose start set
/// matches the query state, and misses exactly when the scan misses. The
/// synthetic churn is followed by real read-set shapes: caches populated by
/// dependency-tracked supersteps of ising and collatz.
#[test]
fn indexed_cache_lookup_is_equivalent_to_reference_scan_under_churn() {
    use asc::core::cache::{CacheEntry, TrajectoryCache};

    fn assert_index_matches_scan(
        cache: &TrajectoryCache,
        rip: u32,
        state: &StateVector,
        case: &str,
    ) {
        let indexed = cache.peek(rip, state);
        let scanned = cache.scan_best_match(rip, state);
        match (&indexed, &scanned) {
            (Some(found), Some(reference)) => {
                assert_eq!(
                    found.instructions, reference.instructions,
                    "{case}: index and scan disagree on the best entry"
                );
                assert!(found.matches(state), "{case}: index returned a non-matching entry");
            }
            (None, None) => {}
            other => panic!("{case}: hit/miss divergence: {other:?}"),
        }
        assert_eq!(
            cache.covers(rip, state),
            scanned.is_some(),
            "{case}: covers() diverged from the scan"
        );
    }

    let mut rng = XorShiftRng::new(0x5eed_cac8);
    // A small pool of byte positions so shapes recur (grouping) while some
    // entries still get singleton shapes (chaotic junk).
    const POSITION_POOL: [u32; 10] = [4, 9, 17, 40, 64, 65, 100, 128, 200, 255];
    const RIPS: [u32; 2] = [8, 64];

    for case in 0..6 {
        // Tight capacities force eviction churn; odd cases enable the junk
        // filter, shard counts vary across the supported range.
        let capacity = 24 + gen_index(&mut rng, 80);
        let shards = 1 + gen_index(&mut rng, 16);
        let junk_threshold = if case % 2 == 0 { 0 } else { 4 };
        let cache = TrajectoryCache::with_layout(capacity, shards, junk_threshold as u64);

        for _ in 0..400 {
            // Insert a randomized entry: 0–3 positions from the pool
            // (duplicates collapse), values in a small range so queries hit,
            // random length so longer trajectories replace shorter ones.
            let deps: Vec<(u32, u8)> = (0..gen_index(&mut rng, 4))
                .map(|_| {
                    let position = POSITION_POOL[gen_index(&mut rng, POSITION_POOL.len())];
                    (position, (rng.next_u64() % 3) as u8)
                })
                .collect();
            let entry = CacheEntry::new(
                RIPS[gen_index(&mut rng, RIPS.len())],
                asc::tvm::delta::SparseBytes::from_pairs(deps),
                asc::tvm::delta::SparseBytes::from_pairs(vec![(300, gen_u8(&mut rng))]),
                1 + rng.next_u64() % 500,
            );
            cache.insert(entry);

            // Query both paths from a random state and demand equivalence.
            let mut state = StateVector::new(512).unwrap();
            for &position in &POSITION_POOL {
                state.set_byte(position as usize, (rng.next_u64() % 3) as u8);
            }
            for rip in RIPS {
                assert_index_matches_scan(&cache, rip, &state, &format!("case {case}"));
            }
        }
        let stats = cache.stats();
        // The churn must actually have exercised the interesting paths.
        assert!(stats.evicted > 0, "case {case}: no eviction churn ({stats:?})");
        assert!(stats.groups > 3, "case {case}: too few groups ({stats:?})");
        assert!(stats.replaced + stats.duplicates > 0, "case {case}: no replace churn ({stats:?})");
        assert_eq!(
            cache.len() as u64,
            stats.inserted - stats.evicted,
            "case {case}: eviction accounting drifted ({stats:?})"
        );
    }

    // Real read-set shapes: walk a program's recognized-IP occurrences,
    // executing every superstep with dependency tracking exactly as a
    // speculation worker would, and demand equivalence at every occurrence
    // state — against the entries of the program's own past before the
    // insert, and against the whole population at the end.
    use asc::core::config::AscConfig;
    use asc::core::recognizer::recognize;
    use asc::core::speculator::{execute_superstep_with, SpeculationScratch};
    use asc::workloads::registry::{build, Benchmark, Scale};

    for (benchmark, scale, explore_instructions) in
        [(Benchmark::Ising, Scale::Small, 25_000), (Benchmark::Collatz, Scale::Tiny, 5_000)]
    {
        let config = AscConfig { explore_instructions, ..AscConfig::for_tests() };
        let workload = build(benchmark, scale).unwrap();
        let outcome = recognize(&workload.program.initial_state().unwrap(), &config).unwrap();
        let rip = outcome.rip;
        let cache = TrajectoryCache::with_junk_threshold(1 << 12, config.cache_junk_threshold);
        let mut scratch = SpeculationScratch::with_tier(config.tier);
        let mut state = outcome.resume_state;
        let mut visited = Vec::new();
        while visited.len() < 400 {
            assert_index_matches_scan(&cache, rip.ip, &state, &format!("{benchmark} walk"));
            let superstep = execute_superstep_with(
                &state,
                rip.ip,
                rip.stride,
                config.max_superstep,
                &mut scratch,
            )
            .unwrap()
            .completed()
            .expect("a superstep from a real occurrence state completes");
            cache.insert(superstep.entry);
            visited.push(state);
            if superstep.halted || !superstep.reached_rip {
                break;
            }
            state = scratch.end_state().expect("a job ran").clone();
        }
        assert!(visited.len() > 20, "{benchmark}: too few occurrences ({})", visited.len());
        assert!(cache.stats().groups > 0, "{benchmark}: nothing was indexed");
        for state in &visited {
            assert_index_matches_scan(&cache, rip.ip, state, &format!("{benchmark} replay"));
        }
        // The junk filter may refuse singleton shapes, but not everything.
        let found = visited.iter().filter(|state| cache.covers(rip.ip, state)).count();
        assert!(found > 0, "{benchmark}: no inserted superstep is found again");
    }
}

/// Robustness of every length-prefixed format the system persists —
/// snapshot streams and checkpoint files, i.e. **all** [`FrameKind`]s:
/// under seeded random byte mutations and truncations, every consumer must
/// reject cleanly (`InvalidData`, a dropped frame, or fallback to "no
/// checkpoint") — never panic, never decode a wrong value, and never let a
/// corrupted length field drive an unbounded read or allocation. A snapshot
/// round trip must reproduce the saved cache's lookups exactly.
mod format_robustness {
    use super::*;
    use asc::core::cache::{CacheEntry, TrajectoryCache};
    use asc::core::checkpoint::{self, RunCheckpoint};
    use asc::core::codec::{self, FrameKind, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
    use asc::core::recognizer::RecognizedIp;
    use asc::core::snapshot;
    use std::io::ErrorKind;
    use std::path::PathBuf;

    const SWEEP_CASES: usize = 512;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("asc-properties-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_entry(rng: &mut XorShiftRng) -> CacheEntry {
        let start: Vec<(u32, u8)> = (0..1 + gen_index(rng, 6))
            .map(|_| (rng.next_u64() as u32 % 256, gen_u8(rng)))
            .collect();
        let delta: Vec<(u32, u8)> = (0..1 + gen_index(rng, 6))
            .map(|_| (rng.next_u64() as u32 % 256, gen_u8(rng)))
            .collect();
        CacheEntry::new(
            rng.next_u64() as u32 % 128,
            SparseBytes::from_pairs(start),
            SparseBytes::from_pairs(delta),
            1 + rng.next_u64() % 10_000,
        )
    }

    /// One valid framed artifact per [`FrameKind`] — the sweep's corpus.
    /// The checkpoint kinds come from a real checkpoint file so the frames
    /// carry real section layouts, not synthetic payloads.
    fn frame_corpus(rng: &mut XorShiftRng) -> Vec<(&'static str, Vec<u8>)> {
        let entry = codec::encode_entry(&sample_entry(rng));
        let mut corpus = vec![
            ("snapshot-entry", codec::encode_frame(FrameKind::Entry, &entry)),
            ("snapshot-end", codec::encode_frame(FrameKind::SnapshotEnd, &[])),
        ];
        // A whole checkpoint file is a frame stream covering the three
        // checkpoint kinds: CheckpointHeader + CheckpointSection* +
        // CheckpointEnd.
        let dir = TempDir::new("frame-corpus");
        checkpoint::save(&dir.0, &sample_checkpoint(rng), 1).unwrap();
        let file = std::fs::read(checkpoint::checkpoint_path_for(&dir.0, 1)).unwrap();
        corpus.push(("checkpoint-stream", file));
        corpus
    }

    fn sample_checkpoint(rng: &mut XorShiftRng) -> RunCheckpoint {
        let state: Vec<u8> = (0..128).map(|_| gen_u8(rng)).collect();
        RunCheckpoint {
            sequence: 1,
            fingerprint: 0xfee1_600d,
            occurrence: 42,
            rip: RecognizedIp {
                ip: 8,
                stride: 1,
                mean_superstep: 900.0,
                accuracy: 0.75,
                score: 675.0,
            },
            unique_ips: 7,
            converge_instructions: 5_000,
            resume_instret: 90_000,
            fast_forwarded: 30_000,
            state,
            bank: Some((0..64).map(|_| gen_u8(rng)).collect()),
            economics: Some((0..32).map(|_| gen_u8(rng)).collect()),
        }
    }

    /// Drains a byte stream through [`codec::read_frame`] plus every
    /// payload decoder; the only legal outcomes are clean frames, a clean
    /// end-of-stream, or a clean error.
    fn consume_stream(bytes: &[u8]) {
        let mut reader = bytes;
        loop {
            match codec::read_frame(&mut reader) {
                Ok(Some(frame)) => {
                    // Whatever kind the (possibly corrupted) header claims,
                    // every payload decoder must handle the bytes without
                    // panicking — a decoder trusts nothing about routing.
                    let _ = codec::decode_entry(&frame.payload);
                }
                Ok(None) => break,
                Err(err) => {
                    assert!(
                        matches!(err.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                        "unexpected rejection kind: {err:?}"
                    );
                    break;
                }
            }
        }
    }

    /// Seeded mutation/truncation sweep over the full frame corpus.
    #[test]
    fn mutated_or_truncated_frames_are_rejected_cleanly_for_every_kind() {
        let mut rng = XorShiftRng::new(0x5eed_f3a7);
        let corpus = frame_corpus(&mut rng);
        for (name, pristine) in &corpus {
            consume_stream(pristine); // the corpus itself must parse
            for _ in 0..SWEEP_CASES {
                let mut bytes = pristine.clone();
                if rng.gen_bool(0.5) {
                    // Byte mutation: a guaranteed-nonzero xor somewhere.
                    let index = gen_index(&mut rng, bytes.len());
                    let flip = 1 + (rng.next_u64() as u8 % 255);
                    bytes[index] ^= flip;
                } else {
                    // Truncation: cut strictly inside the artifact.
                    bytes.truncate(gen_index(&mut rng, bytes.len()));
                }
                consume_stream(&bytes); // must not panic, ever ({name})
                let _ = name;
            }
        }
    }

    /// A corrupted length field must be rejected *before* any read or
    /// allocation proportional to it: the reader behind the frame offers
    /// infinite bytes, so surviving this test proves the bound.
    #[test]
    fn oversized_length_fields_are_rejected_without_allocation() {
        use std::io::Read;
        for claimed in [MAX_PAYLOAD + 1, u32::MAX / 2, u32::MAX] {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            header.push(FrameKind::Entry as u8);
            header.extend_from_slice(&claimed.to_le_bytes());
            let mut reader = header.as_slice().chain(std::io::repeat(0xAB));
            let err = codec::read_frame(&mut reader)
                .expect_err("an oversized length field must be rejected");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "claimed {claimed}");
        }
    }

    /// Kind bytes 0–6 belonged to a retired network protocol and byte 7 to
    /// the retired snapshot header. A frame that is well formed in every
    /// other respect but carries one of them is an unknown kind:
    /// `InvalidData`, never a panic or a misrouted payload.
    #[test]
    fn retired_kind_bytes_are_unknown_frames() {
        let entry = codec::encode_entry(&sample_entry(&mut XorShiftRng::new(0x5eed_0b50)));
        for kind in 0u8..=7 {
            let mut frame = codec::encode_frame(FrameKind::Entry, &entry);
            frame[6] = kind;
            let err = codec::read_frame(&mut frame.as_slice())
                .expect_err("a retired kind byte must not decode");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "kind byte {kind}");
            assert_eq!(err.to_string(), "unknown frame kind", "kind byte {kind}");
        }
    }

    /// The same sweep against the snapshot *file* consumer: a mutated or
    /// truncated snapshot loads what survives checksum verification and
    /// counts the rest rejected — or reports a clean error — and a
    /// truncated stream is never reported complete.
    #[test]
    fn mutated_snapshot_files_load_only_verified_entries() {
        let mut rng = XorShiftRng::new(0x5eed_54a9);
        let dir = TempDir::new("snapshot-sweep");
        let source = TrajectoryCache::with_layout(64, 1, 0);
        for _ in 0..16 {
            source.insert(sample_entry(&mut rng));
        }
        let path = dir.0.join("snapshot.asc");
        let saved = snapshot::save(&source, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        for case in 0..SWEEP_CASES {
            let mut bytes = pristine.clone();
            if rng.gen_bool(0.5) {
                let index = gen_index(&mut rng, bytes.len());
                bytes[index] ^= 1 + (rng.next_u64() as u8 % 255);
            } else {
                bytes.truncate(gen_index(&mut rng, bytes.len()));
            }
            let mutated = dir.0.join("mutated.asc");
            std::fs::write(&mutated, &bytes).unwrap();
            let target = TrajectoryCache::with_layout(64, 1, 0);
            match snapshot::load(&target, &mutated) {
                Ok(load) => {
                    assert!(
                        load.loaded <= saved,
                        "case {case}: loaded more entries than were saved ({load:?})"
                    );
                    // Every entry that made it into the cache passed its
                    // integrity checksum; anything else was counted.
                    if bytes.len() < pristine.len() {
                        assert!(
                            !load.complete || load.rejected > 0 || load.loaded < saved,
                            "case {case}: a truncated stream claimed completeness ({load:?})"
                        );
                    }
                }
                Err(err) => assert!(
                    matches!(err.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                    "case {case}: unexpected rejection kind: {err:?}"
                ),
            }
        }
    }

    /// The same sweep against the checkpoint consumer: a damaged newest
    /// file alone in the directory must load as "no checkpoint" — never a
    /// wrong state — and with an older intact file present, that file wins.
    #[test]
    fn mutated_checkpoint_files_fall_back_to_older_intact_or_none() {
        let mut rng = XorShiftRng::new(0x5eed_c4e1);
        let older = sample_checkpoint(&mut rng);
        let mut newer = sample_checkpoint(&mut rng);
        newer.sequence = 2;
        newer.occurrence = 84;

        let dir = TempDir::new("checkpoint-sweep");
        checkpoint::save(&dir.0, &newer, 4).unwrap();
        let pristine = std::fs::read(checkpoint::checkpoint_path_for(&dir.0, 2)).unwrap();

        for (with_older, label) in [(false, "alone"), (true, "with-older")] {
            let dir = TempDir::new(&format!("checkpoint-sweep-{label}"));
            if with_older {
                checkpoint::save(&dir.0, &older, 4).unwrap();
            }
            let newest = checkpoint::checkpoint_path_for(&dir.0, 2);
            for case in 0..SWEEP_CASES {
                let mut bytes = pristine.clone();
                if rng.gen_bool(0.5) {
                    let index = gen_index(&mut rng, bytes.len());
                    bytes[index] ^= 1 + (rng.next_u64() as u8 % 255);
                } else {
                    bytes.truncate(gen_index(&mut rng, bytes.len()));
                }
                std::fs::write(&newest, &bytes).unwrap();
                let scan = checkpoint::load_newest(&dir.0, newer.fingerprint);
                match &scan.checkpoint {
                    None => assert!(!with_older, "case {case}/{label}: intact older file lost"),
                    Some(found) => {
                        assert!(with_older, "case {case}/{label}: damaged file decoded");
                        assert_eq!(
                            found, &older,
                            "case {case}/{label}: fallback returned a wrong checkpoint"
                        );
                    }
                }
                assert!(scan.rejected_files >= 1, "case {case}/{label}: damage went uncounted");
            }
        }
    }

    /// A per-test scratch path under the system temp dir; unique per process
    /// and per label so parallel test threads never collide.
    fn scratch_path(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!("asc-properties-{}-{label}", std::process::id()))
    }

    /// Fills a cache with randomized grouped/singleton entries (the same shape
    /// churn as the cache property test above) and returns it.
    fn populated_cache(rng: &mut XorShiftRng, inserts: usize) -> TrajectoryCache {
        const POSITION_POOL: [u32; 10] = [4, 9, 17, 40, 64, 65, 100, 128, 200, 255];
        const RIPS: [u32; 2] = [8, 64];
        let cache = TrajectoryCache::with_junk_threshold(4096, 0);
        for _ in 0..inserts {
            let deps: Vec<(u32, u8)> = (0..gen_index(rng, 4))
                .map(|_| {
                    (POSITION_POOL[gen_index(rng, POSITION_POOL.len())], (rng.next_u64() % 3) as u8)
                })
                .collect();
            cache.insert(CacheEntry::new(
                RIPS[gen_index(rng, RIPS.len())],
                SparseBytes::from_pairs(deps),
                SparseBytes::from_pairs(vec![(300, rng.next_u64() as u8)]),
                1 + rng.next_u64() % 500,
            ));
        }
        cache
    }

    /// Random probe states over the pool positions, queried against both
    /// caches through the indexed path *and* the reference scan: a snapshot
    /// round trip must make the copy answer every probe exactly like the
    /// original.
    fn assert_lookup_equivalent(original: &TrajectoryCache, copy: &TrajectoryCache, cases: usize) {
        const POSITION_POOL: [u32; 10] = [4, 9, 17, 40, 64, 65, 100, 128, 200, 255];
        let mut rng = XorShiftRng::new(0x5eed_9e9e);
        for case in 0..cases {
            let mut state = StateVector::new(512).unwrap();
            for &position in &POSITION_POOL {
                state.set_byte(position as usize, (rng.next_u64() % 3) as u8);
            }
            for rip in [8u32, 64] {
                let live = original.scan_best_match(rip, &state);
                let restored = copy.scan_best_match(rip, &state);
                assert_eq!(
                    live.as_ref().map(|e| e.instructions),
                    restored.as_ref().map(|e| e.instructions),
                    "case {case}: restored cache diverged from the original on the reference scan"
                );
                let indexed = copy.peek(rip, &state);
                assert_eq!(
                    indexed.map(|e| e.instructions),
                    restored.map(|e| e.instructions),
                    "case {case}: restored cache's index diverged from its own scan"
                );
            }
        }
    }

    /// Snapshot save → load must reproduce identical lookup results on a fresh
    /// cache — indexed path and reference scan — and round-trip every entry.
    #[test]
    fn snapshot_save_then_load_reproduces_identical_lookup_results() {
        let mut rng = XorShiftRng::new(0x5eed_55aa);
        let cache = populated_cache(&mut rng, 600);
        let path = scratch_path("snapshot-roundtrip");
        let saved = snapshot::save(&cache, &path).unwrap();
        assert_eq!(saved, cache.len() as u64, "saved count must equal live entries");

        let restored = TrajectoryCache::with_junk_threshold(4096, 0);
        let load = snapshot::load(&restored, &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(load.complete, "clean snapshot must end with SnapshotEnd");
        assert_eq!(load.rejected, 0, "clean snapshot must reject nothing");
        assert_eq!(load.loaded, saved);
        assert_eq!(restored.len(), cache.len());

        assert_lookup_equivalent(&cache, &restored, 200);
    }

    /// A truncated snapshot keeps everything decoded before the damage and
    /// reports the load as incomplete; a bit-flipped entry is skipped, counted,
    /// and never applied.
    #[test]
    fn damaged_snapshots_degrade_to_partial_loads_never_bad_entries() {
        let mut rng = XorShiftRng::new(0x5eed_d44a);
        let cache = populated_cache(&mut rng, 120);
        let path = scratch_path("snapshot-damage");
        snapshot::save(&cache, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Truncate at an arbitrary point inside the entry frames.
        let cut = bytes.len() / 2;
        let truncated_path = scratch_path("snapshot-truncated");
        std::fs::write(&truncated_path, &bytes[..cut]).unwrap();
        let partial = TrajectoryCache::with_junk_threshold(4096, 0);
        let load = snapshot::load(&partial, &truncated_path).unwrap();
        std::fs::remove_file(&truncated_path).ok();
        assert!(!load.complete, "a truncated stream must not report complete");
        assert!(load.rejected >= 1, "truncation must be counted");
        assert!(load.loaded < cache.len() as u64);
        assert_eq!(partial.len() as u64, load.loaded);

        // Flip one bit somewhere in the body: at most one entry may be lost,
        // and nothing unverified may be applied.
        let mut flipped = bytes.clone();
        let target = bytes.len() / 3;
        flipped[target] ^= 0x10;
        let flipped_path = scratch_path("snapshot-bitflip");
        std::fs::write(&flipped_path, &flipped).unwrap();
        let survivor = TrajectoryCache::with_junk_threshold(4096, 0);
        let load = snapshot::load(&survivor, &flipped_path).unwrap();
        std::fs::remove_file(&flipped_path).ok();
        assert!(
            load.rejected >= 1 || load.loaded == cache.len() as u64,
            "a flipped bit must be rejected unless it landed in dead space"
        );
        assert!(load.loaded <= cache.len() as u64);
    }
}
