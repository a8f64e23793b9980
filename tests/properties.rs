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

/// Robustness of the one length-prefixed format the system persists — the
/// checkpoint file, whose frames cover **all** [`FrameKind`]s: under seeded
/// random byte mutations and truncations, every consumer must reject
/// cleanly (`InvalidData`, a clean error, or fallback to "no checkpoint") —
/// never panic, never decode a wrong value, and never let a corrupted length
/// field drive an unbounded read or allocation.
mod format_robustness {
    use super::*;
    use asc::core::checkpoint::{self, RunCheckpoint};
    use asc::core::codec::{self, FrameKind, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
    use asc::core::recognizer::RecognizedIp;
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

    /// One valid framed artifact per [`FrameKind`] — the sweep's corpus —
    /// plus the whole stream they come from: a real checkpoint file
    /// (CheckpointHeader + CheckpointSection* + CheckpointEnd), so the
    /// frames carry real section layouts, not synthetic payloads.
    fn frame_corpus(rng: &mut XorShiftRng) -> Vec<(&'static str, Vec<u8>)> {
        let dir = TempDir::new("frame-corpus");
        checkpoint::save(&dir.0, &sample_checkpoint(rng), 1).unwrap();
        let file = std::fs::read(checkpoint::checkpoint_path_for(&dir.0, 1)).unwrap();
        let mut corpus = Vec::new();
        let mut reader = file.as_slice();
        while let Some(frame) = codec::read_frame(&mut reader).unwrap() {
            let name = match frame.kind {
                FrameKind::CheckpointHeader => "checkpoint-header",
                FrameKind::CheckpointSection => "checkpoint-section",
                FrameKind::CheckpointEnd => "checkpoint-end",
            };
            if corpus.iter().all(|&(seen, _)| seen != name) {
                corpus.push((name, codec::encode_frame(frame.kind, &frame.payload)));
            }
        }
        assert_eq!(corpus.len(), 3, "the checkpoint file covers every frame kind");
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

    /// Drains a byte stream through [`codec::read_frame`]; the only legal
    /// outcomes are clean frames, a clean end-of-stream, or a clean error.
    fn consume_stream(bytes: &[u8]) {
        let mut reader = bytes;
        loop {
            match codec::read_frame(&mut reader) {
                Ok(Some(_)) => {}
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
            header.push(FrameKind::CheckpointSection as u8);
            header.extend_from_slice(&claimed.to_le_bytes());
            let mut reader = header.as_slice().chain(std::io::repeat(0xAB));
            let err = codec::read_frame(&mut reader)
                .expect_err("an oversized length field must be rejected");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "claimed {claimed}");
        }
    }

    /// Kind bytes 0–6 belonged to a retired network protocol, byte 7 to the
    /// retired snapshot header, and bytes 8 and 9 to the retired
    /// trajectory-cache snapshot's entry and end frames. A frame that is
    /// well formed in every other respect but carries one of them is an
    /// unknown kind: `InvalidData`, never a panic or a misrouted payload.
    #[test]
    fn retired_kind_bytes_are_unknown_frames() {
        let corpus = frame_corpus(&mut XorShiftRng::new(0x5eed_0b50));
        for (name, pristine) in corpus.iter().filter(|(name, _)| *name != "checkpoint-stream") {
            for kind in 0u8..=9 {
                let mut frame = pristine.clone();
                frame[6] = kind;
                let err = codec::read_frame(&mut frame.as_slice())
                    .expect_err("a retired kind byte must not decode");
                assert_eq!(err.kind(), ErrorKind::InvalidData, "{name}: kind byte {kind}");
                assert_eq!(err.to_string(), "unknown frame kind", "{name}: kind byte {kind}");
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
}

/// Emits one straight-line item of a generated program: an ALU op, a
/// compare, a load or store in the data window at `r10`, a computed-address
/// access through `r7`, a store into the `movi` immediate `r12` points at,
/// or a `div`/`rem` whose divisor may be zero. Writes only `r1`–`r7`.
fn gen_straight(rng: &mut XorShiftRng, out: &mut String) {
    const ALU: [&str; 9] = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sar"];
    let reg = |rng: &mut XorShiftRng| 1 + gen_index(rng, 6);
    let (d, a, b) = (reg(rng), reg(rng), reg(rng));
    let imm = gen_index(rng, 24) as i32 - 8;
    let offset = 4 * gen_index(rng, 16);
    let line = match gen_index(rng, 12) {
        0 => format!("movi r{d}, {imm}"),
        1 | 2 => format!("{} r{d}, r{a}, r{b}", ALU[gen_index(rng, ALU.len())]),
        3 => format!("{} r{d}, r{a}, {imm}", ALU[gen_index(rng, ALU.len())]),
        4 => format!("cmp r{a}, r{b}"),
        5 => format!("ldw r{d}, [r10+{offset}]"),
        6 => format!("stw [r10+{offset}], r{a}"),
        7 => format!("ldb r{d}, [r10+{}]", gen_index(rng, 64)),
        8 => {
            let access = if rng.gen_bool(0.5) {
                format!("ldw r{d}, [r7+0]")
            } else {
                format!("stw [r7+0], r{b}")
            };
            format!("and r7, r{a}, 60\n    add r7, r7, r10\n    {access}")
        }
        9 if rng.gen_bool(0.5) => format!("stb [r12+{}], r{a}", 4 + gen_index(rng, 4)),
        9 => format!("stw [r12+4], r{a}"),
        10 => format!("{} r{d}, r{a}, r{b}", if rng.gen_bool(0.5) { "div" } else { "rem" }),
        _ => format!("{} r{d}, r{a}", ["mov", "neg", "not"][gen_index(rng, 3)]),
    };
    out.push_str("    ");
    out.push_str(&line);
    out.push('\n');
}

/// A generated program of `blocks` labelled blocks `b0`… and a final
/// `end: halt`. Each block opens with a patchable `movi` (`p<i>`), may
/// point `r12` at its jump target's or another block's, holds 2–4
/// straight-line items, may store into the code `r12` points at, and ends
/// in a forward conditional jump, a fuel-bounded backward jump (`r14` only
/// ever counts down), a forward `jmp` or a fall-through.
fn gen_program(rng: &mut XorShiftRng, blocks: usize) -> String {
    const JCC: [&str; 8] = ["jeq", "jne", "jlt", "jle", "jgt", "jge", "jltu", "jgeu"];
    let mut src = String::from(".text\nmain:\n");
    for reg in 1..=6 {
        src.push_str(&format!("    movi r{reg}, {}\n", gen_index(rng, 12) as i32 - 3));
    }
    src.push_str("    movi r10, 2048\n");
    src.push_str(&format!("    movi r12, p{}\n", gen_index(rng, blocks)));
    src.push_str(&format!("    movi r14, {}\n", 16 + gen_index(rng, 64)));
    let label = |j: usize| if j == blocks { "end".to_string() } else { format!("b{j}") };
    for i in 0..blocks {
        // The terminator comes first, so the block can patch its target.
        let kind = gen_index(rng, 8);
        let target = match kind {
            3..=5 => gen_index(rng, i + 1),
            _ => i + 1 + gen_index(rng, blocks - i),
        };
        // `r9` sums what each block's patchable `movi` loaded: stale code
        // shows in it for good.
        src.push_str(&format!("b{i}:\np{i}:\n    movi r8, {i}\n    add r9, r9, r8\n"));
        if rng.gen_bool(0.3) {
            let patched = if rng.gen_bool(0.5) { target } else { gen_index(rng, blocks) };
            src.push_str(&format!("    movi r12, p{}\n", patched.min(blocks - 1)));
        }
        for _ in 0..2 + gen_index(rng, 3) {
            gen_straight(rng, &mut src);
        }
        if rng.gen_bool(0.25) {
            src.push_str("    stw [r12+4], r9\n");
        }
        match kind {
            0..=2 => {
                let (a, b) = (1 + gen_index(rng, 6), 1 + gen_index(rng, 6));
                let jcc = JCC[gen_index(rng, JCC.len())];
                src.push_str(&format!("    cmp r{a}, r{b}\n    {jcc} {}\n", label(target)));
            }
            3..=5 => {
                src.push_str(&format!("    sub r14, r14, 1\n    cmpi r14, 0\n    jgt b{target}\n"));
            }
            6 => src.push_str(&format!("    jmp {}\n", label(target))),
            _ => {}
        }
    }
    src.push_str("end:\n    halt\n");
    src
}

/// One segment's result: retired count, exit, the state after it and the
/// segment's dependency sink.
type Segment<D> = (u64, asc::tvm::SegmentExit, StateVector, D);

/// Runs `state` in segments of up to `chunk` instructions until it halts,
/// faults or has retired `cap` instructions. `step` executes one segment
/// with a fresh sink from `new_deps`.
fn run_in_segments<D>(
    state: &mut StateVector,
    chunk: u64,
    cap: u64,
    mut new_deps: impl FnMut(&StateVector) -> D,
    mut step: impl FnMut(&mut StateVector, &mut D, u64) -> (u64, asc::tvm::SegmentExit),
) -> Vec<Segment<D>> {
    use asc::tvm::SegmentExit;
    let mut segments = Vec::new();
    let mut total = 0;
    while total < cap {
        let mut deps = new_deps(state);
        let (retired, exit) = step(state, &mut deps, chunk.min(cap - total));
        total += retired;
        let done = matches!(exit, SegmentExit::Halted | SegmentExit::Fault(_));
        segments.push((retired, exit, state.clone(), deps));
        if done {
            break;
        }
    }
    segments
}

/// The retired count, exit and resulting state of every segment.
fn outcomes<D>(segments: &[Segment<D>]) -> Vec<(u64, &asc::tvm::SegmentExit, &StateVector)> {
    segments.iter().map(|(retired, exit, state, _)| (*retired, exit, state)).collect()
}

/// Tier-1 ≡ tier-0 on generated programs. Each program runs in segments
/// (a random budget per segment and a random stop IP at a block entry, or
/// none) through plain tier-0 stepping and through `run_segment` at
/// `hot_threshold` 1 and at the default threshold, tracked and untracked.
/// Every segment must retire the same count, exit the same way (fault kind
/// and IP included) and leave the same state; tracked segments must also
/// record the same read and write sets. Failures print the program source.
#[test]
fn tiered_execution_matches_tier0_on_generated_programs() {
    use asc::tvm::exec::NoDeps;
    use asc::tvm::tier::{run_segment, BlockCache, TierConfig, TierStats};
    use asc::tvm::SegmentExit;

    const PROGRAMS: usize = 96;
    const CAP: u64 = 3000;
    let mut rng = XorShiftRng::new(0x5eed_0015);
    let (mut faults, mut halts) = (0, 0);
    let mut stats = TierStats::default();
    for case in 0..PROGRAMS {
        let blocks = 2 + gen_index(&mut rng, 6);
        let source = gen_program(&mut rng, blocks);
        let program = asc::asm::Assembler::new().mem_size(4096).assemble(&source).unwrap();
        let initial = program.initial_state().unwrap();
        let stop_ip = if rng.gen_bool(0.5) {
            u32::MAX
        } else {
            program.symbol(&format!("b{}", gen_index(&mut rng, 2))).unwrap()
        };
        let chunk = 1 + gen_index(&mut rng, 400) as u64;
        let context = format!("case {case}, stop {stop_ip}, chunk {chunk}:\n{source}");

        let mut plain = initial.clone();
        let reference = run_in_segments(
            &mut plain,
            chunk,
            CAP,
            |s| DepVector::new(s.len_bytes()),
            |state, deps, budget| {
                let mut retired = 0;
                while retired < budget {
                    match transition(state, Some(deps)) {
                        Ok(StepOutcome::Continue) => {
                            retired += 1;
                            if state.ip() == stop_ip {
                                return (retired, SegmentExit::StopIp);
                            }
                        }
                        Ok(StepOutcome::Halted) => return (retired, SegmentExit::Halted),
                        Err(error) => return (retired, SegmentExit::Fault(error)),
                    }
                }
                (retired, SegmentExit::Budget)
            },
        );
        match &reference.last().unwrap().1 {
            SegmentExit::Fault(_) => faults += 1,
            SegmentExit::Halted => halts += 1,
            _ => {}
        }

        for config in [TierConfig { enabled: true, hot_threshold: 1 }, TierConfig::default()] {
            let mut tracked = initial.clone();
            let mut cache = BlockCache::new(&tracked, config);
            let segments = run_in_segments(
                &mut tracked,
                chunk,
                CAP,
                |s| DepVector::new(s.len_bytes()),
                |state, deps, budget| run_segment(state, deps, &mut cache, stop_ip, budget),
            );
            assert!(outcomes(&segments) == outcomes(&reference), "{config:?} {context}");
            for (i, (tiered, plain)) in segments.iter().zip(&reference).enumerate() {
                assert_eq!(
                    (tiered.3.read_set(), tiered.3.write_set()),
                    (plain.3.read_set(), plain.3.write_set()),
                    "read/write sets, segment {i}, {config:?} {context}"
                );
            }
            stats.merge(&cache.stats());

            let mut untracked = initial.clone();
            let mut cache = BlockCache::new(&untracked, config);
            let segments = run_in_segments(
                &mut untracked,
                chunk,
                CAP,
                |_| NoDeps,
                |state, deps, budget| run_segment(state, deps, &mut cache, stop_ip, budget),
            );
            assert!(outcomes(&segments) == outcomes(&reference), "untracked {config:?} {context}");
        }
    }
    // The campaign must reach what it claims to cover.
    assert!(faults > 0 && halts > 0, "faults {faults}, halts {halts}");
    assert!(stats.tier1_instructions > 0 && stats.blocks_invalidated > 0, "{stats:?}");
}
