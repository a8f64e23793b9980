//! The four benchmark workloads: seed → parameters → program + oracle, and
//! the runtime configuration of each timed mode.
//!
//! The program under test only ever sees the generated [`Program`]; the seed
//! stays on this side of the boundary.

use asc_core::config::AscConfig;
use asc_tvm::program::Program;
use asc_tvm::state::StateVector;
use asc_workloads::collatz::{self, CollatzParams};
use asc_workloads::ising::{self, IsingParams};
use asc_workloads::logistic_map::{self, LogisticMapParams};
use asc_workloads::mm2::{self, Mm2Params};
use asc_workloads::registry::{self, Scale};

/// A benchmark workload. Each exists because it loads a different set of
/// layers; see `why` (repeated in `BENCHMARK.json` and the README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Collatz,
    Logistic,
    Ising,
    Mm2,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Collatz, Workload::Logistic, Workload::Ising, Workload::Mm2];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Collatz => "collatz",
            Workload::Logistic => "logistic",
            Workload::Ising => "ising",
            Workload::Mm2 => "mm2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry scale the full benchmark runs at. 2mm runs one size
    /// down: its recognizer already takes seconds at `Small`.
    pub fn full_scale(self) -> Scale {
        match self {
            Workload::Mm2 => Scale::Small,
            _ => Scale::Medium,
        }
    }
}

/// Parameters of one generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Params {
    Collatz(CollatzParams),
    Logistic(LogisticMapParams),
    Ising(IsingParams),
    Mm2(Mm2Params),
}

/// SplitMix64: one well-mixed word per seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a benchmark seed to program parameters. Seed 0 is the registry
/// preset, bit for bit. Any other seed changes only the *tail* of the
/// program — how many map seeds or list nodes it processes (up to 15 and 3
/// more), or the scalar 2mm applies in its second loop nest — so the first
/// `explore_instructions` the recognizer profiles are the same for every
/// seed. Collatz is the same program under every seed.
///
/// That is deliberate. What the runtime learns is chaotic in the program's
/// inputs, and on the one workload where learning pays (Collatz) no
/// parameter is safe to move: raising `count` from 20 000 to 20 067 halves
/// the inline wall (1.46 s → 0.77 s; 7 238 → 9 352 hits, 43 → 24 MB), 20 112
/// brings it back (1.32 s, 5 386 hits), and sliding `start` from 2 to 20
/// flips the recognized stride while `start` 230 or 467 costs eight
/// re-profiling rounds (2.0 s). Re-seeding Ising's spins moves its inline
/// wall between 1.4 s and 2.2 s. A seed that did any of that would make each
/// seed a different workload and swamp every regression bound; the four
/// workloads are where input diversity lives, and the sensitivity itself is
/// recorded in the README's baseline findings.
pub fn params(workload: Workload, scale: Scale, seed: u64) -> Params {
    let h = if seed == 0 { 0 } else { mix(seed) };
    match workload {
        Workload::Collatz => Params::Collatz(registry::collatz_params(scale)),
        Workload::Logistic => {
            let mut p = registry::logistic_map_params(scale);
            p.seeds += (h % 16) as u32;
            Params::Logistic(p)
        }
        Workload::Ising => {
            let mut p = registry::ising_params(scale);
            p.nodes += (h % 4) as usize;
            Params::Ising(p)
        }
        Workload::Mm2 => {
            let mut p = registry::mm2_params(scale);
            p.beta += (h % 8) as i32;
            Params::Mm2(p)
        }
    }
}

/// A generated program with its oracle.
pub struct Built {
    pub program: Program,
    /// Checks a final state against the pure-Rust reference result.
    pub verify: Box<dyn Fn(&StateVector) -> bool>,
    pub initial: StateVector,
    pub description: String,
}

/// A `read_result(..) == expected` check, before the program image is bound.
type ProgramCheck = Box<dyn Fn(&Program, &StateVector) -> bool>;

/// Assembles the program, computes the pure-Rust reference and
/// materialises the initial state — the work `setup_s` times.
///
/// # Errors
/// Describes an assembly or state-construction failure.
pub fn build(params: &Params) -> Result<Built, String> {
    let (program, verify, description): (Program, ProgramCheck, String) = match *params {
        Params::Collatz(p) => {
            let expected = collatz::reference(&p);
            (
                collatz::program(&p).map_err(|e| e.to_string())?,
                Box::new(move |prog, s| collatz::read_result(prog, s).is_ok_and(|r| r == expected)),
                format!("collatz: integers {}..{}", p.start, p.start + p.count),
            )
        }
        Params::Logistic(p) => {
            let expected = logistic_map::reference(&p);
            (
                logistic_map::program(&p).map_err(|e| e.to_string())?,
                Box::new(move |prog, s| {
                    logistic_map::read_result(prog, s).is_ok_and(|r| r == expected)
                }),
                format!("logistic map: {} seeds x {} steps", p.seeds, p.steps),
            )
        }
        Params::Ising(p) => {
            let expected = ising::reference(&p);
            (
                ising::program(&p).map_err(|e| e.to_string())?,
                Box::new(move |prog, s| {
                    ising::read_result(prog, s, &p).is_ok_and(|r| r == expected)
                }),
                format!(
                    "ising: {} nodes x {} spins, {} passes, seed {:#x}",
                    p.nodes, p.spins, p.reps, p.seed
                ),
            )
        }
        Params::Mm2(p) => {
            let expected = mm2::reference(&p);
            (
                mm2::program(&p).map_err(|e| e.to_string())?,
                Box::new(move |prog, s| mm2::read_result(prog, s, &p).is_ok_and(|r| r == expected)),
                format!("2mm: {n}x{n} matrices, alpha={}, beta={}", p.alpha, p.beta, n = p.n),
            )
        }
    };
    let initial = program.initial_state().map_err(|e| e.to_string())?;
    let image = program.clone();
    Ok(Built {
        program,
        verify: Box::new(move |state| verify(&image, state)),
        initial,
        description,
    })
}

/// A timed `accelerate` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `workers = 0`: fully deterministic counters.
    Inline,
    /// `workers = 2`, planner off: the miss-driven pool loop.
    Workers,
    /// `workers = 2`, planner on: the shipped multi-core default.
    Planner,
    /// `workers = 0` with the watchdog left at its shipped default (on).
    InlineDefault,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Inline, Mode::Workers, Mode::Planner, Mode::InlineDefault];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Inline => "inline",
            Mode::Workers => "workers",
            Mode::Planner => "planner",
            Mode::InlineDefault => "inline_default",
        }
    }

    pub fn parse(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// The threaded modes assume two workers; the benchmark refuses to run on
/// fewer cores.
pub const WORKERS: usize = 2;

/// `AscConfig::default()` plus the scale-matched recognizer window the
/// repository's own harnesses use (`asc-bench::config_for`; the numbers are
/// copied so this package does not depend on that crate), `workers` and
/// `planner.enabled` per mode.
///
/// The watchdog is off in every mode but `InlineDefault`: joining its
/// thread waits out a `poll_ms = 500` sleep, which rounds every
/// `accelerate` wall up to the next half second and would hide any change
/// smaller than that. `InlineDefault` keeps it on so that cost has a metric
/// of its own.
pub fn config(scale: Scale, mode: Mode) -> AscConfig {
    let (explore_instructions, min_superstep) = match scale {
        Scale::Tiny => (6_000, 50),
        Scale::Small => (80_000, 200),
        Scale::Medium => (250_000, 500),
        Scale::Large => (500_000, 1_000),
    };
    let mut config = AscConfig { explore_instructions, min_superstep, ..AscConfig::default() };
    config.workers = match mode {
        Mode::Inline | Mode::InlineDefault => 0,
        Mode::Workers | Mode::Planner => WORKERS,
    };
    config.planner.enabled = mode == Mode::Planner;
    config.watchdog.enabled = mode == Mode::InlineDefault;
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_registry_preset_at_every_scale() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Medium] {
            assert_eq!(
                params(Workload::Collatz, scale, 0),
                Params::Collatz(registry::collatz_params(scale))
            );
            assert_eq!(
                params(Workload::Logistic, scale, 0),
                Params::Logistic(registry::logistic_map_params(scale))
            );
            assert_eq!(
                params(Workload::Ising, scale, 0),
                Params::Ising(registry::ising_params(scale))
            );
            assert_eq!(params(Workload::Mm2, scale, 0), Params::Mm2(registry::mm2_params(scale)));
        }
    }

    #[test]
    fn other_seeds_change_only_the_tail() {
        for workload in Workload::ALL {
            let scale = workload.full_scale();
            let base = params(workload, scale, 0);
            assert_eq!(
                params(workload, scale, 11),
                params(workload, scale, 11),
                "same seed, same inputs"
            );
            let distinct = (1..=8).filter(|seed| params(workload, scale, *seed) != base).count();
            if workload == Workload::Collatz {
                assert_eq!(distinct, 0, "collatz is one program under every seed");
            } else {
                assert!(distinct >= 5, "{workload:?}: seeds barely perturb the inputs");
            }
            for seed in 1..=8 {
                match (base, params(workload, scale, seed)) {
                    (Params::Collatz(b), Params::Collatz(p)) => assert_eq!(p, b),
                    (Params::Logistic(b), Params::Logistic(p)) => {
                        assert_eq!(p.steps, b.steps);
                        assert!((b.seeds..b.seeds + 16).contains(&p.seeds));
                    }
                    (Params::Ising(b), Params::Ising(p)) => {
                        assert_eq!((p.spins, p.reps, p.seed), (b.spins, b.reps, b.seed));
                        assert!((b.nodes..b.nodes + 4).contains(&p.nodes));
                    }
                    (Params::Mm2(b), Params::Mm2(p)) => {
                        assert_eq!((p.n, p.alpha), (b.n, b.alpha));
                        assert!((b.beta..b.beta + 8).contains(&p.beta));
                    }
                    other => panic!("workload changed kind: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mode_configs_differ_only_where_documented() {
        let scale = Scale::Medium;
        let inline = config(scale, Mode::Inline);
        assert_eq!((inline.explore_instructions, inline.min_superstep), (250_000, 500));
        assert_eq!((inline.workers, inline.watchdog.enabled), (0, false));
        let planner = config(scale, Mode::Planner);
        assert_eq!((planner.workers, planner.planner.enabled), (WORKERS, true));
        let workers = config(scale, Mode::Workers);
        assert_eq!((workers.workers, workers.planner.enabled), (WORKERS, false));
        let shipped = config(scale, Mode::InlineDefault);
        assert_eq!(shipped.watchdog, AscConfig::default().watchdog);
        assert!(shipped.watchdog.enabled);
        for mode in Mode::ALL {
            config(Scale::Tiny, mode).validate().unwrap();
            assert_eq!(Mode::parse(mode.name()), Some(mode));
        }
        assert_eq!(Workload::parse("mm2"), Some(Workload::Mm2));
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn tiny_programs_build_and_their_oracle_rejects_the_initial_state() {
        for workload in Workload::ALL {
            let built = build(&params(workload, Scale::Tiny, 3)).unwrap();
            assert!(!(built.verify)(&built.initial), "{workload:?}");
            assert!(!built.description.is_empty());
        }
    }
}
