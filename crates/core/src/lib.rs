//! # asc-core — the ASC architecture (LASC runtime)
//!
//! This crate implements the paper's primary contribution: an architecture
//! that automatically scales unmodified sequential programs by treating
//! execution as a trajectory through state space, predicting future points on
//! that trajectory with on-line machine learning, speculatively executing
//! from the predicted points, and fast-forwarding through a dependency-aware
//! trajectory cache.
//!
//! Components (Figure 1 of the paper):
//!
//! * [`recognizer`] — finds recognized instruction pointers (RIPs) whose
//!   occurrences are widely spaced and predictable (§4.3).
//! * [`excitation`] / [`predictor_bank`] — track which bits change between
//!   RIP occurrences and train the `asc-learn` ensemble on exactly those
//!   bits (§4.4).
//! * [`allocator`] — expected-utility selection of speculative work from
//!   recursive rollout predictions (§4.5).
//! * [`economics`] — the cost-aware dispatch value model: per-RIP realized
//!   hit rates, calibrated `P(hit)` estimates, and the adaptive rollout
//!   horizon that decides whether a speculation is worth a worker's time.
//! * [`planner`] — the continuous-speculation planner thread that owns
//!   speculation cadence: it consumes the main thread's occurrence stream
//!   and keeps the worker pool topped up with predicted supersteps instead
//!   of waiting for cache misses.
//! * [`speculator`] — the one dependency-tracked execution path (§4.1): it
//!   runs supersteps from predicted states, and captures the real ones
//!   `measure` and `memoize` observe.
//! * [`cache`] — the sparse, dependency-matched trajectory cache (§4.2).
//! * [`runtime`] — the LASC main loop: `measure` (instrumented, for the
//!   experiment harnesses), and one occurrence loop shared by `accelerate`
//!   (cache + speculation in the loop) and `memoize` (single-core
//!   generalized memoization).
//! * [`report`] — the one serializer of a run's statistics: a
//!   [`RunReport`] as one flat JSON line, every stats section under dotted
//!   keys.
//! * [`supervisor`] — the supervision layer over the speculation machinery:
//!   panic containment, job deadlines, health counters, and
//!   the degrade-to-inline circuit breaker (speculation failures may only
//!   ever cost speed — including *execution* failures).
//! * [`cluster`] — platform cost models that turn a measured trace into the
//!   paper's scaling curves (32-core server, Blue Gene/P, laptop).
//! * [`checkpoint`] — crash durability: occurrence-boundary checkpoints of
//!   resumable run state, written atomically and verified section by
//!   section, from which an interrupted `accelerate` resumes to a final
//!   state bit-identical to the uninterrupted run (see `ROBUSTNESS.md`).
//!   The trajectory cache is not persisted: a resumed run starts it empty.
//! * [`codec`] — the versioned, length-prefixed frame codec of the
//!   checkpoint file.
//!
//! ## Quick example
//!
//! ```no_run
//! use asc_core::config::AscConfig;
//! use asc_core::runtime::LascRuntime;
//! use asc_workloads::registry::{build, Benchmark, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = build(Benchmark::Collatz, Scale::Small)?;
//! let runtime = LascRuntime::new(AscConfig::default())?;
//! let report = runtime.accelerate(&workload.program)?;
//! assert!(workload.verify(&report.final_state));
//! println!("fast-forwarded {} of {} instructions",
//!          report.fast_forwarded_instructions, report.total_instructions);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod cache;
pub mod checkpoint;
pub mod cluster;
pub mod codec;
pub mod config;
pub mod economics;
pub mod error;
pub mod excitation;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod planner;
pub mod predictor_bank;
pub mod recognizer;
pub mod report;
pub mod runtime;
pub mod speculator;
pub mod supervisor;
pub mod workers;

pub use cache::{CacheEntry, CacheStats, TrajectoryCache};
pub use checkpoint::{CheckpointStats, RunCheckpoint};
pub use cluster::{PlatformProfile, ScalingMode, ScalingPoint};
pub use config::{
    AscConfig, BreakerConfig, CheckpointConfig, EconomicsConfig, PlannerConfig, WatchdogConfig,
};
pub use economics::{EconomicsStats, SpeculationEconomics};
pub use error::{AscError, AscResult};
#[cfg(feature = "fault-inject")]
pub use fault::FaultPlan;
pub use planner::{OccurrenceEvent, PlannerHandle, PlannerStats};
pub use recognizer::{RecognizedIp, RecognizerOutcome};
pub use report::{JsonLine, JsonValue};
pub use runtime::{LascRuntime, RunReport, SuperstepRecord};
pub use supervisor::{BreakerState, CircuitBreaker, HealthMonitor, HealthStats, Supervision};
pub use workers::{PoolStats, SpeculationJob, SpeculationPool};
