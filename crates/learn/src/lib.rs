//! # asc-learn — on-line learning for the ASC runtime
//!
//! LASC "turns the problem of automatically scaling sequential computation
//! into a set of machine learning problems" (§4). This crate contains those
//! learning pieces, independent of any simulator details, built around a
//! *packed columnar* data model: the runtime extracts a program's excitation
//! bits into `u64`-packed [`features::PackedObservation`]s and every learner
//! trains and predicts whole blocks of bits per call —
//!
//! ```text
//! StateVector ──extract──▶ PackedObservation ──predict_block──▶ packed ML prediction
//!                                   │               (+ per-bit confidence)
//!                                   │                        │
//!                                   └──observe_transition◀───┘ (trains on its
//!                                                     own forward pass)
//! ```
//!
//! * the packed feature representation over a program's *excitations*
//!   ([`features`]): bits as `u64` words plus the raw 32-bit values of the
//!   words containing them,
//! * the block predictor interface every learner implements ([`traits`]):
//!   one virtual call predicts *all* bits and one trains them — training is
//!   handed the forward pass the ensemble already made, so an occurrence is
//!   one traversal of each learner — with flat `f32` weight arrays
//!   underneath instead of per-bit nested vectors,
//! * the paper's four prediction algorithms: [`mean`], [`weatherman`],
//!   [`logistic`] regression (feature-major, lazily grown weight columns;
//!   a score or an SGD step is a few contiguous vector additions) and
//!   word-level [`linear`] regression,
//! * the Randomized Weighted Majority ensemble that combines them with
//!   bounded regret ([`ensemble`]): a flat `f32` weight matrix, XOR mistake
//!   masks on packed words, and a bounded mistake-history ring,
//! * the retained per-bit golden model the packed stack is tested against
//!   ([`reference`]),
//! * small accuracy-tracking utilities ([`metrics`]).
//!
//! The `asc-core` crate extracts observations from state vectors and feeds
//! them to an [`ensemble::Ensemble`]; everything here operates purely on
//! those observations, which keeps the learners unit-testable in isolation.
//!
//! ```
//! use asc_learn::features::{ExcitationSchema, PackedObservation};
//! use asc_learn::traits::default_predictors;
//! use asc_learn::ensemble::Ensemble;
//!
//! // One tracked 32-bit word, all of whose bits are excitations.
//! let schema = ExcitationSchema::new(1, (0..32).map(|b| (0, b)).collect());
//! let mut ensemble = Ensemble::new(default_predictors(&schema), 32, 0.5, 1024);
//!
//! // Train on a counter that increments by one per superstep…
//! let obs = |v: u32| PackedObservation::from_words(&schema, vec![v]);
//! for i in 0..32u32 {
//!     ensemble.observe(&obs(i), &obs(i + 1));
//! }
//! // …and the ensemble predicts the next value as a packed block.
//! let (bits, _) = ensemble.predict_ml(&obs(32));
//! assert_eq!(bits[0] as u32, 33);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ensemble;
pub mod features;
pub mod linear;
pub mod logistic;
pub mod mean;
pub mod metrics;
pub mod persist;
pub mod reference;
pub mod rng;
pub mod traits;
pub mod weatherman;

pub use ensemble::{Ensemble, EnsembleErrors};
pub use features::{packed_len, ExcitationSchema, PackedObservation};
pub use traits::{default_predictors, BlockPredictor};
