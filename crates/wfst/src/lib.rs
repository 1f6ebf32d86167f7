//! Weighted finite-state transducer (WFST) substrate for the reproduction of
//! *"An Ultra Low-Power Hardware Accelerator for Automatic Speech
//! Recognition"* (Yazdani et al., MICRO 2016).
//!
//! A WFST is a Mealy machine whose arcs carry a weight, an input label (a
//! phoneme) and an output label (a word). The Viterbi beam search walks this
//! graph frame-by-frame, combining arc weights with per-frame acoustic
//! likelihoods. This crate provides everything the rest of the workspace
//! needs from the recognition network:
//!
//! * the in-memory data model ([`Wfst`], [`Arc`], [`StateEntry`]) using the
//!   packed representation of the paper (Section III): 64-bit state records
//!   and 128-bit arc records, non-epsilon arcs stored before epsilon arcs;
//! * [`builder::WfstBuilder`] for programmatic construction;
//! * [`layout`]: the byte-exact main-memory image of the transducer — the
//!   64-bit state and 128-bit arc wire records the [`store`] writes, and the
//!   address map the cycle-accurate simulator derives cache/DRAM addresses
//!   from;
//! * [`sorted`]: the bandwidth-saving layout of Section IV-B, where states
//!   with at most `N` arcs are moved to the front of the state array and
//!   sorted by out-degree so arc indices can be computed directly;
//! * [`store`]: the zero-copy graph store and the crate's one file format
//!   — a byte-stable image of the full [`sorted::SortedWfst`] whose loaded
//!   buffer is viewed in place (no per-load rebuild, no record copies),
//!   validated once into a [`store::GraphImage`];
//! * [`synth`]: a deterministic generator reproducing the published
//!   statistics of Kaldi's 125k-word English WFST (degree distribution with
//!   ~97% of visited states having <= 15 arcs, 11.5% epsilon arcs);
//! * [`lexicon`] / [`grammar`] / [`compose`]: small-vocabulary decoding-graph
//!   construction used by the functional tests and examples;
//! * [`stats`]: static/dynamic degree histograms behind Figure 7.
//!
//! # Conventions
//!
//! Weights are *costs*: negative natural-log probabilities (tropical
//! semiring). Lower is better, path costs add, and beam pruning keeps tokens
//! whose cost is within `beam` of the frame's best cost. This is equivalent
//! to the paper's max-of-likelihood formulation (Equation 1) and is what
//! log-space hardware actually computes with its FP adders.
//!
//! # Example
//!
//! ```
//! use asr_wfst::builder::WfstBuilder;
//! use asr_wfst::{PhoneId, StateId, WordId};
//!
//! // The two-word ("low", "less") example of Figure 2a.
//! let mut b = WfstBuilder::new();
//! let s: Vec<StateId> = (0..7).map(|_| b.add_state()).collect();
//! b.set_start(s[0]);
//! let (l, oh, eh, ss) = (PhoneId(1), PhoneId(2), PhoneId(3), PhoneId(4));
//! let (low, less) = (WordId(1), WordId(2));
//! b.add_arc(s[0], s[1], l, WordId::NONE, 0.51); // -ln 0.6
//! b.add_arc(s[1], s[2], oh, low, 0.22);         // -ln 0.8
//! b.add_arc(s[0], s[4], l, WordId::NONE, 0.92); // -ln 0.4
//! b.add_arc(s[4], s[5], eh, less, 0.51);
//! b.add_arc(s[2], s[3], oh, WordId::NONE, 0.0);
//! b.add_arc(s[5], s[6], ss, WordId::NONE, 0.0);
//! b.set_final(s[3], 0.0);
//! b.set_final(s[6], 0.0);
//! let wfst = b.build()?;
//! assert_eq!(wfst.num_states(), 7);
//! assert_eq!(wfst.num_arcs(), 6);
//! assert_eq!(wfst.arcs(s[0]).len(), 2);
//! # Ok::<(), asr_wfst::WfstError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod compose;
pub mod grammar;
pub mod layout;
pub mod lexicon;
pub mod rmeps;
pub mod sorted;
pub mod stats;
pub mod store;
pub mod synth;

mod error;
mod ids;
mod model;

pub use error::WfstError;
pub use ids::{ArcId, PhoneId, StateId, WordId};
pub use model::{Arc, StateEntry, Wfst};

/// Convenience result alias for fallible WFST operations.
pub type Result<T> = std::result::Result<T, WfstError>;
