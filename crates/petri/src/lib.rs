//! Petri nets and Signal Transition Graphs (STGs) for asynchronous
//! circuit synthesis.
//!
//! This crate is the bottom substrate of the `reshuffle` workspace — a
//! Rust reproduction of *Automatic Synthesis and Optimization of
//! Partially Specified Asynchronous Systems* (DAC 1999). It provides:
//!
//! * [`PetriNet`] — place/transition nets with unit arc weights;
//! * [`Marking`] — 1-safe markings and the token game;
//! * [`ReachabilityGraph`] — explicit reachability exploration;
//! * [`Stg`] — signal transition graphs (nets labelled with signal
//!   edges `a+`, `a-`, `a~`), with interface roles per signal;
//! * astg (`.g`) [parsing](parse_g) and [writing](write_g);
//! * [structural transformations](structural) used by handshake
//!   expansion and concurrency reduction;
//! * [`canonical_fingerprint`] — declaration-order-invariant hashing of
//!   STGs, the key of the facade's synthesis cache.
//!
//! # Example
//!
//! ```
//! use reshuffle_petri::{parse_g, ReachabilityGraph};
//!
//! # fn main() -> Result<(), reshuffle_petri::PetriError> {
//! let stg = parse_g(
//!     ".model toggle\n.inputs a\n.outputs b\n.graph\n\
//!      a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
//! )?;
//! let rg = ReachabilityGraph::explore_default(stg.net(), &stg.initial_marking())?;
//! assert_eq!(rg.len(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod fingerprint;
mod ids;
mod marking;
mod net;
mod parse;
mod reach;
pub mod stg;
pub mod structural;
mod write;

pub use error::{PetriError, Result};
pub use fingerprint::canonical_fingerprint;
pub use ids::{PlaceId, SignalId, TransitionId};
pub use marking::Marking;
pub use net::PetriNet;
pub use parse::parse_g;
pub use reach::{ReachabilityGraph, DEFAULT_STATE_BUDGET};
pub use stg::{Handshake, Polarity, Signal, SignalEdge, SignalKind, Stg, TransLabel};
pub use structural::{prereduce, PrereduceStats};
pub use write::write_g;
