//! State graphs for asynchronous circuit synthesis.
//!
//! This crate builds binary-encoded state graphs from Signal Transition
//! Graphs and implements the analyses of Section 2 of *Automatic
//! Synthesis and Optimization of Partially Specified Asynchronous
//! Systems* (DAC 1999):
//!
//! * [`build_state_graph`] — reachability + consistent binary encoding;
//! * [`props`] — determinism, commutativity, output persistency
//!   (together: speed independence);
//! * [`csc`] — Unique/Complete State Coding conflict detection;
//! * [`conc`] — the concurrency relation (state diamonds);
//! * [`restrict`] — incremental re-derivation after serializing rewrites
//!   and CSC series insertions;
//! * [`nextstate`] — implied-value tables feeding logic synthesis.
//!
//! # Example
//!
//! ```
//! use reshuffle_petri::parse_g;
//! use reshuffle_sg::{build_state_graph, csc::analyze_csc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The controller of Fig. 1: it violates CSC (codes 11* vs 1*1).
//! let stg = parse_g(
//!     ".model fig1\n.inputs Req\n.outputs Ack\n.graph\n\
//!      Ack+ Req-\nReq- Req+ Ack-\nAck- Ack+\nReq+ Ack+\n\
//!      .marking { <Req+,Ack+> <Ack-,Ack+> }\n.end\n",
//! )?;
//! let sg = build_state_graph(&stg)?;
//! assert_eq!(sg.num_states(), 5);
//! assert_eq!(analyze_csc(&sg).num_csc_conflicts(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod build;
pub mod conc;
pub mod csc;
mod error;
pub mod nextstate;
pub mod props;
pub mod restrict;
mod sg;

pub use build::{
    build_state_graph, build_state_graph_stats, build_state_graph_with, BuildOptions, BuildStats,
};
pub use error::{Result, SgError};
pub use sg::{Arcs, ArcsIter, EventId, EventInfo, State, StateGraph, StateId};
