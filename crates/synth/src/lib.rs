//! Speed-independent logic synthesis back-end.
//!
//! Given a (CSC-satisfying) state graph, this crate derives and
//! minimizes next-state functions, resolves CSC conflicts by state
//! signal insertion when needed, maps the logic onto a 2-input gate
//! library, and verifies the mapped netlist against the specification:
//!
//! * [`derive_all_functions`] / [`literal_estimate_with`] — next-state
//!   logic (the estimate also drives the concurrency-reduction cost
//!   function), minimized once per distinct function of a run through
//!   its [`CoverMemo`];
//! * [`resolve_csc`] — state-signal insertion (STG-level series
//!   insertion in place of petrify's regions; see its module docs);
//! * [`synthesize_complex_gates`] — complex-gate style (Fig. 3(d));
//! * [`synthesize_gc`] — generalized-C style (Fig. 3(c));
//! * [`Library`]/[`Netlist`] — gate library, mapped circuits, area and
//!   network delays;
//! * [`verify_against_sg`] — implementation-vs-specification check.
//!
//! # Example
//!
//! ```
//! use reshuffle_petri::parse_g;
//! use reshuffle_sg::build_state_graph;
//! use reshuffle_synth::{synthesize_complex_gates, verify_against_sg, Library};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stg = parse_g(
//!     ".model buf\n.inputs a\n.outputs b\n.graph\n\
//!      a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
//! )?;
//! let sg = build_state_graph(&stg)?;
//! let imp = synthesize_complex_gates(&sg)?;
//! verify_against_sg(&sg, &imp.netlist)?;
//! assert_eq!(imp.netlist.area(&Library::default()), 0.0); // a wire
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod complexgate;
mod csc_insert;
mod error;
mod func;
mod gc;
pub mod library;
pub mod mapping;
mod memo;
pub mod netlist;
pub mod verify;

pub use complexgate::{synthesize_complex_gates, synthesize_complex_gates_with, ComplexGateImpl};
pub use csc_insert::{
    resolve_csc, resolve_csc_analyzed, resolve_csc_from, resolve_csc_with, CscOptions,
    CscResolution,
};
pub use error::{Result, SynthError};
pub use func::{
    derive_all_functions, literal_estimate, literal_estimate_with, ConflictPolicy, SignalFunction,
};
pub use gc::{derive_gc_function, synthesize_gc, GcFunction, GcImpl};
pub use library::{GateType, Library};
pub use memo::CoverMemo;
pub use netlist::{Netlist, Node, NodeId};
pub use verify::{check_against_sg, verify_against_sg, Mismatch};
