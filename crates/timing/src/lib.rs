//! Performance estimation for STGs: the `cr.cycle` and `inp.events`
//! columns of the paper's Tables 1 and 2.
//!
//! * [`DelayModel`] — fixed per-event delays (Table 1/2 model: inputs 2,
//!   others 1; PAR model: mapped network delays with comb = 1,
//!   seq = 1.5, inputs = 3);
//! * [`simulate`] — event-driven timed simulation with periodic
//!   steady-state detection and causal critical-cycle extraction.
//!
//! # Example
//!
//! ```
//! use reshuffle_petri::parse_g;
//! use reshuffle_timing::{simulate, DelayModel, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stg = parse_g(
//!     ".model hs\n.inputs a\n.outputs b\n.graph\n\
//!      a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
//! )?;
//! let delays = DelayModel::uniform(&stg, 2.0, 1.0);
//! let run = simulate(&stg, &delays, &SimOptions::default())?;
//! assert_eq!(run.period, 6.0); // 2+1+2+1
//! assert_eq!(run.input_events_on_cycle, 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod delay;
mod sim;

pub use delay::DelayModel;
pub use sim::{simulate, SimOptions, TimedRun, TimingError};
