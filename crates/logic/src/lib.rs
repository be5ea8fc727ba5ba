//! Two-level logic for asynchronous circuit synthesis.
//!
//! The DAC 1999 flow estimates and synthesizes the next-state logic of
//! every output signal. No suitable logic-minimization crate exists, so
//! this crate implements the substrate from scratch:
//!
//! * [`Cube`]/[`Cover`] — product terms and sums of products over ≤ 64
//!   variables, with the usual cube algebra;
//! * [`tautology`] — tautology/containment via unate reduction and
//!   Shannon splitting;
//! * [`complement`] — cover complementation, one Shannon recursion over
//!   a single cube buffer;
//! * [`minimize`] — heuristic espresso-style minimization
//!   (EXPAND/IRREDUNDANT/REDUCE loop);
//! * [`factor`]/[`Expr`] — algebraic factoring feeding technology
//!   mapping;
//! * [`Bdd`] — a small ROBDD manager on flat tables (an open-addressing
//!   unique table, one lossy computed table), with a near-linear
//!   minterm-list loader and interval ISOP extraction;
//! * [`minimize_codes`] — BDD-backed minimization for functions given
//!   as huge minterm lists (million-state next-state tables), where the
//!   cube-list algorithms above would be quadratic in the state count;
//!   [`minimize_codes_with_dc`] takes the don't-care cover
//!   ([`dont_care_isop`]) precomputed, for functions sharing one.
//!
//! An exact Quine–McCluskey minimizer is compiled into the tests only,
//! where it cross-checks espresso on small functions.
//!
//! # Example
//!
//! ```
//! use reshuffle_logic::{Cover, minimize};
//!
//! // f = Σm(1,3) over 2 variables minimizes to the single literal x0.
//! let on = Cover::from_minterms(2, &[0b01, 0b11]);
//! let dc = Cover::empty(2);
//! let f = minimize(&on, &dc);
//! assert_eq!(f.len(), 1);
//! assert_eq!(f.num_literals(), 1);
//! ```

#![warn(missing_docs)]

pub mod bdd;
mod complement;
mod cover;
mod cube;
mod espresso;
mod factor;
pub mod interval;
#[cfg(test)]
mod qm;
pub mod tautology;

pub use bdd::Bdd;
pub use complement::{complement, complement_cube};
pub use cover::Cover;
pub use cube::{mask, Cube, MAX_VARS};
pub use espresso::{cost, minimize, verify_minimized, Cost};
pub use factor::{factor, sop_expr, Expr};
pub use interval::{dont_care_isop, minimize_codes, minimize_codes_with_dc};
