//! # hlts-netlist — gate-level elaboration of RTL data paths
//!
//! The structural substrate under the test-generation experiments: a
//! gate-level netlist IR ([`Netlist`], [`GateKind`]), parametric-width
//! word operators ([`WordBuilder`] — ripple adders/subtractors,
//! comparators, array multipliers, mux trees, registers with load
//! enables), and the elaboration of an allocated ETPN data path into a
//! flat netlist ([`elaborate`]).
//!
//! Control handling follows the paper's assumption that "the controller
//! can be modified to support the test plan": every control-step signal
//! (register load enables, mux source selects, ALU function selects)
//! is exposed as an extra primary input, so the ATPG may exercise the
//! data path freely; register contents are observable only through the
//! data path to the primary outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elaborate;
mod gates;
mod verilog;
mod words;

pub use elaborate::{elaborate, elaborate_with, ElaborateError};
pub use gates::{Gate, GateId, GateKind, Logic, Netlist};
pub use verilog::to_verilog;
pub use words::WordBuilder;
