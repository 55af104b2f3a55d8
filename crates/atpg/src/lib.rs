//! # hlts-atpg — stuck-at test generation over gate netlists
//!
//! The test substrate behind the paper's fault-coverage / test-
//! generation-time / test-cycle columns. The paper's testability metric
//! "assumes that a stuck-at fault model is used and ATPG is random
//! and/or deterministic ... many ATPG's start by using random test
//! generation to cover as many faults as possible and then switch to
//! deterministic test generation" (§2). This crate holds the pieces of
//! that two-phase flow; `hlts-tcov`'s `grade` drives them (random
//! sequences through the fault simulator, then PODEM on what is left):
//!
//! * [`FaultUniverse`] — single stuck-at faults on gate outputs and
//!   inputs, with structural equivalence collapsing and optional
//!   sampling;
//! * [`FaultSimulator`] — serial-fault, parallel-pattern fault
//!   simulation with fault dropping;
//! * [`Podem`] — deterministic PODEM over a time-frame-expanded model
//!   (reset state, bounded frames, bounded backtracks);
//! * [`AtpgConfig`] — the flow's knobs (seed, random-sequence budget,
//!   frames, backtrack limit, target cap, fault sampling).
//!
//! Both simulating pieces run on one kernel. Each compiles its netlist
//! once into a levelized tape (gate kinds and CSR fan-in in level
//! order, the input map, the flip-flop D map), and one clock-cycle
//! step over that tape is where sources load, gates evaluate, a
//! stuck-at fault is injected and flip-flops latch. The step is generic
//! over the value word: the fault simulator runs two-valued `u64`
//! words (64 patterns each), PODEM runs 0/1/X dual-rail words with the
//! good machine and the faulty machine in two lanes of the same word.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod faults;
mod faultsim;
mod podem;
mod tape;

pub use config::AtpgConfig;
pub use faults::{Fault, FaultSite, FaultUniverse};
pub use faultsim::{FaultSimulator, GoodTrace, PiAssign};
pub use podem::{Podem, PodemOutcome};
