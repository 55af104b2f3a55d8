//! # hlts — high-level test synthesis with integrated scheduling and allocation
//!
//! Facade crate for the `hlts` workspace, a from-scratch reproduction of
//! *Yang & Peng, "An Efficient Algorithm to Integrate Scheduling and
//! Allocation in High-Level Test Synthesis", DATE 1998*.
//!
//! Each subsystem lives in its own crate and is re-exported here under a
//! short module name:
//!
//! * [`dfg`] — behavioral data-flow graph IR and parser;
//! * [`sched`] — scheduling substrate (list, force-directed, mobility-path);
//! * [`alloc`] — allocation substrate (left-edge, compatibility, bindings);
//! * [`etpn`] — the Extended Timed Petri Net design representation;
//! * [`testability`] — CC/SC/CO/SO testability analysis;
//! * [`cost`] — module library, floorplanning, area estimation;
//! * [`core`] — the integrated synthesis algorithm and the three baselines;
//! * [`netlist`] — RTL-to-gate elaboration;
//! * [`atpg`] — stuck-at fault simulation and test generation;
//! * [`tcov`] — parallel fault-coverage grading (fault-partitioned
//!   fault sim + PODEM, deterministic merge, coverage memo);
//! * [`benchmarks`] — the six DATE'98 benchmark graphs;
//! * [`dse`] — parallel Pareto design-space exploration over
//!   parameter sweeps, with checkpoint/resume;
//! * [`gen`] — seeded random DFG workload generator and the
//!   differential conformance harness over the engine matrix;
//! * [`jobs`] — the job-oriented execution engine (bounded queue,
//!   worker pool, cancellation, warm contexts) and the `hlts serve`
//!   daemon protocol;
//! * [`json`] — the JSON reader and the line/document writer.
//!
//! # Quickstart
//!
//! ```
//! use hlts::benchmarks;
//! use hlts::core::{IntegratedSynthesizer, SynthesisParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = benchmarks::ex();
//! let params = SynthesisParams { k: 3, alpha: 2.0, beta: 1.0, ..Default::default() };
//! let result = IntegratedSynthesizer::new(params).run(&dfg)?;
//! println!("modules: {}, registers: {}, steps: {}",
//!          result.allocation.num_modules(),
//!          result.allocation.num_registers(),
//!          result.schedule.num_steps());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use hlts_alloc as alloc;
pub use hlts_atpg as atpg;
pub use hlts_benchmarks as benchmarks;
pub use hlts_core as core;
pub use hlts_cost as cost;
pub use hlts_dfg as dfg;
pub use hlts_dse as dse;
pub use hlts_etpn as etpn;
pub use hlts_gen as gen;
pub use hlts_jobs as jobs;
pub use hlts_json as json;
pub use hlts_netlist as netlist;
pub use hlts_sched as sched;
pub use hlts_tcov as tcov;
pub use hlts_testability as testability;
