//! # hlts-bench — the experiment harness
//!
//! Shared plumbing for the table/figure regeneration binaries (see
//! `src/bin/`) and the Criterion benches: running all four synthesis
//! flows on a benchmark, elaborating the results to gates and measuring
//! the paper's columns (fault coverage, test-generation effort, applied
//! test cycles, area). Coverage is graded by `hlts_tcov::grade` with
//! one worker, the same grader the CLI and the daemon use.
//!
//! Binaries (one per table/figure of the paper):
//!
//! * `table1_ex`, `table2_dct`, `table3_diffeq` — Tables 1–3;
//! * `figure2_ex_schedule`, `figure3_schedules` — Figures 2–3;
//! * `param_sweep` — the paper's (k, α, β) insensitivity claim;
//! * `extra_benchmarks` — EWF, Paulin and Tseng in the tables' format;
//! * `ablation_sr2` — the SR2-ordering / balance-selection ablation.
//!
//! Set `HLTS_QUICK=1` to shrink the fault sample and pattern budget for
//! a fast smoke run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use hlts_atpg::AtpgConfig;
use hlts_core::{
    baselines, CoreError, IntegratedSynthesizer, RunCtl, SynthesisParams, SynthesisResult,
};
use hlts_dfg::Dfg;
use hlts_etpn::Etpn;
use hlts_netlist::elaborate;
use hlts_tcov::{grade, CoverageReport, TcovConfig};

/// The four synthesis flows of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// CAMAD-style connectivity synthesis (no testability).
    Camad,
    /// Force-directed scheduling + Lee allocation.
    Approach1,
    /// Mobility-path scheduling + modified left-edge allocation.
    Approach2,
    /// The integrated algorithm (this paper).
    Ours,
}

impl Flow {
    /// All flows in the tables' row order.
    #[must_use]
    pub fn all() -> [Flow; 4] {
        [Flow::Camad, Flow::Approach1, Flow::Approach2, Flow::Ours]
    }

    /// Row label used in the tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Flow::Camad => "CAMAD",
            Flow::Approach1 => "Approach 1",
            Flow::Approach2 => "Approach 2",
            Flow::Ours => "Ours",
        }
    }

    /// Run the flow on `dfg` at the given bit width (the width selects
    /// the paper's (k, α, β) parameter set for "Ours").
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures (none occur on the shipped
    /// benchmarks).
    pub fn run(self, dfg: &Dfg, bits: u32) -> Result<SynthesisResult, CoreError> {
        let p = SynthesisParams::paper_defaults(bits);
        match self {
            Flow::Camad => {
                // area-optimized configuration, as the paper's
                // "area-optimized benchmark" rows
                let camad_p = SynthesisParams {
                    alpha: 0.1,
                    beta: 10.0,
                    ..p
                };
                baselines::camad(dfg, &camad_p)
            }
            Flow::Approach1 => baselines::approach1(dfg, &p),
            Flow::Approach2 => baselines::approach2(dfg, &p),
            Flow::Ours => IntegratedSynthesizer::new(p).run(dfg),
        }
    }
}

/// One table cell set: a synthesized design measured at one bit width.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Synthesis output (schedule, allocation, structural metrics).
    pub result: SynthesisResult,
    /// Graded fault coverage, effort and test cycles of the elaborated
    /// netlist.
    pub report: CoverageReport,
    /// Wall-clock time of the grading run (the tables' "TG wall").
    pub wall: Duration,
}

/// Whether quick mode is enabled (`HLTS_QUICK=1`).
#[must_use]
pub fn quick() -> bool {
    std::env::var("HLTS_QUICK").is_ok_and(|v| v == "1")
}

/// The ATPG configuration used by all tables: the random phase walks
/// the schedule protocol; fault sampling keeps 16-bit runs tractable.
#[must_use]
pub fn table_atpg_config(steps: usize, bits: u32) -> AtpgConfig {
    let q = quick();
    AtpgConfig {
        sequence_cycles: (steps + 1) * 2,
        random_sequences: if q { 6 } else { 16 },
        frames: steps + 3,
        fault_sample: Some(if q {
            500
        } else if bits >= 16 {
            1500
        } else {
            2000
        }),
        max_deterministic_targets: if q { 40 } else { 200 },
        ..AtpgConfig::default()
    }
}

/// Synthesize with `flow` and measure fault coverage / effort / cycles
/// at `bits`.
///
/// # Errors
///
/// Propagates synthesis, elaboration and grading failures.
pub fn measure(
    flow: Flow,
    dfg: &Dfg,
    bits: u32,
) -> Result<Measurement, Box<dyn std::error::Error>> {
    measure_design(flow.run(dfg, bits)?, bits)
}

/// Elaborate a synthesized design to gates at `bits` and grade it with
/// [`table_atpg_config`], single-threaded.
///
/// # Errors
///
/// Propagates elaboration and grading failures.
pub fn measure_design(
    result: SynthesisResult,
    bits: u32,
) -> Result<Measurement, Box<dyn std::error::Error>> {
    let etpn = Etpn::from_parts(&result.dfg, &result.schedule, &result.allocation)?;
    let nl = elaborate(
        &result.dfg,
        &result.schedule,
        &result.allocation,
        &etpn,
        bits,
    )?;
    let cfg = TcovConfig {
        atpg: table_atpg_config(result.schedule.num_steps(), bits),
        jobs: 1,
    };
    let start = Instant::now();
    let report = grade(&nl, &cfg, &RunCtl::none())?;
    Ok(Measurement {
        result,
        report,
        wall: start.elapsed(),
    })
}

/// Print one of the paper's tables (Tables 1–3) for `dfg`: per flow the
/// module/register allocation, mux count, and per bit width the fault
/// coverage, test-generation effort, test cycles and area.
///
/// # Panics
///
/// Panics if a flow fails on the benchmark (they do not).
pub fn print_table(title: &str, dfg: &Dfg, with_area: bool) {
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
    let widths: &[u32] = if quick() { &[4, 8] } else { &[4, 8, 16] };
    for flow in Flow::all() {
        let shape = flow.run(dfg, 8).expect("synthesis succeeds");
        println!("\n--- {} ---", flow.label());
        print!("{}", shape.allocation.render(&shape.dfg));
        println!(
            "#Mux = {}   E = {} steps   registers = {}   modules = {}",
            shape.metrics.mux_count,
            shape.metrics.execution_time,
            shape.metrics.num_registers,
            shape.metrics.num_modules,
        );
        if with_area {
            println!(
                "{:>5} {:>9} {:>10} {:>12} {:>10} {:>10}",
                "#Bit", "Fault cov", "TG effort", "TG wall [ms]", "Test cyc", "Area"
            );
        } else {
            println!(
                "{:>5} {:>9} {:>10} {:>12} {:>10}",
                "#Bit", "Fault cov", "TG effort", "TG wall [ms]", "Test cyc"
            );
        }
        for &bits in widths {
            let m = measure(flow, dfg, bits).expect("measurement succeeds");
            if with_area {
                println!(
                    "{:>5} {:>8.2}% {:>10.0} {:>12.0} {:>10} {:>10.3}",
                    bits,
                    m.report.coverage(),
                    m.report.effort(),
                    m.wall.as_millis(),
                    m.report.test_cycles,
                    m.result.metrics.hardware.total(),
                );
            } else {
                println!(
                    "{:>5} {:>8.2}% {:>10.0} {:>12.0} {:>10}",
                    bits,
                    m.report.coverage(),
                    m.report.effort(),
                    m.wall.as_millis(),
                    m.report.test_cycles,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_flows_run_on_tseng() {
        let dfg = hlts_benchmarks::tseng();
        for flow in Flow::all() {
            let r = flow.run(&dfg, 8).unwrap();
            r.schedule.validate(&r.dfg).unwrap();
        }
    }

    #[test]
    fn measure_produces_consistent_report() {
        let dfg = hlts_benchmarks::tseng();
        std::env::set_var("HLTS_QUICK", "1");
        let m = measure(Flow::Ours, &dfg, 4).unwrap();
        assert!(m.report.gates > 0);
        assert!(m.report.coverage() > 30.0);
        std::env::remove_var("HLTS_QUICK");
    }
}
