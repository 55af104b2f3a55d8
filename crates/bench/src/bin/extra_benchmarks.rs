//! The benchmarks the paper evaluated but omitted "due to the space
//! limitation": EWF, Paulin and Tseng, measured at 8 bit in the same
//! row format as Tables 1–3.

use hlts_bench::{measure, Flow};

fn main() {
    let bits = 8;
    println!("Unprinted benchmarks (EWF, Paulin, Tseng) at {bits}-bit");
    println!(
        "{:<8} {:<11} {:>3} {:>4} {:>4} {:>5} {:>9} {:>9} {:>7} {:>8}",
        "bench", "flow", "E", "mod", "reg", "mux", "coverage", "effort", "cycles", "area"
    );
    for (name, dfg) in [
        ("ewf", hlts_benchmarks::ewf()),
        ("paulin", hlts_benchmarks::paulin()),
        ("tseng", hlts_benchmarks::tseng()),
    ] {
        for flow in Flow::all() {
            let m = measure(flow, &dfg, bits).expect("measurement succeeds");
            let (r, rep) = (&m.result, &m.report);
            println!(
                "{:<8} {:<11} {:>3} {:>4} {:>4} {:>5} {:>8.2}% {:>9.0} {:>7} {:>8.3}",
                name,
                flow.label(),
                r.metrics.execution_time,
                r.metrics.num_modules,
                r.metrics.num_registers,
                r.metrics.mux_count,
                rep.coverage(),
                rep.effort(),
                rep.test_cycles,
                r.metrics.hardware.total(),
            );
        }
    }
}
