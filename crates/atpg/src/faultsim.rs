//! Serial-fault, parallel-pattern fault simulation with fault dropping.

use hlts_netlist::Netlist;

use crate::tape::Tape;
use crate::Fault;

/// One clock cycle's primary-input assignment: a 64-pattern word per
/// primary input, in the netlist's input order.
pub type PiAssign = Vec<u64>;

/// The recorded good-machine behavior of a test sequence.
#[derive(Debug, Clone)]
pub struct GoodTrace {
    /// Cycle-major: the value of every net after settling.
    values: Vec<u64>,
    /// Cycle-major: the flip-flop state *before* the cycle's clock edge.
    states: Vec<u64>,
}

/// A serial-fault, 64-pattern-parallel fault simulator.
///
/// For each fault the faulty machine is re-simulated with the fault
/// injected, starting at the first cycle in which the fault site is
/// activated (before activation the faulty machine coincides with the
/// recorded good machine). A fault is *detected* when any primary
/// output differs from the good machine in any pattern of any cycle.
/// Flip-flops reset to 0.
#[derive(Debug, Clone)]
pub struct FaultSimulator {
    nl: Netlist,
    tape: Tape,
}

impl FaultSimulator {
    /// Wrap a netlist (compiles it once).
    #[must_use]
    pub fn new(nl: Netlist) -> Self {
        let tape = Tape::compile(&nl);
        FaultSimulator { nl, tape }
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Simulate the good machine over `seq` from reset, recording every
    /// net value per cycle.
    #[must_use]
    pub fn good_trace(&mut self, seq: &[PiAssign]) -> GoodTrace {
        let (n, dffs) = (self.tape.nets(), self.tape.num_dffs());
        let mut trace = GoodTrace {
            values: vec![0; seq.len() * n],
            states: vec![0; seq.len() * dffs],
        };
        let (mut state, mut next) = (vec![0; dffs], vec![0; dffs]);
        for (c, pis) in seq.iter().enumerate() {
            trace.states[c * dffs..(c + 1) * dffs].copy_from_slice(&state);
            let vals = &mut trace.values[c * n..(c + 1) * n];
            self.tape.step(pis, &state, vals, &mut next, None, 0);
            std::mem::swap(&mut state, &mut next);
        }
        trace
    }

    /// Whether `seq` (with its recorded `trace`) detects `fault`.
    #[must_use]
    pub fn detects(&self, trace: &GoodTrace, seq: &[PiAssign], fault: Fault) -> bool {
        let (n, dffs) = (self.tape.nets(), self.tape.num_dffs());
        let stuck = if fault.stuck { !0u64 } else { 0u64 };
        let site = self.tape.site_net(fault.site);
        // First cycle in which the site carries a value different from
        // the stuck value — before that the machines coincide.
        let Some(first_active) = (0..seq.len()).find(|&c| trace.values[c * n + site] != stuck)
        else {
            return false;
        };
        let mut vals = vec![0u64; n];
        let mut state = trace.states[first_active * dffs..(first_active + 1) * dffs].to_vec();
        let mut next = vec![0u64; dffs];
        for (c, pis) in seq.iter().enumerate().skip(first_active) {
            self.tape
                .step(pis, &state, &mut vals, &mut next, Some(fault), !0);
            let good = &trace.values[c * n..(c + 1) * n];
            if self
                .tape
                .outputs()
                .iter()
                .any(|&po| vals[po as usize] != good[po as usize])
            {
                return true;
            }
            std::mem::swap(&mut state, &mut next);
        }
        false
    }

    /// Fault-simulate `seq` against `faults`; `detected[i]` is updated
    /// to `true` for each newly detected fault (already-true entries are
    /// skipped — fault dropping). Returns how many new detections
    /// occurred.
    pub fn run(&mut self, seq: &[PiAssign], faults: &[Fault], detected: &mut [bool]) -> usize {
        let trace = self.good_trace(seq);
        let mut newly = 0;
        for (i, &f) in faults.iter().enumerate() {
            if detected[i] {
                continue;
            }
            if self.detects(&trace, seq, f) {
                detected[i] = true;
                newly += 1;
            }
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultSite, FaultUniverse};
    use hlts_netlist::GateKind;

    /// Combinational AND with both inputs driven: every collapsed fault
    /// is detectable by exhaustive patterns.
    #[test]
    fn exhaustive_patterns_detect_all_and_faults() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        nl.output("x", x);
        let universe = FaultUniverse::collapsed(&nl);
        let mut fs = FaultSimulator::new(nl);
        // patterns: bit0 = (0,0), bit1 = (0,1), bit2 = (1,0), bit3 = (1,1)
        let seq = vec![vec![0b1100u64, 0b1010u64]];
        let mut det = vec![false; universe.len()];
        let n = fs.run(&seq, universe.faults(), &mut det);
        assert_eq!(n, universe.len(), "{det:?}");
    }

    /// A fault on state-feedback logic needs multiple cycles.
    #[test]
    fn sequential_fault_needs_cycles() {
        // toggle flop observed at output; en stuck-at-0 stops toggling
        let mut nl = Netlist::new();
        let q = nl.dff("q");
        let en = nl.input("en");
        let d = nl.gate(GateKind::Xor, &[q, en]);
        nl.connect_dff(q, d);
        nl.output("q", q);
        let fault = Fault {
            site: FaultSite::Output(en),
            stuck: false,
        };
        let mut fs = FaultSimulator::new(nl);
        // one cycle with en=1: output still reads pre-clock q (0 both) —
        // not detected; after the clock the states diverge.
        let seq1 = vec![vec![1u64]];
        let trace1 = fs.good_trace(&seq1);
        assert!(!fs.detects(&trace1, &seq1, fault));
        // two cycles: second cycle observes the diverged state.
        let seq2 = vec![vec![1u64], vec![0u64]];
        let trace2 = fs.good_trace(&seq2);
        assert!(fs.detects(&trace2, &seq2, fault));
    }

    #[test]
    fn undetectable_without_activation() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        nl.output("x", x);
        let fault = Fault {
            site: FaultSite::Output(x),
            stuck: false,
        };
        let mut fs = FaultSimulator::new(nl);
        // output is 0 anyway: sa0 never activated
        let seq = vec![vec![0u64, !0u64]];
        let trace = fs.good_trace(&seq);
        assert!(!fs.detects(&trace, &seq, fault));
    }

    #[test]
    fn fault_dropping_skips_detected() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let x = nl.gate(GateKind::Not, &[a]);
        nl.output("x", x);
        let universe = FaultUniverse::collapsed(&nl);
        let mut fs = FaultSimulator::new(nl);
        let seq = vec![vec![0b01u64]];
        let mut det = vec![false; universe.len()];
        let first = fs.run(&seq, universe.faults(), &mut det);
        let second = fs.run(&seq, universe.faults(), &mut det);
        assert!(first > 0);
        assert_eq!(second, 0, "already-detected faults are dropped");
    }
}
