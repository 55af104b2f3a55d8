//! Serial-fault, parallel-pattern fault simulation with fault dropping.

use hlts_netlist::Netlist;

use crate::tape::{Frame, Tape};
use crate::Fault;

/// One clock cycle's primary-input assignment: a 64-pattern word per
/// primary input, in the netlist's input order.
pub type PiAssign = Vec<u64>;

/// The recorded good-machine behavior of a test sequence.
#[derive(Debug, Clone)]
pub struct GoodTrace {
    /// Cycle-major: the value of every net after settling.
    values: Vec<u64>,
}

/// A serial-fault, 64-pattern-parallel fault simulator.
///
/// The faulty machine is simulated as a difference from the recorded
/// good machine: a net that no fault effect reaches reads its good
/// value from the trace, and only the gates with a fan-in that differs
/// are re-evaluated. Each cycle's events start at two places — the
/// fault site, in a cycle where some pattern activates it, and the
/// flip-flops whose faulty state differs from the good state — so a
/// cycle with neither evaluates no gate. A fault is *detected* when any
/// primary output differs from the good machine in any pattern of any
/// cycle. Flip-flops reset to 0.
#[derive(Debug, Clone)]
pub struct FaultSimulator {
    nl: Netlist,
    tape: Tape,
}

/// The faulty machine's values in one cycle: a net written this cycle
/// (`stamp == epoch`) reads `vals`, every other net the good trace.
struct Faulty<'a> {
    good: &'a [u64],
    vals: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl Frame<u64> for Faulty<'_> {
    fn get(&self, net: usize) -> u64 {
        if self.stamp[net] == self.epoch {
            self.vals[net]
        } else {
            self.good[net]
        }
    }

    fn set(&mut self, net: usize, v: u64) {
        self.vals[net] = v;
        self.stamp[net] = self.epoch;
    }
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
        };
        let (mut state, mut next) = (vec![0; dffs], vec![0; dffs]);
        let fault_free = self.tape.inject(None, 0);
        for (c, pis) in seq.iter().enumerate() {
            let vals = &mut trace.values[c * n..(c + 1) * n];
            self.tape.step(pis, &state, vals, &mut next, &fault_free);
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
        let active = |c: usize| trace.values[c * n + site] != stuck;
        // Before the first cycle that activates the site the machines
        // coincide; a fault never activated costs no buffer.
        let Some(first_active) = (0..seq.len()).find(|&c| active(c)) else {
            return false;
        };
        let inj = self.tape.inject(Some(fault), !0);
        let mut faulty = Faulty {
            good: &[],
            vals: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
        };
        let mut dirty = self.tape.row_set();
        // (flip-flop, faulty value) where the faulty state differs from
        // the good one, entering this cycle and the next.
        let mut state: Vec<(usize, u64)> = Vec::with_capacity(dffs);
        let mut next: Vec<(usize, u64)> = Vec::with_capacity(dffs);
        for c in first_active..seq.len() {
            if state.is_empty() && !active(c) {
                continue; // no event: the machines agree all cycle
            }
            let good = &trace.values[c * n..(c + 1) * n];
            faulty.good = good;
            faulty.epoch = u32::try_from(c + 1).expect("sequence length fits in u32");
            if active(c) {
                self.tape.seed_fault(&mut faulty, &mut dirty, &inj);
            }
            for &(k, v) in &state {
                let q = self.tape.q_net(k);
                self.tape.load(&mut faulty, &mut dirty, q, v, &inj);
            }
            next.clear();
            self.tape.propagate(&mut faulty, &mut dirty, &inj, |k, v| {
                if v != good[self.tape.d_net(k)] {
                    next.push((k, v));
                }
            });
            let mut outputs = self.tape.outputs().iter().map(|&po| po as usize);
            if outputs.any(|po| faulty.get(po) != good[po]) {
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
    use crate::testkit::{designs, faults_of_every_kind, one_hot_preset};
    use crate::{FaultSite, FaultUniverse, Podem, PodemOutcome};
    use hlts_netlist::GateKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The full-step reference: the whole faulty machine stepped every
    /// cycle from reset, its outputs compared with the trace. (Until the
    /// first cycle that activates the site the machines agree, so this
    /// is the verdict of stepping from that cycle on.)
    fn full_step_detects(
        fs: &FaultSimulator,
        trace: &GoodTrace,
        seq: &[PiAssign],
        fault: Fault,
    ) -> bool {
        let (n, dffs) = (fs.tape.nets(), fs.tape.num_dffs());
        let inj = fs.tape.inject(Some(fault), !0);
        let mut vals = vec![0u64; n];
        let mut state = vec![0u64; dffs];
        let mut next = vec![0u64; dffs];
        for (c, pis) in seq.iter().enumerate() {
            fs.tape.step(pis, &state, &mut vals, &mut next, &inj);
            let good = &trace.values[c * n..(c + 1) * n];
            if fs
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

    /// On every design, every fault of a sample (plus faults at all four
    /// site kinds) gets the same verdict from the event-driven
    /// `detects` as from a full step per cycle — over random sequences,
    /// one-hot protocol sequences and PODEM-derived tests.
    #[test]
    fn detects_matches_full_step_simulation() {
        let mut rng = StdRng::seed_from_u64(13);
        for d in designs() {
            let nl = &d.nl;
            let mut faults = FaultUniverse::collapsed(nl)
                .sampled(120, 1)
                .faults()
                .to_vec();
            faults.extend(faults_of_every_kind(nl, &mut rng, 8));
            let cycles = 2 * d.steps + 4;
            let protocol = one_hot_preset(nl, cycles);
            let mut seqs: Vec<Vec<PiAssign>> = Vec::new();
            for one_hot in [false, true] {
                seqs.push(
                    (0..cycles)
                        .map(|c| {
                            (0..nl.inputs().len())
                                .map(|i| match protocol[c][i] {
                                    Some(b) if one_hot => {
                                        if b {
                                            !0
                                        } else {
                                            0
                                        }
                                    }
                                    _ => rng.gen(),
                                })
                                .collect()
                        })
                        .collect(),
                );
            }
            let mut podem = Podem::new(nl.clone(), d.steps + 3, 20);
            for &f in faults.iter().take(30) {
                if let PodemOutcome::Test(t) = podem.generate(f) {
                    let words =
                        |frame: &Vec<bool>| frame.iter().map(|&b| if b { !0 } else { 0 }).collect();
                    seqs.push(t.iter().map(words).collect());
                }
            }
            let mut fs = FaultSimulator::new(nl.clone());
            let mut verdicts = [0usize; 2];
            for seq in &seqs {
                let trace = fs.good_trace(seq);
                for &f in &faults {
                    let got = fs.detects(&trace, seq, f);
                    let want = full_step_detects(&fs, &trace, seq, f);
                    assert_eq!(
                        got,
                        want,
                        "{}: {} over {} cycles",
                        d.name,
                        f.describe(),
                        seq.len()
                    );
                    verdicts[usize::from(got)] += 1;
                }
            }
            println!(
                "{}: {} sequences, verdicts {verdicts:?}",
                d.name,
                seqs.len()
            );
            assert!(
                verdicts[0] > 0 && verdicts[1] > 0,
                "{}: {verdicts:?}",
                d.name
            );
        }
    }

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
