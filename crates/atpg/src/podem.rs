//! Deterministic test generation: PODEM over a time-frame-expanded
//! model.
//!
//! The sequential circuit is unrolled for a bounded number of time
//! frames starting from the reset state (all flip-flops 0). The target
//! fault is injected in every frame. PODEM assigns primary inputs
//! (per frame) guided by backtracing the current objective — first
//! fault activation, then propagation through the D-frontier — with
//! 3-valued (0/1/X) simulation of the good and faulty machines as the
//! implication engine, and a bounded number of backtracks.

use hlts_netlist::{GateKind, Logic, Netlist};

use crate::tape::{DualRail, Tape};
use crate::{Fault, FaultSite};

/// The lane of a [`DualRail`] word that carries the good machine; the
/// faulty machine runs in [`FAULTY`] alongside it, in the same step.
const GOOD: u32 = 0;
/// The lane that carries the faulty machine.
const FAULTY: u32 = 1;

/// Result of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found: per-frame primary-input assignments
    /// (unassigned inputs default to 0).
    Test(Vec<Vec<bool>>),
    /// The fault is untestable within the frame bound (no objective
    /// remained and every decision was exhausted).
    Untestable,
    /// The backtrack limit was hit.
    Aborted,
}

/// PODEM test generator for one netlist.
#[derive(Debug, Clone)]
pub struct Podem {
    tape: Tape,
    frames: usize,
    backtrack_limit: usize,
    backtracks_used: usize,
    /// Frame-major primary-input assignment (X = not decided).
    assign: Vec<DualRail>,
    /// Frame-major net values of the last implication: the good machine
    /// in lane [`GOOD`], the faulty machine in lane [`FAULTY`].
    vals: Vec<DualRail>,
    /// Flip-flop state entering the frame being implied, and leaving it.
    state: Vec<DualRail>,
    next: Vec<DualRail>,
    /// Decisions: (frame, pi, value, tried_both).
    stack: Vec<(usize, usize, bool, bool)>,
}

impl Podem {
    /// Create a generator unrolling `frames` time frames with the given
    /// backtrack limit.
    #[must_use]
    pub fn new(nl: Netlist, frames: usize, backtrack_limit: usize) -> Self {
        let tape = Tape::compile(&nl);
        let frames = frames.max(1);
        Podem {
            assign: vec![DualRail::X; frames * tape.num_inputs()],
            vals: vec![DualRail::X; frames * tape.nets()],
            state: vec![DualRail::X; tape.num_dffs()],
            next: vec![DualRail::X; tape.num_dffs()],
            stack: Vec::new(),
            tape,
            frames,
            backtrack_limit,
            backtracks_used: 0,
        }
    }

    /// Total backtracks consumed across all calls (effort metric).
    #[must_use]
    pub fn backtracks_used(&self) -> usize {
        self.backtracks_used
    }

    /// Attempt to generate a test for `fault` with all inputs free.
    pub fn generate(&mut self, fault: Fault) -> PodemOutcome {
        self.generate_seeded(fault, None)
    }

    /// Attempt to generate a test with some inputs pre-assigned
    /// (frame-major, `preset[frame][pi]`). Preset values are fixed — the
    /// search only decides the remaining inputs. Seeding the control
    /// inputs with the controller's one-hot stepping protocol shrinks
    /// the search space to the data inputs, mirroring a test plan that
    /// walks the schedule.
    pub fn generate_seeded(
        &mut self,
        fault: Fault,
        preset: Option<&[Vec<Option<bool>>]>,
    ) -> PodemOutcome {
        let num_pis = self.tape.num_inputs();
        self.assign.fill(DualRail::X);
        for (f, row) in preset
            .unwrap_or_default()
            .iter()
            .enumerate()
            .take(self.frames)
        {
            for (i, &v) in row.iter().enumerate().take(num_pis) {
                self.assign[f * num_pis + i] = DualRail::splat(v);
            }
        }
        self.stack.clear();
        let mut backtracks = 0usize;

        loop {
            if self.imply(fault) {
                self.backtracks_used += backtracks;
                let test = (0..self.frames)
                    .map(|t| {
                        let frame = &self.assign[t * num_pis..(t + 1) * num_pis];
                        frame.iter().map(|v| v.lane(GOOD) == Some(true)).collect()
                    })
                    .collect();
                return PodemOutcome::Test(test);
            }
            let decision = self
                .objective(fault)
                .and_then(|(frame, net, value)| self.backtrace(frame, net, value));
            if let Some((frame, pi, value)) = decision {
                self.assign[frame * num_pis + pi] = DualRail::splat(Some(value));
                self.stack.push((frame, pi, value, false));
                continue;
            }
            // conflict: backtrack
            loop {
                let Some((frame, pi, value, tried_both)) = self.stack.pop() else {
                    self.backtracks_used += backtracks;
                    return if backtracks >= self.backtrack_limit {
                        PodemOutcome::Aborted
                    } else {
                        PodemOutcome::Untestable
                    };
                };
                let slot = frame * num_pis + pi;
                self.assign[slot] = DualRail::X;
                backtracks += 1;
                if backtracks >= self.backtrack_limit {
                    self.backtracks_used += backtracks;
                    return PodemOutcome::Aborted;
                }
                if !tried_both {
                    self.assign[slot] = DualRail::splat(Some(!value));
                    self.stack.push((frame, pi, !value, true));
                    break;
                }
            }
        }
    }

    /// 3-valued forward simulation of both machines across all frames,
    /// one tape step per frame; returns whether some primary output
    /// carries a known good/faulty difference in some frame.
    fn imply(&mut self, fault: Fault) -> bool {
        let (n, num_pis) = (self.tape.nets(), self.tape.num_inputs());
        let faulty_lane = DualRail::known(1 << FAULTY);
        self.state.fill(DualRail::ZERO);
        let mut detected = false;
        for t in 0..self.frames {
            let pis = &self.assign[t * num_pis..(t + 1) * num_pis];
            let vals = &mut self.vals[t * n..(t + 1) * n];
            let (state, next) = (&self.state, &mut self.next);
            self.tape
                .step(pis, state, vals, next, Some(fault), faulty_lane);
            detected |= self.tape.outputs().iter().any(|&po| {
                let v = vals[po as usize];
                matches!((v.lane(GOOD), v.lane(FAULTY)), (Some(a), Some(b)) if a != b)
            });
            std::mem::swap(&mut self.state, &mut self.next);
        }
        detected
    }

    /// Value of `net` in frame `t` of the last implication.
    fn val(&self, t: usize, net: usize) -> DualRail {
        self.vals[t * self.tape.nets() + net]
    }

    /// Current objective: activate first, then propagate.
    fn objective(&self, fault: Fault) -> Option<(usize, usize, bool)> {
        // 1. activation: some frame where the site is X -> drive it to
        //    the non-stuck value.
        let site = self.tape.site_net(fault.site);
        let mut activated = false;
        for t in 0..self.frames {
            match self.val(t, site).lane(GOOD) {
                None => return Some((t, site, !fault.stuck)),
                Some(x) if x != fault.stuck => activated = true,
                _ => {}
            }
        }
        if !activated {
            return None; // cannot activate under current assignments
        }
        // 2. propagation: D-frontier — a gate whose output is X while
        //    some input carries a good/faulty difference; objective: set
        //    an X side input to the non-controlling value.
        for t in 0..self.frames {
            for (g, ins) in self.tape.gates() {
                let out = self.val(t, g);
                if out.lane(GOOD).is_some() && out.lane(FAULTY).is_some() {
                    continue;
                }
                let has_d = ins.iter().enumerate().any(|(pin, &i)| {
                    let v = self.val(t, i as usize);
                    let mut fv = v.lane(FAULTY);
                    // an input-pin fault introduces the difference inside
                    // this very gate
                    if let FaultSite::Input(fg, fp) = fault.site {
                        if fg.index() == g && usize::from(fp) == pin {
                            fv = Some(fault.stuck);
                        }
                    }
                    matches!((v.lane(GOOD), fv), (Some(a), Some(b)) if a != b)
                });
                if !has_d {
                    continue;
                }
                let x_input = ins
                    .iter()
                    .find(|&&i| self.val(t, i as usize).lane(GOOD).is_none());
                if let Some(&i) = x_input {
                    return Some((t, i as usize, non_controlling(self.tape.kind(g))));
                }
            }
        }
        None
    }

    /// Backtrace an objective to an unassigned primary input: depth-
    /// first search over X-valued inputs (trying every X fan-in, not
    /// just the first, so an assigned PI on one path does not abort the
    /// whole objective).
    fn backtrace(&self, frame: usize, net: usize, value: bool) -> Option<(usize, usize, bool)> {
        let mut budget = self.tape.nets() * self.frames + 1;
        self.backtrace_dfs(frame, net, value, &mut budget)
    }

    fn backtrace_dfs(
        &self,
        frame: usize,
        net: usize,
        value: bool,
        budget: &mut usize,
    ) -> Option<(usize, usize, bool)> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        match self.tape.kind(net) {
            GateKind::Input => {
                let pi = self.tape.pi_index(net);
                let unassigned = self.assign[frame * self.tape.num_inputs() + pi] == DualRail::X;
                unassigned.then_some((frame, pi, value))
            }
            GateKind::Dff => {
                if frame == 0 {
                    return None; // reset state is fixed
                }
                let d = self.tape.fanin(net)[0] as usize;
                self.backtrace_dfs(frame - 1, d, value, budget)
            }
            GateKind::Const0 | GateKind::Const1 => None,
            kind => {
                let v = backtrace_value(kind, value);
                for &i in self.tape.fanin(net) {
                    let i = i as usize;
                    if self.val(frame, i).lane(GOOD).is_none() {
                        if let Some(hit) = self.backtrace_dfs(frame, i, v, budget) {
                            return Some(hit);
                        }
                    }
                }
                None
            }
        }
    }
}

/// Non-controlling input value of a gate kind (for propagation
/// objectives).
fn non_controlling(kind: GateKind) -> bool {
    match kind {
        GateKind::And | GateKind::Nand => true,
        GateKind::Or | GateKind::Nor => false,
        // XOR/MUX/INV have no controlling value; any binary side value
        // propagates — pick 0.
        _ => false,
    }
}

/// How a target value transforms when backtracing through a gate.
fn backtrace_value(kind: GateKind, value: bool) -> bool {
    match kind {
        GateKind::Nand | GateKind::Nor | GateKind::Not => !value,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Combinational AND: PODEM finds a test for every collapsed fault.
    #[test]
    fn podem_covers_and_gate() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        nl.output("x", x);
        let universe = crate::FaultUniverse::collapsed(&nl);
        let mut podem = Podem::new(nl, 1, 100);
        for &f in universe.faults() {
            match podem.generate(f) {
                PodemOutcome::Test(_) => {}
                other => panic!("{}: {other:?}", f.describe()),
            }
        }
    }

    /// A sequential fault needs more than one frame.
    #[test]
    fn podem_unrolls_frames() {
        // q.next = q ^ en, observed at output; en sa0 requires two frames
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
        let mut podem1 = Podem::new(nl.clone(), 1, 100);
        assert_ne!(
            podem1.generate(fault),
            PodemOutcome::Test(vec![vec![true]]),
            "one frame cannot observe the diverged state"
        );
        let mut podem2 = Podem::new(nl, 3, 100);
        match podem2.generate(fault) {
            PodemOutcome::Test(t) => {
                assert!(t.iter().any(|frame| frame[0]), "en must be raised");
            }
            other => panic!("{other:?}"),
        }
    }

    /// Generated tests actually detect the fault (cross-check with the
    /// fault simulator).
    #[test]
    fn podem_tests_verified_by_fault_simulation() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let q = nl.dff("r");
        let s = nl.gate(GateKind::Xor, &[a, b]);
        let d = nl.gate(GateKind::Or, &[s, q]);
        nl.connect_dff(q, d);
        nl.output("o", q);
        let universe = crate::FaultUniverse::collapsed(&nl);
        let mut podem = Podem::new(nl.clone(), 4, 200);
        let mut fs = crate::FaultSimulator::new(nl);
        let mut found = 0;
        for &f in universe.faults() {
            if let PodemOutcome::Test(t) = podem.generate(f) {
                let seq: Vec<Vec<u64>> = t
                    .iter()
                    .map(|frame| frame.iter().map(|&b| if b { !0u64 } else { 0 }).collect())
                    .collect();
                let trace = fs.good_trace(&seq);
                assert!(
                    fs.detects(&trace, &seq, f),
                    "PODEM test must detect {}",
                    f.describe()
                );
                found += 1;
            }
        }
        assert!(found > 0);
    }

    /// An untestable fault (redundant logic) is reported as such.
    #[test]
    fn redundant_fault_untestable() {
        // x = a & !a  is constant 0: sa0 on x is untestable
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let na = nl.gate(GateKind::Not, &[a]);
        let x = nl.gate(GateKind::And, &[a, na]);
        nl.output("x", x);
        let fault = Fault {
            site: FaultSite::Output(x),
            stuck: false,
        };
        let mut podem = Podem::new(nl, 1, 100);
        assert_eq!(podem.generate(fault), PodemOutcome::Untestable);
    }
}
