//! Deterministic test generation: PODEM over a time-frame-expanded
//! model.
//!
//! The sequential circuit is unrolled for a bounded number of time
//! frames starting from the reset state (all flip-flops 0). The target
//! fault is injected in every frame. PODEM assigns primary inputs
//! (per frame) guided by backtracing the current objective — first
//! fault activation, then propagation through the D-frontier — and
//! implies each assignment by 0/1/X simulation of the good and faulty
//! machines, with a bounded number of backtracks.
//!
//! Implication is event-driven. A call's first implication steps every
//! frame on the tape; from then on the frame values are kept, and a
//! decision, a flip or a backtrack reloads only the input slots it
//! changed and propagates from them, frame by frame. The values are a
//! pure function of the assignment, so undoing a decision is one more
//! event and no trail is kept. Each frame also keeps the set of nets
//! that carry a known good/faulty difference: the detection test and
//! the D-frontier search read only that set.

use hlts_netlist::{GateKind, Logic, Netlist};

use crate::tape::{DualRail, Frame, Injection, RowSet, Tape};
use crate::{Fault, FaultSite};

/// The lane of a [`DualRail`] word that carries the good machine; the
/// faulty machine runs in [`FAULTY`] alongside it, in the same step.
const GOOD: u32 = 0;
/// The lane that carries the faulty machine.
const FAULTY: u32 = 1;

/// Whether `v` carries a known good/faulty difference (D or D̄).
fn is_d(v: DualRail) -> bool {
    matches!((v.lane(GOOD), v.lane(FAULTY)), (Some(a), Some(b)) if a != b)
}

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

/// Position of a net absent from a [`NetSet`].
const ABSENT: u32 = u32::MAX;

/// A set of nets with constant-time insert and remove: the nets of one
/// frame that carry a known good/faulty difference.
#[derive(Debug, Clone)]
struct NetSet {
    /// Index of every net in `items` (`ABSENT` if not a member).
    pos: Vec<u32>,
    items: Vec<u32>,
}

impl NetSet {
    fn new(nets: usize) -> Self {
        NetSet {
            pos: vec![ABSENT; nets],
            items: Vec::with_capacity(nets),
        }
    }

    /// Make `net` a member or not.
    fn put(&mut self, net: usize, member: bool) {
        let at = self.pos[net];
        if member && at == ABSENT {
            self.pos[net] = u32::try_from(self.items.len()).expect("net count fits in u32");
            self.items.push(net as u32);
        } else if !member && at != ABSENT {
            let last = self.items.pop().expect("a member is stored");
            if last as usize != net {
                self.items[at as usize] = last;
                self.pos[last as usize] = at;
            }
            self.pos[net] = ABSENT;
        }
    }

    fn clear(&mut self) {
        for &net in &self.items {
            self.pos[net as usize] = ABSENT;
        }
        self.items.clear();
    }
}

/// One frame of the unrolled model as the tape reads and writes it:
/// writing a value keeps the frame's difference set in step.
struct FrameView<'a> {
    vals: &'a mut [DualRail],
    diff: &'a mut NetSet,
}

impl Frame<DualRail> for FrameView<'_> {
    fn get(&self, net: usize) -> DualRail {
        self.vals[net]
    }

    fn set(&mut self, net: usize, v: DualRail) {
        self.vals[net] = v;
        self.diff.put(net, is_d(v));
    }
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
    /// Per frame: the rows to re-evaluate at the next implication.
    dirty: Vec<RowSet>,
    /// Per frame: the nets whose value in `vals` is a known difference.
    diff: Vec<NetSet>,
    /// Whether `vals` and `diff` belong to the current call (false until
    /// its first implication, which steps every frame).
    synced: bool,
    /// Flip-flop state entering the frame being stepped, and leaving it.
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
            dirty: (0..frames).map(|_| tape.row_set()).collect(),
            diff: (0..frames).map(|_| NetSet::new(tape.nets())).collect(),
            synced: false,
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
        self.search(fault, preset, |_| {})
    }

    /// Reset the assignment to `preset` for a new call on `fault`, and
    /// place the fault on the tape.
    fn start(&mut self, fault: Fault, preset: Option<&[Vec<Option<bool>>]>) -> Injection<DualRail> {
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
        self.synced = false;
        self.tape.inject(Some(fault), DualRail::known(1 << FAULTY))
    }

    /// The search behind [`Podem::generate_seeded`]; `implied` sees the
    /// generator after every implication.
    fn search(
        &mut self,
        fault: Fault,
        preset: Option<&[Vec<Option<bool>>]>,
        mut implied: impl FnMut(&Self),
    ) -> PodemOutcome {
        let num_pis = self.tape.num_inputs();
        let inj = self.start(fault, preset);
        let mut backtracks = 0usize;

        loop {
            let detected = self.imply(&inj);
            implied(self);
            if detected {
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
                self.set_input(frame, pi, Some(value), &inj);
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
                self.set_input(frame, pi, None, &inj);
                backtracks += 1;
                if backtracks >= self.backtrack_limit {
                    self.backtracks_used += backtracks;
                    return PodemOutcome::Aborted;
                }
                if !tried_both {
                    self.set_input(frame, pi, Some(!value), &inj);
                    self.stack.push((frame, pi, !value, true));
                    break;
                }
            }
        }
    }

    /// Assign primary input `pi` in `frame` (X for `None`) and load it
    /// onto its net; the next implication propagates the change.
    fn set_input(&mut self, frame: usize, pi: usize, v: Option<bool>, inj: &Injection<DualRail>) {
        let (n, num_pis) = (self.tape.nets(), self.tape.num_inputs());
        let v = DualRail::splat(v);
        self.assign[frame * num_pis + pi] = v;
        if self.synced {
            let mut view = FrameView {
                vals: &mut self.vals[frame * n..(frame + 1) * n],
                diff: &mut self.diff[frame],
            };
            let net = self.tape.input_net(pi);
            self.tape
                .load(&mut view, &mut self.dirty[frame], net, v, inj);
        }
    }

    /// Bring the frame values up to date with the assignment and return
    /// whether some primary output carries a known good/faulty
    /// difference in some frame.
    fn imply(&mut self, inj: &Injection<DualRail>) -> bool {
        if self.synced {
            self.propagate(inj);
        } else {
            self.replay(inj);
            self.synced = true;
        }
        self.diff
            .iter()
            .any(|d| d.items.iter().any(|&net| self.tape.is_output(net as usize)))
    }

    /// Step every frame from reset on the tape and rebuild the
    /// difference sets: a call's first implication.
    fn replay(&mut self, inj: &Injection<DualRail>) {
        let (n, num_pis) = (self.tape.nets(), self.tape.num_inputs());
        self.state.fill(DualRail::ZERO);
        for t in 0..self.frames {
            let pis = &self.assign[t * num_pis..(t + 1) * num_pis];
            let vals = &mut self.vals[t * n..(t + 1) * n];
            self.tape.step(pis, &self.state, vals, &mut self.next, inj);
            std::mem::swap(&mut self.state, &mut self.next);
            let diff = &mut self.diff[t];
            diff.clear();
            for (net, &v) in vals.iter().enumerate() {
                if is_d(v) {
                    diff.put(net, true);
                }
            }
            self.dirty[t].clear();
        }
    }

    /// Re-evaluate the dirty rows frame by frame; a flip-flop whose
    /// latched value changes reloads its Q net in the next frame.
    fn propagate(&mut self, inj: &Injection<DualRail>) {
        let n = self.tape.nets();
        for t in 0..self.frames {
            if self.dirty[t].is_empty() {
                continue;
            }
            let (vals, later_vals) = self.vals.split_at_mut((t + 1) * n);
            let (diff, later_diff) = self.diff.split_at_mut(t + 1);
            let (dirty, later_dirty) = self.dirty.split_at_mut(t + 1);
            let mut view = FrameView {
                vals: &mut vals[t * n..],
                diff: &mut diff[t],
            };
            let mut next = later_diff.first_mut().map(|diff| FrameView {
                vals: &mut later_vals[..n],
                diff,
            });
            let mut next_dirty = later_dirty.first_mut();
            let tape = &self.tape;
            tape.propagate(&mut view, &mut dirty[t], inj, |k, v| {
                if let (Some(next), Some(next_dirty)) = (&mut next, &mut next_dirty) {
                    tape.load(next, next_dirty, tape.q_net(k), v, inj);
                }
            });
        }
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
        // 2. propagation: the first D-frontier gate in (frame, row)
        //    order; objective: set its first X input to the
        //    non-controlling value. A frontier gate reads a net of the
        //    frame's difference set, or is the gate whose input pin is
        //    faulty.
        let pin_row = match fault.site {
            FaultSite::Input(g, _) => self.tape.gate_row(g.index()),
            FaultSite::Output(_) => None,
        };
        for t in 0..self.frames {
            let readers = self.diff[t]
                .items
                .iter()
                .flat_map(|&net| self.tape.gate_readers(net as usize));
            let first = readers
                .chain(pin_row)
                .filter_map(|r| Some((r, self.frontier_input(t, r, fault)?)))
                .min_by_key(|&(r, _)| r);
            if let Some((r, i)) = first {
                let (g, _) = self.tape.gate(r);
                return Some((t, i, non_controlling(self.tape.kind(g))));
            }
        }
        None
    }

    /// If the gate on row `r` is on frame `t`'s D-frontier — its output
    /// is not known in both machines while some input carries a
    /// good/faulty difference — its first input that is X in the good
    /// machine.
    fn frontier_input(&self, t: usize, r: usize, fault: Fault) -> Option<usize> {
        let (g, ins) = self.tape.gate(r);
        let out = self.val(t, g);
        if out.lane(GOOD).is_some() && out.lane(FAULTY).is_some() {
            return None;
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
            return None;
        }
        ins.iter()
            .map(|&i| i as usize)
            .find(|&i| self.val(t, i).lane(GOOD).is_none())
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
    use crate::testkit::{designs, faults_of_every_kind, one_hot_preset};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The D-frontier search before the difference sets: every gate of
    /// every frame scanned in (frame, row) order.
    fn full_scan_objective(p: &Podem, fault: Fault) -> Option<(usize, usize, bool)> {
        let site = p.tape.site_net(fault.site);
        let mut activated = false;
        for t in 0..p.frames {
            match p.val(t, site).lane(GOOD) {
                None => return Some((t, site, !fault.stuck)),
                Some(x) if x != fault.stuck => activated = true,
                _ => {}
            }
        }
        if !activated {
            return None;
        }
        for t in 0..p.frames {
            for (g, ins) in p.tape.gates() {
                let out = p.val(t, g);
                if out.lane(GOOD).is_some() && out.lane(FAULTY).is_some() {
                    continue;
                }
                let has_d = ins.iter().enumerate().any(|(pin, &i)| {
                    let v = p.val(t, i as usize);
                    let mut fv = v.lane(FAULTY);
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
                    .find(|&&i| p.val(t, i as usize).lane(GOOD).is_none());
                if let Some(&i) = x_input {
                    return Some((t, i as usize, non_controlling(p.tape.kind(g))));
                }
            }
        }
        None
    }

    /// What an implication left must equal a full tape replay of the
    /// assignment: every frame's values bit for bit, its difference set
    /// (and with it the detection test), no dirty row left, and the
    /// objective of the full D-frontier scan.
    fn assert_matches_replay(p: &Podem, fault: Fault, tag: &str) {
        let inj = p.tape.inject(Some(fault), DualRail::known(1 << FAULTY));
        let (n, num_pis) = (p.tape.nets(), p.tape.num_inputs());
        let mut vals = vec![DualRail::X; n];
        let mut state = vec![DualRail::ZERO; p.tape.num_dffs()];
        let mut next = state.clone();
        for t in 0..p.frames {
            let pis = &p.assign[t * num_pis..(t + 1) * num_pis];
            p.tape.step(pis, &state, &mut vals, &mut next, &inj);
            std::mem::swap(&mut state, &mut next);
            let kept = &p.vals[t * n..(t + 1) * n];
            let wrong = (0..n).find(|&net| kept[net] != vals[net]);
            assert_eq!(
                wrong, None,
                "{tag}: frame {t} net value differs from the replay"
            );
            let want: Vec<u32> = (0..n)
                .filter(|&net| is_d(vals[net]))
                .map(|i| i as u32)
                .collect();
            let mut got = p.diff[t].items.clone();
            got.sort_unstable();
            assert_eq!(got, want, "{tag}: frame {t} difference set");
            assert!(p.dirty[t].is_empty(), "{tag}: frame {t} left dirty");
        }
        assert_eq!(
            p.objective(fault),
            full_scan_objective(p, fault),
            "{tag}: objective"
        );
    }

    /// Real searches: after every implication of `generate_seeded`, with
    /// and without the one-hot control preset, the kept values equal a
    /// full replay — on faults at all four site kinds of every design.
    #[test]
    fn search_implications_match_a_full_replay() {
        let mut rng = StdRng::seed_from_u64(11);
        for d in designs() {
            let frames = d.steps + 3;
            let preset = one_hot_preset(&d.nl, frames);
            let mut podem = Podem::new(d.nl.clone(), frames, 8);
            let mut implications = 0;
            for fault in faults_of_every_kind(&d.nl, &mut rng, 2) {
                for preset in [None, Some(&preset[..])] {
                    let tag = format!(
                        "{} {} preset={}",
                        d.name,
                        fault.describe(),
                        preset.is_some()
                    );
                    podem.search(fault, preset, |p| {
                        assert_matches_replay(p, fault, &tag);
                        implications += 1;
                    });
                }
            }
            println!("{}: {implications} implications", d.name);
            assert!(implications > 16, "{}: {implications} implications", d.name);
        }
    }

    /// Random decide / flip / undo sequences, one to three slot changes
    /// per implication (a backtrack changes several), checked against a
    /// full replay after every implication.
    #[test]
    fn random_assignment_walks_match_a_full_replay() {
        let mut rng = StdRng::seed_from_u64(12);
        for d in designs() {
            let frames = d.steps + 3;
            let preset = one_hot_preset(&d.nl, frames);
            let mut podem = Podem::new(d.nl.clone(), frames, 1);
            let num_pis = podem.tape.num_inputs();
            for fault in faults_of_every_kind(&d.nl, &mut rng, 2) {
                let preset = rng.gen_bool(0.5).then_some(&preset[..]);
                let inj = podem.start(fault, preset);
                podem.imply(&inj);
                for step in 0..40 {
                    for _ in 0..rng.gen_range(1..4) {
                        let (t, pi) = (rng.gen_range(0..frames), rng.gen_range(0..num_pis));
                        let v = match podem.assign[t * num_pis + pi].lane(GOOD) {
                            None => Some(rng.gen()),
                            Some(b) if rng.gen_bool(0.5) => Some(!b),
                            Some(_) => None,
                        };
                        podem.set_input(t, pi, v, &inj);
                    }
                    podem.imply(&inj);
                    let tag = format!("{} {} step {step}", d.name, fault.describe());
                    assert_matches_replay(&podem, fault, &tag);
                }
            }
        }
    }

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
