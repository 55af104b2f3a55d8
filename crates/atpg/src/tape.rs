//! The compiled netlist and its one gate-evaluation rule.
//!
//! A [`Tape`] lowers a [`Netlist`] once into flat arrays: the kind of
//! every net, the fan-in of every combinational gate as CSR rows in
//! level order (then one row per flip-flop holding its D net), the
//! fanout of every net as a CSR list of the rows that read it, the
//! primary-input and constant nets, and the primary outputs.
//!
//! Two entry points simulate on it, both on any [`Logic`] word — the
//! fault simulator runs two-valued `u64` words (64 patterns each),
//! PODEM runs three-valued [`DualRail`] words:
//!
//! * [`Tape::step`] simulates one whole clock cycle: it loads the
//!   sources, evaluates every row and latches the flip-flops;
//! * [`Tape::propagate`] re-evaluates only the *dirty* rows of one
//!   frame, in row (= level) order. A row whose value changes makes
//!   its readers dirty, and an evaluated flip-flop row hands its D
//!   value to the caller, which loads it into the next frame through
//!   [`Tape::load`].
//!
//! Both evaluate a row through the same code and inject a stuck-at
//! fault through the same [`Injection`], so the fault-forcing rules
//! live here alone.

use hlts_netlist::{GateKind, Logic, Netlist};

use crate::{Fault, FaultSite};

/// Row index of a net that no row drives (inputs and constants).
const NO_ROW: u32 = u32::MAX;

/// A 0/1/X word: 64 lanes, each 0, 1 or unknown, held as two planes.
/// A lane is 1 when its `one` bit is set, 0 when its `zero` bit is
/// set, and X when neither is (never both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DualRail {
    one: u64,
    zero: u64,
}

impl DualRail {
    /// Every lane X.
    pub(crate) const X: Self = DualRail { one: 0, zero: 0 };

    /// A known word: lane `i` is bit `i` of `bits`.
    pub(crate) fn known(bits: u64) -> Self {
        DualRail {
            one: bits,
            zero: !bits,
        }
    }

    /// Every lane `v` (X for `None`).
    pub(crate) fn splat(v: Option<bool>) -> Self {
        v.map_or(Self::X, |b| Self::known(if b { !0 } else { 0 }))
    }

    /// The value of lane `i`.
    pub(crate) fn lane(self, i: u32) -> Option<bool> {
        match (self.one >> i & 1, self.zero >> i & 1) {
            (1, _) => Some(true),
            (_, 1) => Some(false),
            _ => None,
        }
    }
}

impl Logic for DualRail {
    const ZERO: Self = DualRail { one: 0, zero: !0 };
    const ONE: Self = DualRail { one: !0, zero: 0 };

    fn and(self, other: Self) -> Self {
        DualRail {
            one: self.one & other.one,
            zero: self.zero | other.zero,
        }
    }

    fn or(self, other: Self) -> Self {
        DualRail {
            one: self.one | other.one,
            zero: self.zero & other.zero,
        }
    }

    fn not(self) -> Self {
        DualRail {
            one: self.zero,
            zero: self.one,
        }
    }
}

/// Where a fault sits on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// The output of a source net (input, constant, flip-flop Q).
    Source(usize),
    /// The output of the gate on a combinational row.
    Gate(usize),
    /// Input pin `.1` of the gate on a combinational row.
    Pin(usize, usize),
    /// The D pin of flip-flop `k`.
    D(usize),
}

/// A stuck-at fault placed on a tape (or none), forced in the lanes set
/// in `lanes` and nowhere else: on a source net as it is loaded, on a
/// gate output as it is evaluated, on an input pin as the gate reads
/// it, on a D pin as it is latched.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Injection<L> {
    site: Option<Site>,
    stuck: bool,
    lanes: L,
}

impl<L: Logic> Injection<L> {
    /// `v` as it reads at `here`.
    fn force(&self, here: Site, v: L) -> L {
        match self.site {
            Some(site) if site == here && self.stuck => v.or(self.lanes),
            Some(site) if site == here => v.and(self.lanes.not()),
            _ => v,
        }
    }
}

/// One frame's net values as [`Tape::propagate`] and [`Tape::load`]
/// read and write them.
pub(crate) trait Frame<L> {
    /// The value of `net`.
    fn get(&self, net: usize) -> L;
    /// Change the value of `net` to `v` (never its current value).
    fn set(&mut self, net: usize, v: L);
}

/// A set of tape rows, drained in row order: the rows of one frame
/// that must be re-evaluated.
#[derive(Debug, Clone)]
pub(crate) struct RowSet {
    words: Vec<u64>,
    /// No word below this one has a bit set (`words.len()` when empty).
    lo: usize,
}

impl RowSet {
    fn insert(&mut self, r: usize) {
        self.words[r / 64] |= 1 << (r % 64);
        self.lo = self.lo.min(r / 64);
    }

    /// Whether no row is dirty.
    pub(crate) fn is_empty(&self) -> bool {
        self.lo == self.words.len()
    }

    /// Empty the set.
    pub(crate) fn clear(&mut self) {
        self.words[self.lo..].fill(0);
        self.lo = self.words.len();
    }

    /// Remove and return the lowest row.
    fn pop_first(&mut self) -> Option<usize> {
        while let Some(w) = self.words.get_mut(self.lo) {
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.lo * 64 + bit);
            }
            self.lo += 1;
        }
        None
    }
}

/// A [`Netlist`] compiled for simulation.
#[derive(Debug, Clone)]
pub(crate) struct Tape {
    /// Kind of every net.
    kind: Vec<GateKind>,
    /// Net driven by each row: the combinational gates in level order,
    /// then the flip-flops (Q net) in creation order.
    out: Vec<u32>,
    /// CSR offsets into `fanin`, one per row plus the end.
    offsets: Vec<u32>,
    /// Fan-in nets of every row in pin order; a flip-flop row holds its
    /// D net.
    fanin: Vec<u32>,
    /// Number of combinational rows (the flip-flop rows follow).
    comb: usize,
    /// Row of every net (`NO_ROW` for inputs and constants).
    row: Vec<u32>,
    /// CSR offsets into `readers`, one per net plus the end.
    reader_offsets: Vec<u32>,
    /// The rows reading each net, ascending and once per row however
    /// many of its pins read the net: the gates the net feeds, then the
    /// flip-flops it feeds as D.
    readers: Vec<u32>,
    /// Primary-input nets in input order.
    inputs: Vec<u32>,
    /// Primary-input index of every net (`NO_ROW` if not an input).
    pi_index: Vec<u32>,
    /// Constant nets with their values.
    consts: Vec<(u32, bool)>,
    /// Primary-output nets in output order.
    outputs: Vec<u32>,
    /// Whether each net is a primary output.
    is_output: Vec<bool>,
}

fn id(i: usize) -> u32 {
    u32::try_from(i).expect("netlist size fits in u32")
}

impl Tape {
    /// Compile `nl`.
    ///
    /// # Panics
    ///
    /// Panics if a flip-flop has no D net or the combinational logic
    /// has a cycle.
    pub(crate) fn compile(nl: &Netlist) -> Self {
        let n = nl.num_gates();
        let levels = nl.topo_levels();
        let mut tape = Tape {
            kind: nl.gates().iter().map(|g| g.kind()).collect(),
            out: Vec::with_capacity(n),
            offsets: vec![0],
            fanin: Vec::new(),
            comb: levels.len(),
            row: vec![NO_ROW; n],
            reader_offsets: Vec::new(),
            readers: Vec::new(),
            inputs: nl.inputs().iter().map(|g| id(g.index())).collect(),
            pi_index: vec![NO_ROW; n],
            consts: Vec::new(),
            outputs: nl.outputs().iter().map(|(_, g)| id(g.index())).collect(),
            is_output: vec![false; n],
        };
        for &g in levels.iter().chain(nl.dffs()) {
            let gate = nl.gate_at(g);
            let d_ok = !gate.kind().is_dff() || gate.inputs().len() == 1;
            assert!(d_ok, "flip-flop {g} has no D net");
            tape.row[g.index()] = id(tape.out.len());
            tape.out.push(id(g.index()));
            tape.fanin
                .extend(gate.inputs().iter().map(|i| id(i.index())));
            tape.offsets.push(id(tape.fanin.len()));
        }
        // Fanout CSR: every row is listed once under each distinct net
        // it reads; rows are visited in order, so lists come out
        // ascending.
        let mut readers = vec![Vec::new(); n];
        for r in 0..tape.out.len() {
            let ins = tape.row_fanin(r);
            for (pin, &net) in ins.iter().enumerate() {
                if !ins[..pin].contains(&net) {
                    readers[net as usize].push(id(r));
                }
            }
        }
        tape.reader_offsets = std::iter::once(0)
            .chain(readers.iter().scan(0, |end, rows| {
                *end += rows.len();
                Some(id(*end))
            }))
            .collect();
        tape.readers = readers.concat();
        for (i, &g) in tape.inputs.iter().enumerate() {
            tape.pi_index[g as usize] = id(i);
        }
        for &g in &tape.outputs {
            tape.is_output[g as usize] = true;
        }
        for (i, &kind) in tape.kind.iter().enumerate() {
            if let GateKind::Const0 | GateKind::Const1 = kind {
                tape.consts.push((id(i), kind == GateKind::Const1));
            }
        }
        tape
    }

    /// Number of nets (one per gate).
    pub(crate) fn nets(&self) -> usize {
        self.kind.len()
    }

    /// Number of primary inputs.
    pub(crate) fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of flip-flops.
    pub(crate) fn num_dffs(&self) -> usize {
        self.out.len() - self.comb
    }

    /// Primary-output nets in output order.
    pub(crate) fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Whether `net` is a primary output.
    pub(crate) fn is_output(&self, net: usize) -> bool {
        self.is_output[net]
    }

    /// Kind of the gate driving `net`.
    pub(crate) fn kind(&self, net: usize) -> GateKind {
        self.kind[net]
    }

    /// Primary-input index of an input net.
    pub(crate) fn pi_index(&self, net: usize) -> usize {
        self.pi_index[net] as usize
    }

    /// Net of primary input `pi`.
    pub(crate) fn input_net(&self, pi: usize) -> usize {
        self.inputs[pi] as usize
    }

    /// Q net of flip-flop `k`.
    pub(crate) fn q_net(&self, k: usize) -> usize {
        self.out[self.comb + k] as usize
    }

    /// D net of flip-flop `k`.
    pub(crate) fn d_net(&self, k: usize) -> usize {
        self.row_fanin(self.comb + k)[0] as usize
    }

    /// Fan-in nets of `net` in pin order (a flip-flop's is its D net;
    /// inputs and constants have none).
    pub(crate) fn fanin(&self, net: usize) -> &[u32] {
        match self.row[net] {
            NO_ROW => &[],
            r => self.row_fanin(r as usize),
        }
    }

    fn row_fanin(&self, r: usize) -> &[u32] {
        &self.fanin[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// The gate on combinational row `r`, as (net, fan-in).
    pub(crate) fn gate(&self, r: usize) -> (usize, &[u32]) {
        (self.out[r] as usize, self.row_fanin(r))
    }

    /// The combinational gates in level order, as (net, fan-in).
    #[cfg(test)]
    pub(crate) fn gates(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.comb).map(|r| self.gate(r))
    }

    /// Combinational row of `net`, if a gate drives it.
    pub(crate) fn gate_row(&self, net: usize) -> Option<usize> {
        let r = self.row[net] as usize;
        (r < self.comb).then_some(r)
    }

    /// Combinational rows reading `net`, ascending.
    pub(crate) fn gate_readers(&self, net: usize) -> impl Iterator<Item = usize> + '_ {
        self.readers(net)
            .iter()
            .map(|&r| r as usize)
            .take_while(|&r| r < self.comb)
    }

    fn readers(&self, net: usize) -> &[u32] {
        let (lo, hi) = (self.reader_offsets[net], self.reader_offsets[net + 1]);
        &self.readers[lo as usize..hi as usize]
    }

    /// An empty dirty-row set sized for this tape.
    pub(crate) fn row_set(&self) -> RowSet {
        let words = self.out.len().div_ceil(64);
        RowSet {
            words: vec![0; words],
            lo: words,
        }
    }

    /// The net whose good value a fault at `site` is activated by: the
    /// gate output itself, or the net driving the faulty input pin.
    pub(crate) fn site_net(&self, site: FaultSite) -> usize {
        match site {
            FaultSite::Output(g) => g.index(),
            FaultSite::Input(g, pin) => self.fanin(g.index())[usize::from(pin)] as usize,
        }
    }

    /// `fault` (or no fault) placed on this tape, forced in the lanes
    /// set in `lanes`.
    pub(crate) fn inject<L>(&self, fault: Option<Fault>, lanes: L) -> Injection<L> {
        Injection {
            site: fault.map(|f| self.site(f.site)),
            stuck: fault.is_some_and(|f| f.stuck),
            lanes,
        }
    }

    fn site(&self, site: FaultSite) -> Site {
        match site {
            FaultSite::Output(g) => match self.row[g.index()] as usize {
                r if r < self.comb => Site::Gate(r),
                _ => Site::Source(g.index()),
            },
            FaultSite::Input(g, pin) => match self.row[g.index()] as usize {
                r if r < self.comb => Site::Pin(r, usize::from(pin)),
                r => Site::D(r - self.comb),
            },
        }
    }

    /// The value of the gate on combinational row `r`, its fan-in read
    /// through `val`, with the fault forced.
    fn eval<L: Logic>(&self, r: usize, inj: &Injection<L>, val: impl Fn(usize) -> L) -> L {
        let ins = self.row_fanin(r);
        let kind = self.kind[self.out[r] as usize];
        let v = match inj.site {
            Some(Site::Pin(fr, _)) if fr == r => kind.eval_with(ins.len(), |i| {
                inj.force(Site::Pin(r, i), val(ins[i] as usize))
            }),
            _ => kind.eval_with(ins.len(), |i| val(ins[i] as usize)),
        };
        inj.force(Site::Gate(r), v)
    }

    /// The value flip-flop `k` latches, its D net read through `val`,
    /// with the fault forced.
    fn latch<L: Logic>(&self, k: usize, inj: &Injection<L>, val: impl Fn(usize) -> L) -> L {
        inj.force(Site::D(k), val(self.d_net(k)))
    }

    /// One clock cycle.
    ///
    /// Loads the constants, the primary inputs `pis` (input order) and
    /// the flip-flop state `state` (creation order) onto their nets,
    /// evaluates every combinational gate into `vals` (one word per
    /// net), and latches each flip-flop's D value into `next`, with the
    /// fault of `inj` forced.
    pub(crate) fn step<L: Logic>(
        &self,
        pis: &[L],
        state: &[L],
        vals: &mut [L],
        next: &mut [L],
        inj: &Injection<L>,
    ) {
        debug_assert_eq!(pis.len(), self.inputs.len(), "one word per primary input");
        for &(net, value) in &self.consts {
            vals[net as usize] = if value { L::ONE } else { L::ZERO };
        }
        for (&net, &v) in self.inputs.iter().zip(pis) {
            vals[net as usize] = v;
        }
        for (&net, &v) in self.out[self.comb..].iter().zip(state) {
            vals[net as usize] = v;
        }
        if let Some(Site::Source(net)) = inj.site {
            vals[net] = inj.force(Site::Source(net), vals[net]);
        }
        for r in 0..self.comb {
            let v = self.eval(r, inj, |i| vals[i]);
            vals[self.out[r] as usize] = v;
        }
        for (k, d) in next.iter_mut().enumerate() {
            *d = self.latch(k, inj, |i| vals[i]);
        }
    }

    /// Re-evaluate the dirty rows of one frame, lowest row first, and
    /// drain `dirty`. A gate whose value changes is written to `vals`
    /// and makes its readers dirty; an evaluated flip-flop row passes
    /// (flip-flop, latched value) to `latch`. Rows are in level order
    /// and a reader's row is always above its driver's, so every row is
    /// evaluated at most once, after all its dirty fan-in.
    pub(crate) fn propagate<L: Logic + PartialEq>(
        &self,
        vals: &mut impl Frame<L>,
        dirty: &mut RowSet,
        inj: &Injection<L>,
        mut latch: impl FnMut(usize, L),
    ) {
        while let Some(r) = dirty.pop_first() {
            if r < self.comb {
                let net = self.out[r] as usize;
                let v = self.eval(r, inj, |i| vals.get(i));
                if v != vals.get(net) {
                    vals.set(net, v);
                    self.touch(net, dirty);
                }
            } else {
                let k = r - self.comb;
                latch(k, self.latch(k, inj, |i| vals.get(i)));
            }
        }
    }

    /// Load source `net` (a primary input, constant or flip-flop Q)
    /// with `v`, the fault forced; if its value changes, its readers
    /// become dirty.
    pub(crate) fn load<L: Logic + PartialEq>(
        &self,
        vals: &mut impl Frame<L>,
        dirty: &mut RowSet,
        net: usize,
        v: L,
        inj: &Injection<L>,
    ) {
        let v = inj.force(Site::Source(net), v);
        if v != vals.get(net) {
            vals.set(net, v);
            self.touch(net, dirty);
        }
    }

    /// Start the fault's own event in a frame that holds the fault-free
    /// values: reload a faulty source, or make the row of a faulty gate
    /// output, input pin or D pin dirty.
    pub(crate) fn seed_fault<L: Logic + PartialEq>(
        &self,
        vals: &mut impl Frame<L>,
        dirty: &mut RowSet,
        inj: &Injection<L>,
    ) {
        match inj.site {
            Some(Site::Source(net)) => {
                let v = vals.get(net);
                self.load(vals, dirty, net, v, inj);
            }
            Some(Site::Gate(r) | Site::Pin(r, _)) => dirty.insert(r),
            Some(Site::D(k)) => dirty.insert(self.comb + k),
            None => {}
        }
    }

    /// Make every reader of `net` dirty.
    fn touch(&self, net: usize, dirty: &mut RowSet) {
        for &r in self.readers(net) {
            dirty.insert(r as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_netlist::GateId;

    /// The three-valued reference: a gate's 0/1/X truth table written
    /// case by case, independent of the and/or/not forms under test.
    fn eval3(kind: GateKind, ins: &[Option<bool>]) -> Option<bool> {
        let known = |v: &[Option<bool>]| v.iter().all(Option::is_some);
        match kind {
            GateKind::Buf => ins[0],
            GateKind::Not => ins[0].map(|v| !v),
            GateKind::And | GateKind::Nand => {
                let v = if ins.contains(&Some(false)) {
                    Some(false)
                } else if known(ins) {
                    Some(true)
                } else {
                    None
                };
                if kind == GateKind::Nand {
                    v.map(|x| !x)
                } else {
                    v
                }
            }
            GateKind::Or | GateKind::Nor => {
                let v = if ins.contains(&Some(true)) {
                    Some(true)
                } else if known(ins) {
                    Some(false)
                } else {
                    None
                };
                if kind == GateKind::Nor {
                    v.map(|x| !x)
                } else {
                    v
                }
            }
            GateKind::Xor => match (ins[0], ins[1]) {
                (Some(a), Some(b)) => Some(a ^ b),
                _ => None,
            },
            GateKind::Xnor => match (ins[0], ins[1]) {
                (Some(a), Some(b)) => Some(!(a ^ b)),
                _ => None,
            },
            GateKind::Mux => match ins[0] {
                Some(false) => ins[1],
                Some(true) => ins[2],
                None => match (ins[1], ins[2]) {
                    (Some(a), Some(b)) if a == b => Some(a),
                    _ => None,
                },
            },
            GateKind::Const0 => Some(false),
            GateKind::Const1 => Some(true),
            other => panic!("{other:?} is a source"),
        }
    }

    /// The two-valued formulas `GateKind::eval` computed on `u64` words
    /// before it was written in and/or/not.
    fn eval2(kind: GateKind, ins: &[u64]) -> u64 {
        match kind {
            GateKind::Buf => ins[0],
            GateKind::Not => !ins[0],
            GateKind::And => ins.iter().fold(!0u64, |a, &b| a & b),
            GateKind::Or => ins.iter().fold(0u64, |a, &b| a | b),
            GateKind::Nand => !ins.iter().fold(!0u64, |a, &b| a & b),
            GateKind::Nor => !ins.iter().fold(0u64, |a, &b| a | b),
            GateKind::Xor => ins[0] ^ ins[1],
            GateKind::Xnor => !(ins[0] ^ ins[1]),
            GateKind::Mux => (!ins[0] & ins[1]) | (ins[0] & ins[2]),
            GateKind::Const0 => 0,
            GateKind::Const1 => !0u64,
            other => panic!("{other:?} is a source"),
        }
    }

    /// Every evaluated kind with every arity it is built at: 1–3 pins,
    /// plus 4-pin And/Or/Nand/Nor.
    fn kinds_and_arities() -> Vec<(GateKind, usize)> {
        use GateKind::*;
        let mut out = vec![(Const0, 0), (Const1, 0), (Buf, 1), (Not, 1)];
        out.extend([(Xor, 2), (Xnor, 2), (Mux, 3)]);
        for kind in [And, Or, Nand, Nor] {
            out.extend((2..=4).map(|n| (kind, n)));
        }
        out
    }

    /// Every input combination over `values`, `n` pins wide.
    fn combos<T: Copy>(values: &[T], n: usize) -> Vec<Vec<T>> {
        (0..n).fold(vec![Vec::new()], |acc, _| {
            acc.iter()
                .flat_map(|c| {
                    values.iter().map(move |&v| {
                        let mut c = c.clone();
                        c.push(v);
                        c
                    })
                })
                .collect()
        })
    }

    #[test]
    fn three_valued_truth_tables_match_the_reference() {
        for (kind, n) in kinds_and_arities() {
            for ins in combos(&[Some(false), Some(true), None], n) {
                let words: Vec<DualRail> = ins.iter().map(|&v| DualRail::splat(v)).collect();
                let got = kind.eval(&words);
                assert_eq!(got, DualRail::splat(eval3(kind, &ins)), "{kind:?} {ins:?}");
            }
        }
    }

    #[test]
    fn two_valued_results_match_the_bitwise_formulas() {
        for (kind, n) in kinds_and_arities() {
            // Lane j of pin i carries bit i of j: all 2^n input
            // combinations at once, plus the constant words.
            let lanes: Vec<u64> = (0..n)
                .map(|i| (0..64).fold(0, |w, j| w | ((j >> i & 1) << j)))
                .collect();
            for ins in [lanes, vec![0; n], vec![!0; n]] {
                assert_eq!(kind.eval(&ins), eval2(kind, &ins), "{kind:?} {ins:x?}");
                let words: Vec<DualRail> = ins.iter().map(|&w| DualRail::known(w)).collect();
                let got = kind.eval(&words);
                assert_eq!(
                    got,
                    DualRail::known(eval2(kind, &ins)),
                    "{kind:?} dual-rail"
                );
            }
        }
    }

    /// `q.next = q ^ en`, observed at the output.
    fn toggle() -> Netlist {
        let mut nl = Netlist::new();
        let q = nl.dff("q");
        let en = nl.input("en");
        let d = nl.gate(GateKind::Xor, &[q, en]);
        nl.connect_dff(q, d);
        nl.output("q", q);
        nl
    }

    #[test]
    fn step_latches_and_keeps_patterns_independent() {
        let tape = Tape::compile(&toggle());
        let mut vals = vec![0u64; tape.nets()];
        let (mut state, mut next) = (vec![0u64], vec![0u64]);
        // pattern 0 toggles every cycle, pattern 1 holds
        for expect in [0b00, 0b01, 0b00] {
            tape.step(&[0b01], &state, &mut vals, &mut next, &tape.inject(None, 0));
            assert_eq!(vals[tape.outputs()[0] as usize] & 0b11, expect);
            std::mem::swap(&mut state, &mut next);
        }
    }

    #[test]
    fn faults_are_forced_only_in_their_lanes() {
        let nl = toggle();
        let (q, en, d) = (GateId::from_index(0), 1, 2);
        let tape = Tape::compile(&nl);
        let mut vals = vec![DualRail::X; tape.nets()];
        let mut next = vec![DualRail::X];
        let lanes = DualRail::known(0b10);
        let cases = [
            // en sa0 as the input is loaded
            (
                FaultSite::Output(GateId::from_index(en)),
                false,
                d,
                Some(true),
            ),
            // xor pin 1 sa0 as the gate reads it
            (
                FaultSite::Input(GateId::from_index(d), 1),
                false,
                d,
                Some(true),
            ),
            // xor output sa0
            (
                FaultSite::Output(GateId::from_index(d)),
                false,
                d,
                Some(true),
            ),
            // q sa1 as the state is loaded
            (FaultSite::Output(q), true, q.index(), Some(false)),
            // q's D pin sa0 as it is latched
            (FaultSite::Input(q, 0), false, usize::MAX, Some(true)),
        ];
        for (site, stuck, net, good) in cases {
            let fault = Fault { site, stuck };
            tape.step(
                &[DualRail::ONE],
                &[DualRail::ZERO],
                &mut vals,
                &mut next,
                &tape.inject(Some(fault), lanes),
            );
            let v = if net == usize::MAX {
                next[0]
            } else {
                vals[net]
            };
            assert_eq!(v.lane(0), good, "{site:?}: good lane");
            assert_eq!(v.lane(1), Some(stuck), "{site:?}: faulty lane");
        }
    }
}
