//! The flat gate-level IR.
//!
//! Every gate's output is identified by the gate's own [`GateId`]
//! (ISCAS style); primary inputs are `Input` gates, state elements are
//! `Dff` gates whose single input is the D pin and whose output is Q.

use std::fmt;

/// Identifier of a gate (and of the net its output drives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        GateId(u32::try_from(index).expect("gate index fits in u32"))
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Gate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GateKind {
    /// Primary input (no gate inputs).
    Input,
    /// Constant 0.
    Const0,
    /// Constant 1.
    Const1,
    /// Buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// N-input AND.
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2-to-1 multiplexer; inputs `[sel, a, b]`, output = `sel ? b : a`.
    Mux,
    /// D flip-flop; input `[d]`, output Q. Reset to 0.
    Dff,
}

impl GateKind {
    /// Whether the kind is a state element.
    #[must_use]
    pub fn is_dff(self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// Evaluate the gate on one [`Logic`] word per input pin, in pin
    /// order.
    ///
    /// `Dff`, `Input` and constants are sources; only the constants
    /// evaluate (to their value).
    #[must_use]
    pub fn eval<L: Logic>(self, inputs: &[L]) -> L {
        self.eval_with(inputs.len(), |pin| inputs[pin])
    }

    /// Evaluate the gate on `arity` input pins, reading pin `i` through
    /// `pin(i)` — the form simulators use to feed a gate from their
    /// value arrays without gathering its inputs first.
    ///
    /// The one definition of gate semantics. Every kind is written with
    /// [`Logic`]'s and/or/not, so it holds for two-valued words and for
    /// 0/1/X words alike. The multiplexer uses the consensus form
    /// `(¬s∧a)∨(s∧b)∨(a∧b)`: two-valued it equals `s ? b : a`, and with
    /// `s = X` it still yields `a` when `a == b`.
    #[must_use]
    pub fn eval_with<L: Logic>(self, arity: usize, pin: impl Fn(usize) -> L) -> L {
        let and = || (0..arity).fold(L::ONE, |acc, i| acc.and(pin(i)));
        let or = || (0..arity).fold(L::ZERO, |acc, i| acc.or(pin(i)));
        let xor = || {
            let (a, b) = (pin(0), pin(1));
            a.and(b.not()).or(a.not().and(b))
        };
        match self {
            GateKind::Buf => pin(0),
            GateKind::Not => pin(0).not(),
            GateKind::And => and(),
            GateKind::Or => or(),
            GateKind::Nand => and().not(),
            GateKind::Nor => or().not(),
            GateKind::Xor => xor(),
            GateKind::Xnor => xor().not(),
            GateKind::Mux => {
                let (s, a, b) = (pin(0), pin(1), pin(2));
                s.not().and(a).or(s.and(b)).or(a.and(b))
            }
            GateKind::Const0 => L::ZERO,
            GateKind::Const1 => L::ONE,
            GateKind::Input | GateKind::Dff => unreachable!("sources are not evaluated"),
        }
    }
}

/// A word of gate values: the and/or/not that [`GateKind::eval`] is
/// written in.
///
/// `u64` is the two-valued word — bit `i` carries pattern `i`, so one
/// evaluation simulates 64 patterns.
pub trait Logic: Copy {
    /// Every lane 0.
    const ZERO: Self;
    /// Every lane 1.
    const ONE: Self;
    /// Lane-wise conjunction.
    #[must_use]
    fn and(self, other: Self) -> Self;
    /// Lane-wise disjunction.
    #[must_use]
    fn or(self, other: Self) -> Self;
    /// Lane-wise negation.
    #[must_use]
    fn not(self) -> Self;
}

impl Logic for u64 {
    const ZERO: Self = 0;
    const ONE: Self = !0;

    fn and(self, other: Self) -> Self {
        self & other
    }

    fn or(self, other: Self) -> Self {
        self | other
    }

    fn not(self) -> Self {
        !self
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<GateId>,
}

impl Gate {
    /// The gate's function.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The gate's input nets in pin order.
    #[must_use]
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }
}

/// A flat gate-level netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    names: Vec<Option<String>>,
    inputs: Vec<GateId>,
    outputs: Vec<(String, GateId)>,
    dffs: Vec<GateId>,
}

impl Netlist {
    /// An empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    fn push(&mut self, kind: GateKind, inputs: Vec<GateId>) -> GateId {
        let id = GateId::from_index(self.gates.len());
        for &i in &inputs {
            assert!(i.index() < self.gates.len(), "undefined input {i}");
        }
        self.gates.push(Gate { kind, inputs });
        self.names.push(None);
        id
    }

    /// Add a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push(GateKind::Input, Vec::new());
        self.names[id.index()] = Some(name.into());
        self.inputs.push(id);
        id
    }

    /// Add a constant gate.
    pub fn constant(&mut self, value: bool) -> GateId {
        self.push(
            if value {
                GateKind::Const1
            } else {
                GateKind::Const0
            },
            Vec::new(),
        )
    }

    /// Add a combinational gate.
    ///
    /// # Panics
    ///
    /// Panics if an input id is undefined, the arity does not fit the
    /// kind, or `kind` is a source kind (`Input`/`Dff`).
    pub fn gate(&mut self, kind: GateKind, inputs: &[GateId]) -> GateId {
        let ok = match kind {
            GateKind::Buf | GateKind::Not => inputs.len() == 1,
            GateKind::Xor | GateKind::Xnor => inputs.len() == 2,
            GateKind::Mux => inputs.len() == 3,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => inputs.len() >= 2,
            GateKind::Const0 | GateKind::Const1 => inputs.is_empty(),
            GateKind::Input | GateKind::Dff => false,
        };
        assert!(ok, "bad arity {} for {kind:?}", inputs.len());
        self.push(kind, inputs.to_vec())
    }

    /// Add a D flip-flop whose D pin is connected later via
    /// [`Netlist::connect_dff`] (registers are created before the logic
    /// computing their next state).
    pub fn dff(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push(GateKind::Dff, Vec::new());
        self.names[id.index()] = Some(name.into());
        self.dffs.push(id);
        id
    }

    /// Connect the D pin of a flip-flop created with [`Netlist::dff`].
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not a flip-flop or is already connected.
    pub fn connect_dff(&mut self, dff: GateId, d: GateId) {
        let g = &mut self.gates[dff.index()];
        assert!(g.kind.is_dff(), "{dff} is not a flip-flop");
        assert!(g.inputs.is_empty(), "{dff} already connected");
        assert!(d.index() < self.names.len(), "undefined D net {d}");
        g.inputs.push(d);
    }

    /// Mark a net as a primary output.
    pub fn output(&mut self, name: impl Into<String>, net: GateId) {
        self.outputs.push((name.into(), net));
    }

    /// Number of gates (including inputs, constants and flip-flops).
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// All gates in id order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// A gate by id.
    #[must_use]
    pub fn gate_at(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Optional instance name of a gate.
    #[must_use]
    pub fn name(&self, id: GateId) -> Option<&str> {
        self.names[id.index()].as_deref()
    }

    /// Primary inputs in creation order.
    #[must_use]
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs `(name, net)` in creation order.
    #[must_use]
    pub fn outputs(&self) -> &[(String, GateId)] {
        &self.outputs
    }

    /// Flip-flops in creation order.
    #[must_use]
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Topological order of the combinational gates (inputs, constants
    /// and flip-flop outputs are sources and excluded), level by level.
    ///
    /// # Panics
    ///
    /// Panics if the combinational logic contains a cycle (elaboration
    /// never produces one).
    #[must_use]
    pub fn topo_levels(&self) -> Vec<GateId> {
        let n = self.gates.len();
        let mut indeg = vec![0usize; n];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, g) in self.gates.iter().enumerate() {
            if g.kind.is_dff() {
                continue; // DFF D-pin edges do not participate
            }
            for &inp in &g.inputs {
                indeg[i] += 1;
                fanout[inp.index()].push(i as u32);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            if !matches!(
                self.gates[u].kind,
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
            ) {
                order.push(GateId::from_index(u));
            }
            for &v in &fanout[u] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v as usize);
                }
            }
        }
        assert_eq!(
            queue.len(),
            n,
            "combinational cycle in netlist (elaboration bug)"
        );
        order
    }

    /// Count combinational gates (excluding sources and constants).
    #[must_use]
    pub fn num_logic_gates(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| {
                !matches!(
                    g.kind,
                    GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        nl.output("x", x);
        assert_eq!(nl.num_gates(), 3);
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.name(a), Some("a"));
        assert_eq!(nl.num_logic_gates(), 1);
    }

    #[test]
    fn eval_semantics() {
        assert_eq!(GateKind::And.eval(&[0b1100u64, 0b1010]), 0b1000);
        assert_eq!(GateKind::Or.eval(&[0b1100u64, 0b1010]), 0b1110);
        assert_eq!(GateKind::Xor.eval(&[0b1100u64, 0b1010]), 0b0110);
        assert_eq!(GateKind::Not.eval(&[0u64]), !0u64);
        // mux: sel ? b : a
        assert_eq!(GateKind::Mux.eval(&[0b10u64, 0b01, 0b11]), 0b11);
        assert_eq!(GateKind::Nand.eval(&[!0u64, !0]), 0);
        assert_eq!(GateKind::Nor.eval(&[0u64, 0]), !0u64);
        assert_eq!(GateKind::Xnor.eval(&[0b1u64, 0b1]), !0u64);
    }

    #[test]
    fn dff_connection() {
        let mut nl = Netlist::new();
        let q = nl.dff("r0");
        let a = nl.input("a");
        let d = nl.gate(GateKind::Xor, &[q, a]);
        nl.connect_dff(q, d);
        assert_eq!(nl.dffs(), &[q]);
        assert_eq!(nl.gate_at(q).inputs(), &[d]);
    }

    #[test]
    #[should_panic(expected = "bad arity")]
    fn arity_checked() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let _ = nl.gate(GateKind::Xor, &[a]);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(GateKind::And, &[a, b]);
        let y = nl.gate(GateKind::Or, &[x, a]);
        let order = nl.topo_levels();
        let px = order.iter().position(|&g| g == x).unwrap();
        let py = order.iter().position(|&g| g == y).unwrap();
        assert!(px < py);
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn feedback_through_dff_is_not_a_cycle() {
        let mut nl = Netlist::new();
        let q = nl.dff("r");
        let a = nl.input("a");
        let d = nl.gate(GateKind::Xor, &[q, a]);
        nl.connect_dff(q, d);
        let order = nl.topo_levels();
        assert_eq!(order, vec![d]);
    }
}
