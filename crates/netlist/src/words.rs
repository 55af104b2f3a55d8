//! Word-level construction helpers: parametric-width arithmetic and
//! steering logic built from gates.
//!
//! Words are LSB-first vectors of nets. The generators mirror mid-1990s
//! standard-cell datapath macros: ripple-carry adder/subtractor, ripple
//! magnitude comparator, array multiplier (truncated to the data width),
//! word-wide logic, constant-shift wiring and 2-to-1 mux words.

use crate::{GateId, GateKind, Netlist};

/// Word-level builder over a [`Netlist`].
///
/// # Example
///
/// ```
/// use hlts_netlist::{Netlist, WordBuilder};
///
/// let mut nl = Netlist::new();
/// let a = WordBuilder::input_word(&mut nl, "a", 4);
/// let b = WordBuilder::input_word(&mut nl, "b", 4);
/// let mut wb = WordBuilder::new(&mut nl);
/// let sum = wb.add(&a, &b);
/// assert_eq!(sum.len(), 4);
/// ```
#[derive(Debug)]
pub struct WordBuilder<'a> {
    nl: &'a mut Netlist,
}

impl<'a> WordBuilder<'a> {
    /// Wrap a netlist.
    pub fn new(nl: &'a mut Netlist) -> Self {
        WordBuilder { nl }
    }

    /// Create an input word `name[0..bits]`.
    pub fn input_word(nl: &mut Netlist, name: &str, bits: u32) -> Vec<GateId> {
        (0..bits)
            .map(|i| nl.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Create a constant word holding `value` (two's complement,
    /// truncated).
    pub fn const_word(&mut self, value: i64, bits: u32) -> Vec<GateId> {
        (0..bits)
            .map(|i| self.nl.constant((value >> i) & 1 == 1))
            .collect()
    }

    /// A full adder; returns `(sum, carry)`.
    fn full_adder(&mut self, a: GateId, b: GateId, cin: GateId) -> (GateId, GateId) {
        let axb = self.nl.gate(GateKind::Xor, &[a, b]);
        let sum = self.nl.gate(GateKind::Xor, &[axb, cin]);
        let ab = self.nl.gate(GateKind::And, &[a, b]);
        let cx = self.nl.gate(GateKind::And, &[axb, cin]);
        let cout = self.nl.gate(GateKind::Or, &[ab, cx]);
        (sum, cout)
    }

    /// Ripple-carry addition (result truncated to the word width). The
    /// most significant carry-out is not generated — the result is
    /// truncated, and dead carry logic would only add untestable faults
    /// a synthesis tool would never emit.
    ///
    /// # Panics
    ///
    /// Panics if the words have different widths (all word ops do).
    pub fn add(&mut self, a: &[GateId], b: &[GateId]) -> Vec<GateId> {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let mut carry = self.nl.constant(false);
        let mut out = Vec::with_capacity(a.len());
        let last = a.len() - 1;
        for i in 0..a.len() {
            if i == last {
                let axb = self.nl.gate(GateKind::Xor, &[a[i], b[i]]);
                out.push(self.nl.gate(GateKind::Xor, &[axb, carry]));
            } else {
                let (s, c) = self.full_adder(a[i], b[i], carry);
                out.push(s);
                carry = c;
            }
        }
        out
    }

    /// Ripple-carry subtraction `a - b` (two's complement, truncated;
    /// like [`WordBuilder::add`], no dead MSB carry logic).
    pub fn sub(&mut self, a: &[GateId], b: &[GateId]) -> Vec<GateId> {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let mut carry = self.nl.constant(true);
        let mut out = Vec::with_capacity(a.len());
        let last = a.len() - 1;
        for i in 0..a.len() {
            let nb = self.nl.gate(GateKind::Not, &[b[i]]);
            if i == last {
                let axb = self.nl.gate(GateKind::Xor, &[a[i], nb]);
                out.push(self.nl.gate(GateKind::Xor, &[axb, carry]));
            } else {
                let (s, c) = self.full_adder(a[i], nb, carry);
                out.push(s);
                carry = c;
            }
        }
        out
    }

    /// Unsigned less-than comparison `a < b` (single-bit result), built
    /// as a ripple comparator.
    pub fn lt(&mut self, a: &[GateId], b: &[GateId]) -> GateId {
        assert_eq!(a.len(), b.len(), "width mismatch");
        // lt_i = (!a_i & b_i) | (a_i == b_i) & lt_{i-1}, MSB last
        let mut lt = self.nl.constant(false);
        for i in 0..a.len() {
            let na = self.nl.gate(GateKind::Not, &[a[i]]);
            let below = self.nl.gate(GateKind::And, &[na, b[i]]);
            let eq = self.nl.gate(GateKind::Xnor, &[a[i], b[i]]);
            let keep = self.nl.gate(GateKind::And, &[eq, lt]);
            lt = self.nl.gate(GateKind::Or, &[below, keep]);
        }
        lt
    }

    /// Unsigned greater-than `a > b`.
    pub fn gt(&mut self, a: &[GateId], b: &[GateId]) -> GateId {
        self.lt(b, a)
    }

    /// Equality `a == b`.
    pub fn eq(&mut self, a: &[GateId], b: &[GateId]) -> GateId {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let mut acc = self.nl.constant(true);
        for i in 0..a.len() {
            let eq = self.nl.gate(GateKind::Xnor, &[a[i], b[i]]);
            acc = self.nl.gate(GateKind::And, &[acc, eq]);
        }
        acc
    }

    /// Array multiplication truncated to the word width: partial
    /// products ANDed and accumulated by ripple adders. Each row is
    /// added only over the bit positions it actually covers, so no
    /// dead constant-operand adder slices are generated.
    pub fn mul(&mut self, a: &[GateId], b: &[GateId]) -> Vec<GateId> {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let n = a.len();
        let mut acc: Vec<GateId> = a
            .iter()
            .map(|&ai| self.nl.gate(GateKind::And, &[ai, b[0]]))
            .collect();
        for (j, &bj) in b.iter().enumerate().skip(1) {
            let row: Vec<GateId> = (0..n - j)
                .map(|i| self.nl.gate(GateKind::And, &[a[i], bj]))
                .collect();
            let upper = self.add(&acc[j..], &row);
            acc.truncate(j);
            acc.extend(upper);
        }
        acc
    }

    /// Bitwise AND/OR/XOR/NOT words.
    pub fn bitwise(&mut self, kind: GateKind, a: &[GateId], b: Option<&[GateId]>) -> Vec<GateId> {
        match b {
            Some(b) => {
                assert_eq!(a.len(), b.len(), "width mismatch");
                a.iter()
                    .zip(b)
                    .map(|(&x, &y)| self.nl.gate(kind, &[x, y]))
                    .collect()
            }
            None => a.iter().map(|&x| self.nl.gate(kind, &[x])).collect(),
        }
    }

    /// Logical shift left by one (wired).
    pub fn shl(&mut self, a: &[GateId]) -> Vec<GateId> {
        let zero = self.nl.constant(false);
        let mut out = vec![zero];
        out.extend_from_slice(&a[..a.len() - 1]);
        out
    }

    /// Logical shift right by one (wired).
    pub fn shr(&mut self, a: &[GateId]) -> Vec<GateId> {
        let zero = self.nl.constant(false);
        let mut out: Vec<GateId> = a[1..].to_vec();
        out.push(zero);
        out
    }

    /// 2-to-1 word mux: `sel ? b : a`.
    pub fn mux(&mut self, sel: GateId, a: &[GateId], b: &[GateId]) -> Vec<GateId> {
        assert_eq!(a.len(), b.len(), "width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.nl.gate(GateKind::Mux, &[sel, x, y]))
            .collect()
    }

    /// A register word with load enable: `bits` flip-flops whose next
    /// state is `en ? d : q`. Returns the Q word; call with the D word
    /// later via [`WordBuilder::connect_register`].
    pub fn register(&mut self, name: &str, bits: u32) -> Vec<GateId> {
        (0..bits)
            .map(|i| self.nl.dff(format!("{name}[{i}]")))
            .collect()
    }

    /// Connect a register created with [`WordBuilder::register`]:
    /// `q.next = en ? d : q`.
    pub fn connect_register(&mut self, q: &[GateId], en: GateId, d: &[GateId]) {
        assert_eq!(q.len(), d.len(), "width mismatch");
        for i in 0..q.len() {
            let next = self.nl.gate(GateKind::Mux, &[en, q[i], d[i]]);
            self.nl.connect_dff(q[i], next);
        }
    }

    /// N-way OR (constant 0 for an empty list, a buffer for one input).
    pub fn or_many(&mut self, xs: &[GateId]) -> GateId {
        match xs.len() {
            0 => self.nl.constant(false),
            1 => self.nl.gate(GateKind::Buf, &[xs[0]]),
            _ => self.nl.gate(GateKind::Or, xs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluate a purely combinational netlist on concrete input words.
    fn eval(nl: &Netlist, assign: &[(GateId, bool)]) -> Vec<(String, bool)> {
        let mut vals = vec![0u64; nl.num_gates()];
        for &(g, v) in assign {
            vals[g.index()] = if v { !0 } else { 0 };
        }
        for g in nl.gates().iter().enumerate() {
            if matches!(g.1.kind(), GateKind::Const1) {
                vals[g.0] = !0;
            }
        }
        for g in nl.topo_levels() {
            let ins: Vec<u64> = nl
                .gate_at(g)
                .inputs()
                .iter()
                .map(|&i| vals[i.index()])
                .collect();
            vals[g.index()] = nl.gate_at(g).kind().eval(&ins);
        }
        nl.outputs()
            .iter()
            .map(|(n, g)| (n.clone(), vals[g.index()] & 1 == 1))
            .collect()
    }

    fn word_val(nl: &Netlist, word: &[GateId], assigns: &[(GateId, bool)]) -> u64 {
        let mut nl2 = nl.clone();
        for (i, &g) in word.iter().enumerate() {
            nl2.output(format!("w[{i}]"), g);
        }
        let outs = eval(&nl2, assigns);
        outs.iter()
            .enumerate()
            .fold(0u64, |acc, (i, (_, v))| acc | ((*v as u64) << i))
    }

    fn assigns_for(word: &[GateId], value: u64) -> Vec<(GateId, bool)> {
        word.iter()
            .enumerate()
            .map(|(i, &g)| (g, (value >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn adder_adds() {
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", 8);
        let b = WordBuilder::input_word(&mut nl, "b", 8);
        let sum = WordBuilder::new(&mut nl).add(&a, &b);
        for (x, y) in [(0u64, 0u64), (3, 5), (200, 100), (255, 1), (127, 128)] {
            let mut asg = assigns_for(&a, x);
            asg.extend(assigns_for(&b, y));
            assert_eq!(word_val(&nl, &sum, &asg), (x + y) & 0xff, "{x}+{y}");
        }
    }

    #[test]
    fn subtractor_subtracts() {
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", 8);
        let b = WordBuilder::input_word(&mut nl, "b", 8);
        let d = WordBuilder::new(&mut nl).sub(&a, &b);
        for (x, y) in [(5u64, 3u64), (3, 5), (0, 1), (255, 255), (128, 1)] {
            let mut asg = assigns_for(&a, x);
            asg.extend(assigns_for(&b, y));
            assert_eq!(word_val(&nl, &d, &asg), x.wrapping_sub(y) & 0xff, "{x}-{y}");
        }
    }

    #[test]
    fn multiplier_multiplies() {
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", 8);
        let b = WordBuilder::input_word(&mut nl, "b", 8);
        let p = WordBuilder::new(&mut nl).mul(&a, &b);
        for (x, y) in [(0u64, 7u64), (3, 5), (15, 17), (255, 255), (12, 12)] {
            let mut asg = assigns_for(&a, x);
            asg.extend(assigns_for(&b, y));
            assert_eq!(word_val(&nl, &p, &asg), (x * y) & 0xff, "{x}*{y}");
        }
    }

    #[test]
    fn comparators_compare() {
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", 6);
        let b = WordBuilder::input_word(&mut nl, "b", 6);
        let mut wb = WordBuilder::new(&mut nl);
        let lt = wb.lt(&a, &b);
        let gt = wb.gt(&a, &b);
        let eq = wb.eq(&a, &b);
        for (x, y) in [(0u64, 0u64), (1, 2), (2, 1), (63, 62), (31, 31)] {
            let mut asg = assigns_for(&a, x);
            asg.extend(assigns_for(&b, y));
            assert_eq!(word_val(&nl, &[lt], &asg) == 1, x < y, "{x}<{y}");
            assert_eq!(word_val(&nl, &[gt], &asg) == 1, x > y, "{x}>{y}");
            assert_eq!(word_val(&nl, &[eq], &asg) == 1, x == y, "{x}=={y}");
        }
    }

    #[test]
    fn shifts_shift() {
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", 8);
        let mut wb = WordBuilder::new(&mut nl);
        let l = wb.shl(&a);
        let r = wb.shr(&a);
        let asg = assigns_for(&a, 0b1011_0110);
        assert_eq!(word_val(&nl, &l, &asg), 0b0110_1100);
        assert_eq!(word_val(&nl, &r, &asg), 0b0101_1011);
    }

    #[test]
    fn const_word_encodes_value() {
        let mut nl = Netlist::new();
        let mut wb = WordBuilder::new(&mut nl);
        let w = wb.const_word(0x5a, 8);
        assert_eq!(word_val(&nl, &w, &[]), 0x5a);
    }

    #[test]
    fn mux_selects() {
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", 4);
        let b = WordBuilder::input_word(&mut nl, "b", 4);
        let s = nl.input("s");
        let m = WordBuilder::new(&mut nl).mux(s, &a, &b);
        let mut asg = assigns_for(&a, 0b0011);
        asg.extend(assigns_for(&b, 0b1100));
        asg.push((s, false));
        assert_eq!(word_val(&nl, &m, &asg), 0b0011);
        let mut asg2 = assigns_for(&a, 0b0011);
        asg2.extend(assigns_for(&b, 0b1100));
        asg2.push((s, true));
        assert_eq!(word_val(&nl, &m, &asg2), 0b1100);
    }
}
