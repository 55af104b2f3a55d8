//! Property-based tests for the word-level generators: every arithmetic
//! macro must agree with the corresponding machine arithmetic on random
//! operands at random widths.

use hlts_netlist::{GateId, GateKind, Netlist, WordBuilder};
use proptest::prelude::*;

/// Evaluate a combinational netlist on one pattern.
fn eval(nl: &Netlist, assigns: &[(GateId, bool)], word: &[GateId]) -> u64 {
    let mut vals = vec![0u64; nl.num_gates()];
    for (i, g) in nl.gates().iter().enumerate() {
        if matches!(g.kind(), GateKind::Const1) {
            vals[i] = !0;
        }
    }
    for &(g, v) in assigns {
        vals[g.index()] = if v { !0 } else { 0 };
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
    word.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &g)| acc | ((vals[g.index()] & 1) << i))
}

fn assigns_for(word: &[GateId], value: u64) -> Vec<(GateId, bool)> {
    word.iter()
        .enumerate()
        .map(|(i, &g)| (g, (value >> i) & 1 == 1))
        .collect()
}

proptest! {
    #[test]
    fn adder_matches_machine_addition(bits in 2u32..12, x in any::<u64>(), y in any::<u64>()) {
        let mask = (1u64 << bits) - 1;
        let (x, y) = (x & mask, y & mask);
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", bits);
        let b = WordBuilder::input_word(&mut nl, "b", bits);
        let sum = WordBuilder::new(&mut nl).add(&a, &b);
        let mut asg = assigns_for(&a, x);
        asg.extend(assigns_for(&b, y));
        prop_assert_eq!(eval(&nl, &asg, &sum), x.wrapping_add(y) & mask);
    }

    #[test]
    fn subtractor_matches_machine_subtraction(bits in 2u32..12, x in any::<u64>(), y in any::<u64>()) {
        let mask = (1u64 << bits) - 1;
        let (x, y) = (x & mask, y & mask);
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", bits);
        let b = WordBuilder::input_word(&mut nl, "b", bits);
        let diff = WordBuilder::new(&mut nl).sub(&a, &b);
        let mut asg = assigns_for(&a, x);
        asg.extend(assigns_for(&b, y));
        prop_assert_eq!(eval(&nl, &asg, &diff), x.wrapping_sub(y) & mask);
    }

    #[test]
    fn multiplier_matches_machine_multiplication(bits in 2u32..10, x in any::<u64>(), y in any::<u64>()) {
        let mask = (1u64 << bits) - 1;
        let (x, y) = (x & mask, y & mask);
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", bits);
        let b = WordBuilder::input_word(&mut nl, "b", bits);
        let prod = WordBuilder::new(&mut nl).mul(&a, &b);
        let mut asg = assigns_for(&a, x);
        asg.extend(assigns_for(&b, y));
        prop_assert_eq!(eval(&nl, &asg, &prod), x.wrapping_mul(y) & mask);
    }

    #[test]
    fn comparators_match_machine_comparisons(bits in 2u32..12, x in any::<u64>(), y in any::<u64>()) {
        let mask = (1u64 << bits) - 1;
        let (x, y) = (x & mask, y & mask);
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", bits);
        let b = WordBuilder::input_word(&mut nl, "b", bits);
        let mut wb = WordBuilder::new(&mut nl);
        let lt = wb.lt(&a, &b);
        let gt = wb.gt(&a, &b);
        let eq = wb.eq(&a, &b);
        let mut asg = assigns_for(&a, x);
        asg.extend(assigns_for(&b, y));
        prop_assert_eq!(eval(&nl, &asg.clone(), &[lt]) == 1, x < y);
        prop_assert_eq!(eval(&nl, &asg.clone(), &[gt]) == 1, x > y);
        prop_assert_eq!(eval(&nl, &asg, &[eq]) == 1, x == y);
    }

    #[test]
    fn const_word_roundtrips(bits in 1u32..16, v in any::<i64>()) {
        let mask = (1u64 << bits) - 1;
        let mut nl = Netlist::new();
        let w = WordBuilder::new(&mut nl).const_word(v, bits);
        prop_assert_eq!(eval(&nl, &[], &w), (v as u64) & mask);
    }

    #[test]
    fn mux_selects_either_side(bits in 1u32..12, x in any::<u64>(), y in any::<u64>(), sel in any::<bool>()) {
        let mask = (1u64 << bits) - 1;
        let (x, y) = (x & mask, y & mask);
        let mut nl = Netlist::new();
        let a = WordBuilder::input_word(&mut nl, "a", bits);
        let b = WordBuilder::input_word(&mut nl, "b", bits);
        let s = nl.input("s");
        let m = WordBuilder::new(&mut nl).mux(s, &a, &b);
        let mut asg = assigns_for(&a, x);
        asg.extend(assigns_for(&b, y));
        asg.push((s, sel));
        prop_assert_eq!(eval(&nl, &asg, &m), if sel { y } else { x });
    }
}
