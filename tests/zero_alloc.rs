//! Counting-allocator proof of the arena refactor's headline claim:
//! once warmed up, a trial merge (apply → price → roll back) performs
//! **zero heap allocations** — and of the gate-level kernel's: fault
//! simulation and PODEM implication allocate nothing per gate, per
//! cycle or per implication.
//!
//! Compiled only under the `count-allocs` feature — the test binary
//! swaps in a byte/call-counting `#[global_allocator]`, which would
//! skew every other suite's timings. CI runs it in release:
//!
//! ```text
//! cargo test --release --features count-allocs --test zero_alloc
//! ```
//!
//! The measured loop uses **order-forced** candidates (the precedence
//! relation fixes every merge-sort decision), because a free ordering
//! decision triggers the SR2 merit probe, which legitimately lowers the
//! state to ETPN — a cold, allocating analysis outside the steady-state
//! trial path. The strict zero assertion runs in release only: debug
//! builds re-audit the whole design after every rollback, and the
//! auditor allocates by design.
#![cfg(feature = "count-allocs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use hlts::atpg::{Fault, FaultSimulator, FaultSite, FaultUniverse, PiAssign, Podem, PodemOutcome};
use hlts::etpn::Etpn;
use hlts::netlist::{elaborate, GateKind, Netlist};
use hlts_core::{
    trial_merge, DesignState, IntegratedSynthesizer, MergeKind, OrderStrategy, SynthesisParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pass-through allocator that tallies every allocation of the calling
/// thread. Per-thread counters keep the libtest harness threads (which
/// may allocate while the test runs) out of the measurement. `dealloc`
/// is not counted: rollback must not *allocate*, but dropping warmed
/// buffers at thread exit is fine.
struct CountingAlloc;

thread_local! {
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// `try_with` because an allocation during TLS teardown must still be
/// served, just not counted.
fn tally(bytes: usize) {
    let _ = TL_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    let _ = TL_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation (bytes, calls) performed by this thread while running `f`.
fn measured<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let b0 = TL_BYTES.with(Cell::get);
    let c0 = TL_CALLS.with(Cell::get);
    let r = f();
    (
        TL_BYTES.with(Cell::get) - b0,
        TL_CALLS.with(Cell::get) - c0,
        r,
    )
}

const STRATEGY: OrderStrategy = OrderStrategy::CoEnhancement;

fn price(t: &DesignState) -> Option<f64> {
    Some(t.schedule.num_steps() as f64)
}

/// Feasible candidates whose every ordering decision is already forced
/// by the precedence relation, so no trial consults the SR2 merit
/// probe. With the initial one-to-one binding each module holds one op
/// and each register one value, making forcedness a single
/// reachability test per pair.
fn forced_shortlist(state: &mut DesignState, k: usize) -> Vec<MergeKind> {
    let mut out = Vec::new();
    let mods: Vec<(_, _)> = state
        .allocation
        .modules()
        .map(|m| (m.id(), m.ops()[0]))
        .collect();
    'mods: for i in 0..mods.len() {
        for j in (i + 1)..mods.len() {
            let ((ma, oa), (mb, ob)) = (mods[i], mods[j]);
            if !(state.dfg.reaches(oa, ob) || state.dfg.reaches(ob, oa)) {
                continue; // free decision: SR2 would lower to ETPN
            }
            let kind = MergeKind::Modules(ma, mb);
            if trial_merge(state, kind, STRATEGY, price).is_some() {
                out.push(kind);
                if out.len() >= k {
                    break 'mods;
                }
            }
        }
    }
    let module_cands = out.len();
    let regs: Vec<(_, _)> = state
        .allocation
        .registers()
        .map(|r| (r.id(), r.values()[0]))
        .collect();
    'regs: for i in 0..regs.len() {
        for j in (i + 1)..regs.len() {
            let ((ra, va), (rb, vb)) = (regs[i], regs[j]);
            // One value's definition must reach the other's: the
            // reverse lifetime order is then cyclic, so the pair probe
            // is decided without an SR2 merit comparison.
            let forced = match (state.dfg.def_of(va), state.dfg.def_of(vb)) {
                (Some(da), Some(db)) => state.dfg.reaches(da, db) || state.dfg.reaches(db, da),
                _ => false,
            };
            if !forced {
                continue;
            }
            let kind = MergeKind::Registers(ra, rb);
            if trial_merge(state, kind, STRATEGY, price).is_some() {
                out.push(kind);
                if out.len() >= module_cands + k {
                    break 'regs;
                }
            }
        }
    }
    assert!(
        module_cands >= 1 && out.len() > module_cands,
        "need both module and register candidates (got {module_cands} + {})",
        out.len() - module_cands
    );
    out
}

#[test]
fn steady_state_trial_merge_allocates_zero_bytes() {
    let (name, dfg) = hlts_benchmarks::all()
        .into_iter()
        .max_by_key(|(_, d)| d.num_ops())
        .expect("bundled benchmarks");
    assert_eq!(name, "ewf", "largest bundled benchmark changed");
    let mut state = DesignState::initial(&dfg).expect("initial state");
    let cands = forced_shortlist(&mut state, 4);

    // Warm-up: first trials size the thread-local scratch pools, the
    // overlay adjacency capacity and the txn journal pool.
    for _ in 0..3 {
        for &kind in &cands {
            assert!(trial_merge(&mut state, kind, STRATEGY, price).is_some());
        }
    }

    let iters = 25;
    let mut per_trial: Vec<(usize, usize, u64, u64)> = Vec::with_capacity(iters * cands.len());
    let (bytes, calls, ()) = measured(|| {
        for it in 0..iters {
            for (ci, &kind) in cands.iter().enumerate() {
                let (b, c, priced) = measured(|| trial_merge(&mut state, kind, STRATEGY, price));
                assert!(priced.is_some());
                per_trial.push((it, ci, b, c));
            }
        }
    });
    for &(it, ci, b, c) in per_trial.iter().filter(|t| t.3 > 0) {
        println!("iter {it} cand {ci} ({:?}): {b} bytes / {c} allocs", cands[ci]);
    }
    let trials = iters * cands.len();
    println!(
        "{name}: {trials} steady-state trials over {} candidates: \
         {bytes} bytes in {calls} allocations",
        cands.len()
    );
    // Debug builds re-audit the rolled-back design after every trial
    // (hlts-check allocates its report) — the zero claim is about the
    // shipping configuration.
    #[cfg(not(debug_assertions))]
    assert_eq!(
        (bytes, calls),
        (0, 0),
        "steady-state trial merges must not touch the heap"
    );
    // Keep the trial results observable so the loop cannot be elided.
    assert!(state.validate().is_ok());
}

/// The ex benchmark synthesized with the paper defaults and elaborated
/// at `bits`, with its schedule length.
fn ex_netlist(bits: u32) -> (Netlist, usize) {
    let r = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(bits))
        .run(&hlts_benchmarks::ex())
        .expect("synthesis succeeds");
    let etpn = Etpn::from_parts(&r.dfg, &r.schedule, &r.allocation).expect("etpn builds");
    let nl = elaborate(&r.dfg, &r.schedule, &r.allocation, &etpn, bits).expect("elaborates");
    (nl, r.schedule.num_steps())
}

/// Every `detects` call that simulates at all allocates the same
/// number of times — its per-call buffers — whatever the netlist size
/// and the sequence length: nothing per gate, nothing per cycle.
#[test]
fn fault_simulation_allocates_per_call_only() {
    let mut per_call = BTreeSet::new();
    for bits in [4, 16] {
        let (nl, _) = ex_netlist(bits);
        let universe = FaultUniverse::collapsed(&nl).sampled(100, 1);
        let mut fs = FaultSimulator::new(nl.clone());
        for cycles in [1, 20] {
            let mut rng = StdRng::seed_from_u64(3);
            let seq: Vec<PiAssign> = (0..cycles)
                .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
                .collect();
            let trace = fs.good_trace(&seq);
            for &f in universe.faults() {
                // A fault never activated returns before simulating.
                let (_, calls, _) = measured(|| fs.detects(&trace, &seq, f));
                if calls > 0 {
                    per_call.insert((calls, bits, cycles));
                }
            }
        }
    }
    let counts: BTreeSet<u64> = per_call.iter().map(|&(c, _, _)| c).collect();
    println!("allocations per simulating detects call: {counts:?}");
    assert_eq!(counts.len(), 1, "per-call allocations vary: {per_call:?}");
}

/// A simulating `detects` call allocates the same whether the fault's
/// difference dies out in its first cycle or still travels at cycle 20:
/// the event buffers are sized once per call, never grown per event.
#[test]
fn fault_simulation_allocations_do_not_grow_with_propagation() {
    // a -> 20 flip-flops in a row -> output o; and(b, c) -> output x
    let mut nl = Netlist::new();
    let (a, b, c) = (nl.input("a"), nl.input("b"), nl.input("c"));
    let mut prev = a;
    for i in 0..20 {
        let q = nl.dff(format!("q{i}"));
        nl.connect_dff(q, prev);
        prev = q;
    }
    nl.output("o", prev);
    let x = nl.gate(GateKind::And, &[b, c]);
    nl.output("x", x);
    // a and b rise in cycle 0 only; c stays 0, so b's difference dies
    // at the and gate while a's walks the flip-flops to o at cycle 20
    let seq: Vec<PiAssign> = (0..21)
        .map(|cycle| {
            if cycle == 0 {
                vec![!0, !0, 0]
            } else {
                vec![0; 3]
            }
        })
        .collect();
    let mut fs = FaultSimulator::new(nl);
    let trace = fs.good_trace(&seq);
    let stuck_at_0 = |g| Fault {
        site: FaultSite::Output(g),
        stuck: false,
    };
    let (masked, travelling) = (stuck_at_0(b), stuck_at_0(a));
    let short = &seq[..20];
    let short_trace = fs.good_trace(short);
    assert!(
        !fs.detects(&short_trace, short, travelling),
        "still in flight at cycle 19"
    );
    let (_, dies, masked_hit) = measured(|| fs.detects(&trace, &seq, masked));
    let (_, travels, travelling_hit) = measured(|| fs.detects(&trace, &seq, travelling));
    assert!(!masked_hit && travelling_hit);
    println!("allocations per detects call: {dies} (dies out), {travels} (travels 20 cycles)");
    assert_eq!(dies, travels, "allocations grow with propagation");
}

/// A warmed PODEM call on a target that aborts allocates the same at
/// backtrack limit 10 and 40: four times the decisions and
/// implications cost no extra allocation.
#[test]
fn podem_implication_does_not_allocate() {
    let (nl, steps) = ex_netlist(4);
    let universe = FaultUniverse::collapsed(&nl).sampled(200, 1);
    let target = universe.faults()[0];
    let mut counts = Vec::new();
    for limit in [10, 40] {
        let mut podem = Podem::new(nl.clone(), steps + 3, limit);
        assert_eq!(podem.generate_seeded(target, None), PodemOutcome::Aborted);
        let (_, calls, outcome) = measured(|| podem.generate_seeded(target, None));
        assert_eq!(outcome, PodemOutcome::Aborted);
        counts.push(calls);
    }
    println!("allocations per warmed aborting PODEM call at limits 10 and 40: {counts:?}");
    assert_eq!(counts[0], counts[1], "allocations grow with the backtrack limit");
}
