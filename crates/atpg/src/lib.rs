//! # hlts-atpg — stuck-at test generation over gate netlists
//!
//! The test substrate behind the paper's fault-coverage / test-
//! generation-time / test-cycle columns. The paper's testability metric
//! "assumes that a stuck-at fault model is used and ATPG is random
//! and/or deterministic ... many ATPG's start by using random test
//! generation to cover as many faults as possible and then switch to
//! deterministic test generation" (§2). This crate holds the pieces of
//! that two-phase flow; `hlts-tcov`'s `grade` drives them (random
//! sequences through the fault simulator, then PODEM on what is left):
//!
//! * [`FaultUniverse`] — single stuck-at faults on gate outputs and
//!   inputs, with structural equivalence collapsing and optional
//!   sampling;
//! * [`FaultSimulator`] — serial-fault, parallel-pattern fault
//!   simulation with fault dropping;
//! * [`Podem`] — deterministic PODEM over a time-frame-expanded model
//!   (reset state, bounded frames, bounded backtracks);
//! * [`AtpgConfig`] — the flow's knobs (seed, random-sequence budget,
//!   frames, backtrack limit, target cap, fault sampling).
//!
//! Both simulating pieces run on one kernel. Each compiles its netlist
//! once into a levelized tape (gate kinds, CSR fan-in in level order,
//! the fanout of every net, the input map, the flip-flop D map). One
//! rule evaluates a gate and injects a stuck-at fault on that tape, and
//! it runs two ways: a full clock-cycle step, and an event-driven
//! propagation that re-evaluates only the gates whose fan-in changed.
//! The fault simulator steps the good machine once per sequence and
//! then propagates each fault's difference from it; PODEM keeps its
//! frame values across decisions and propagates only what a decision,
//! flip or backtrack changed. The kernel is generic over the value
//! word: the fault simulator runs two-valued `u64` words (64 patterns
//! each), PODEM runs 0/1/X dual-rail words with the good machine and
//! the faulty machine in two lanes of the same word.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod faults;
mod faultsim;
mod podem;
mod tape;

pub use config::AtpgConfig;
pub use faults::{Fault, FaultSite, FaultUniverse};
pub use faultsim::{FaultSimulator, GoodTrace, PiAssign};
pub use podem::{Podem, PodemOutcome};

/// Netlists and faults the equivalence tests of the event-driven
/// kernels run on.
#[cfg(test)]
mod testkit {
    use std::sync::OnceLock;

    use hlts_core::{IntegratedSynthesizer, SynthesisParams};
    use hlts_dfg::Dfg;
    use hlts_etpn::Etpn;
    use hlts_netlist::{elaborate, GateId, GateKind, Netlist};
    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::{Fault, FaultSite};

    /// A named netlist with its schedule length.
    pub(crate) struct Design {
        pub(crate) name: String,
        pub(crate) nl: Netlist,
        pub(crate) steps: usize,
    }

    /// `dfg` synthesized with the paper defaults and elaborated at
    /// `bits`.
    fn synthesize(name: String, dfg: &Dfg, bits: u32) -> Design {
        let r = IntegratedSynthesizer::new(SynthesisParams::paper_defaults(bits))
            .run(dfg)
            .expect("synthesis succeeds");
        let etpn = Etpn::from_parts(&r.dfg, &r.schedule, &r.allocation).expect("etpn builds");
        let nl = elaborate(&r.dfg, &r.schedule, &r.allocation, &etpn, bits).expect("elaborates");
        Design {
            name,
            nl,
            steps: r.schedule.num_steps(),
        }
    }

    /// The six paper designs at 4 bits, then one small generated graph
    /// per generator preset (synthesized once per test binary).
    pub(crate) fn designs() -> &'static [Design] {
        static DESIGNS: OnceLock<Vec<Design>> = OnceLock::new();
        DESIGNS.get_or_init(|| {
            let mut out: Vec<Design> = hlts_benchmarks::all()
                .into_iter()
                .map(|(name, dfg)| synthesize(name.to_owned(), &dfg, 4))
                .collect();
            for (seed, preset) in hlts_gen::PRESET_NAMES.iter().enumerate() {
                let mut cfg = hlts_gen::preset(preset).expect("known preset");
                cfg.ops = cfg.ops.min(12);
                let dfg = hlts_gen::generate(seed as u64, &cfg).expect("generates");
                out.push(synthesize(format!("gen-{preset}"), &dfg, 4));
            }
            out
        })
    }

    /// `per_kind` random faults at each of the four site kinds — a
    /// source output (input, constant or flip-flop Q), a gate output, a
    /// gate input pin, a flip-flop D pin — with random stuck values.
    pub(crate) fn faults_of_every_kind(
        nl: &Netlist,
        rng: &mut StdRng,
        per_kind: usize,
    ) -> Vec<Fault> {
        let is_source = |k: GateKind| {
            matches!(
                k,
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
            )
        };
        let gates: Vec<(GateId, GateKind, usize)> = nl
            .gates()
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId::from_index(i), g.kind(), g.inputs().len()))
            .collect();
        let kinds: [Vec<FaultSite>; 4] = [
            gates
                .iter()
                .filter(|g| is_source(g.1))
                .map(|g| FaultSite::Output(g.0))
                .collect(),
            gates
                .iter()
                .filter(|g| !is_source(g.1))
                .map(|g| FaultSite::Output(g.0))
                .collect(),
            gates
                .iter()
                .filter(|g| !is_source(g.1))
                .flat_map(|g| (0..g.2).map(move |pin| FaultSite::Input(g.0, pin as u8)))
                .collect(),
            gates
                .iter()
                .filter(|g| g.1 == GateKind::Dff)
                .map(|g| FaultSite::Input(g.0, 0))
                .collect(),
        ];
        let mut out = Vec::new();
        for sites in &kinds {
            assert!(!sites.is_empty(), "every site kind occurs");
            for _ in 0..per_kind {
                out.push(Fault {
                    site: sites[rng.gen_range(0..sites.len())],
                    stuck: rng.gen(),
                });
            }
        }
        out
    }

    /// The controller's one-hot walk over `frames` frames on the
    /// `ctrl_*` inputs; data inputs stay free.
    pub(crate) fn one_hot_preset(nl: &Netlist, frames: usize) -> Vec<Vec<Option<bool>>> {
        let ctrl: Vec<usize> = nl
            .inputs()
            .iter()
            .enumerate()
            .filter(|(_, &g)| nl.name(g).is_some_and(|n| n.starts_with("ctrl_")))
            .map(|(i, _)| i)
            .collect();
        (0..frames)
            .map(|f| {
                (0..nl.inputs().len())
                    .map(|i| {
                        let pos = ctrl.iter().position(|&c| c == i)?;
                        Some(f % ctrl.len() == pos)
                    })
                    .collect()
            })
            .collect()
    }
}
