//! Deterministic sweep specification: the grid of parameter points a
//! design-space exploration evaluates, with stable point IDs.

use hlts_core::SynthesisParams;
use hlts_dfg::Dfg;

use crate::DseError;

/// Which synthesis flow a sweep point runs (the CLI's `--flow` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Flow {
    /// Algorithm 1, the paper's integrated synthesizer. The only flow
    /// that exercises the shared per-behavior caches.
    #[default]
    Ours,
    /// CAMAD-style connectivity-driven synthesis.
    Camad,
    /// Force-directed scheduling + Lee allocation.
    Approach1,
    /// Mobility-path scheduling + modified left-edge allocation.
    Approach2,
}

impl Flow {
    /// Every flow, in canonical order.
    pub const ALL: [Flow; 4] = [Flow::Ours, Flow::Camad, Flow::Approach1, Flow::Approach2];

    /// The flow's canonical (CLI/journal) name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Flow::Ours => "ours",
            Flow::Camad => "camad",
            Flow::Approach1 => "approach1",
            Flow::Approach2 => "approach2",
        }
    }

    /// Parse a canonical name back to a flow.
    #[must_use]
    pub fn parse(s: &str) -> Option<Flow> {
        Flow::ALL.into_iter().find(|f| f.name() == s)
    }

    /// The parameters a one-shot run of this flow starts from at
    /// `bits`: the paper's `(k, α, β)` set for the width
    /// ([`SynthesisParams::paper_defaults`]), except that CAMAD takes
    /// its area-optimized weights (α 0.1, β 10), as in the paper's
    /// "area-optimized benchmark" rows. Callers apply their own
    /// k/α/β overrides on top.
    #[must_use]
    pub fn paper_defaults(self, bits: u32) -> SynthesisParams {
        let params = SynthesisParams::paper_defaults(bits);
        match self {
            Flow::Camad => SynthesisParams {
                alpha: 0.1,
                beta: 10.0,
                ..params
            },
            Flow::Ours | Flow::Approach1 | Flow::Approach2 => params,
        }
    }
}

impl std::fmt::Display for Flow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The user parameters of one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointParams {
    /// Name of the behavior (must match a [`SweepSpec::benches`] entry).
    pub bench: String,
    /// The synthesis flow.
    pub flow: Flow,
    /// The paper's shortlist size `k`.
    pub k: usize,
    /// ΔE weight α.
    pub alpha: f64,
    /// ΔH weight β.
    pub beta: f64,
    /// Data-path bit width.
    pub bits: u32,
}

impl PointParams {
    /// The [`SynthesisParams`] this point runs with (everything not
    /// swept stays at the library defaults).
    #[must_use]
    pub fn synthesis_params(&self) -> SynthesisParams {
        SynthesisParams {
            k: self.k,
            alpha: self.alpha,
            beta: self.beta,
            bits: self.bits,
            ..SynthesisParams::default()
        }
    }

    /// The canonical `key=value` encoding used by journals and the
    /// spec fingerprint. Floats use Rust's shortest round-trip format,
    /// so parsing the key back recovers them bit-exactly.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "bench={} flow={} k={} alpha={:?} beta={:?} bits={}",
            self.bench, self.flow, self.k, self.alpha, self.beta, self.bits
        )
    }

    /// Validate the point: the synthesis parameters by
    /// [`SynthesisParams::validate`] (positive `k` and `bits`, finite
    /// non-negative weights), plus a journal-safe bench name.
    pub(crate) fn validate(&self) -> Result<(), DseError> {
        self.synthesis_params()
            .validate()
            .map_err(|e| DseError::Spec(e.to_string()))?;
        if self.bench.is_empty() || self.bench.chars().any(char::is_whitespace) {
            return Err(DseError::Spec(format!(
                "bench name `{}` must be non-empty and whitespace-free",
                self.bench
            )));
        }
        Ok(())
    }
}

/// One enumerated point of a sweep: a stable ID plus its parameters.
///
/// IDs are positions in the deterministic grid enumeration of
/// [`SweepSpec::points`], so a given spec always assigns a given
/// parameter combination the same ID — the invariant checkpoints,
/// resume and the order-independent Pareto merge rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Stable index into the spec's enumeration.
    pub id: usize,
    /// The point's parameters.
    pub params: PointParams,
}

/// Coverage-grading configuration of a sweep: when present, every
/// completed point is elaborated to gates and graded with `hlts-tcov`,
/// and the Pareto front gains the measured (coverage, test-cycle) axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcovSweep {
    /// Collapsed-fault sample size per point; `0` grades the full
    /// collapsed fault list (exhaustive).
    pub fault_sample: usize,
}

impl TcovSweep {
    /// The sample size as the grader's `Option` (`0` → exhaustive).
    #[must_use]
    pub fn sample(&self) -> Option<usize> {
        (self.fault_sample > 0).then_some(self.fault_sample)
    }
}

/// A sweep: the cross product of benches × flows × k × (α, β) × bits,
/// plus an explicit extra point list.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The behaviors to synthesize, as (name, graph) pairs.
    pub benches: Vec<(String, Dfg)>,
    /// Flows of the grid.
    pub flows: Vec<Flow>,
    /// Shortlist sizes of the grid.
    pub ks: Vec<usize>,
    /// (α, β) weight pairs of the grid.
    pub weights: Vec<(f64, f64)>,
    /// Bit widths of the grid.
    pub bits: Vec<u32>,
    /// Explicit additional points appended after the grid (their
    /// `bench` must name a [`SweepSpec::benches`] entry).
    pub extra: Vec<PointParams>,
    /// Grade every point's fault coverage (`--atpg`). Changes the
    /// fingerprint — a coverage journal cannot resume a plain sweep or
    /// vice versa.
    pub tcov: Option<TcovSweep>,
    /// Seed each point from its nearest completed neighbour's
    /// accepted-merge trace (`--warm-start on`). Changes the
    /// fingerprint — a trace-bearing journal cannot resume a legacy
    /// sweep or vice versa (see [`TRACE_SCHEMA`]).
    pub warm_start: bool,
}

/// Version of the journal's `trace` line encoding, folded into the
/// fingerprint of warm-start sweeps: bumping it when the encoding
/// changes makes `--resume` refuse old trace-bearing journals instead
/// of silently replaying a half-understood schema.
pub const TRACE_SCHEMA: u32 = 1;

impl SweepSpec {
    /// A sweep over `benches` with the paper's default grid axes:
    /// flow `ours`, `k = 3`, weights `(2, 1)`, 8-bit.
    #[must_use]
    pub fn new(benches: Vec<(String, Dfg)>) -> Self {
        SweepSpec {
            benches,
            flows: vec![Flow::Ours],
            ks: vec![3],
            weights: vec![(2.0, 1.0)],
            bits: vec![8],
            extra: Vec::new(),
            tcov: None,
            warm_start: false,
        }
    }

    /// Enumerate the sweep deterministically: bench-major, then flow,
    /// `k`, weights, bits, with [`SweepSpec::extra`] appended last.
    /// Point IDs are the positions in this enumeration.
    ///
    /// # Errors
    ///
    /// Rejects empty axes, invalid parameters (`k = 0`, `bits = 0`,
    /// non-finite or negative weights), unknown bench names in `extra`,
    /// and duplicate bench names.
    pub fn points(&self) -> Result<Vec<SweepPoint>, DseError> {
        if self.benches.is_empty() {
            return Err(DseError::Spec("sweep needs at least one bench".into()));
        }
        let axes = [
            (self.flows.is_empty(), "flows"),
            (self.ks.is_empty(), "ks"),
            (self.weights.is_empty(), "weights"),
            (self.bits.is_empty(), "bits"),
        ];
        if let Some((_, axis)) = axes.iter().find(|(empty, _)| *empty) {
            return Err(DseError::Spec(format!("sweep axis `{axis}` is empty")));
        }
        for (i, (name, _)) in self.benches.iter().enumerate() {
            if self.benches[..i].iter().any(|(n, _)| n == name) {
                return Err(DseError::Spec(format!("duplicate bench name `{name}`")));
            }
        }
        let mut out = Vec::new();
        for (bench, _) in &self.benches {
            for &flow in &self.flows {
                for &k in &self.ks {
                    for &(alpha, beta) in &self.weights {
                        for &bits in &self.bits {
                            out.push(PointParams {
                                bench: bench.clone(),
                                flow,
                                k,
                                alpha,
                                beta,
                                bits,
                            });
                        }
                    }
                }
            }
        }
        out.extend(self.extra.iter().cloned());
        for p in &out {
            p.validate()?;
            if !self.benches.iter().any(|(n, _)| *n == p.bench) {
                return Err(DseError::Spec(format!(
                    "extra point names unknown bench `{}`",
                    p.bench
                )));
            }
        }
        Ok(out
            .into_iter()
            .enumerate()
            .map(|(id, params)| SweepPoint { id, params })
            .collect())
    }

    /// A 64-bit fingerprint of the enumerated sweep (FNV-1a over every
    /// point's canonical key). Journals record it so a resume against a
    /// different spec is rejected instead of silently mis-assigning IDs.
    ///
    /// # Errors
    ///
    /// As [`SweepSpec::points`].
    pub fn fingerprint(&self) -> Result<u64, DseError> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |text: String| {
            for byte in text.bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for p in self.points()? {
            mix(format!("{} {}\n", p.id, p.params.key()));
        }
        // Appended only when grading is on, so every pre-existing plain
        // journal keeps its fingerprint bit-for-bit.
        if let Some(t) = &self.tcov {
            mix(format!("tcov fault_sample={}\n", t.fault_sample));
        }
        // Likewise gated: a warm-start journal carries `trace` lines, so
        // `--resume` must refuse to mix it with a legacy journal (and
        // with any future trace schema) rather than silently replaying a
        // half-understood file.
        if self.warm_start {
            mix(format!("warm-start trace-schema={TRACE_SCHEMA}\n"));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> (String, Dfg) {
        (
            "t".into(),
            hlts_dfg::parse("dfg t { input a, b; N1: s = a + b; N2: p = s * b; output p; }")
                .unwrap(),
        )
    }

    #[test]
    fn grid_enumeration_is_stable_and_bench_major() {
        let mut spec = SweepSpec::new(vec![bench()]);
        spec.ks = vec![1, 3];
        spec.weights = vec![(2.0, 1.0), (1.0, 10.0)];
        let pts = spec.points().unwrap();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].id, 0);
        assert_eq!((pts[0].params.k, pts[0].params.alpha), (1, 2.0));
        assert_eq!((pts[1].params.k, pts[1].params.alpha), (1, 1.0));
        assert_eq!((pts[3].params.k, pts[3].params.alpha), (3, 1.0));
        assert_eq!(
            spec.fingerprint().unwrap(),
            spec.fingerprint().unwrap(),
            "fingerprint is a pure function of the spec"
        );
    }

    #[test]
    fn invalid_points_are_rejected() {
        let mut spec = SweepSpec::new(vec![bench()]);
        spec.ks = vec![0];
        assert!(spec.points().is_err());
        spec.ks = vec![1];
        spec.weights = vec![(f64::NAN, 1.0)];
        assert!(spec.points().is_err());
        spec.weights = vec![(-1.0, 1.0)];
        assert!(spec.points().is_err());
        spec.weights = vec![(1.0, 1.0)];
        spec.bits = vec![8, 0];
        let e = spec.points().unwrap_err().to_string();
        assert!(e.contains("bits"), "{e}");
        spec.bits = vec![8];
        spec.extra.push(PointParams {
            bench: "missing".into(),
            flow: Flow::Ours,
            k: 1,
            alpha: 1.0,
            beta: 1.0,
            bits: 8,
        });
        assert!(spec.points().is_err());
    }

    #[test]
    fn tcov_changes_the_fingerprint_plain_spec_does_not() {
        let plain = SweepSpec::new(vec![bench()]);
        let mut graded = plain.clone();
        graded.tcov = Some(TcovSweep { fault_sample: 500 });
        let mut exhaustive = plain.clone();
        exhaustive.tcov = Some(TcovSweep { fault_sample: 0 });
        let fp = plain.fingerprint().unwrap();
        assert_ne!(fp, graded.fingerprint().unwrap());
        assert_ne!(
            graded.fingerprint().unwrap(),
            exhaustive.fingerprint().unwrap(),
            "the sample size is part of what a journal certifies"
        );
        assert_eq!(TcovSweep { fault_sample: 0 }.sample(), None);
        assert_eq!(TcovSweep { fault_sample: 9 }.sample(), Some(9));
    }

    #[test]
    fn warm_start_changes_the_fingerprint_plain_spec_does_not() {
        let plain = SweepSpec::new(vec![bench()]);
        let mut warm = plain.clone();
        warm.warm_start = true;
        assert_ne!(
            plain.fingerprint().unwrap(),
            warm.fingerprint().unwrap(),
            "a trace-bearing journal must not resume a legacy sweep"
        );
    }

    #[test]
    fn params_key_roundtrips_floats() {
        let p = PointParams {
            bench: "t".into(),
            flow: Flow::Ours,
            k: 3,
            alpha: 0.1,
            beta: 10.0,
            bits: 8,
        };
        assert_eq!(p.key(), "bench=t flow=ours k=3 alpha=0.1 beta=10.0 bits=8");
    }

    #[test]
    fn flow_names_roundtrip() {
        for f in Flow::ALL {
            assert_eq!(Flow::parse(f.name()), Some(f));
        }
        assert_eq!(Flow::parse("nope"), None);
    }
}
