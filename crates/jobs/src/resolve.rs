//! The one mapping from a declarative [`JobRequest`] to an executable
//! [`JobSpec`].
//!
//! `hlts run`, `hlts explore` and the daemon all resolve requests here
//! (`hlts submit` sends the same request to a daemon), so they load and
//! name sources, derive flow defaults and apply k/α/β overrides the same
//! way. They differ only in the [`PathSources`] policy and in the
//! [`WarmPool`](crate::WarmPool) they execute the spec against.

use hlts_core::EvalMode;
use hlts_dse::{ExploreConfig, SweepSpec, TcovSweep};

use crate::engine::JobSpec;
use crate::proto::{JobRequest, RunRequest, SourceRef};

/// Whether a request may name files on the resolving host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSources {
    /// Read [`SourceRef::Path`] sources (the CLI, `hlts serve`'s stdin).
    Allow,
    /// Refuse them unread (a TCP daemon: any client that can reach the
    /// port would otherwise read the daemon's files).
    Refuse,
}

/// FNV-1a over the canonical source text: the warm-context key for
/// run jobs (same text + same bits ⇒ same shared context; every request
/// synthesizes with the default module library, which the key
/// therefore need not encode).
fn warm_key(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Load a source into (display name, graph, canonical text).
fn resolve_source(
    source: &SourceRef,
    paths: PathSources,
) -> Result<(String, hlts_dfg::Dfg, String), String> {
    let (text, label) = match source {
        SourceRef::Bench(name) => {
            let dfg = hlts_benchmarks::by_name(name).ok_or_else(|| {
                format!(
                    "unknown benchmark `{name}` (have: {})",
                    hlts_benchmarks::NAMES.join(", ")
                )
            })?;
            let text = hlts_dfg::emit(&dfg).map_err(|e| e.to_string())?;
            return Ok((source.name(), dfg, text));
        }
        SourceRef::Path(path) => {
            if paths == PathSources::Refuse {
                return Err(format!(
                    "{path}: path sources are refused over TCP; \
                     send a `bench:` name or the graph text inline"
                ));
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            (text, path.clone())
        }
        SourceRef::Inline { name, text } => (text.clone(), name.clone()),
    };
    let dfg = hlts_dfg::parse(&text).map_err(|e| format!("{label}: {e}"))?;
    Ok((source.name(), dfg, text))
}

/// Turn a parsed request into the spec [`execute`](crate::execute)
/// runs: load its sources, derive run parameters from
/// [`Flow::paper_defaults`](hlts_dse::Flow::paper_defaults) with the
/// request's k/α/β overrides, and validate them, so a bad request is
/// refused before it is queued.
///
/// # Errors
///
/// An unknown benchmark or preset, an unreadable, refused or
/// ill-formed source, or invalid parameters (e.g. `bits = 0`).
pub fn resolve_job(job: &JobRequest, paths: PathSources) -> Result<JobSpec, String> {
    match job {
        JobRequest::Run(RunRequest {
            source,
            flow,
            bits,
            k,
            alpha,
            beta,
            atpg,
        }) => {
            let (name, dfg, text) = resolve_source(source, paths)?;
            let mut params = flow.paper_defaults(*bits);
            params.k = k.unwrap_or(params.k);
            params.alpha = alpha.unwrap_or(params.alpha);
            params.beta = beta.unwrap_or(params.beta);
            params.validate().map_err(|e| e.to_string())?;
            Ok(JobSpec::Run {
                name,
                warm: Some(warm_key(&text)),
                dfg,
                flow: *flow,
                params,
                mode: EvalMode::Sequential,
                atpg: *atpg,
            })
        }
        JobRequest::Explore {
            sources,
            flows,
            ks,
            weights,
            bits,
            jobs,
            atpg,
            warm_start,
        } => {
            let mut benches = Vec::new();
            for source in sources {
                let (name, dfg, _) = resolve_source(source, paths)?;
                benches.push((name, dfg));
            }
            let spec = SweepSpec {
                benches,
                flows: flows.clone(),
                ks: ks.clone(),
                weights: weights.clone(),
                bits: bits.clone(),
                extra: Vec::new(),
                // Sweep points grade one at a time (the sweep workers
                // are the parallelism), so only the sample carries over;
                // it joins the sweep fingerprint.
                tcov: atpg.map(|req| TcovSweep {
                    fault_sample: req.fault_sample.unwrap_or(0),
                }),
                warm_start: *warm_start,
            };
            spec.points().map_err(|e| e.to_string())?;
            let cfg = ExploreConfig {
                jobs: *jobs,
                ..ExploreConfig::default()
            };
            Ok(JobSpec::Explore { spec, cfg })
        }
        JobRequest::Gen { seed, preset } => {
            let cfg = hlts_gen::preset(preset).ok_or_else(|| {
                format!(
                    "unknown preset `{preset}` (have: {})",
                    hlts_gen::PRESET_NAMES.join(", ")
                )
            })?;
            Ok(JobSpec::Gen { seed: *seed, cfg })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_key_distinguishes_texts() {
        assert_eq!(warm_key("abc"), warm_key("abc"));
        assert_ne!(warm_key("abc"), warm_key("abd"));
        assert_ne!(warm_key(""), warm_key("a"));
    }

    /// Allowed paths are read; refused ones fail before the file is
    /// opened (this one exists, and is not a graph).
    #[test]
    fn path_sources_resolve_only_when_allowed() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let source = SourceRef::Path(manifest.to_owned());
        let allowed = resolve_source(&source, PathSources::Allow).unwrap_err();
        assert!(allowed.starts_with(manifest), "{allowed}");
        assert!(!allowed.contains("refused"), "the file was not read: {allowed}");
        let refused = resolve_source(&source, PathSources::Refuse).unwrap_err();
        assert!(refused.contains("refused over TCP"), "unexpected error: {refused}");
        let bench = SourceRef::Bench("ex".to_owned());
        assert!(resolve_source(&bench, PathSources::Refuse).is_ok());
    }

    #[test]
    fn invalid_parameters_are_refused_before_execution() {
        let run = JobRequest::Run(RunRequest {
            source: SourceRef::Bench("ex".to_owned()),
            flow: hlts_dse::Flow::Ours,
            bits: 0,
            k: None,
            alpha: None,
            beta: None,
            atpg: None,
        });
        let e = resolve_job(&run, PathSources::Allow).unwrap_err();
        assert!(e.contains("bits"), "{e}");
    }
}
