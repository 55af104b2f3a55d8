//! The hlts benchmark: end-to-end metrics of three workloads, and a
//! separately traced run that times each layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload atpg-paper|synth-cli|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); the
//! lines before it print every metric with its unit and spread, the
//! layer split, the output checks and a `record` line with the host,
//! commit, seed and round count. See `perfbench/README.md`.

mod catalog;
mod oneshot;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

/// SplitMix64: the benchmark's own seeded stream (input choice and
/// order), independent of the generator the program uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or(format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (have: {})",
            catalog::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload atpg-paper|synth-cli|serve-mix --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // The benchmark drives the library crates by path; in a directory
    // that holds no library sources it cannot measure anything.
    if !std::path::Path::new("crates/jobs/src").is_dir() {
        eprintln!("perfbench: run from the repository root (crates/ not found)");
        return ExitCode::from(2);
    }
    let report = match args.workload.as_str() {
        "atpg-paper" => oneshot::run(
            oneshot::Kind::AtpgPaper,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "synth-cli" => oneshot::run(oneshot::Kind::SynthCli, args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_shuffles_a_permutation() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
        assert_ne!(v, s);
    }

    #[test]
    fn args_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload serve-mix --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 9, 3, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload synth-cli --trace 2").is_err());
        assert!(parse("--workload synth-cli --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
