//! `fw-benchmark`: the repository's one performance ledger.
//!
//! ```text
//! fw-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fw-benchmark --all [--seed <n>] [--seconds <s>] [--runs <r>]
//! fw-benchmark --smoke
//! fw-benchmark compare A.json B.json
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds `fw-worker` and this
//! binary first. See `benchmark/README.md` for the metrics and workloads.

mod compare;
mod deploy;
mod drive;
mod gen;
mod json;
mod layers;
mod measure;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Seconds one run of the committed `BENCHMARK.json` measures for; sizes in
/// `workloads.rs` are frozen for this length and scale with `--seconds`.
pub const RUN_SECONDS: f64 = 20.0;

/// How much a run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effort {
    /// About how long the run measures for.
    pub seconds: f64,
    /// Measured closed-loop repetitions, after one warm-up.
    pub reps: usize,
    /// Cold set-ups timed.
    pub setups: usize,
    /// Interleaved rounds per A/B probe of the traced run.
    pub rounds: usize,
    /// Steps of the rate ladder the traced run climbs, counted from the top
    /// (the low rates take longest to cover a stream that seals anything).
    pub ladder_steps: usize,
    pub smoke: bool,
}

impl Effort {
    /// A measuring run of `seconds`.
    #[must_use]
    pub fn full(seconds: f64) -> Self {
        Effort {
            seconds,
            reps: 9,
            setups: 21,
            rounds: 3,
            ladder_steps: 4,
            smoke: false,
        }
    }

    /// `--smoke`: every code path and every check, numbers not to be quoted.
    #[must_use]
    pub fn smoke() -> Self {
        Effort {
            seconds: 1.0,
            reps: 2,
            setups: 3,
            rounds: 1,
            ladder_steps: 2,
            smoke: true,
        }
    }

    /// Stream sizes are frozen for [`RUN_SECONDS`] and scale from there.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.seconds / RUN_SECONDS
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      run.sh --all [--seed <n>] [--seconds <s>] [--runs <r>]\n\
         \x20      run.sh --smoke\n\
         \x20      run.sh compare A.json B.json\n\
         workloads: {}",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match args.as_slice() {
            [_, a, b] => report::exit(compare::run(a, b)),
            _ => usage(),
        };
    }
    let (mut workload, mut all, mut smoke) = (None, false, false);
    let (mut seed, mut seconds, mut traced, mut runs) = (1u64, RUN_SECONDS, false, 5usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or("");
        let ok = match flag.as_str() {
            "--all" => {
                all = true;
                true
            }
            "--smoke" => {
                smoke = true;
                true
            }
            "--workload" => {
                workload = workloads::by_name(value());
                workload.is_some()
            }
            "--seed" => value().parse().map(|v| seed = v).is_ok(),
            "--seconds" => value().parse().map(|v| seconds = v).is_ok() && seconds > 0.0,
            "--runs" => value().parse().map(|v| runs = v).is_ok() && runs > 0,
            "--trace" => match value() {
                "0" => true,
                "1" => {
                    traced = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let effort = if smoke {
        Effort::smoke()
    } else {
        Effort::full(seconds)
    };
    match workload {
        Some(w) => report::exit(report::run_one(w, seed, effort, traced)),
        None if smoke => report::exit(report::run_all(seed, effort, 1)),
        None if all => report::exit(report::run_all(seed, effort, runs)),
        None => usage(),
    }
}
