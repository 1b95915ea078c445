//! Printing and files: one run's result line, `--all`'s `results.json`,
//! and the provenance both record.

use crate::json::{self, Json};
use crate::measure::RunResult;
use crate::stats::{quartiles, sorted};
use crate::workloads::{Workload, WORKLOADS};
use crate::{layers, measure, Effort};
use std::process::{Command, ExitCode, Stdio};

/// Where runs leave their files (relative to the repository root, which
/// `run.sh` makes the working directory).
pub const OUT_DIR: &str = "benchmark/out";

/// `Ok(true)` → 0; a correctness failure or an error → 1.
pub fn exit(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fw-benchmark: correctness check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("fw-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A measurement for a table: values below 1 (set-up seconds, shares) keep
/// six decimals, the rest four.
#[must_use]
pub fn shown(value: f64) -> String {
    if value.abs() < 1.0 {
        format!("{value:.6}")
    } else {
        format!("{value:.4}")
    }
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads, so bounds and
/// directions live in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let items = doc.get(key).map(Json::as_array).unwrap_or_default();
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).map(String::from);
                    Some(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect::<Option<Vec<_>>>()
                .filter(|specs| !specs.is_empty())
                .ok_or_else(|| format!("BENCHMARK.json: bad `{key}`"))
        };
        Ok(Contract {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    pub fn load() -> Result<Contract, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
        Contract::parse(&text)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host, toolchain and commit, recorded with every result.
fn provenance(seed: u64, effort: Effort) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug (numbers are meaningless)"
    } else {
        "release, debug = true"
    };
    Json::object([
        ("nproc", Json::Number(cores as f64)),
        ("rustc", Json::String(command_line("rustc", &["-V"]))),
        ("profile", Json::String(profile.into())),
        (
            "git_commit",
            Json::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Number(seed as f64)),
        ("seconds", Json::Number(effort.seconds)),
        ("smoke", Json::Bool(effort.smoke)),
        (
            "frozen",
            Json::object(WORKLOADS.iter().map(|w| {
                let rates = w.ladder.iter().map(|&r| Json::Number(r as f64)).collect();
                let frozen = Json::object([
                    ("reference_rate_eps", Json::Number(w.reference_rate as f64)),
                    ("ladder_eps", Json::Array(rates)),
                    ("latency_limit_us", Json::Number(w.latency_limit_us as f64)),
                ]);
                (w.name, frozen)
            })),
        ),
    ])
}

fn metrics_json(result: &RunResult) -> Json {
    Json::object(result.metrics.iter().map(|m| {
        let entry = Json::object([
            ("value", Json::Number(m.value)),
            ("unit", Json::String(m.unit.into())),
        ]);
        (m.name, entry)
    }))
}

fn run_file(workload: &str, seed: u64, traced: bool) -> String {
    format!(
        "{OUT_DIR}/run-{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    )
}

/// Runs one workload once, prints its metrics by name with their units,
/// leaves the details in `benchmark/out/`, and prints the result line.
pub fn run_one(w: &Workload, seed: u64, effort: Effort, traced: bool) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    println!(
        "# {} --seed {seed} --seconds {} --trace {}{}",
        w.name,
        effort.seconds,
        u8::from(traced),
        if effort.smoke { " --smoke" } else { "" }
    );
    let result = if traced {
        layers::traced(w, seed, effort)?
    } else {
        measure::end_to_end(w, seed, effort)?
    };
    for m in &result.metrics {
        println!("{:<36} {:>18} {}", m.name, shown(m.value), m.unit);
    }
    if let Json::Object(fields) = &result.detail {
        for (key, value) in fields {
            println!("  {key}: {}", value.render());
        }
    }
    let correct = result.tally.failed == 0;
    let line = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(result.tally.attempted as f64)),
        ("failed", Json::Number(result.tally.failed as f64)),
        ("metrics", metrics_json(&result)),
    ]);
    let mut file = match line.clone() {
        Json::Object(fields) => fields,
        _ => unreachable!("built as an object above"),
    };
    file.insert("workload".into(), Json::String(w.name.into()));
    file.insert("trace".into(), Json::Bool(traced));
    file.insert("detail".into(), result.detail);
    file.insert("provenance".into(), provenance(seed, effort));
    let path = run_file(w.name, seed, traced);
    std::fs::write(&path, Json::Object(file).render() + "\n")
        .map_err(|e| format!("{path}: {e}"))?;
    println!("{}", line.render());
    Ok(correct)
}

/// Runs `fw-benchmark` for one workload in a child process (so `VmHWM` is
/// the workload's own) and returns the file it left.
fn run_child(w: &Workload, seed: u64, effort: Effort, traced: bool) -> Result<Json, String> {
    let path = run_file(w.name, seed, traced);
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &effort.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(effort.smoke.then_some("--smoke"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    // A run that failed its checks still leaves its file; one that died
    // leaves none.
    let text = std::fs::read_to_string(&path)
        .map_err(|_| format!("{}: the run with seed {seed} died ({status})", w.name))?;
    json::parse(&text)
}

fn number(doc: &Json, path: &[&str]) -> f64 {
    doc.at(path).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// `--all`: every workload, `runs` untraced runs (seeds `seed`, `seed+1`, …)
/// and one traced run each, every metric printed by name with its unit, and
/// `benchmark/out/results.json` written. `Ok(false)` on any failed check.
pub fn run_all(seed: u64, effort: Effort, runs: usize) -> Result<bool, String> {
    let contract = Contract::load()?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    println!(
        "# fw-benchmark --seed {seed} --seconds {} --runs {runs}{}",
        effort.seconds,
        if effort.smoke { " --smoke" } else { " --all" }
    );
    let (mut all_correct, mut workloads) = (true, Vec::new());
    for w in &WORKLOADS {
        println!("\n## {}", w.name);
        let untraced = (0..runs as u64)
            .map(|i| run_child(w, seed + i, effort, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = run_child(w, seed, effort, true)?;
        let (mut attempted, mut failed) = (0.0, 0.0);
        for run in untraced.iter().chain([&traced]) {
            attempted += number(run, &["attempted"]);
            failed += number(run, &["failed"]);
        }
        all_correct &= failed == 0.0;

        let mut end_to_end = Vec::new();
        for spec in &contract.end_to_end {
            let values: Vec<f64> = untraced
                .iter()
                .map(|run| number(run, &["metrics", &spec.name, "value"]))
                .collect();
            if values.iter().any(|v| v.is_nan()) {
                return Err(format!("{}: a run did not report {}", w.name, spec.name));
            }
            let [q1, q2, q3] = quartiles(&sorted(values.clone()));
            println!(
                "{:<36} {:>18} {:<6} q1 {}  q3 {}  n {}",
                spec.name,
                shown(q2),
                spec.unit,
                shown(q1),
                shown(q3),
                values.len()
            );
            let entry = Json::object([
                ("unit", Json::String(spec.unit.clone())),
                ("median", Json::Number(q2)),
                ("q1", Json::Number(q1)),
                ("q3", Json::Number(q3)),
                ("n", Json::Number(values.len() as f64)),
                (
                    "values",
                    Json::Array(values.into_iter().map(Json::Number).collect()),
                ),
            ]);
            end_to_end.push((spec.name.clone(), entry));
        }
        println!(
            "{:<36} {:>18} {:<6} ({failed} of {attempted})",
            "failed_share",
            shown(failed / attempted),
            "share"
        );
        let mut per_layer = Vec::new();
        for spec in &contract.per_layer {
            let value = number(&traced, &["metrics", &spec.name, "value"]);
            if value.is_nan() {
                return Err(format!(
                    "{}: the traced run did not report {}",
                    w.name, spec.name
                ));
            }
            println!("{:<36} {:>18} {}", spec.name, shown(value), spec.unit);
            let entry = Json::object([
                ("unit", Json::String(spec.unit.clone())),
                ("value", Json::Number(value)),
            ]);
            per_layer.push((spec.name.clone(), entry));
        }
        let first = &untraced[0];
        let counts = Json::object(
            ["input_hash", "rep_events", "rep_rows", "rep_checksum"].map(|key| {
                let value = first.get("detail").and_then(|d| d.get(key)).cloned();
                (key, value.unwrap_or(Json::Null))
            }),
        );
        workloads.push((
            w.name,
            Json::object([
                ("why", Json::String(w.why.into())),
                ("end_to_end", Json::object(end_to_end)),
                ("per_layer", Json::object(per_layer)),
                ("counts", counts),
                ("attempted", Json::Number(attempted)),
                ("failed", Json::Number(failed)),
                ("failed_share", Json::Number(failed / attempted)),
                (
                    "untraced_detail",
                    first.get("detail").cloned().unwrap_or(Json::Null),
                ),
                (
                    "traced_detail",
                    traced.get("detail").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let results = Json::object([
        ("claim", Json::Null),
        ("runs", Json::Number(runs as f64)),
        ("provenance", provenance(seed, effort)),
        ("workloads", Json::object(workloads)),
    ]);
    let path = format!("{OUT_DIR}/results.json");
    std::fs::write(&path, results.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("\nwrote {path}; correct: {all_correct}");
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json`, read at test time.
    pub fn committed_contract() -> Contract {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Contract::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is committed"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_names_the_workloads_and_bounds_every_end_to_end_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let named: Vec<&str> = doc
            .get("workloads")
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(named, WORKLOADS.map(|w| w.name));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
        let contract = committed_contract();
        for spec in &contract.end_to_end {
            let bound = spec.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
        }
        assert!(contract.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
