//! `compare A.json B.json`: is B worse than A?
//!
//! One row per metric × workload. End-to-end metrics are held to their
//! bound from `BENCHMARK.json`; a metric whose run-to-run spread (distance
//! between quartiles over the median, in either file) is wider than its
//! bound is `unresolved`, not `same`. Per-layer metrics whose unit marks
//! them as counts must be identical (`worse` there means "not identical");
//! the other per-layer metrics are listed without a verdict.

use crate::json::{self, Json};
use crate::report::{shown, Contract, MetricSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's runs within one results file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Sample {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

/// The verdict on an end-to-end metric: B against A under `spec`'s bound.
#[must_use]
pub fn verdict(spec: &MetricSpec, a: &Sample, b: &Sample) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    if a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let change = (b.median - a.median) / a.median.abs();
    let worse_by = if spec.higher_is_better {
        -change
    } else {
        change
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Units of the per-layer metrics that must repeat exactly for one seed.
#[must_use]
pub fn is_exact(unit: &str) -> bool {
    matches!(unit, "count" | "count/event" | "bytes" | "bytes/event")
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn sample(doc: &Json, workload: &str, metric: &str) -> Option<Sample> {
    let entry = doc.at(&["workloads", workload, "end_to_end", metric])?;
    let field = |f| entry.get(f).and_then(Json::as_f64);
    Some(Sample {
        median: field("median")?,
        q1: field("q1")?,
        q3: field("q3")?,
    })
}

/// Prints the comparison; `Ok(false)` when any row is `worse`.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let contract = Contract::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = a.at(&["provenance", "seed"]) == b.at(&["provenance", "seed"]);
    println!(
        "{:<22} {:<34} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    let mut tally = [0usize; 3];
    let workloads = match a.get("workloads") {
        Some(Json::Object(fields)) => fields.keys().cloned().collect::<Vec<_>>(),
        _ => return Err(format!("{a_path}: no workloads")),
    };
    for workload in &workloads {
        for spec in &contract.end_to_end {
            let (Some(sa), Some(sb)) = (
                sample(&a, workload, &spec.name),
                sample(&b, workload, &spec.name),
            ) else {
                return Err(format!("{workload}: {} missing from a file", spec.name));
            };
            let v = verdict(spec, &sa, &sb);
            tally[v as usize] += 1;
            println!(
                "{:<22} {:<34} {:>16} {:>16} {:>+7.1}% {:>6.0}%  {}",
                workload,
                spec.name,
                shown(sa.median),
                shown(sb.median),
                (sb.median - sa.median) / sa.median.abs() * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                v.name()
            );
        }
        for spec in &contract.per_layer {
            let value = |doc: &Json| {
                doc.at(&["workloads", workload, "per_layer", &spec.name, "value"])
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(&a), value(&b)) else {
                return Err(format!("{workload}: {} missing from a file", spec.name));
            };
            let v = match (is_exact(&spec.unit), same_seed) {
                (true, true) => {
                    let v = if va == vb {
                        Verdict::Same
                    } else {
                        Verdict::Worse
                    };
                    tally[v as usize] += 1;
                    v.name()
                }
                (true, false) => "(seeds differ)",
                (false, _) => "-",
            };
            println!(
                "{:<22} {:<34} {:>16} {:>16} {:>8} {:>7}  {}",
                workload,
                spec.name,
                shown(va),
                shown(vb),
                "",
                "",
                v
            );
        }
        if same_seed {
            let counts = |doc: &Json| doc.at(&["workloads", workload, "counts"]).cloned();
            let v = if counts(&a) == counts(&b) {
                Verdict::Same
            } else {
                Verdict::Worse
            };
            tally[v as usize] += 1;
            println!(
                "{:<22} {:<34} {:>16} {:>16} {:>8} {:>7}  {}",
                workload,
                "input hash, rows, checksum",
                "",
                "",
                "",
                "",
                v.name()
            );
        }
    }
    println!(
        "\n{} same, {} worse, {} unresolved",
        tally[0], tally[1], tally[2]
    );
    Ok(tally[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    fn tight(median: f64) -> Sample {
        Sample {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
        }
    }

    #[test]
    fn worse_depends_on_the_direction_and_the_bound() {
        let throughput = spec(true, 0.10);
        assert_eq!(
            verdict(&throughput, &tight(100.0), &tight(95.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&throughput, &tight(100.0), &tight(89.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&throughput, &tight(100.0), &tight(150.0)),
            Verdict::Same
        );
        let latency = spec(false, 0.15);
        assert_eq!(
            verdict(&latency, &tight(100.0), &tight(114.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&latency, &tight(100.0), &tight(116.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&latency, &tight(100.0), &tight(50.0)),
            Verdict::Same
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let latency = spec(false, 0.15);
        let noisy = Sample {
            median: 100.0,
            q1: 90.0,
            q3: 110.0,
        };
        assert_eq!(
            verdict(&latency, &noisy, &tight(100.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&latency, &tight(100.0), &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&latency, &tight(100.0), &tight(200.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn count_units_are_exact() {
        for unit in ["count", "count/event", "bytes", "bytes/event"] {
            assert!(is_exact(unit));
        }
        for unit in ["us", "ns/event", "ratio", "share", "cmds", "1/s"] {
            assert!(!is_exact(unit));
        }
    }
}
