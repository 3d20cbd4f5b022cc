//! Result files and the comparison that applies the bounds.

use crate::defs::{self, Better, Metric};
use crate::json::Json;
use crate::stats::Summary;
use std::process::Command;

/// One workload's run: the driver's four keys plus, for every
/// end-to-end value, the spread of the repetitions behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `(metric, five-number summary over repetitions)`, end-to-end only.
    pub reps: Vec<(String, Summary)>,
    /// Free-form lines for the human output (tail percentile used, ...).
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// `workload metric value unit n=samples`, one line per metric.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            let spread = self
                .reps
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, s)| {
                    format!(
                        " min={} q1={} median={} q3={} max={}",
                        s.min, s.q1, s.median, s.q3, s.max
                    )
                })
                .unwrap_or_default();
            println!(
                "{} {} {} {} n={}{spread}",
                self.name, m.name, m.value, m.unit, m.n
            );
        }
        for note in &self.notes {
            println!("{} # {note}", self.name);
        }
    }

    /// The last line the driver reads.
    pub fn driver_json(&self) -> Json {
        Json::obj([
            // a run whose outputs were wrong exits non-zero before this
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn to_json(&self) -> Json {
        let rep = |name: &str| self.reps.iter().find(|(n, _)| n == name).map(|(_, s)| *s);
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let mut fields = vec![
                                ("value".to_string(), Json::Num(m.value)),
                                ("unit".to_string(), Json::Str(m.unit.into())),
                                ("n".to_string(), Json::Num(m.n as f64)),
                            ];
                            if let Some(s) = rep(&m.name) {
                                for (key, v) in [
                                    ("min", s.min),
                                    ("q1", s.q1),
                                    ("median", s.median),
                                    ("q3", s.q3),
                                    ("max", s.max),
                                    ("reps", s.n as f64),
                                ] {
                                    fields.push((key.into(), Json::Num(v)));
                                }
                            }
                            (m.name.clone(), Json::Obj(fields))
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A full set of runs with where and how it was measured.
pub fn result_file(seed: u64, seconds: u64, reps: usize, workloads: &[WorkloadResult]) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("reps", Json::Num(reps as f64)),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("cpu", Json::Str(cpu)),
        ("profile", Json::Str("release".into())),
        (
            "workloads",
            Json::Arr(workloads.iter().map(WorkloadResult::to_json).collect()),
        ),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Within,
    Better,
    /// The repetitions of one side disagree by more than the bound, so
    /// the comparison cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and how far its
/// repetitions disagree about it ([`defs::EndToEnd::disagreement`]).
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// By how much of the baseline `new` is worse (negative: better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

pub fn verdict(better: Better, bound: f64, base: Side, new: Side) -> Verdict {
    if base.spread > bound || new.spread > bound {
        return Verdict::Unresolved;
    }
    let w = worse_by(better, base.value, new.value);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn side(def: &defs::EndToEnd, metric: &Json) -> Side {
    let value = metric.f("value");
    let at = |key: &str| metric.get(key).and_then(Json::num).unwrap_or(value);
    let reps = Summary {
        min: at("min"),
        q1: at("q1"),
        median: at("median"),
        q3: at("q3"),
        max: at("max"),
        n: metric.f("reps") as usize,
    };
    Side {
        value,
        spread: def.disagreement(value, &reps),
    }
}

/// Apply every end-to-end bound, workload by workload: one row per
/// (workload, metric) pair present in both files.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let workloads = |file: &Json| -> Vec<Json> {
        file.get("workloads")
            .map(|w| w.items().to_vec())
            .unwrap_or_default()
    };
    let new_ws = workloads(new);
    let mut rows = Vec::new();
    for bw in workloads(base) {
        let name = bw
            .get("name")
            .and_then(Json::str)
            .ok_or("workload without a name")?;
        let Some(nw) = new_ws
            .iter()
            .find(|w| w.get("name").and_then(Json::str) == Some(name))
        else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        for def in &defs::END_TO_END {
            let find = |w: &Json| w.get("metrics").and_then(|m| m.get(def.name)).cloned();
            let (Some(b), Some(n)) = (find(&bw), find(nw)) else {
                return Err(format!(
                    "{name}: metric {} is missing from one file",
                    def.name
                ));
            };
            let (b, n) = (side(def, &b), side(def, &n));
            rows.push(Row {
                workload: name.to_string(),
                metric: def.name,
                base: b.value,
                new: n.value,
                worse_by: worse_by(def.better, b.value, n.value),
                bound: def.bound,
                verdict: verdict(def.better, def.bound, b, n),
            });
        }
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse_by", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<14} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Side {
        Side { value, spread: 0.0 }
    }

    #[test]
    fn relative_bounds_in_both_directions() {
        // throughput may fall 10 %
        assert_eq!(
            verdict(Better::Higher, 0.10, exact(1000.0), exact(905.0)),
            Verdict::Within
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, exact(1000.0), exact(895.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, exact(1000.0), exact(1105.0)),
            Verdict::Better
        );
        // latency may rise 25 %
        assert_eq!(
            verdict(Better::Lower, 0.25, exact(200.0), exact(249.0)),
            Verdict::Within
        );
        assert_eq!(
            verdict(Better::Lower, 0.25, exact(200.0), exact(251.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Lower, 0.25, exact(200.0), exact(149.0)),
            Verdict::Better
        );
        assert!((worse_by(Better::Lower, 200.0, 250.0) - 0.25).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn commit_frac_is_the_absolute_failure_gate() {
        // failures may rise 0.001 absolute = commit_frac may fall 0.1 % of 1.0
        let d = defs::end_to_end("commit_frac").unwrap();
        assert_eq!(
            verdict(d.better, d.bound, exact(1.0), exact(0.9995)),
            Verdict::Within
        );
        assert_eq!(
            verdict(d.better, d.bound, exact(1.0), exact(0.9985)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(d.better, d.bound, exact(1.0), exact(1.0)),
            Verdict::Within
        );
    }

    #[test]
    fn wide_repetitions_are_unresolved_never_unchanged() {
        let noisy = Side {
            value: 100.0,
            spread: 0.15,
        };
        assert_eq!(
            verdict(Better::Lower, 0.10, noisy, exact(100.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, exact(100.0), noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.25, noisy, exact(100.0)),
            Verdict::Within
        );
    }

    fn sample(commits: f64) -> WorkloadResult {
        let metrics: Vec<Metric> = defs::END_TO_END
            .iter()
            .map(|d| Metric {
                name: d.name.into(),
                value: if d.name == "commits_per_s" {
                    commits
                } else {
                    1.0
                },
                unit: d.unit,
                n: 2,
            })
            .collect();
        WorkloadResult {
            name: "read_fit".into(),
            attempted: 10,
            failed: 0,
            reps: vec![(
                "commits_per_s".into(),
                Summary::of(&[commits - 1.0, commits + 1.0]),
            )],
            metrics,
            notes: vec![],
        }
    }

    #[test]
    fn result_file_round_trips_and_compares() {
        let a = result_file(42, 10, 2, &[sample(8000.0)]);
        let b = result_file(42, 10, 2, &[sample(5000.0)]);
        let a2 = Json::parse(&a.render()).unwrap();
        assert_eq!(a2, a);
        assert_eq!(a2.f("seed"), 42.0);
        assert!(a2.get("rustc").and_then(Json::str).is_some());
        let m = a2.get("workloads").unwrap().items()[0]
            .get("metrics")
            .unwrap()
            .get("commits_per_s")
            .unwrap()
            .clone();
        assert_eq!(
            (m.f("value"), m.f("min"), m.f("q1"), m.f("max"), m.f("reps")),
            (8000.0, 7999.0, 7999.5, 8001.0, 2.0)
        );

        let rows = compare(&a2, &Json::parse(&b.render()).unwrap()).unwrap();
        assert_eq!(rows.len(), defs::END_TO_END.len());
        let commits = rows.iter().find(|r| r.metric == "commits_per_s").unwrap();
        assert_eq!(commits.verdict, Verdict::Worse);
        assert!(rows
            .iter()
            .filter(|r| r.metric != "commits_per_s")
            .all(|r| r.verdict == Verdict::Within));
    }

    #[test]
    fn driver_line_has_exactly_the_four_keys() {
        let j = sample(8000.0).driver_json();
        let keys: Vec<&str> = j.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.get("metrics").unwrap().get("commits_per_s").unwrap();
        let keys: Vec<&str> = m.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"]);
    }
}
