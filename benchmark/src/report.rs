//! The suite (every workload, each in a fresh child process, `--sets` times),
//! `results.json`, and `compare`.

use crate::out_dir;
use crate::spec::{Better, END_TO_END, FAILED_FRACTION, PER_LAYER, WORKLOADS};
use crate::stats::quartiles;
use pixels_common::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// metric → one value per set, in `workloads → kind → metric` order.
type Series = BTreeMap<String, BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>>;

const KINDS: [&str; 2] = ["end_to_end", "per_layer"];

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or("ratio", |(_, unit)| unit)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run every workload `sets` times, each run in a fresh child process, print
/// every metric and write `out/results.json`. Returns whether every run was
/// correct.
pub fn run_suite(seed: u64, window_s: u64, sets: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut series = Series::new();
    let mut all_correct = true;
    for set in 0..sets {
        for w in &WORKLOADS {
            eprintln!("set {}/{sets}: {}", set + 1, w.name);
            let output = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &window_s.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (table, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            println!("{table}");
            if !output.status.success() {
                return Err(format!("{} failed ({})", w.name, output.status));
            }
            let result = Json::parse(last).map_err(|e| format!("{}: {e}: {last}", w.name))?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            let Some(Json::Object(metrics)) = result.get("metrics") else {
                return Err(format!("{}: result line has no metrics", w.name));
            };
            let kinds = series.entry(w.name.to_string()).or_default();
            for (name, entry) in metrics {
                let kind = if PER_LAYER.iter().any(|m| m.name == name) {
                    KINDS[1]
                } else {
                    KINDS[0]
                };
                let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                kinds
                    .entry(kind)
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }

    let host = Json::object([
        (
            "nproc",
            Json::number(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rustc", Json::string(command_line("rustc", &["--version"]))),
        (
            "profile",
            Json::string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "commit",
            Json::string(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::number(seed as f64)),
        ("window_s", Json::number(window_s as f64)),
        ("sets", Json::number(sets as f64)),
    ]);
    let workloads = Json::object(series.iter().map(|(workload, kinds)| {
        let kinds = Json::object(kinds.iter().map(|(kind, metrics)| {
            let metrics = Json::object(metrics.iter().map(|(name, values)| {
                let [q1, median, q3] = quartiles(values).expect("one value per set");
                let entry = Json::object([
                    ("unit", Json::string(unit_of(name))),
                    (
                        "values",
                        Json::array(values.iter().map(|v| Json::number(*v))),
                    ),
                    ("q1", Json::number(q1)),
                    ("median", Json::number(median)),
                    ("q3", Json::number(q3)),
                ]);
                (name.clone(), entry)
            }));
            (kind.to_string(), metrics)
        }));
        (workload.clone(), kinds)
    }));
    let results = Json::object([("host", host), ("workloads", workloads)]);
    let file = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&file, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", file.display()))?;

    if sets > 1 {
        println!("# median [q1, q3] over {sets} sets");
        for (workload, kinds) in &series {
            for metrics in kinds.values() {
                for (name, values) in metrics {
                    let [q1, median, q3] = quartiles(values).expect("one value per set");
                    println!("{workload} {name} {median} {} [{q1}, {q3}]", unit_of(name));
                }
            }
        }
    }
    eprintln!("wrote {}", file.display());
    Ok(all_correct)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `[q1, median, q3]` of one metric on one side.
type Quartiles = [f64; 3];

fn spread(q: Quartiles) -> f64 {
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1].abs()
    }
}

/// Judge `change` against `parent`. `bound` is a share of the parent's
/// median; a bound of 0 is absolute (any worsening regresses).
pub fn verdict(better: Better, bound: f64, parent: Quartiles, change: Quartiles) -> Verdict {
    let worse_by = match better {
        Better::Lower => change[1] - parent[1],
        Better::Higher => parent[1] - change[1],
    };
    if worse_by > bound * parent[1].abs() {
        Verdict::Regressed
    } else if spread(parent).max(spread(change)) > bound && bound > 0.0 {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn read_quartiles(results: &Json, workload: &str, metric: &str) -> Option<Quartiles> {
    let entry = results
        .get("workloads")?
        .get(workload)?
        .get(KINDS[0])?
        .get(metric)?;
    Some([
        entry.get("q1")?.as_f64()?,
        entry.get("median")?.as_f64()?,
        entry.get("q3")?.as_f64()?,
    ])
}

/// Compare two `results.json` files. Returns the table and whether any
/// workload × end-to-end metric regressed.
pub fn compare(parent: &Path, change: &Path) -> Result<(String, bool), String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (read(parent)?, read(change)?);
    let mut table = String::from("workload metric parent change delta bound verdict\n");
    let mut regressed = false;
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.better, m.bound))
        .chain([(FAILED_FRACTION, Better::Lower, 0.0)]);
    for w in &WORKLOADS {
        for (name, better, bound) in metrics.clone() {
            let (Some(p), Some(c)) = (
                read_quartiles(&a, w.name, name),
                read_quartiles(&b, w.name, name),
            ) else {
                return Err(format!(
                    "{} {name} is missing from one of the files",
                    w.name
                ));
            };
            let v = verdict(better, bound, p, c);
            regressed |= v == Verdict::Regressed;
            let delta = if p[1] == 0.0 {
                format!("{:+}", c[1] - p[1])
            } else {
                format!("{:+.2}%", (c[1] - p[1]) / p[1] * 100.0)
            };
            table.push_str(&format!(
                "{} {name} {} {} {delta} {}% {}\n",
                w.name,
                p[1],
                c[1],
                bound * 100.0,
                v.name()
            ));
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_than_the_bound_regresses_in_the_metrics_direction() {
        let flat = |m: f64| [m, m, m];
        assert_eq!(
            verdict(Better::Lower, 0.08, flat(100.0), flat(107.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.08, flat(100.0), flat(109.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Lower, 0.08, flat(100.0), flat(50.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Higher, 0.08, flat(100.0), flat(93.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Higher, 0.08, flat(100.0), flat(91.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Higher, 0.08, flat(100.0), flat(150.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        let noisy = [90.0, 100.0, 110.0];
        let flat = [100.0; 3];
        assert_eq!(
            verdict(Better::Lower, 0.08, noisy, flat),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.08, flat, noisy),
            Verdict::Unresolved
        );
        assert_eq!(verdict(Better::Lower, 0.25, noisy, flat), Verdict::Ok);
        // Still a regression when the medians are further apart than the bound.
        assert_eq!(
            verdict(Better::Lower, 0.08, noisy, [110.0, 120.0, 130.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn an_absolute_zero_bound_flags_any_increase() {
        let zero = [0.0; 3];
        assert_eq!(verdict(Better::Lower, 0.0, zero, zero), Verdict::Ok);
        assert_eq!(
            verdict(Better::Lower, 0.0, zero, [0.0, 0.001, 0.002]),
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_reads_results_files() {
        let dir = out_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, qps: f64| {
            let metrics = Json::object(
                END_TO_END
                    .iter()
                    .map(|m| m.name)
                    .chain([FAILED_FRACTION])
                    .map(|name| {
                        let v = if name == "qps" {
                            qps
                        } else if name == FAILED_FRACTION {
                            0.0
                        } else {
                            10.0
                        };
                        let entry = Json::object([
                            ("q1", Json::number(v)),
                            ("median", Json::number(v)),
                            ("q3", Json::number(v)),
                        ]);
                        (name, entry)
                    }),
            );
            let workloads = Json::object(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name, Json::object([(KINDS[0], metrics.clone())]))),
            );
            let path = dir.join(name);
            std::fs::write(&path, Json::object([("workloads", workloads)]).to_string()).unwrap();
            path
        };
        let (a, same, slower) = (
            file("a.json", 100.0),
            file("b.json", 100.0),
            file("c.json", 50.0),
        );
        let (table, regressed) = compare(&a, &same).unwrap();
        assert!(!regressed, "{table}");
        assert_eq!(
            table.lines().count(),
            1 + WORKLOADS.len() * (END_TO_END.len() + 1)
        );
        let (table, regressed) = compare(&a, &slower).unwrap();
        assert!(regressed);
        assert!(
            table.contains("scan_heavy qps 100 50 -50.00% 25% regressed"),
            "{table}"
        );
        assert!(table.contains("scan_heavy latency_p50_ms 10 10 +0.00% 25% ok"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
