//! The PixelsDB benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! pixels-benchmark run [--seed N] [--seconds S] [--sets K]      every workload, each in a child process
//! pixels-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//! pixels-benchmark bless [--workload W]                          write golden/<workload>.json
//! pixels-benchmark compare A.json B.json                         judge B against A
//! pixels-benchmark manifest                                      print BENCHMARK.json
//! ```

mod client;
mod deploy;
mod golden;
mod host;
mod replay;
mod report;
mod run;
mod spec;
mod stats;
mod stream;
mod trace;

use run::{Outcome, RunOptions};
use spec::{WorkloadSpec, DEFAULT_WINDOW_S, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Where `results.json` and the traces go: `out/` beside `Cargo.toml`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<&'static WorkloadSpec>,
    seed: u64,
    window_s: u64,
    trace: Option<bool>,
    sets: usize,
    files: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        window_s: DEFAULT_WINDOW_S,
        trace: None,
        sets: 1,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{arg} {v}: {e}"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(spec::workload(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" | "--window-s" => parsed.window_s = number(value()?)?.max(1),
            "--trace" => parsed.trace = Some(number(value()?)? != 0),
            "--sets" => parsed.sets = number(value()?)?.max(1) as usize,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => parsed.files.push(PathBuf::from(file)),
        }
    }
    Ok(parsed)
}

/// The result line the driver reads: `--trace 0` carries every end-to-end
/// metric, `--trace 1` every per-layer metric, no `--trace` both.
fn result_line(outcome: &Outcome, end_to_end: bool, per_layer: bool) -> String {
    let mut metrics = Vec::new();
    let mut push = |name: &str, unit: &str, value: Option<f64>| {
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            value.unwrap_or(0.0)
        ));
    };
    if end_to_end {
        for m in &END_TO_END {
            push(m.name, m.unit, outcome.end_to_end[m.name]);
        }
    }
    if end_to_end && per_layer {
        let name = spec::FAILED_FRACTION;
        push(name, "ratio", outcome.end_to_end[name]);
    }
    if per_layer {
        for m in PER_LAYER {
            push(
                m.name,
                m.unit,
                outcome.per_layer.get(m.name).copied().flatten(),
            );
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn real_main(started: Instant) -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return Err("usage: pixels-benchmark run|bless|compare|manifest (see README.md)".into());
    };
    let args = parse_args(rest)?;
    match command.as_str() {
        "manifest" => print!("{}", spec::manifest()),
        "bless" => {
            for w in WORKLOADS
                .iter()
                .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
            {
                let n = golden::bless(w)?;
                println!(
                    "blessed {n} queries into {}",
                    golden::path(w.name).display()
                );
            }
        }
        "compare" => {
            let [parent, change] = args.files.as_slice() else {
                return Err("usage: pixels-benchmark compare A.json B.json".into());
            };
            let (table, regressed) = report::compare(parent, change)?;
            print!("{table}");
            if regressed {
                return Ok(ExitCode::FAILURE);
            }
        }
        "run" | "setup" => {
            if cfg!(debug_assertions) {
                return Err("measure optimized builds only: build with --release".into());
            }
            let Some(spec) = args.workload else {
                let correct = report::run_suite(args.seed, args.window_s, args.sets)?;
                return Ok(if correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            };
            let (end_to_end, per_layer) = match args.trace {
                Some(false) => (true, false),
                Some(true) => (false, true),
                None => (true, true),
            };
            let opts = RunOptions {
                spec,
                seed: args.seed,
                window_s: args.window_s,
                end_to_end,
                per_layer,
                started,
            };
            if command == "setup" {
                println!("{}", run::setup_only(&opts)?);
                return Ok(ExitCode::SUCCESS);
            }
            let outcome = run::run_workload(&opts)?;
            for failure in &outcome.failures {
                eprintln!("{}: {failure}", spec.name);
            }
            print!(
                "{}",
                run::render(spec.name, &outcome, end_to_end, per_layer)
            );
            println!("{}", result_line(&outcome, end_to_end, per_layer));
        }
        other => return Err(format!("unknown command {other}")),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    real_main(started).unwrap_or_else(|error| {
        eprintln!("pixels-benchmark: {error}");
        ExitCode::FAILURE
    })
}
