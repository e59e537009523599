//! The GKS benchmark. See `perf/README.md`.
//!
//! ```text
//! gks-perf run --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! gks-perf run [--seed N] [--seconds S] [--traced]             all five, one child each
//! gks-perf agree A.json B.json                                 same code, same numbers?
//! gks-perf manifest                                            print BENCHMARK.json
//! ```

mod inputs;
mod metrics;
mod span;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use metrics::{Spec, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::Run;

/// Length of one run's measured window when `--seconds` is not given; the
/// driver always gives it, from `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("agree") => agree(&args[1..]),
        Some("manifest") => {
            print!("{}", benchmark_json());
            Ok(())
        }
        _ => Err("usage: gks-perf run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]\n       gks-perf agree A.json B.json\n       gks-perf manifest".to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed =
        RunArgs { workload: None, seed: 1, seconds: RUN_SECONDS as f64, traced: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => parsed.traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest_dir.join("out")
}

/// Removes `run-*` directories whose process is gone (an interrupted run
/// leaves its index files behind).
fn clear_stale_runs(out: &Path) {
    for entry in std::fs::read_dir(out).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pid) = name.strip_prefix("run-").and_then(|rest| rest.rsplit('-').next()) else {
            continue;
        };
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: use `cargo run --release`".into());
    }
    let args = parse_run_args(args)?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    clear_stale_runs(&out);
    match &args.workload {
        Some(workload) => run_one(workload, &args, &out),
        None => run_all(&args, &out),
    }
}

fn specs(traced: bool) -> &'static [Spec] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One workload in this process. The last line printed is the result.
fn run_one(workload: &str, args: &RunArgs, out: &Path) -> Result<(), String> {
    let dir = out.join(format!("run-{workload}-{}-{}", args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let run = Run { seed: args.seed, seconds: args.seconds, traced: args.traced, scale: 1.0, dir };
    let finished = workloads::run(workload, &run);
    let _ = std::fs::remove_dir_all(&run.dir);
    let finished = finished.ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        format!("unknown workload {workload}; one of {}", names.join(", "))
    })?;
    if let Some(recorder) = &finished.recorder {
        let path = out.join(format!("trace-{workload}.jsonl"));
        recorder
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let specs = specs(args.traced);
    let kind = if args.traced {
        "per-layer, traced"
    } else {
        "end-to-end, untraced"
    };
    println!("{workload} (seed {}, {} s, {kind})", args.seed, args.seconds);
    print!("{}", finished.outcome.report(specs));
    if let Some(recorder) = &finished.recorder {
        print!("{}", recorder.summary());
    }
    println!("{}", finished.outcome.result_line(specs, !args.traced));
    Ok(())
}

/// Every workload, each in a fresh child process so that peak memory and
/// lazily decoded state do not leak between them; writes the combined
/// record (`header`, `workloads` and, after `--traced`, `traced`) under
/// `perf/out/`.
fn run_all(args: &RunArgs, out: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let passes: &[bool] = if args.traced {
        &[false, true]
    } else {
        &[false]
    };
    // One result line per workload and pass, keyed by workload.
    let mut sections = vec![String::new(); passes.len()];
    let mut all_correct = true;
    for (workload, _) in &WORKLOADS {
        for (section, &traced) in sections.iter_mut().zip(passes) {
            let output = Command::new(&exe)
                .args(["run", "--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            print!("{stdout}");
            if !output.status.success() {
                return Err(format!(
                    "{workload} failed: {}",
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let line = stdout.lines().last().unwrap_or_default();
            all_correct &= line.starts_with("{\"correct\":true");
            if !section.is_empty() {
                section.push(',');
            }
            let _ = write!(section, "\"{workload}\":{line}");
        }
    }
    let mut record =
        format!("{{\"header\":{},\"workloads\":{{{}}}", header_json(args), sections[0]);
    if let Some(traced) = sections.get(1) {
        let _ = write!(record, ",\"traced\":{{{traced}}}");
    }
    record.push_str("}\n");
    let kind = if args.traced { "traced" } else { "plain" };
    let path = out.join(format!("record-seed{}-{kind}.json", args.seed));
    std::fs::write(&path, record).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("record written to {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("some workload reported wrong answers or failed operations".into())
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn header_json(args: &RunArgs) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{");
    let mut field = |key: &str, value: &str| {
        let _ = write!(out, "\"{key}\":");
        gks_core::wire::push_json_str(&mut out, value);
        out.push(',');
    };
    field("git_rev", &command_line("git", &["rev-parse", "--short", "HEAD"]));
    field("rustc", &command_line("rustc", &["--version"]));
    field("cpu", &cpu);
    let _ = write!(
        out,
        "\"nproc\":{nproc},\"seed\":{},\"seconds\":{},\"setup_reps\":{},\"open_loop_rate\":{}}}",
        args.seed,
        args.seconds,
        workloads::SETUP_REPS,
        workloads::serve::OPEN_LOOP_RATE
    );
    out
}

fn agree(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: gks-perf agree A.json B.json".into());
    };
    let read = |path: &String| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        // A captured run ends with its result line; a record is one line.
        let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
        metrics::read_values(last).map_err(|e| format!("{path}: {e}"))
    };
    let diffs = metrics::disagreements(&read(a)?, &read(b)?);
    if diffs.is_empty() {
        println!("agree: every end-to-end metric within its bound");
        Ok(())
    } else {
        Err(diffs.join("\n"))
    }
}

/// `BENCHMARK.json`, from the tables in `metrics.rs`.
fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"perf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, s) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            s.name,
            s.unit,
            s.better.label(),
            s.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, s) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            s.name,
            s.unit,
            s.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}
