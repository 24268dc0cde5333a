//! `perfbench` — the paccport repository benchmark.
//!
//! ```text
//! perfbench [run|trace] [--workload NAME]... [--seed N] [--seconds S]
//!           [--trace 0|1] [--smoke] [--json FILE]
//! perfbench compare PARENT.json CHANGE.json
//! perfbench compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! `run` (`--trace 0`, the default) times each workload end to end with
//! the release `reproduce` binary; `trace` (`--trace 1`) replays it
//! in-process under the benchmark's spans and times each layer. Without
//! `--workload`, every workload in `BENCHMARK.json` runs. Each workload
//! prints a table and then one JSON summary line; `--json` writes the full
//! report. `--smoke` uses the smallest sizes and one repetition.

mod batch;
mod compare;
mod probes;
mod proc;
mod program;
mod replay;
mod report;
mod serve;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use spec::Spec;
use workloads::{Ctx, Kind};

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    json: Option<String>,
}

fn parse(args: &[String], spec: &Spec) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        json: None,
    };
    let mut it = args.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            it.next();
        }
        Some("trace") => {
            it.next();
            a.trace = true;
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec.workloads.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                a.workloads
                    .push(Kind::parse(&name).ok_or("workload without a harness")?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|_| "--seconds needs an integer")?;
                a.seconds = Some(s.max(1));
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--json" => a.json = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        for w in &spec.workloads {
            let kind = Kind::parse(&w.name).ok_or_else(|| {
                format!("BENCHMARK.json names `{}`, which has no harness", w.name)
            })?;
            a.workloads.push(kind);
        }
    }
    Ok(a)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let root = program::repo_root();
    let spec = Spec::load(&root.join("BENCHMARK.json"))?;
    if args.first().map(String::as_str) == Some("compare") {
        let code = compare::main(&spec, &args[1..])?;
        return Ok(ExitCode::from(code as u8));
    }
    let a = parse(args, &spec)?;
    let bin = program::build_reproduce(&root)?;
    let work = bin
        .parent()
        .ok_or("the reproduce binary has no directory")?
        .join("perfbench-work");
    let ctx = Ctx {
        bin,
        work,
        seed: a.seed,
        seconds: Duration::from_secs(a.seconds.unwrap_or(spec.run_seconds)),
        smoke: a.smoke,
    };
    let mut reports = Vec::new();
    for kind in a.workloads {
        eprintln!(
            "perfbench: {} ({}, seed {})",
            kind.name(),
            if a.trace { "trace" } else { "run" },
            a.seed
        );
        let r = workloads::run(kind, &ctx, a.trace)?;
        r.conform_to(&spec)?;
        if !r.correct() {
            eprintln!("perfbench: {}: outputs failed their checks", r.name);
        }
        print!("{}", r.table(&spec));
        println!("{}", r.summary_line(&spec));
        reports.push(r);
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(path) = &a.json {
        let text = report::render_json(
            a.seed,
            ctx.seconds.as_secs(),
            a.smoke,
            &program::environment(),
            &reports,
        );
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
