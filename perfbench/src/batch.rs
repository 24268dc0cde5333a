//! End-to-end timing of the batch workloads: each repetition is a fresh
//! `reproduce` process, timed from spawn to exit, with CPU time and peak
//! memory from `wait4`.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::proc;
use crate::report::{fnv1a64, Metric, WorkloadReport};
use crate::workloads::{Ctx, Kind, CONFORM_SEED};

/// Fewest timed repetitions behind a figure.
const MIN_REPS: usize = 3;
/// No repetition starts after this, so one run stays far below the
/// three-minute limit even on a much slower machine.
const HARD_STOP_S: f64 = 100.0;

/// One repetition: what it cost and what it printed.
pub struct Op {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub maxrss_kb: u64,
    /// For `durable`, the cold run alone.
    pub cold_s: f64,
    pub stdout: Vec<u8>,
    /// Why the repetition failed its checks, if it did.
    pub fault: Option<String>,
}

/// Run `reproduce` in `dir`, appending its stderr to `dir/stderr.log`. Only
/// a process that cannot be started is an error; a failed one is reported
/// in the outcome.
fn reproduce(
    ctx: &Ctx,
    dir: &Path,
    args: &[&str],
) -> Result<(proc::Outcome, Option<String>), String> {
    let stderr = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("stderr.log"))
        .map_err(|e| format!("cannot open stderr log: {e}"))?;
    let out = proc::measure(
        Command::new(&ctx.bin)
            .args(args)
            .current_dir(dir)
            .stderr(stderr),
    )
    .map_err(|e| format!("cannot run reproduce: {e}"))?;
    let fault = (!out.ok()).then(|| {
        format!(
            "`reproduce {}` exited with {:?} (stderr in {})",
            args.join(" "),
            out.code,
            dir.join("stderr.log").display()
        )
    });
    Ok((out, fault))
}

/// Run repetition `rep` of a batch workload and check its output; at the
/// smallest sizes when `small`.
pub fn op(kind: Kind, ctx: &Ctx, dir: &Path, rep: usize, small: bool) -> Result<Op, String> {
    let small = small || ctx.smoke;
    let scale = if small { "smoke" } else { "quick" };
    let single = |args: &[&str]| -> Result<Op, String> {
        let (o, fault) = reproduce(ctx, dir, args)?;
        Ok(Op {
            wall_s: o.wall_s,
            cpu_s: o.cpu_s,
            maxrss_kb: o.maxrss_kb,
            cold_s: o.wall_s,
            stdout: o.stdout,
            fault,
        })
    };
    let mut out = match kind {
        Kind::Paper if small => single(&["--scale", "smoke", "--jobs", "1"])?,
        Kind::Paper => single(&["--jobs", "1"])?,
        Kind::Check => single(&["--check", "--scale", scale, "--jobs", "1"])?,
        Kind::Conform => {
            let seed = CONFORM_SEED.to_string();
            let programs = if small { "20" } else { "300" };
            single(&["conform", "--programs", programs, "--seed", &seed])?
        }
        Kind::Durable => {
            let state = format!("state-{rep}");
            let base = ["--scale", scale, "--jobs", "1", "--state-dir", &state];
            let (cold, cold_fault) = reproduce(ctx, dir, &base)?;
            let (resume, resume_fault) = reproduce(ctx, dir, &[&base[..], &["--resume"]].concat())?;
            let _ = std::fs::remove_dir_all(dir.join(&state));
            let fault = cold_fault.or(resume_fault).or_else(|| {
                (resume.stdout != cold.stdout)
                    .then(|| "resumed stdout differs from the cold run's".to_string())
            });
            Op {
                wall_s: cold.wall_s + resume.wall_s,
                cpu_s: cold.cpu_s + resume.cpu_s,
                maxrss_kb: cold.maxrss_kb.max(resume.maxrss_kb),
                cold_s: cold.wall_s,
                stdout: cold.stdout,
                fault,
            }
        }
        Kind::Serve => unreachable!("serve is not a batch workload"),
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let ok = match kind {
        Kind::Check => text.contains("soundness invariant holds"),
        Kind::Conform => text
            .lines()
            .any(|l| l.trim_start().starts_with("mismatches") && l.trim_end().ends_with(": 0")),
        _ => !text.is_empty(),
    };
    if !ok && out.fault.is_none() {
        out.fault = Some(format!("{} output failed its content check", kind.name()));
    }
    Ok(out)
}

/// Count `o` as one checked operation: it passed its checks and printed
/// what the first operation of its kind printed.
fn gate(r: &mut WorkloadReport, digest: &mut Option<u64>, what: &str, o: &Op) -> bool {
    let h = fnv1a64(&o.stdout);
    let want = *digest.get_or_insert(h);
    let fault = o
        .fault
        .clone()
        .or_else(|| (h != want).then(|| "output differs from the first run's".into()));
    let ok = fault.is_none();
    r.check(ok, || format!("{what}: {}", fault.unwrap_or_default()));
    ok
}

pub fn run(kind: Kind, ctx: &Ctx, dir: &Path) -> Result<WorkloadReport, String> {
    let mut r = WorkloadReport::new(kind.name(), false);
    let (mut setup_s, mut setup_fnv, mut output_fnv) = (vec![], None, None);
    let (mut wall, mut cpu, mut rss, mut cold) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let mut rep = 0;
    loop {
        let enough = if ctx.smoke {
            rep >= 1
        } else {
            rep >= MIN_REPS && start.elapsed() >= ctx.seconds
        };
        if enough || start.elapsed().as_secs_f64() > HARD_STOP_S {
            break;
        }
        // Set-up: the same command at its smallest size, the fixed cost
        // every invocation pays before the work grows with the inputs. One
        // before each repetition, so the set-ups span the run.
        let o = op(kind, ctx, dir, rep, true)?;
        if gate(&mut r, &mut setup_fnv, &format!("set-up {rep}"), &o) {
            setup_s.push(o.wall_s);
        }
        let o = op(kind, ctx, dir, rep, false)?;
        if gate(&mut r, &mut output_fnv, &format!("rep {rep}"), &o) {
            wall.push(o.wall_s);
            cpu.push(o.cpu_s);
            rss.push(o.maxrss_kb as f64 / 1024.0);
            cold.push(o.cold_s);
        }
        rep += 1;
    }
    if wall.is_empty() || setup_s.is_empty() {
        return Err(format!("{}: every repetition failed", kind.name()));
    }
    r.output_fnv = output_fnv;
    r.put("wall_s", Metric::min_of("s", wall));
    r.put("cpu_s", Metric::min_of("s", cpu));
    r.put("peak_rss_mb", Metric::median_of("MB", rss));
    r.put("setup_s", Metric::median_of("s", setup_s));
    if kind == Kind::Durable {
        let resume: Vec<f64> = r.metrics["wall_s"]
            .samples
            .iter()
            .zip(&cold)
            .map(|(w, c)| w - c)
            .collect();
        r.put_extra("cold_s", Metric::min_of("s", cold));
        r.put_extra("resume_s", Metric::min_of("s", resume));
    }
    Ok(r)
}
