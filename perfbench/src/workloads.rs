//! The five workloads and what each one times. Each runs the release
//! `reproduce` binary exactly as a user would (`--trace 0`), or replays the
//! same work in-process under the benchmark's spans (`--trace 1`).

use std::path::PathBuf;
use std::time::Duration;

use crate::report::WorkloadReport;
use crate::{batch, replay, serve};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `reproduce` at paper scale: bound by the analytic timing model.
    Paper,
    /// `reproduce --check --scale quick`: functional interpretation under
    /// the race detector.
    Check,
    /// `reproduce conform`: many small generated programs through every
    /// compiler personality, transform and pass leg; compile-heavy.
    Conform,
    /// `reproduce --quick --state-dir D`, then `--resume`: journal and
    /// artifact-store writes, then replay reads.
    Durable,
    /// `reproduce serve` under an open-loop request schedule.
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Paper,
        Kind::Check,
        Kind::Conform,
        Kind::Durable,
        Kind::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Check => "check",
            Kind::Conform => "conform",
            Kind::Durable => "durable",
            Kind::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Generator seed of the `conform` workload and the conformance probes,
/// whatever the run's seed. The seed changes how much work 300 generated
/// programs are (by about a fifth), and some seeds reach a known
/// divergence of the reduction-to-grouped transform (seed 5, program 214),
/// which would count as failed operations. 42 is the seed CI checks.
pub const CONFORM_SEED: u64 = 42;

/// Settings shared by every workload of one run.
pub struct Ctx {
    pub bin: PathBuf,
    /// Scratch space inside the checkout's build directory.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    /// Smallest sizes and one repetition: checks the harness, not speed.
    pub smoke: bool,
}

impl Ctx {
    /// The scale name batch commands and the server use.
    pub fn scale(&self, normal: &'static str) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            normal
        }
    }
}

pub fn run(kind: Kind, ctx: &Ctx, trace: bool) -> Result<WorkloadReport, String> {
    let dir = ctx.work.join(kind.name());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let report = match (kind, trace) {
        (Kind::Serve, false) => serve::run(ctx, &dir),
        (_, false) => batch::run(kind, ctx, &dir),
        (_, true) => replay::run(kind, ctx, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    report
}
