//! Differential driver: one generated program, many execution legs.
//!
//! Every case is executed by the reference [`oracle`](crate::oracle)
//! first; its `copyout` arrays (compared bit-for-bit via
//! [`Buffer::bits`](paccport_devsim::Buffer::bits)) are the ground
//! truth. The case then runs through:
//!
//! * the full **compiler matrix** — every personality × device the
//!   paper used (CAPS on K40/FirePro/5110P, PGI on K40/FirePro,
//!   hand-OpenCL on all three, OpenARC on K40), each compiled and
//!   executed on the device simulator;
//! * every **semantics-preserving transform variant** (unrolling,
//!   grouped-phase unrolling, strip-mining, serialization, reduction
//!   lowering, `simplify`), checked both oracle-vs-oracle and through
//!   a CAPS/K40 compile-and-run of the transformed program (pass
//!   pipelines are held to the same contract).
//!
//! Within one case, each distinct program is run by the oracle and
//! through CAPS/K40 once: a rewrite that reproduces a program already
//! seen (often the source itself) reuses its results. Every leg still
//! reports under its own label and with its own failure details.
//!
//! Outcomes are classified rather than boolean: a modeled
//! miscompilation (the CAPS `reduction`-on-MIC bug) must show up as
//! [`Outcome::ExpectedDivergence`] — if the quirk model flags a kernel
//! wrong and the values nevertheless match bit-for-bit, that is
//! recorded separately as [`Outcome::BenignMatch`]. Only an
//! *unexpected* difference is a [`Outcome::Mismatch`], and those are
//! shrunk to a minimal reproducer before being reported.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::generate::{generate, Case};
use crate::oracle::run_oracle;
use crate::printer::case_to_test;
use crate::shrink::shrink;
use paccport_compilers::passes::Pipeline;
use paccport_compilers::transforms::TransformVariant;
use paccport_compilers::{compile, CompileError, CompileOptions, CompiledProgram, CompilerId};
use paccport_devsim::{run, ExecTier, RunConfig};
use paccport_ir::{program_to_string, Program};

/// Broad category of a conformance failure. Shrinking preserves the
/// (leg, kind) pair so a bitwise divergence cannot quietly morph into
/// an unrelated runtime error while being minimized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Observable arrays differ bit-for-bit with no quirk excusing it.
    Diverged,
    /// The simulator refused to run the compiled program.
    RunError,
    /// The simulator panicked.
    Panicked,
    /// The reference oracle itself failed — a harness or generator bug.
    OracleError,
    /// A transform produced a program `validate` rejects.
    TransformInvalid,
}

/// Classified result of one execution leg.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Bitwise equal to the oracle.
    Match,
    /// A kernel was flagged known-wrong, yet the values match — the
    /// quirk model is over-cautious on this shape (e.g. a grouped body
    /// with no interior tree phases to drop).
    BenignMatch,
    /// A kernel was flagged known-wrong and the values differ: the
    /// modeled 2014-era miscompilation, reproduced as documented.
    ExpectedDivergence,
    /// The personality refused the program (e.g. PGI targeting MIC).
    CompileRejected(String),
    /// The transform variant did not apply to this program's kernels.
    SkippedTransform,
    /// Unexcused difference from the oracle — a conformance bug.
    Mismatch { kind: FailKind, detail: String },
}

/// One execution leg of a case: a label like `caps/5110P` or
/// `transform/unroll2` plus its classified outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Leg {
    pub label: String,
    pub outcome: Outcome,
}

/// First unexcused failure of a case, if any.
#[derive(Debug, Clone)]
pub struct Failure {
    pub leg: String,
    pub kind: FailKind,
    pub detail: String,
}

/// The compiler-personality × device matrix from the paper.
fn matrix() -> Vec<(CompilerId, CompileOptions, &'static str)> {
    vec![
        (CompilerId::Caps, CompileOptions::gpu(), "caps/K40"),
        (CompilerId::Caps, CompileOptions::amd(), "caps/FirePro"),
        (CompilerId::Caps, CompileOptions::mic(), "caps/5110P"),
        (CompilerId::Pgi, CompileOptions::gpu(), "pgi/K40"),
        (CompilerId::Pgi, CompileOptions::amd(), "pgi/FirePro"),
        (CompilerId::OpenClHand, CompileOptions::gpu(), "opencl/K40"),
        (
            CompilerId::OpenClHand,
            CompileOptions::amd(),
            "opencl/FirePro",
        ),
        (
            CompilerId::OpenClHand,
            CompileOptions::mic(),
            "opencl/5110P",
        ),
        (CompilerId::OpenArc, CompileOptions::gpu(), "openarc/K40"),
    ]
}

/// The matrix leg whose compilation the transform, pass and tier legs
/// reuse.
const REFERENCE_LEG: &str = "caps/K40";

/// Observable arrays of one run: name and bit patterns, in
/// declaration order.
type Observed = Vec<(String, Vec<u64>)>;

/// What one [`check_case`] call has learned about each distinct
/// program it ran. Transform variants and pass prefixes often produce
/// the same program as each other, or the source program itself, so
/// each distinct program goes through the oracle and the CAPS/K40
/// compile-and-run once per case. Lookup is by structural equality;
/// the memo never outlives the case.
struct Memo(Vec<MemoEntry>);

struct MemoEntry {
    program: Program,
    /// The oracle's observables, or its error.
    oracle: Result<Observed, String>,
    /// The CAPS/K40 compile-and-run outcome, once a leg needed it.
    reference: Option<Outcome>,
}

impl Memo {
    /// The entry for `p`, running the oracle on a first sighting.
    fn entry(&mut self, p: Program, case: &Case) -> &mut MemoEntry {
        let i = match self.0.iter().position(|e| e.program == p) {
            Some(i) => i,
            None => {
                let oracle = run_oracle(&p, &case.params, &case.inputs).map(|o| o.observable(&p));
                self.0.push(MemoEntry {
                    program: p,
                    oracle,
                    reference: None,
                });
                self.0.len() - 1
            }
        };
        &mut self.0[i]
    }
}

/// Run every leg of a case and classify each outcome.
pub fn check_case(case: &Case) -> Vec<Leg> {
    let mut legs = Vec::new();
    let base = match run_oracle(&case.program, &case.params, &case.inputs) {
        Ok(o) => o,
        Err(e) => {
            legs.push(Leg {
                label: "oracle".into(),
                outcome: Outcome::Mismatch {
                    kind: FailKind::OracleError,
                    detail: e,
                },
            });
            return legs;
        }
    };
    let want = base.observable(&case.program);
    let mut reference = None;
    for (id, opts, label) in matrix() {
        let compiled = compile(id, &case.program, &opts);
        let outcome = run_compiled(&compiled, case, &want);
        if label == REFERENCE_LEG {
            reference = Some((compiled, outcome.clone()));
        }
        legs.push(Leg {
            label: label.to_string(),
            outcome,
        });
    }
    let (reference, reference_outcome) = reference.expect("the matrix has the reference leg");
    let mut memo = Memo(vec![MemoEntry {
        program: case.program.clone(),
        oracle: Ok(want.clone()),
        reference: Some(reference_outcome),
    }]);
    for v in TransformVariant::all() {
        let mut p = case.program.clone();
        let outcome = if v.apply(&mut p) {
            rewritten_leg(case, p, &v.label(), "transformed program", &want, &mut memo)
        } else {
            Outcome::SkippedTransform
        };
        legs.push(Leg {
            label: format!("transform/{}", v.label()),
            outcome,
        });
    }
    for (label, pl) in pass_pipelines() {
        let mut p = case.program.clone();
        let outcome = if pl.run(&mut p).changed() {
            let what = format!("passes `{}`", pl.label());
            rewritten_leg(case, p, &what, "pass-optimized program", &want, &mut memo)
        } else {
            Outcome::SkippedTransform
        };
        legs.push(Leg { label, outcome });
    }
    legs.push(Leg {
        label: "tier/bytecode".into(),
        outcome: tier_leg(case, &reference),
    });
    legs
}

/// The middle-end pass legs: every optimization pass of the default
/// pipeline alone, then each prefix of the pipeline (so an
/// interaction bug between passes is pinned to the first prefix that
/// exposes it).
fn pass_pipelines() -> Vec<(String, Pipeline)> {
    let defaults = paccport_compilers::passes::DEFAULT_PASSES;
    let mut out = Vec::new();
    for name in defaults {
        out.push((format!("pass/{name}"), Pipeline::parse(name).unwrap()));
    }
    for n in 2..=defaults.len() {
        let spec = defaults[..n].join(",");
        out.push((
            format!("pass/default[..{n}]"),
            Pipeline::parse(&spec).unwrap(),
        ));
    }
    out
}

/// The tier-equivalence leg, run after every compiler, transform and
/// pass leg: execute the CAPS/K40 compilation of the case under
/// both execution tiers — tree-walker and bytecode VM — with the race
/// detector shadow-logging, and require the *entire* observable run
/// state to agree bitwise: every host buffer (f64 bit patterns), the
/// deduplicated race set, the shadow-log access count, transfer
/// ledger, while-loop iteration count, per-kernel stats and every
/// modeled timing. A panic is only excused if both tiers panic with
/// the same message.
fn tier_leg(case: &Case, compiled: &Result<CompiledProgram, CompileError>) -> Outcome {
    let cp = match compiled {
        Ok(cp) => cp,
        Err(e) => return Outcome::CompileRejected(e.message.clone()),
    };
    let run_tier = |tier: ExecTier| {
        let mut cfg = RunConfig::functional(case.params.clone())
            .with_race_check(true)
            .with_tier(tier);
        for (name, buf) in &case.inputs {
            cfg = cfg.with_input(name, buf.clone());
        }
        catch_unwind(AssertUnwindSafe(|| run(cp, &cfg)))
    };
    let tree = run_tier(ExecTier::Tree);
    let byte = run_tier(ExecTier::Bytecode);
    match (tree, byte) {
        (Err(pt), Err(pb)) => {
            let (mt, mb) = (panic_message(pt), panic_message(pb));
            if mt == mb {
                Outcome::Match
            } else {
                Outcome::Mismatch {
                    kind: FailKind::Panicked,
                    detail: format!("tiers panicked differently: tree `{mt}` vs bytecode `{mb}`"),
                }
            }
        }
        (Err(pt), Ok(_)) => Outcome::Mismatch {
            kind: FailKind::Panicked,
            detail: format!(
                "tree tier panicked (`{}`), bytecode did not",
                panic_message(pt)
            ),
        },
        (Ok(_), Err(pb)) => Outcome::Mismatch {
            kind: FailKind::Panicked,
            detail: format!(
                "bytecode tier panicked (`{}`), tree did not",
                panic_message(pb)
            ),
        },
        (Ok(Err(et)), Ok(Err(eb))) => {
            if et == eb {
                Outcome::Match
            } else {
                Outcome::Mismatch {
                    kind: FailKind::RunError,
                    detail: format!("tiers erred differently: tree `{et}` vs bytecode `{eb}`"),
                }
            }
        }
        (Ok(Err(e)), Ok(Ok(_))) => Outcome::Mismatch {
            kind: FailKind::RunError,
            detail: format!("tree tier erred (`{e}`), bytecode succeeded"),
        },
        (Ok(Ok(_)), Ok(Err(e))) => Outcome::Mismatch {
            kind: FailKind::RunError,
            detail: format!("bytecode tier erred (`{e}`), tree succeeded"),
        },
        (Ok(Ok(rt)), Ok(Ok(rb))) => match rt.diff(&rb) {
            None => Outcome::Match,
            Some(d) => Outcome::Mismatch {
                kind: FailKind::Diverged,
                detail: format!("tree vs bytecode: {d}"),
            },
        },
    }
}

fn run_compiled(
    compiled: &Result<CompiledProgram, CompileError>,
    case: &Case,
    want: &[(String, Vec<u64>)],
) -> Outcome {
    match compiled {
        Ok(cp) => exec_and_compare(cp, case, want),
        Err(e) => Outcome::CompileRejected(e.message.clone()),
    }
}

/// A transform variant or pass pipeline that rewrote the case's
/// program into `p` must (a) keep it valid, (b) preserve big-step
/// semantics under the oracle, and (c) still compile and run
/// bitwise-identically through CAPS on the K40. `what` names the
/// rewrite and `noun` the rewritten program in failure details.
fn rewritten_leg(
    case: &Case,
    p: Program,
    what: &str,
    noun: &str,
    want: &[(String, Vec<u64>)],
    memo: &mut Memo,
) -> Outcome {
    if let Err(e) = paccport_ir::validate(&p) {
        return Outcome::Mismatch {
            kind: FailKind::TransformInvalid,
            detail: format!("{what} broke validation: {e:?}"),
        };
    }
    let entry = memo.entry(p, case);
    let got = match &entry.oracle {
        Ok(got) => got,
        Err(e) => {
            return Outcome::Mismatch {
                kind: FailKind::OracleError,
                detail: format!("oracle failed on {noun}: {e}"),
            }
        }
    };
    if let Some(d) = diff_observables(want, got) {
        return Outcome::Mismatch {
            kind: FailKind::Diverged,
            detail: format!("oracle-vs-oracle after {what}: {d}"),
        };
    }
    let program = &entry.program;
    entry
        .reference
        .get_or_insert_with(|| {
            let compiled = compile(CompilerId::Caps, program, &CompileOptions::gpu());
            run_compiled(&compiled, case, want)
        })
        .clone()
}

fn exec_and_compare(cp: &CompiledProgram, case: &Case, want: &[(String, Vec<u64>)]) -> Outcome {
    let mut cfg = RunConfig::functional(case.params.clone());
    for (name, buf) in &case.inputs {
        cfg = cfg.with_input(name, buf.clone());
    }
    let res = match catch_unwind(AssertUnwindSafe(|| run(cp, &cfg))) {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            return Outcome::Mismatch {
                kind: FailKind::RunError,
                detail: e,
            }
        }
        Err(payload) => {
            return Outcome::Mismatch {
                kind: FailKind::Panicked,
                detail: panic_message(payload),
            }
        }
    };
    let mut got = Vec::with_capacity(want.len());
    for (name, _) in want {
        match res.buffer(cp, name) {
            Some(b) => got.push((name.clone(), b.bits())),
            None => {
                return Outcome::Mismatch {
                    kind: FailKind::RunError,
                    detail: format!("observable array `{name}` missing from run result"),
                }
            }
        }
    }
    match diff_observables(want, &got) {
        None => {
            if res.any_known_wrong {
                Outcome::BenignMatch
            } else {
                Outcome::Match
            }
        }
        Some(d) => {
            if res.any_known_wrong {
                Outcome::ExpectedDivergence
            } else {
                Outcome::Mismatch {
                    kind: FailKind::Diverged,
                    detail: d,
                }
            }
        }
    }
}

/// First bit-level difference between two observable snapshots.
fn diff_observables(want: &[(String, Vec<u64>)], got: &[(String, Vec<u64>)]) -> Option<String> {
    for (name, wbits) in want {
        let Some((_, gbits)) = got.iter().find(|(n, _)| n == name) else {
            return Some(format!("array `{name}` absent"));
        };
        if wbits.len() != gbits.len() {
            return Some(format!(
                "array `{name}` length {} vs {}",
                wbits.len(),
                gbits.len()
            ));
        }
        for (i, (w, g)) in wbits.iter().zip(gbits).enumerate() {
            if w != g {
                return Some(format!(
                    "{name}[{i}]: oracle bits {w:#018x} vs observed {g:#018x}"
                ));
            }
        }
    }
    None
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// First unexcused failure of a case across all legs, if any.
pub fn failure_of(case: &Case) -> Option<Failure> {
    check_case(case)
        .into_iter()
        .find_map(|leg| match leg.outcome {
            Outcome::Mismatch { kind, detail } => Some(Failure {
                leg: leg.label,
                kind,
                detail,
            }),
            _ => None,
        })
}

/// Shrink a failing case while preserving the failing (leg, kind)
/// pair, so the minimized program still exhibits the *same* bug.
pub fn shrink_failure(case: &Case, f: &Failure) -> Case {
    let leg = f.leg.clone();
    let kind = f.kind;
    shrink(
        case,
        &|c: &Case| matches!(failure_of(c), Some(g) if g.leg == leg && g.kind == kind),
    )
}

/// Assert a single case conforms on every leg; on failure, panic with
/// the shrunk reproducer and a paste-ready regression test.
pub fn assert_conforms(case: &Case) {
    if let Some(f) = failure_of(case) {
        let shrunk = shrink_failure(case, &f);
        panic!(
            "conformance failure on leg `{}` ({:?}): {}\n\
             shrunk reproducer ({} statements):\n{}\n\
             paste-ready regression test:\n{}",
            f.leg,
            f.kind,
            f.detail,
            shrunk.program.stmt_count(),
            program_to_string(&shrunk.program),
            case_to_test(&shrunk),
        );
    }
}

/// One minimized, reportable conformance failure.
#[derive(Debug, Clone)]
pub struct Counterexample {
    pub index: u64,
    pub leg: String,
    pub kind: FailKind,
    pub detail: String,
    /// `program_to_string` of the shrunk program.
    pub shrunk_program: String,
    /// Paste-ready `#[test]` source reproducing the failure.
    pub regression: String,
    pub shrunk_stmts: usize,
}

/// Aggregated result of a conformance run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub programs: u64,
    pub seed: u64,
    pub matches: u64,
    pub benign: u64,
    pub expected_divergence: u64,
    pub compile_rejected: u64,
    pub transforms_applied: u64,
    pub transforms_skipped: u64,
    /// Distinct legs on which expected divergence was observed — the
    /// quirk model must actually fire over a healthy corpus.
    pub divergence_legs: Vec<String>,
    pub counterexamples: Vec<Counterexample>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Deterministic text rendering (no timing, no paths): two runs
    /// with the same (programs, seed) must render byte-identically.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "differential conformance: {} programs, seed {}\n",
            self.programs, self.seed
        ));
        s.push_str(&format!(
            "  legs: {} compiler targets + {} transform variants + {} pass pipelines + 1 tier-equivalence leg per program\n",
            matrix().len(),
            TransformVariant::all().len(),
            pass_pipelines().len()
        ));
        s.push_str(&format!("  match              : {}\n", self.matches));
        s.push_str(&format!(
            "  benign match       : {}  (flagged known-wrong, values bitwise equal)\n",
            self.benign
        ));
        s.push_str(&format!(
            "  expected divergence: {}  (modeled miscompilation fired)\n",
            self.expected_divergence
        ));
        for leg in &self.divergence_legs {
            s.push_str(&format!("      on {leg}\n"));
        }
        s.push_str(&format!(
            "  compile rejected   : {}  (e.g. PGI cannot target MIC)\n",
            self.compile_rejected
        ));
        s.push_str(&format!(
            "  transforms applied : {}  (skipped {} not-applicable)\n",
            self.transforms_applied, self.transforms_skipped
        ));
        s.push_str(&format!(
            "  mismatches         : {}\n",
            self.counterexamples.len()
        ));
        for ce in &self.counterexamples {
            s.push_str(&format!(
                "\nMISMATCH program {} leg `{}` ({:?}): {}\n",
                ce.index, ce.leg, ce.kind, ce.detail
            ));
            s.push_str(&format!(
                "shrunk to {} statements:\n{}\n",
                ce.shrunk_stmts, ce.shrunk_program
            ));
            s.push_str(&format!("regression test:\n{}\n", ce.regression));
        }
        s
    }
}

/// Stable metric label for a leg outcome
/// (`conformance_legs_total{outcome=...}`).
fn outcome_label(o: &Outcome) -> &'static str {
    match o {
        Outcome::Match => "match",
        Outcome::BenignMatch => "benign",
        Outcome::ExpectedDivergence => "expected-divergence",
        Outcome::CompileRejected(_) => "compile-rejected",
        Outcome::SkippedTransform => "skipped-transform",
        Outcome::Mismatch { .. } => "mismatch",
    }
}

/// Generate `programs` cases from `seed` and run each through every
/// leg. Mismatches are shrunk and reported; everything else is
/// tallied.
pub fn run_conformance(programs: u64, seed: u64) -> Report {
    let mut r = Report {
        programs,
        seed,
        ..Report::default()
    };
    for index in 0..programs {
        let _case_span =
            paccport_trace::span_attrs("conform.case", vec![("index".into(), index.to_string())]);
        let case = generate(seed, index);
        for leg in check_case(&case) {
            let is_transform =
                leg.label.starts_with("transform/") || leg.label.starts_with("pass/");
            if paccport_trace::metrics::metrics_enabled() {
                paccport_trace::metrics::counter_add(
                    "conformance_legs_total",
                    &[("outcome", outcome_label(&leg.outcome))],
                    1,
                );
            }
            match leg.outcome {
                Outcome::Match | Outcome::BenignMatch if is_transform => {
                    r.transforms_applied += 1;
                    if matches!(leg.outcome, Outcome::BenignMatch) {
                        r.benign += 1;
                    } else {
                        r.matches += 1;
                    }
                }
                Outcome::Match => r.matches += 1,
                Outcome::BenignMatch => r.benign += 1,
                Outcome::ExpectedDivergence => {
                    if is_transform {
                        r.transforms_applied += 1;
                    }
                    r.expected_divergence += 1;
                    if !r.divergence_legs.contains(&leg.label) {
                        r.divergence_legs.push(leg.label.clone());
                    }
                }
                Outcome::CompileRejected(_) => r.compile_rejected += 1,
                Outcome::SkippedTransform => r.transforms_skipped += 1,
                Outcome::Mismatch { kind, detail } => {
                    if is_transform {
                        r.transforms_applied += 1;
                    }
                    let failure = Failure {
                        leg: leg.label.clone(),
                        kind,
                        detail: detail.clone(),
                    };
                    let shrunk = shrink_failure(&case, &failure);
                    r.counterexamples.push(Counterexample {
                        index,
                        leg: leg.label,
                        kind,
                        detail,
                        shrunk_program: program_to_string(&shrunk.program),
                        regression: case_to_test(&shrunk),
                        shrunk_stmts: shrunk.program.stmt_count(),
                    });
                }
            }
        }
    }
    r.divergence_legs.sort();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`check_case`] without the per-case memo: every leg compiles
    /// and runs its own program. The reference the memo must match.
    fn check_case_memo_free(case: &Case) -> Vec<Leg> {
        let base = match run_oracle(&case.program, &case.params, &case.inputs) {
            Ok(o) => o,
            Err(e) => {
                return vec![Leg {
                    label: "oracle".into(),
                    outcome: Outcome::Mismatch {
                        kind: FailKind::OracleError,
                        detail: e,
                    },
                }]
            }
        };
        let want = base.observable(&case.program);
        let mut legs = Vec::new();
        for (id, opts, label) in matrix() {
            legs.push(Leg {
                label: label.to_string(),
                outcome: run_compiled(&compile(id, &case.program, &opts), case, &want),
            });
        }
        for v in TransformVariant::all() {
            let mut p = case.program.clone();
            let outcome = if v.apply(&mut p) {
                rewritten_leg_memo_free(case, &p, &v.label(), "transformed program", &want)
            } else {
                Outcome::SkippedTransform
            };
            legs.push(Leg {
                label: format!("transform/{}", v.label()),
                outcome,
            });
        }
        for (label, pl) in pass_pipelines() {
            let mut p = case.program.clone();
            let outcome = if pl.run(&mut p).changed() {
                let what = format!("passes `{}`", pl.label());
                rewritten_leg_memo_free(case, &p, &what, "pass-optimized program", &want)
            } else {
                Outcome::SkippedTransform
            };
            legs.push(Leg { label, outcome });
        }
        let compiled = compile(CompilerId::Caps, &case.program, &CompileOptions::gpu());
        legs.push(Leg {
            label: "tier/bytecode".into(),
            outcome: tier_leg(case, &compiled),
        });
        legs
    }

    fn rewritten_leg_memo_free(
        case: &Case,
        p: &Program,
        what: &str,
        noun: &str,
        want: &[(String, Vec<u64>)],
    ) -> Outcome {
        if let Err(e) = paccport_ir::validate(p) {
            return Outcome::Mismatch {
                kind: FailKind::TransformInvalid,
                detail: format!("{what} broke validation: {e:?}"),
            };
        }
        let t = match run_oracle(p, &case.params, &case.inputs) {
            Ok(o) => o,
            Err(e) => {
                return Outcome::Mismatch {
                    kind: FailKind::OracleError,
                    detail: format!("oracle failed on {noun}: {e}"),
                }
            }
        };
        if let Some(d) = diff_observables(want, &t.observable(p)) {
            return Outcome::Mismatch {
                kind: FailKind::Diverged,
                detail: format!("oracle-vs-oracle after {what}: {d}"),
            };
        }
        run_compiled(
            &compile(CompilerId::Caps, p, &CompileOptions::gpu()),
            case,
            want,
        )
    }

    /// The memo changes how often legs execute, never what they
    /// report.
    #[test]
    fn memo_is_invisible() {
        for seed in [5, 42] {
            for index in 0..30 {
                let case = generate(seed, index);
                assert_eq!(
                    check_case(&case),
                    check_case_memo_free(&case),
                    "seed {seed}, program {index}"
                );
            }
        }
    }

    /// Correct rewrites are semantically equal, so a memo that served
    /// one program's results for another would rarely show on
    /// generated cases. Here the rewrites differ: each leg must still
    /// get its own program's results under its own label.
    #[test]
    fn memo_keeps_distinct_programs_apart() {
        use paccport_ir::{st, Expr, HostStmt, Intent, Kernel, ParallelLoop, ProgramBuilder};
        let storing = |value: f64| {
            let mut b = ProgramBuilder::new("fill");
            let n = b.iparam("n");
            let y = b.array("y", paccport_ir::Scalar::F32, n, Intent::Out);
            let i = b.var("i");
            let k = Kernel::simple(
                "fill",
                vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
                paccport_ir::Block::new(vec![st(y, i, Expr::fconst(value))]),
            );
            b.finish(vec![HostStmt::Launch(k)])
        };
        let case = Case {
            seed: 0,
            index: 0,
            program: storing(1.0),
            params: vec![("n".to_string(), 4.0)],
            inputs: vec![],
        };
        let want = run_oracle(&case.program, &case.params, &case.inputs)
            .expect("oracle runs the fill kernel")
            .observable(&case.program);
        let mut memo = Memo(Vec::new());
        for (value, what) in [
            (2.0, "first"),
            (1.0, "second"),
            (2.0, "third"),
            (1.0, "fourth"),
        ] {
            let p = storing(value);
            let expected = rewritten_leg_memo_free(&case, &p, what, "rewritten program", &want);
            let got = rewritten_leg(&case, p, what, "rewritten program", &want, &mut memo);
            assert_eq!(got, expected, "leg {what}");
        }
        assert_eq!(memo.0.len(), 2, "one entry per distinct program");
    }

    /// The first few generated programs must conform on every leg —
    /// the cheap smoke tier of `reproduce conform`.
    #[test]
    fn generated_programs_conform_smoke() {
        for index in 0..6 {
            assert_conforms(&generate(42, index));
        }
    }

    #[test]
    fn report_render_is_deterministic() {
        let a = run_conformance(4, 42).render();
        let b = run_conformance(4, 42).render();
        assert_eq!(a, b);
    }

    /// The default pass pipeline is idempotent over generated
    /// programs: once it reaches fixpoint, a second run finds nothing
    /// left to rewrite and leaves the program byte-identical.
    #[test]
    fn default_pipeline_is_idempotent_on_generated_programs() {
        let pl = Pipeline::default_pipeline();
        for index in 0..12 {
            let case = generate(42, index);
            let mut p = case.program.clone();
            pl.run(&mut p);
            let after_first = format!("{p:?}");
            let stats = pl.run(&mut p);
            assert!(
                !stats.changed(),
                "second pipeline run still rewrites program {index}: {:?}",
                stats.applied
            );
            assert_eq!(
                after_first,
                format!("{p:?}"),
                "program {index} not stable after fixpoint"
            );
        }
    }
}
