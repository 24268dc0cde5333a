//! Differential conformance harness for the paccport IR.
//!
//! The simulator, the compiler personalities and the loop transforms
//! all claim to implement *the same language*. This crate checks that
//! claim mechanically, the way csmith checks C compilers:
//!
//! 1. [`oracle`] — a big-step reference interpreter over the IR with
//!    flat memory and no lowering. It is deliberately clause-blind:
//!    `gang`/`vector`/`tile` hints, data regions and `update`
//!    directives must not change observable values, so the oracle
//!    ignores them and anything that *does* change is a bug (or a
//!    modeled one).
//! 2. [`mod@generate`] — a seeded generator of well-typed programs drawn
//!    from the paper's benchmark shapes, constrained so every compiler
//!    leg is *bitwise* comparable to the oracle.
//! 3. [`driver`] — runs each program through the oracle, the
//!    functional simulator, every compiler personality × device and
//!    every semantics-preserving transform, and classifies the
//!    outcome. Known-miscompilation quirks (the CAPS MIC reduction
//!    bug) must show up as *expected* divergence — silently passing
//!    would itself be a failure of the quirk model.
//! 4. [`mod@shrink`] — greedy structural minimizer; failures are reported
//!    as the smallest program that still fails, printed by
//!    [`printer`] as a paste-ready regression test.
//!
//! [`corpus`] pins previously hand-found bugs as generated-program
//! regressions.

pub mod corpus;
pub mod driver;
pub mod generate;
pub mod oracle;
pub mod printer;
pub mod shrink;

/// The generator's seeded stream, re-exported from its one home.
pub mod rng {
    pub use paccport_trace::rng::Rng;
}

pub use driver::{
    assert_conforms, check_case, failure_of, run_conformance, shrink_failure, Counterexample,
    FailKind, Failure, Leg, Outcome, Report,
};
pub use generate::{generate, Case};
pub use oracle::{run_oracle, OracleOutput};
pub use printer::case_to_test;
pub use shrink::shrink;
