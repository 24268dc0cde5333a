//! # paccport-bench — the benchmark harness
//!
//! The **`reproduce` binary** (`cargo run -p paccport-bench --bin
//! reproduce --release`) regenerates every table and figure of the
//! paper's evaluation section on the simulated test bed (use `--quick`
//! for CI-scale inputs, `--exp figN` for one experiment). This library
//! holds its `bench-devsim` measurement ([`devbench`]); the repo's
//! end-to-end benchmark lives in `perfbench/`.

pub mod devbench;

pub use paccport_core::study::Scale;
