//! # paccport-kernels — the four Rodinia benchmarks of the study
//!
//! Each module contains a reference Rust implementation, the OpenACC
//! program builders for every optimization-step variant of the
//! systematic method, the hand-written OpenCL comparison version, and
//! validation helpers. Table IV's benchmark inventory lives in
//! [`common::table4`].
//!
//! | module      | benchmark            | dwarf                | paper input |
//! |-------------|----------------------|----------------------|-------------|
//! | [`lud`]     | LU Decomposition     | Dense Linear Algebra | 4K matrix   |
//! | [`gaussian`]| Gaussian Elimination | Dense Linear Algebra | 8K matrix   |
//! | [`bfs`]     | Breadth First Search | Graph Traversal      | 32M nodes   |
//! | [`backprop`]| Back Propagation     | Unstructured Grid    | 20M layers  |
//!
//! [`stream`] additionally carries the STREAM bandwidth kernels from
//! the authors' previous study (the paper's reference \[11\]), used to
//! pin the device model's memory system.

pub mod backprop;
pub mod bfs;
pub mod common;
pub mod gaussian;
pub mod lud;
pub mod stream;

pub use common::{
    compare_f32, compare_i32, diag_dominant_matrix, random_vec, table4, Validation, VariantCfg,
};
