//! Per-category instruction counting and diffing.

use crate::isa::{Category, CATEGORIES};
use std::ops::{Add, AddAssign, Mul};

/// Instruction counts per Table-V category.
///
/// Used both for *static* counts (what the paper plots in Figures 6,
/// 9, 11 and 14) and — multiplied by trip counts — for the *dynamic*
/// estimates the timing model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CategoryCounts {
    counts: [u64; CATEGORIES.len()],
}

impl CategoryCounts {
    pub fn get(&self, c: Category) -> u64 {
        self.counts[c.index()]
    }

    pub fn set(&mut self, c: Category, v: u64) {
        self.counts[c.index()] = v;
    }

    pub fn bump(&mut self, c: Category) {
        self.counts[c.index()] += 1;
    }

    pub fn add_n(&mut self, c: Category, n: u64) {
        self.counts[c.index()] += n;
    }

    /// Total over all categories *except* sync/control, matching what
    /// the paper's composition plots show.
    pub fn total_plotted(&self) -> u64 {
        CATEGORIES
            .iter()
            .filter(|c| **c != Category::Sync)
            .map(|c| self.get(*c))
            .sum()
    }

    /// Total over all categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterate `(category, count)` in Table-V column order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, u64)> + '_ {
        CATEGORIES.iter().map(move |c| (*c, self.get(*c)))
    }

    /// Saturating per-category difference `self - other` plus
    /// `other - self`, for "what changed between versions" reports.
    pub fn diff(&self, other: &CategoryCounts) -> Vec<(Category, i64)> {
        CATEGORIES
            .iter()
            .map(|c| (*c, self.get(*c) as i64 - other.get(*c) as i64))
            .filter(|(_, d)| *d != 0)
            .collect()
    }

    /// True when both count vectors are identical — the signal the
    /// paper used to detect CAPS's fake unroll success ("the PTX
    /// instructions remain the same").
    pub fn unchanged_from(&self, other: &CategoryCounts) -> bool {
        self == other
    }

    /// Scale by a (possibly fractional) trip-count factor, rounding
    /// to nearest. Used by the sampled dynamic estimator.
    pub fn scale(&self, factor: f64) -> CategoryCounts {
        let mut out = CategoryCounts::default();
        for (i, v) in self.counts.iter().enumerate() {
            out.counts[i] = (*v as f64 * factor).round() as u64;
        }
        out
    }

    /// Float view used for weighted accumulation.
    pub fn as_f64(&self) -> [f64; CATEGORIES.len()] {
        let mut out = [0.0; CATEGORIES.len()];
        for (i, v) in self.counts.iter().enumerate() {
            out[i] = *v as f64;
        }
        out
    }
}

impl Add for CategoryCounts {
    type Output = CategoryCounts;
    fn add(mut self, rhs: CategoryCounts) -> CategoryCounts {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts.iter()) {
            *a += *b;
        }
        self
    }
}

impl AddAssign for CategoryCounts {
    fn add_assign(&mut self, rhs: CategoryCounts) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts.iter()) {
            *a += *b;
        }
    }
}

impl Mul<u64> for CategoryCounts {
    type Output = CategoryCounts;
    fn mul(mut self, rhs: u64) -> CategoryCounts {
        for a in self.counts.iter_mut() {
            *a *= rhs;
        }
        self
    }
}

/// Per-kernel counts for a whole module, with the producer string —
/// one bar of a Figure-6-style composition plot.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleCounts {
    pub producer: String,
    pub per_kernel: Vec<(String, CategoryCounts)>,
}

impl ModuleCounts {
    pub fn from_module(m: &crate::kernel::PtxModule) -> Self {
        ModuleCounts {
            producer: m.producer.clone(),
            per_kernel: m
                .kernels
                .iter()
                .map(|k| (k.name.clone(), k.counts()))
                .collect(),
        }
    }

    pub fn total(&self) -> CategoryCounts {
        self.per_kernel
            .iter()
            .map(|(_, c)| *c)
            .fold(CategoryCounts::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_on_counts() {
        let mut a = CategoryCounts::default();
        a.bump(Category::Arithmetic);
        a.add_n(Category::GlobalMemory, 4);
        let b = a + a;
        assert_eq!(b.get(Category::Arithmetic), 2);
        assert_eq!(b.get(Category::GlobalMemory), 8);
        assert_eq!(b.total(), 10);
        let c = a * 3;
        assert_eq!(c.get(Category::GlobalMemory), 12);
    }

    #[test]
    fn plotted_total_excludes_sync() {
        let mut a = CategoryCounts::default();
        a.add_n(Category::Arithmetic, 5);
        a.add_n(Category::Sync, 2);
        assert_eq!(a.total_plotted(), 5);
        assert_eq!(a.total(), 7);
    }

    #[test]
    fn diff_reports_only_changes() {
        let mut a = CategoryCounts::default();
        a.add_n(Category::Arithmetic, 5);
        let mut b = CategoryCounts::default();
        b.add_n(Category::Arithmetic, 5);
        b.add_n(Category::SharedMemory, 1);
        assert!(a.unchanged_from(&a));
        assert!(!a.unchanged_from(&b));
        let d = b.diff(&a);
        assert_eq!(d, vec![(Category::SharedMemory, 1)]);
    }

    #[test]
    fn scaling_rounds_to_nearest() {
        let mut a = CategoryCounts::default();
        a.add_n(Category::Arithmetic, 3);
        let s = a.scale(2.5);
        assert_eq!(s.get(Category::Arithmetic), 8); // 7.5 → 8
    }
}
