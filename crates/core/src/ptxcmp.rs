//! PTX-comparison analysis (the paper's Figures 6, 9, 11, 14): static
//! per-category counts of every version, plus the "did the PTX
//! actually change?" verdicts that exposed CAPS's fake unroll success
//! and the silent tiling no-op.

use paccport_ptx::{CategoryCounts, CATEGORIES};

/// One bar of a PTX-composition plot.
#[derive(Debug, Clone, PartialEq)]
pub struct PtxBar {
    /// e.g. "CAPS-CUDA-K40 / Indep".
    pub label: String,
    /// Thread-configuration line under the bar ("32x4", "1x1", …).
    pub config: String,
    pub counts: CategoryCounts,
    pub memcpy_h2d: u64,
    pub memcpy_d2h: u64,
    /// Kernel-launch count (Fig. 9's `3N` vs `2N` row).
    pub launches: u64,
}

/// A full PTX figure.
#[derive(Debug, Clone, PartialEq)]
pub struct PtxFigure {
    pub id: String,
    pub title: String,
    pub bars: Vec<PtxBar>,
}

/// Verdict of comparing two adjacent optimization steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepVerdict {
    /// Counts identical — the "optimization" did nothing to the code
    /// (fake success / silent no-op).
    Unchanged,
    /// Counts changed; the listed categories grew/shrank.
    Changed(Vec<(String, i64)>),
}

/// Compare step `b` against its predecessor `a`.
pub fn compare_steps(a: &CategoryCounts, b: &CategoryCounts) -> StepVerdict {
    if b.unchanged_from(a) {
        StepVerdict::Unchanged
    } else {
        StepVerdict::Changed(
            b.diff(a)
                .into_iter()
                .map(|(c, d)| (c.label().to_string(), d))
                .collect(),
        )
    }
}

impl PtxFigure {
    /// Adjacent-step verdicts within one series (bars must share a
    /// series prefix "SERIES / VARIANT").
    pub fn verdicts(&self, series_prefix: &str) -> Vec<(String, StepVerdict)> {
        let bars: Vec<&PtxBar> = self
            .bars
            .iter()
            .filter(|b| b.label.starts_with(series_prefix))
            .collect();
        bars.windows(2)
            .map(|w| {
                (
                    format!("{} -> {}", w[0].label, w[1].label),
                    compare_steps(&w[0].counts, &w[1].counts),
                )
            })
            .collect()
    }

    /// Does any bar of the series use shared memory? (The tiling
    /// finding: OpenACC tiling never does.)
    pub fn any_shared_memory(&self, series_prefix: &str) -> bool {
        self.bars
            .iter()
            .filter(|b| b.label.starts_with(series_prefix))
            .any(|b| b.counts.get(paccport_ptx::Category::SharedMemory) > 0)
    }
}

/// Render the per-category composition of one bar as a one-line
/// summary.
pub fn composition_line(c: &CategoryCounts) -> String {
    CATEGORIES
        .iter()
        .map(|cat| format!("{}={}", short(cat.label()), c.get(*cat)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn short(label: &str) -> String {
    label
        .split_whitespace()
        .map(|w| w.chars().next().unwrap_or('?'))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ptx::Category;

    #[test]
    fn unchanged_detection() {
        let mut a = CategoryCounts::default();
        a.add_n(Category::Arithmetic, 4);
        assert_eq!(compare_steps(&a, &a), StepVerdict::Unchanged);
        let mut b = a;
        b.add_n(Category::DataMovement, 3);
        match compare_steps(&a, &b) {
            StepVerdict::Changed(d) => {
                assert_eq!(d, vec![("Data Mov.".to_string(), 3)]);
            }
            StepVerdict::Unchanged => panic!("should differ"),
        }
    }

    #[test]
    fn figure_verdicts_walk_adjacent_bars() {
        let mut c1 = CategoryCounts::default();
        c1.add_n(Category::Arithmetic, 2);
        let c2 = c1;
        let mut c3 = c1;
        c3.add_n(Category::Arithmetic, 2);
        let bar = |label: &str, counts| PtxBar {
            label: label.into(),
            config: "32x4".into(),
            counts,
            memcpy_h2d: 0,
            memcpy_d2h: 0,
            launches: 0,
        };
        let fig = PtxFigure {
            id: "t".into(),
            title: "t".into(),
            bars: vec![
                bar("CAPS / Base", c1),
                bar("CAPS / Tile", c2),
                bar("CAPS / Unroll", c3),
            ],
        };
        let v = fig.verdicts("CAPS");
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].1, StepVerdict::Unchanged);
        assert!(matches!(v[1].1, StepVerdict::Changed(_)));
        assert!(!fig.any_shared_memory("CAPS"));
    }

    #[test]
    fn composition_line_is_compact() {
        let mut c = CategoryCounts::default();
        c.add_n(Category::GlobalMemory, 7);
        let line = composition_line(&c);
        assert!(line.contains("GM=7"), "{line}");
    }
}
