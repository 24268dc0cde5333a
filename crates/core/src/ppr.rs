//! The Performance Portability Ratio (Eq. 1 of the paper):
//!
//! ```text
//! PPR = MIC_elapsed / GPU_elapsed
//! ```
//!
//! Lower is better (1.0 = perfectly portable performance); all the
//! paper's measurements land above 1 because the K40 outruns the
//! 5110P.

/// One PPR measurement for a single-source version of a benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct PprEntry {
    pub benchmark: String,
    /// "OpenACC (CAPS)" or "OpenCL" — the single source base.
    pub version: String,
    pub gpu_seconds: f64,
    pub mic_seconds: f64,
}

impl PprEntry {
    /// Eq. 1. A ratio only makes sense over two positive, finite
    /// timings; a zero or degenerate `gpu_seconds` yields `NaN`
    /// rather than silently injecting `inf` into reports (all
    /// comparison predicates are then false).
    pub fn ppr(&self) -> f64 {
        if self.is_valid() {
            self.mic_seconds / self.gpu_seconds
        } else {
            f64::NAN
        }
    }

    /// Both timings are positive and finite, so [`PprEntry::ppr`] is a
    /// meaningful ratio.
    pub fn is_valid(&self) -> bool {
        self.gpu_seconds > 0.0
            && self.gpu_seconds.is_finite()
            && self.mic_seconds > 0.0
            && self.mic_seconds.is_finite()
    }
}

/// The Fig.-16 comparison for one benchmark: OpenACC's PPR against
/// OpenCL's.
#[derive(Debug, Clone, PartialEq)]
pub struct PprComparison {
    pub openacc: PprEntry,
    pub opencl: PprEntry,
}

impl PprComparison {
    /// The paper's headline: "the optimized OpenACC versions are able
    /// to have a better PPR than the OpenCL versions" (lower ratio).
    pub fn openacc_is_more_portable(&self) -> bool {
        self.openacc.ppr() < self.opencl.ppr()
    }

    /// "Both … run faster on Kepler K40 than MIC 5110P as all the PPR
    /// are larger than 1."
    pub fn both_favor_gpu(&self) -> bool {
        self.openacc.ppr() > 1.0 && self.opencl.ppr() > 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(version: &str, gpu: f64, mic: f64) -> PprEntry {
        PprEntry {
            benchmark: "GE".into(),
            version: version.into(),
            gpu_seconds: gpu,
            mic_seconds: mic,
        }
    }

    #[test]
    fn eq1_is_mic_over_gpu() {
        assert_eq!(entry("x", 2.0, 6.0).ppr(), 3.0);
    }

    #[test]
    fn zero_or_degenerate_gpu_time_yields_nan_not_inf() {
        for bad in [
            entry("x", 0.0, 6.0),
            entry("x", -1.0, 6.0),
            entry("x", f64::NAN, 6.0),
            entry("x", f64::INFINITY, 6.0),
            entry("x", 2.0, f64::NAN),
            entry("x", 2.0, 0.0),
        ] {
            assert!(!bad.is_valid());
            assert!(bad.ppr().is_nan(), "{bad:?}");
        }
        // The comparison predicates degrade safely rather than
        // declaring a winner off a division by zero.
        let c = PprComparison {
            openacc: entry("OpenACC", 0.0, 2.0),
            opencl: entry("OpenCL", 1.0, 9.0),
        };
        assert!(!c.openacc_is_more_portable());
        assert!(!c.both_favor_gpu());
    }

    #[test]
    fn comparison_predicates() {
        let c = PprComparison {
            openacc: entry("OpenACC", 1.0, 2.0),
            opencl: entry("OpenCL", 1.0, 9.0),
        };
        assert!(c.openacc_is_more_portable());
        assert!(c.both_favor_gpu());
        let c2 = PprComparison {
            openacc: entry("OpenACC", 1.0, 0.5),
            opencl: entry("OpenCL", 1.0, 2.0),
        };
        assert!(!c2.both_favor_gpu());
    }
}
