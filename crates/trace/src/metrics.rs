//! Typed metrics registry with Prometheus-style text exposition.
//!
//! Three instrument kinds, all keyed by `(name, sorted labels)`:
//!
//! * **counters** — monotone `u64` totals ([`counter_add`]); every
//!   legacy `paccport_trace::add` mirrors here under the sanitized
//!   name, and instrumented crates add labeled ones on top
//!   (`devsim_kernel_launches_total{kernel="fan1"}`),
//! * **gauges** — last-write-wins `f64` ([`gauge_set`]),
//! * **histograms** — log₂-bucketed `f64` distributions
//!   ([`observe`]): bucket `i` covers `[2^(i-32), 2^(i-31))`, which
//!   spans sub-nanosecond timings to billions without configuration.
//!
//! Collection is gated by [`set_metrics_enabled`] (one relaxed atomic
//! load when off — instrumented crates check it before formatting
//! labels). [`render_prometheus`] emits the standard text format with
//! fully deterministic ordering: families sorted by name, series by
//! label set, histogram buckets cumulative in bound order.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::{Mutex, OnceLock};

use crate::{flags, F_METRICS};

/// Turn the metrics registry on or off (global; off by default).
pub fn set_metrics_enabled(on: bool) {
    if on {
        crate::FLAGS.fetch_or(F_METRICS, std::sync::atomic::Ordering::Relaxed);
    } else {
        crate::FLAGS.fetch_and(!F_METRICS, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Whether the metrics registry is currently collecting.
pub fn metrics_enabled() -> bool {
    flags() & F_METRICS != 0
}

/// Number of histogram buckets: indexes `0..=62` are the log₂
/// buckets, `63` is the overflow bucket (rendered as `+Inf` alone).
pub const HIST_BUCKETS: usize = 64;

/// Log₂ bucket index of a value: bucket `i` covers
/// `[2^(i-32), 2^(i-31))`; values at or below `2^-32` land in bucket
/// 0, values at or above `2^31` in the overflow bucket.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < 2.0f64.powi(-32) {
        return 0;
    }
    // Exact binary exponent from the bit pattern (v is normal here —
    // anything below 2^-32 already returned). `log2().floor()` would
    // misplace values within an ulp of a bucket bound, where the
    // correctly-rounded logarithm lands exactly on the next integer.
    let e = ((v.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    ((e + 32).clamp(0, HIST_BUCKETS as i64 - 1)) as usize
}

/// Upper (exclusive) bound of bucket `i`; the overflow bucket has no
/// finite bound.
pub fn bucket_bound(i: usize) -> Option<f64> {
    if i >= HIST_BUCKETS - 1 {
        None
    } else {
        Some(2.0f64.powi(i as i32 - 31))
    }
}

/// Units per 1.0 of the fixed-point [`Histogram`] sum.
const SUM_SCALE: f64 = 18_446_744_073_709_551_616.0; // 2^64

/// One log₂-bucketed histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub buckets: [u64; HIST_BUCKETS],
    pub sum: f64,
    pub count: u64,
    /// The sum in units of 2^-64. Integer addition is associative, so
    /// `sum` does not depend on the order concurrent observations
    /// arrive in.
    fixed_sum: i128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            sum: 0.0,
            count: 0,
            fixed_sum: 0,
        }
    }
}

impl Histogram {
    pub fn observe(&mut self, v: f64) {
        self.buckets[bucket_index(v)] += 1;
        self.fixed_sum = self
            .fixed_sum
            .saturating_add((v * SUM_SCALE).round() as i128);
        self.sum = if v.is_finite() && self.sum.is_finite() {
            self.fixed_sum as f64 / SUM_SCALE
        } else {
            self.sum + v
        };
        self.count += 1;
    }

    /// The `q`-quantile (0 < q <= 1) as an order statistic over the
    /// bucketed observations, reported as the upper bound of the
    /// bucket the statistic lands in (`2^31` for the overflow
    /// bucket). Deterministic — no interpolation, no float summation
    /// order — so a loadgen report and a `/metrics` scrape computed
    /// from equal bucket counts agree exactly.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_bound(i).unwrap_or_else(|| 2.0f64.powi(31));
            }
        }
        2.0f64.powi(31)
    }
}

type Key = (String, Vec<(String, String)>);

/// One OpenMetrics exemplar: the label set (typically a single
/// `trace_id`) and value of a representative observation, attached to
/// the histogram bucket that observation landed in.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
    /// Per-histogram, per-bucket exemplars (kept beside the
    /// histograms rather than inside [`Histogram`], so the plain
    /// bucket math stays `PartialEq`-comparable in tests).
    exemplars: BTreeMap<Key, BTreeMap<usize, Exemplar>>,
    /// Registry key of each mirrored trace counter, sanitized once.
    mirrored: BTreeMap<&'static str, Key>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut ls: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    ls.sort();
    (name.to_string(), ls)
}

/// Prometheus-legal metric name: every character outside
/// `[a-zA-Z0-9_:]` becomes `_` (so `cache.hit` mirrors as
/// `cache_hit`).
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Add `n` to a counter (no-op while metrics are off).
pub fn counter_add(name: &str, labels: &[(&str, &str)], n: u64) {
    if !metrics_enabled() {
        return;
    }
    *registry()
        .lock()
        .unwrap()
        .counters
        .entry(key(name, labels))
        .or_default() += n;
}

/// Mirror a trace counter bump ([`crate::add`]) into the label-less
/// counter named [`sanitize`]`(name)`. Unlike [`counter_add`] it
/// allocates only on a name's first bump, so it is cheap enough for
/// per-kernel-launch counters.
pub(crate) fn mirror_add(name: &'static str, n: u64) {
    let mut r = registry()
        .lock()
        .expect("no thread panics while holding the metrics registry");
    let r = &mut *r;
    let k = r
        .mirrored
        .entry(name)
        .or_insert_with(|| key(&sanitize(name), &[]));
    match r.counters.get_mut(k) {
        Some(v) => *v += n,
        None => {
            r.counters.insert(k.clone(), n);
        }
    }
}

/// Set a gauge (no-op while metrics are off).
pub fn gauge_set(name: &str, labels: &[(&str, &str)], v: f64) {
    if !metrics_enabled() {
        return;
    }
    registry()
        .lock()
        .unwrap()
        .gauges
        .insert(key(name, labels), v);
}

/// Record one observation into a histogram (no-op while metrics are
/// off).
pub fn observe(name: &str, labels: &[(&str, &str)], v: f64) {
    if !metrics_enabled() {
        return;
    }
    registry()
        .lock()
        .unwrap()
        .histograms
        .entry(key(name, labels))
        .or_default()
        .observe(v);
}

/// [`observe`] plus an exemplar: the observation is recorded
/// normally, and `(exemplar_labels, v)` replaces the exemplar of the
/// bucket it lands in. The server uses this to point every latency
/// bucket at a flight-recorder trace id.
pub fn observe_exemplar(
    name: &str,
    labels: &[(&str, &str)],
    v: f64,
    exemplar_labels: &[(&str, &str)],
) {
    if !metrics_enabled() {
        return;
    }
    let k = key(name, labels);
    let mut r = registry().lock().unwrap();
    r.histograms.entry(k.clone()).or_default().observe(v);
    r.exemplars.entry(k).or_default().insert(
        bucket_index(v),
        Exemplar {
            labels: exemplar_labels
                .iter()
                .map(|(ek, ev)| (ek.to_string(), ev.to_string()))
                .collect(),
            value: v,
        },
    );
}

/// Current value of a counter (0 if never bumped) — for tests and
/// cross-checks.
pub fn counter_value(name: &str, labels: &[(&str, &str)]) -> u64 {
    registry()
        .lock()
        .unwrap()
        .counters
        .get(&key(name, labels))
        .copied()
        .unwrap_or(0)
}

/// One `histogram_sums` row: the series' label set, observation sum,
/// and observation count.
pub type HistogramSum = (Vec<(String, String)>, f64, u64);

/// Histogram `(sum, count)` pairs for every label set of `name`,
/// sorted by label set — for the cross-check tests that sum
/// per-kernel device time.
pub fn histogram_sums(name: &str) -> Vec<HistogramSum> {
    registry()
        .lock()
        .unwrap()
        .histograms
        .iter()
        .filter(|((n, _), _)| n == name)
        .map(|((_, ls), h)| (ls.clone(), h.sum, h.count))
        .collect()
}

/// Clear every instrument.
pub fn reset_metrics() {
    let mut r = registry().lock().unwrap();
    r.counters.clear();
    r.gauges.clear();
    r.histograms.clear();
    r.exemplars.clear();
}

/// Escape a label value per the Prometheus text format: backslash,
/// double quote, and line feed (as the two-character sequence `\n`).
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn labels_text(ls: &[(String, String)]) -> String {
    if ls.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = ls
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn labels_text_with(ls: &[(String, String)], extra_k: &str, extra_v: &str) -> String {
    let mut all: Vec<(String, String)> = ls.to_vec();
    all.push((extra_k.to_string(), extra_v.to_string()));
    labels_text(&all)
}

/// Exposition text of a histogram sum, to 10 significant digits.
fn fmt_sum(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        format!("{v}")
    } else {
        format!("{v:.9e}")
    }
}

/// Render every instrument in the Prometheus text exposition format,
/// deterministically ordered.
pub fn render_prometheus() -> String {
    let r = registry().lock().unwrap();
    let mut out = String::new();
    let mut last_family = String::new();
    for ((name, ls), v) in &r.counters {
        if *name != last_family {
            let _ = writeln!(out, "# TYPE {name} counter");
            last_family = name.clone();
        }
        let _ = writeln!(out, "{name}{} {v}", labels_text(ls));
    }
    last_family.clear();
    for ((name, ls), v) in &r.gauges {
        if *name != last_family {
            let _ = writeln!(out, "# TYPE {name} gauge");
            last_family = name.clone();
        }
        let _ = writeln!(out, "{name}{} {v}", labels_text(ls));
    }
    last_family.clear();
    for ((name, ls), h) in &r.histograms {
        if *name != last_family {
            let _ = writeln!(out, "# TYPE {name} histogram");
            last_family = name.clone();
        }
        let exemplars = r.exemplars.get(&(name.clone(), ls.clone()));
        let mut cum = 0u64;
        for (i, n) in h.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            cum += n;
            let le = match bucket_bound(i) {
                Some(b) => format!("{b}"),
                None => "+Inf".to_string(),
            };
            // OpenMetrics exemplar suffix: `# {trace_id="…"} value`,
            // pointing a bucket at one representative observation.
            let exemplar = exemplars
                .and_then(|m| m.get(&i))
                .map(|e| format!(" # {} {}", labels_text(&e.labels), e.value))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{name}_bucket{} {cum}{exemplar}",
                labels_text_with(ls, "le", &le)
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{} {cum}",
            labels_text_with(ls, "le", "+Inf")
        );
        let _ = writeln!(out, "{name}_sum{} {}", labels_text(ls), fmt_sum(h.sum));
        let _ = writeln!(out, "{name}_count{} {}", labels_text(ls), h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and
    /// `exposition_is_cumulative_and_labeled` resets it, so every
    /// test that writes to the registry serializes on this lock.
    fn registry_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bucket_bounds_bracket_values() {
        for v in [1e-9, 0.5, 1.0, 1.5, 2.0, 1000.0, 3e9] {
            let i = bucket_index(v);
            if let Some(hi) = bucket_bound(i) {
                assert!(v < hi, "{v} must be under its bucket bound {hi}");
            }
            if i > 0 {
                let lo = bucket_bound(i - 1).unwrap();
                assert!(v >= lo, "{v} must be at or above the previous bound {lo}");
            }
        }
    }

    #[test]
    fn hostile_label_values_are_escaped_per_text_format() {
        let _lock = registry_test_lock();
        set_metrics_enabled(true);
        counter_add(
            "unit_hostile_total",
            &[("label", "back\\slash \"quoted\"\nnewline")],
            1,
        );
        let text = render_prometheus();
        let line = text
            .lines()
            .find(|l| l.starts_with("unit_hostile_total"))
            .expect("hostile series rendered");
        assert_eq!(
            line,
            "unit_hostile_total{label=\"back\\\\slash \\\"quoted\\\"\\nnewline\"} 1"
        );
        assert!(
            !line.contains('\n') && text.lines().count() > 1,
            "a raw newline in a label value must not split the series line"
        );
        set_metrics_enabled(false);
    }

    #[test]
    fn exemplars_attach_to_their_buckets() {
        let _lock = registry_test_lock();
        set_metrics_enabled(true);
        observe_exemplar(
            "unit_exemplar_seconds",
            &[("route", "run")],
            0.25,
            &[("trace_id", "deadbeefdeadbeefdeadbeefdeadbeef")],
        );
        observe("unit_exemplar_seconds", &[("route", "run")], 1000.0);
        let text = render_prometheus();
        let line = text
            .lines()
            .find(|l| l.starts_with("unit_exemplar_seconds_bucket") && l.contains("le=\"0.5\""))
            .expect("[0.25, 0.5) bucket rendered");
        assert!(
            line.ends_with("# {trace_id=\"deadbeefdeadbeefdeadbeefdeadbeef\"} 0.25"),
            "{line}"
        );
        // The plain observation's bucket carries no exemplar.
        let plain = text
            .lines()
            .find(|l| l.starts_with("unit_exemplar_seconds_bucket") && l.contains("le=\"1024\""))
            .expect("1000.0 bucket rendered");
        assert!(!plain.contains('#'), "{plain}");
        set_metrics_enabled(false);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for _ in 0..9 {
            h.observe(0.3); // bucket bound 0.5
        }
        h.observe(100.0); // bucket bound 128
        assert_eq!(h.quantile(0.5), 0.5);
        assert_eq!(h.quantile(0.9), 0.5);
        assert_eq!(h.quantile(0.99), 128.0);
        assert_eq!(h.quantile(1.0), 128.0);
        let mut over = Histogram::default();
        over.observe(1e12);
        assert_eq!(over.quantile(0.5), 2.0f64.powi(31), "overflow bucket");
    }

    #[test]
    fn exposition_is_cumulative_and_labeled() {
        let _lock = registry_test_lock();
        set_metrics_enabled(true);
        reset_metrics();
        counter_add("unit_total", &[("leg", "a")], 2);
        counter_add("unit_total", &[("leg", "b")], 3);
        gauge_set("unit_gauge", &[], 1.5);
        observe("unit_seconds", &[], 0.5);
        observe("unit_seconds", &[], 1.5);
        let text = render_prometheus();
        assert!(text.contains("# TYPE unit_total counter"));
        assert!(text.contains("unit_total{leg=\"a\"} 2"));
        assert!(text.contains("unit_total{leg=\"b\"} 3"));
        assert!(text.contains("unit_gauge 1.5"));
        assert!(text.contains("unit_seconds_sum 2.000000000e0"));
        assert!(text.contains("unit_seconds_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        set_metrics_enabled(false);
        reset_metrics();
    }

    #[test]
    fn mirrored_trace_counters_are_sanitized_and_survive_a_reset() {
        let _lock = registry_test_lock();
        set_metrics_enabled(true);
        mirror_add("unit.mirror-bumps", 2);
        mirror_add("unit.mirror-bumps", 3);
        assert_eq!(counter_value("unit_mirror_bumps", &[]), 5);
        // The sanitized key outlives the registry's contents.
        reset_metrics();
        mirror_add("unit.mirror-bumps", 1);
        assert_eq!(counter_value("unit_mirror_bumps", &[]), 1);
        assert!(render_prometheus().contains("unit_mirror_bumps 1"));
        set_metrics_enabled(false);
        reset_metrics();
    }
}
