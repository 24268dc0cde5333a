//! What a run produces: per workload, every declared metric with its unit,
//! median, quartiles and samples, plus the correctness tally. Rendered as a
//! text table, a JSON report file, and one summary line per workload.

use std::collections::BTreeMap;

use paccport_trace::json::escape;

use crate::spec::Spec;
use crate::stats;

#[derive(Debug, Clone)]
pub struct Metric {
    pub unit: &'static str,
    /// The reported value: the median or the minimum of `samples`, or a
    /// single derived figure (a percentile, a ratio, a count).
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn median_of(unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            unit,
            value: stats::median(&samples).unwrap_or(f64::NAN),
            samples,
        }
    }

    /// The least disturbed of several repetitions. Other load on a shared
    /// machine comes in bursts that slow everything by a fifth or more for
    /// seconds at a time; the fastest repetition of a run is the one such a
    /// burst most likely missed, while a slower program moves it as much as
    /// any other repetition.
    pub fn min_of(unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            unit,
            value: samples.iter().copied().fold(f64::NAN, f64::min),
            samples,
        }
    }

    pub fn single(unit: &'static str, value: f64) -> Metric {
        Metric {
            unit,
            value,
            samples: vec![value],
        }
    }
}

#[derive(Debug, Default)]
pub struct WorkloadReport {
    pub name: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// FNV-1a of the program's output, identical across repetitions.
    pub output_fnv: Option<u64>,
    pub metrics: BTreeMap<String, Metric>,
    /// Diagnostics outside the declared set; never compared or bounded.
    pub extra: BTreeMap<String, Metric>,
}

impl WorkloadReport {
    pub fn new(name: &str, trace: bool) -> WorkloadReport {
        WorkloadReport {
            name: name.to_string(),
            trace,
            ..Default::default()
        }
    }

    /// Count one checked operation, recording why it failed if it did.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn put(&mut self, name: &str, m: Metric) {
        self.metrics.insert(name.to_string(), m);
    }

    pub fn put_extra(&mut self, name: &str, m: Metric) {
        self.extra.insert(name.to_string(), m);
    }

    /// The produced metrics must be exactly the declared ones, in the
    /// declared units, with finite values.
    pub fn conform_to(&self, spec: &Spec) -> Result<(), String> {
        let declared = spec.metrics(self.trace);
        let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        let mut got: Vec<&str> = self.metrics.keys().map(String::as_str).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            return Err(format!(
                "{}: produced metrics {got:?}, BENCHMARK.json declares {want:?}",
                self.name
            ));
        }
        for d in declared {
            let m = &self.metrics[&d.name];
            if m.unit != d.unit {
                return Err(format!(
                    "{}: {} is in {}, declared {}",
                    self.name, d.name, m.unit, d.unit
                ));
            }
            if !m.value.is_finite() || m.samples.iter().any(|s| !s.is_finite()) {
                return Err(format!("{}: {} is not a finite number", self.name, d.name));
            }
        }
        Ok(())
    }

    /// The one-line result: `correct`, `attempted`, `failed` and each
    /// declared metric's value and unit, in declaration order.
    pub fn summary_line(&self, spec: &Spec) -> String {
        let metrics: Vec<String> = spec
            .metrics(self.trace)
            .iter()
            .map(|d| {
                let m = &self.metrics[&d.name];
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    pub fn table(&self, spec: &Spec) -> String {
        let mut s = format!(
            "== {} ({}): {} attempted, {} failed{}\n",
            self.name,
            if self.trace { "trace" } else { "run" },
            self.attempted,
            self.failed,
            if self.correct() {
                ""
            } else {
                " -- OUTPUT INCORRECT"
            }
        );
        if let Some(w) = spec.workloads.iter().find(|w| w.name == self.name) {
            s.push_str(&format!("   why: {}\n", w.why));
        }
        for f in &self.failures {
            s.push_str(&format!("   failure: {f}\n"));
        }
        s.push_str(&format!(
            "   {:<34} {:<6} {:>14} {:>14} {:>14} {:>5}\n",
            "metric", "unit", "value", "q1", "q3", "n"
        ));
        let declared = spec.metrics(self.trace).iter().map(|d| d.name.as_str());
        let rows = declared
            .filter_map(|n| self.metrics.get(n).map(|m| (n, m)))
            .chain(self.extra.iter().map(|(n, m)| (n.as_str(), m)));
        for (i, (name, m)) in rows.enumerate() {
            if i == self.metrics.len() && !self.extra.is_empty() {
                s.push_str("   -- diagnostics (not bounded) --\n");
            }
            let (q1, _, q3) = stats::quartiles(&m.samples).unwrap_or((m.value, m.value, m.value));
            s.push_str(&format!(
                "   {:<34} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>5}\n",
                name,
                m.unit,
                m.value,
                q1,
                q3,
                m.samples.len()
            ));
        }
        s
    }

    fn json(&self) -> String {
        let metrics = |map: &BTreeMap<String, Metric>| {
            map.iter()
                .map(|(n, m)| {
                    let (q1, _, q3) =
                        stats::quartiles(&m.samples).unwrap_or((m.value, m.value, m.value));
                    let samples: Vec<String> = m.samples.iter().map(|v| num(*v)).collect();
                    format!(
                        "\"{n}\":{{\"unit\":\"{}\",\"value\":{},\"q1\":{},\"q3\":{},\"n\":{},\"samples\":[{}]}}",
                        m.unit,
                        num(m.value),
                        num(q1),
                        num(q3),
                        m.samples.len(),
                        samples.join(",")
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        format!(
            "{{\"name\":\"{}\",\"mode\":\"{}\",\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"output_fnv\":{},\"metrics\":{{{}}},\"extra\":{{{}}}}}",
            self.name,
            if self.trace { "trace" } else { "run" },
            self.correct(),
            self.attempted,
            self.failed,
            failures.join(","),
            self.output_fnv
                .map(|h| format!("\"{h:016x}\""))
                .unwrap_or_else(|| "null".into()),
            metrics(&self.metrics),
            metrics(&self.extra)
        )
    }
}

/// A whole run: its settings, the machine, and every workload's report.
pub fn render_json(
    seed: u64,
    seconds: u64,
    smoke: bool,
    env: &[(&str, String)],
    workloads: &[WorkloadReport],
) -> String {
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
        .collect();
    let ws: Vec<String> = workloads.iter().map(WorkloadReport::json).collect();
    format!(
        "{{\"benchmark\":\"perfbench\",\"seed\":{seed},\"seconds\":{seconds},\"smoke\":{smoke},\"env\":{{{}}},\"workloads\":[\n{}\n]}}\n",
        env.join(","),
        ws.join(",\n")
    )
}

/// JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// FNV-1a-64, the digest recorded for program output.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
