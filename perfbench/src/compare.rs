//! `perfbench compare`: a verdict for every (workload, end-to-end metric)
//! between a parent and a change, using the bounds in `BENCHMARK.json`.
//!
//! Each report contributes its value for every metric. With several reports
//! per side (the alternating-pairs protocol) the parent's runs give the
//! spread, and pairwise wins are counted; with one report per side the
//! spread is unknown and taken to be the bound.

use std::collections::BTreeMap;
use std::path::Path;

use paccport_trace::json::{self, Json};

use crate::spec::{MetricSpec, Spec};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The parent's own runs spread wider than the bound, and the change
    /// does not beat every parent run.
    Unresolved,
}

/// The smallest difference of medians, in the metric's own unit, that can
/// count at all. A set-up of a few milliseconds moves by a third from one
/// minute to the next on a shared machine, so for `setup_s` a difference
/// under 5 ms is the same whatever its share of the median.
pub fn floor(metric: &str) -> f64 {
    if metric == "setup_s" {
        0.005
    } else {
        0.0
    }
}

/// Compare the change's runs `b` with the parent's runs `a`.
///
/// * Medians closer than `floor` are `Same`.
/// * If the parent's interquartile spread exceeds the bound, the verdict is
///   `Better` only when every change run beats every parent run, and
///   `Unresolved` otherwise.
/// * Otherwise a median worse by more than the bound is `Worse`; a median
///   better by more than the parent's spread is `Better`; else `Same`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, floor: f64, lower_is_better: bool) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    if (mb - ma).abs() < floor {
        return Verdict::Same;
    }
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let spread = if a.len() > 1 {
        stats::spread(a).unwrap_or(0.0)
    } else {
        bound
    };
    if spread > bound {
        let all_beat = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
        return if all_beat {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && beats(mb, ma) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Per workload, per metric: the value each report gave.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String], runs: &mut Runs) -> Result<(), String> {
    for p in paths {
        let text = std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
        add_report(&text, runs).map_err(|e| format!("{p}: {e}"))?;
    }
    Ok(())
}

fn add_report(text: &str, runs: &mut Runs) -> Result<(), String> {
    let doc = json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("not a perfbench report")?;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        let Some(Json::Obj(metrics)) = w.get("metrics") else {
            return Err(format!("{name}: no metrics"));
        };
        for (metric, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            runs.entry((name.to_string(), metric.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(())
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent: f64,
    pub change: f64,
    pub verdict: Verdict,
    /// Pairs the change won, of pairs compared (several runs per side).
    pub wins: Option<(usize, usize)>,
}

pub fn compare(spec: &Spec, parent: &Runs, change: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), a) in parent {
        let Some(MetricSpec {
            bound: Some(bound),
            lower_is_better,
            ..
        }) = spec.end_to_end(metric)
        else {
            continue;
        };
        let Some(b) = change.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let wins = (a.len() > 1).then(|| {
            let pairs = a.iter().zip(b);
            let n = pairs.len();
            let won = pairs
                .filter(|(x, y)| if *lower_is_better { y < x } else { y > x })
                .count();
            (won, n)
        });
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            parent: stats::median(a).unwrap_or(f64::NAN),
            change: stats::median(b).unwrap_or(f64::NAN),
            verdict: verdict(a, b, *bound, floor(metric), *lower_is_better),
            wins,
        });
    }
    rows
}

/// `perfbench compare PARENT CHANGE` or `perfbench compare PARENT... --
/// CHANGE...`. Returns the process exit code: 1 if any verdict is worse.
pub fn main(spec: &Spec, args: &[String]) -> Result<i32, String> {
    let (a, b) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => (&args[..1], &args[1..]),
        None => {
            return Err(
                "usage: perfbench compare PARENT.json CHANGE.json | PARENT... -- CHANGE...".into(),
            )
        }
    };
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one report on each side".into());
    }
    let (mut parent, mut change) = (Runs::new(), Runs::new());
    load(a, &mut parent)?;
    load(b, &mut change)?;
    let rows = compare(spec, &parent, &change);
    if rows.is_empty() {
        return Err("the reports share no end-to-end metric".into());
    }
    println!(
        "{:<10} {:<12} {:>14} {:>14} {:>8}  {:<10} wins",
        "workload", "metric", "parent", "change", "change%", "verdict"
    );
    for r in &rows {
        println!(
            "{:<10} {:<12} {:>14.6} {:>14.6} {:>+7.1}%  {:<10} {}",
            r.workload,
            r.metric,
            r.parent,
            r.change,
            (r.change - r.parent) / r.parent * 100.0,
            format!("{:?}", r.verdict).to_lowercase(),
            r.wins.map(|(w, n)| format!("{w}/{n}")).unwrap_or_default()
        );
    }
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        1
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_parents_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let v = |b: &[f64], lower| verdict(&a, b, 0.10, 0.0, lower);
        assert_eq!(v(&a, true), Verdict::Same);
        assert_eq!(v(&[1.2, 1.21, 1.19], true), Verdict::Worse);
        assert_eq!(v(&[1.05, 1.06], true), Verdict::Same);
        assert_eq!(v(&[0.8, 0.81], true), Verdict::Better);
        // Higher is better: the same numbers read the other way.
        assert_eq!(v(&[0.8, 0.81], false), Verdict::Worse);
        // A parent spread wider than the bound: unresolved unless every
        // change sample beats every parent sample.
        let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
        let v = |b: &[f64]| verdict(&noisy, b, 0.10, 0.0, true);
        assert_eq!(v(&[1.0, 1.0]), Verdict::Unresolved);
        assert_eq!(v(&[1.5, 1.6]), Verdict::Unresolved);
        assert_eq!(v(&[0.5, 0.6]), Verdict::Better);
    }

    #[test]
    fn differences_under_the_floor_are_the_same() {
        // Millisecond set-ups a third apart, as one machine gives them a
        // minute apart: worse or unresolved by share, the same by the floor.
        let a = [0.0009, 0.0011, 0.0008, 0.0012, 0.0010];
        let b = [0.0013, 0.0014, 0.0012, 0.0013];
        let floor = floor("setup_s");
        assert_eq!(floor, 0.005);
        assert_eq!(verdict(&a, &b, 0.25, 0.0, true), Verdict::Unresolved);
        assert_eq!(verdict(&a, &b, 0.25, floor, true), Verdict::Same);
        assert_eq!(verdict(&a[..1], &b[..1], 0.25, 0.0, true), Verdict::Worse);
        assert_eq!(verdict(&a[..1], &b[..1], 0.25, floor, true), Verdict::Same);
        // Beyond the floor the bound decides again.
        assert_eq!(verdict(&[0.6], &[0.8], 0.25, floor, true), Verdict::Worse);
        assert_eq!(super::floor("wall_s"), 0.0);
    }

    fn report(workloads: &[(&str, &[(&str, f64)])]) -> String {
        let ws: Vec<String> = workloads
            .iter()
            .map(|(name, metrics)| {
                let ms: Vec<String> = metrics
                    .iter()
                    .map(|(m, v)| format!("\"{m}\":{{\"unit\":\"s\",\"value\":{v}}}"))
                    .collect();
                format!("{{\"name\":\"{name}\",\"metrics\":{{{}}}}}", ms.join(","))
            })
            .collect();
        format!("{{\"workloads\":[{}]}}", ws.join(","))
    }

    #[test]
    fn one_report_per_side_compares_values_against_the_bound() {
        let spec = Spec::load(&crate::program::repo_root().join("BENCHMARK.json")).unwrap();
        let (mut a, mut b) = (Runs::new(), Runs::new());
        let parent = [
            (
                "paper",
                &[("wall_s", 2.0), ("not_declared", 2.0), ("setup_s", 0.2)][..],
            ),
            ("check", &[("wall_s", 2.0), ("setup_s", 0.001)][..]),
        ];
        let change = [
            ("paper", &[("wall_s", 3.0), ("setup_s", 0.1)][..]),
            ("check", &[("wall_s", 2.02), ("setup_s", 0.0014)][..]),
        ];
        add_report(&report(&parent), &mut a).unwrap();
        add_report(&report(&change), &mut b).unwrap();
        let rows = compare(&spec, &a, &b);
        assert_eq!(rows.len(), 4, "undeclared metrics are not compared");
        let get = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .unwrap()
        };
        assert_eq!(get("paper", "wall_s").verdict, Verdict::Worse);
        assert_eq!(get("paper", "setup_s").verdict, Verdict::Better);
        assert_eq!(get("check", "wall_s").verdict, Verdict::Same);
        assert_eq!(get("check", "setup_s").verdict, Verdict::Same);
        assert!(get("paper", "wall_s").wins.is_none());
    }

    #[test]
    fn several_runs_per_side_use_the_parents_spread_and_count_wins() {
        let spec = Spec::load(&crate::program::repo_root().join("BENCHMARK.json")).unwrap();
        let (mut a, mut b) = (Runs::new(), Runs::new());
        for i in 0..10 {
            let x = 1.0 + 0.002 * i as f64;
            add_report(&report(&[("conform", &[("cpu_s", x)])]), &mut a).unwrap();
            // The change is 8% faster in nine runs of ten: inside the
            // bound, but beyond the parent's own spread.
            let y = if i == 3 { 1.5 } else { 0.92 * x };
            add_report(&report(&[("conform", &[("cpu_s", y)])]), &mut b).unwrap();
        }
        let rows = compare(&spec, &a, &b);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].wins, Some((9, 10)));
        assert_eq!(rows[0].verdict, Verdict::Better);
    }
}
