//! `BENCHMARK.json`: the one declaration of the workloads, the metrics, their
//! units and the bounds a change may worsen them by. The harness reads it at
//! run time and refuses to emit a metric set that differs from it.

use std::path::Path;

use paccport_trace::json::{self, Json};

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        if text.len() > 64 * 1024 {
            return Err("larger than 64 KiB".into());
        }
        let doc = json::parse(text)?;
        exact_keys(
            &doc,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "top level",
        )?;
        let run_seconds =
            doc.get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("run_seconds must be a whole number from 1 to 60")? as u64;
        let mut names = Vec::new();
        let mut workloads = Vec::new();
        for w in list(&doc, "workloads", 2, 8)? {
            exact_keys(w, &["name", "why"], "workload")?;
            let name = name_of(w, &mut names)?;
            let why = str_of(w, "why")?;
            if why.is_empty() || why.len() > 200 || why.contains('\n') {
                return Err(format!(
                    "workload `{name}`: `why` must be one line of 1-200 characters"
                ));
            }
            workloads.push(Workload {
                name,
                why: why.to_string(),
            });
        }
        let metrics = |key: &str, max: usize, bounded: bool, names: &mut Vec<String>| {
            let mut out = Vec::new();
            for m in list(&doc, key, 1, max)? {
                let keys: &[&str] = if bounded {
                    &["name", "unit", "better", "bound"]
                } else {
                    &["name", "unit", "better"]
                };
                exact_keys(m, keys, key)?;
                let name = name_of(m, names)?;
                let unit = str_of(m, "unit")?;
                if unit.is_empty()
                    || unit.len() > 16
                    || !unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
                {
                    return Err(format!("metric `{name}`: bad unit `{unit}`"));
                }
                let lower_is_better = match str_of(m, "better")? {
                    "lower" => true,
                    "higher" => false,
                    other => {
                        return Err(format!(
                            "metric `{name}`: better must be lower|higher, not `{other}`"
                        ))
                    }
                };
                let bound = if bounded {
                    let b = m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .filter(|b| *b > 0.0 && *b <= 0.25)
                        .ok_or_else(|| format!("metric `{name}`: bound must be in (0, 0.25]"))?;
                    Some(b)
                } else {
                    None
                };
                out.push(MetricSpec {
                    name,
                    unit: unit.to_string(),
                    lower_is_better,
                    bound,
                });
            }
            Ok::<_, String>(out)
        };
        let end_to_end = metrics("end_to_end", 16, true, &mut names)?;
        let per_layer = metrics("per_layer", 128, false, &mut names)?;
        if !end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better)
        {
            return Err("end_to_end must declare setup_s in s, lower is better".into());
        }
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn end_to_end(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn exact_keys(v: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    let Json::Obj(members) = v else {
        return Err(format!("{what} must be an object"));
    };
    let mut got: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    got.sort_unstable();
    let mut want = keys.to_vec();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "{what} must have exactly the keys {want:?}, has {got:?}"
        ));
    }
    Ok(())
}

fn list<'a>(doc: &'a Json, key: &str, min: usize, max: usize) -> Result<&'a [Json], String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("`{key}` must be a list"))?;
    if !(min..=max).contains(&items.len()) {
        return Err(format!("`{key}` must hold {min} to {max} entries"));
    }
    Ok(items)
}

fn str_of<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

fn name_of(v: &Json, seen: &mut Vec<String>) -> Result<String, String> {
    let name = str_of(v, "name")?;
    if !valid_name(name) {
        return Err(format!("bad name `{name}`"));
    }
    if seen.iter().any(|s| s == name) {
        return Err(format!("name `{name}` used twice"));
    }
    seen.push(name.to_string());
    Ok(name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_spec() -> Spec {
        Spec::load(&crate::program::repo_root().join("BENCHMARK.json")).unwrap()
    }

    #[test]
    fn the_repository_spec_is_valid_and_names_every_workload() {
        let spec = repo_spec();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let known: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names, known);
        let setup = spec.end_to_end("setup_s").unwrap();
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up gets the largest bound");
    }

    #[test]
    fn names_follow_the_grammar() {
        for ok in ["wall_s", "devsim.race_ns_per_access", "a", "9-lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".dot", "has space", "slash/no", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn malformed_specs_are_refused() {
        let good =
            std::fs::read_to_string(crate::program::repo_root().join("BENCHMARK.json")).unwrap();
        assert!(Spec::parse(&good).is_ok());
        for (from, to) in [
            ("\"run_seconds\"", "\"run_secs\""),
            ("\"wall_s\"", "\"wall s\""),
            ("\"lower\"", "\"smaller\""),
            ("\"setup_s\"", "\"cpu_s\""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert!(Spec::parse(&bad).is_err(), "accepted after {from} -> {to}");
        }
        let too_loose = good.replacen("\"bound\": 0.25", "\"bound\": 0.3", 1);
        assert_ne!(too_loose, good);
        assert!(Spec::parse(&too_loose).is_err());
        // Eight workloads are the most a spec may declare.
        let padded = |n: usize| {
            let extra: String = (0..n)
                .map(|i| format!("{{\"name\": \"extra{i}\", \"why\": \"padding\"}},"))
                .collect();
            good.replacen("\"workloads\": [", &format!("\"workloads\": [{extra}"), 1)
        };
        assert_eq!(Spec::parse(&padded(3)).unwrap().workloads.len(), 8);
        assert!(Spec::parse(&padded(4)).is_err());
    }
}
