//! End to end: a `--smoke` run of every workload, in both modes, passes its
//! correctness gates and emits exactly the metric set `BENCHMARK.json`
//! declares, with the declared units.

use std::path::Path;
use std::process::Command;

use paccport_trace::json::{self, Json};

fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = spec
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let spec = json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let workloads = spec.get("workloads").and_then(Json::as_arr).unwrap().len();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--smoke", "--seed", "7", "--trace", trace])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "--trace {trace} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(lines.len(), workloads, "one summary line per workload");
        assert!(
            stdout.trim_end().ends_with('}'),
            "the last line is a summary"
        );
        let want = declared(&spec, key);
        for line in lines {
            let s = json::parse(line).unwrap();
            let Json::Obj(members) = &s else {
                panic!("summary is not an object: {line}")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                s.get("correct").and_then(Json::as_bool),
                Some(true),
                "{line}"
            );
            assert_eq!(s.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(s.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let Some(Json::Obj(metrics)) = s.get("metrics") else {
                panic!("no metrics: {line}")
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    let unit = m.get("unit").and_then(Json::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            got.sort();
            assert_eq!(got, want, "--trace {trace}");
        }
    }
}
