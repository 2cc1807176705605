//! Smoke-size runs of every workload: each emits every metric its
//! trace mode promises, deterministic counts repeat exactly for a seed,
//! and `BENCHMARK.json` names exactly what the command emits.

use crate::plane::PlaneKind;
use crate::report::{self, END_TO_END, PER_LAYER};
use crate::run;
use crate::workload::{Spec, NAMES};

fn smoke(name: &str) -> Spec {
    Spec::named(name).expect("known workload").smoke()
}

/// The per-layer metric names a plane reports, in table order.
fn layer_names(kind: PlaneKind) -> Vec<&'static str> {
    let on = report::layers_on(kind);
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| on.iter().any(|p| n.split('.').next() == Some(p)))
        .collect()
}

#[test]
fn a_smoke_run_of_every_workload_emits_every_metric() {
    for name in NAMES {
        let spec = smoke(name);
        for trace in [false, true] {
            let out = run::run(&spec, 3, 0.05, trace).expect("smoke run");
            let metrics = if trace {
                report::layer_metrics(&spec, &out)
            } else {
                report::end_to_end(&spec, &out)
            };
            let got: Vec<&str> = metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = if trace {
                layer_names(spec.plane)
            } else {
                END_TO_END.iter().map(|&(n, _)| n).collect()
            };
            assert_eq!(got, want, "{name} trace={trace}");
            assert!(
                metrics.iter().all(|m| m.value.is_finite()),
                "{name}: {metrics:?}"
            );
            let json = report::json_line(&out, &metrics);
            for m in &metrics {
                assert!(
                    json.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                    "{json}"
                );
            }
            assert!(out.attempted > 0 && out.ticks > 0);
            if spec.plane == PlaneKind::Single {
                assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
            }
        }
    }
}

#[test]
fn deterministic_counts_repeat_exactly_for_a_seed() {
    for name in ["web_churn", "steady_100k"] {
        let spec = smoke(name);
        let a = run::run(&spec, 11, 0.01, false).expect("first run");
        let b = run::run(&spec, 11, 0.01, false).expect("second run");
        assert_eq!(a.det, b.det, "{name}");
        assert!(a.det.updates > 0, "{name}: the window saw no updates");
        let c = run::run(&spec, 12, 0.01, false).expect("other seed");
        assert_ne!(
            a.det.digest, c.det.digest,
            "{name}: the seed changes the inputs"
        );
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let end = section.find(']').expect("list closes");
    let mut out = Vec::new();
    let mut rest = &section[..end];
    while let Some(i) = rest.find("\"name\": \"") {
        rest = &rest[i + 9..];
        let name = &rest[..rest.find('"').expect("name closes")];
        let unit = rest
            .find("\"unit\": \"")
            .map(|j| {
                let u = &rest[j + 9..];
                u[..u.find('"').expect("unit closes")].to_string()
            })
            .unwrap_or_default();
        out.push((name.to_string(), unit));
    }
    out
}

#[test]
fn benchmark_json_names_exactly_what_the_command_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads = listed(&json, "workloads");
    assert!(workloads.len() >= 2);
    let plane = |w: &str| {
        Spec::named(w)
            .unwrap_or_else(|| panic!("unknown workload {w}"))
            .plane
    };
    // Every listed workload reports the same per-layer set.
    let layers = layer_names(plane(&workloads[0].0));
    for (w, _) in &workloads {
        assert_eq!(layer_names(plane(w)), layers, "{w}");
    }
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&json, "end_to_end"), e2e);
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .filter(|(n, _)| layers.contains(n))
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&json, "per_layer"), per_layer);
}
