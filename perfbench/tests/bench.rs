//! The benchmark's own checks: every workload at smoke size emits every
//! named metric and passes its oracle, and `BENCHMARK.json` names what
//! the benchmark emits.

use earth_perfbench::workload::{Size, Workload};
use earth_perfbench::{run_bench, MetricDef, Opts, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, seed: u64, trace: bool) -> earth_perfbench::BenchResult {
    run_bench(&Opts {
        workload,
        size: Size::Smoke,
        seed,
        seconds: 0.0,
        trace,
    })
}

fn assert_emits(result: &earth_perfbench::BenchResult, defs: &[MetricDef], what: &str) {
    let names: Vec<&str> = result.metrics.iter().map(|(n, _)| *n).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, want, "{what}: metric names");
    let line = result.to_json();
    for (d, (_, v)) in defs.iter().zip(&result.metrics) {
        assert!(v.is_finite(), "{what}: {} = {v}", d.name);
        let entry = format!(r#""{}": {{"value": "#, d.name);
        assert!(
            line.contains(&entry),
            "{what}: {} missing from {line}",
            d.name
        );
        assert!(
            line.contains(&format!(r#""unit": "{}""#, d.unit)),
            "{what}: unit {} missing",
            d.unit
        );
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_oracle() {
    for w in Workload::ALL {
        for seed in [w.default_seed(), 1997] {
            let plain = smoke(w, seed, false);
            assert!(
                plain.correct(),
                "{} seed {seed}: {}",
                w.name(),
                plain.detail
            );
            assert_emits(&plain, END_TO_END, w.name());
            for (name, v) in &plain.metrics {
                assert!(
                    *v > 0.0,
                    "{} {name} = {v}: end-to-end metrics are never 0",
                    w.name()
                );
            }

            let traced = smoke(w, seed, true);
            assert!(
                traced.correct(),
                "{} seed {seed} traced: {}",
                w.name(),
                traced.detail
            );
            assert_emits(&traced, PER_LAYER, w.name());
            assert_eq!(
                traced.digest,
                plain.digest,
                "{}: traced run changed the result",
                w.name()
            );
            assert!(!traced.tracer.spans().is_empty());
        }
    }
}

/// The objects of the array under `key` in a flat JSON document.
fn objects<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
    let start = doc
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &doc[start..];
    let open = body.find('[').expect("array");
    let close = body.find(']').expect("array end");
    body[open + 1..close]
        .split('{')
        .skip(1)
        .map(|o| o.split('}').next().expect("object"))
        .collect()
}

/// The string value of `field` in a flat JSON object.
fn field<'a>(obj: &'a str, field: &str) -> &'a str {
    let at = obj
        .find(&format!("\"{field}\""))
        .unwrap_or_else(|| panic!("no {field} in {obj}"));
    let rest = &obj[at + field.len() + 2..];
    let rest = &rest[rest.find('"').expect("value") + 1..];
    &rest[..rest.find('"').expect("value end")]
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str, &str)> = objects(&doc, key)
            .iter()
            .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
            .collect();
        let emitted: Vec<(&str, &str, &str)> =
            defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
        assert_eq!(
            listed, emitted,
            "{key} in BENCHMARK.json drifted from the benchmark"
        );
    }
    let workloads: Vec<&str> = objects(&doc, "workloads")
        .iter()
        .map(|o| field(o, "name"))
        .collect();
    let driven: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        workloads, driven,
        "workloads in BENCHMARK.json drifted from the benchmark"
    );
}

#[test]
fn a_run_differing_from_the_verified_result_counts_as_failed() {
    use earth_perfbench::layers::Tracer;
    use earth_perfbench::{attempt, Tally};
    let prep = Workload::Serve256.prepare(Size::Smoke, 3);
    let mut tally = Tally::default();
    let first = attempt(&prep, &mut Tracer::off(), false, &mut tally).expect("oracle passes");
    tally.digest = Some(first.digest ^ 1);
    assert!(attempt(&prep, &mut Tracer::off(), false, &mut tally).is_none());
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(tally.first_error.is_some_and(|e| e.contains("digest")));
}
