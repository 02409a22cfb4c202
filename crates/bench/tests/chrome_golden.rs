//! Golden determinism test for the Chrome-trace export: the same seeded
//! run must serialise to byte-identical JSON on every invocation, so the
//! exported traces are diffable artifacts and `repro profile --json`
//! is reproducible.

use earth_apps::eigen::{run_eigen_on, FetchMode};
use earth_bench::chrome_trace_json;
use earth_bench::workloads::{eigen_matrix, eigen_tol, Scale};
use earth_rt::RunOpts;

fn export_once() -> String {
    let m = eigen_matrix(Scale::Quick);
    let tol = eigen_tol(Scale::Quick);
    let run = run_eigen_on(&m, tol, FetchMode::Block, RunOpts::manna(4, 42).profiled());
    chrome_trace_json(run.profile.as_ref().expect("profiled run"))
}

#[test]
fn chrome_trace_json_is_byte_identical_across_invocations() {
    let a = export_once();
    let b = export_once();
    assert_eq!(a, b, "trace export must be deterministic");
    // Shape sanity: real spans on several rows, exact fixed-point stamps.
    assert!(a.starts_with("{\"traceEvents\":["));
    assert!(a.ends_with('}'));
    for needle in [
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"name\":\"thread\"",
        "\"name\":\"poll\"",
        "\"criticalPathUs\":",
        "\"name\":\"n0 EU\"",
        "\"name\":\"n3 EU\"",
    ] {
        assert!(a.contains(needle), "missing {needle}");
    }
    // No float formatting anywhere: every ts/dur has exactly 3 decimals.
    for field in ["\"ts\":", "\"dur\":"] {
        for chunk in a.split(field).skip(1) {
            let val: String = chunk
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            let (_, frac) = val.split_once('.').expect("fixed-point value");
            assert_eq!(frac.len(), 3, "bad stamp {val}");
        }
    }
}
