//! `earth-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Measures one workload and prints, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it holds the detail (quartiles, sample counts, host
//! fingerprint, digest). A traced run also writes its spans to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`.

use earth_perfbench::workload::{Size, Workload};
use earth_perfbench::{run_bench, Opts};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: earth-perfbench --workload <groebner_k4|neural_720|serve_256|serve_chaos_64> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Opts {
        workload,
        size: Size::Full,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run_bench(&opts);
    if opts.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-{}.jsonl",
                opts.workload.name(),
                opts.seed
            ));
        if let Err(e) = result.tracer.write_jsonl(&path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans: {}", path.display());
    }
    for (name, value) in &result.metrics {
        eprintln!("{name:>26} {value}");
    }
    println!("{}", result.detail);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
