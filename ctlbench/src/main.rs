//! `ctlbench` — the control-plane benchmark.
//!
//! Runs the Flowtune control plane on one seeded workload, checks its
//! outputs, and prints every metric with its unit; the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). See `README.md` in this directory for the workloads, the
//! metrics and the layer → metric → workload map.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path ctlbench/Cargo.toml -- \
//!     --workload web_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures untraced and reports the end-to-end metrics;
//! `--trace 1` alternates traced and untraced sweep periods, records a
//! span around every call into the control plane, writes the spans to
//! `.bench_out/spans-<workload>.csv`, and reports the per-layer metrics.

mod checks;
mod hist;
mod plane;
mod report;
mod run;
#[cfg(test)]
mod selftest;
mod trace;
mod workload;

use std::process::ExitCode;

const USAGE: &str =
    "usage: ctlbench --workload <web_churn|web_churn_inc|steady_100k|xshard_inproc|\
                     xshard_uds> --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ctlbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::Spec::named(&args.workload) else {
        eprintln!(
            "ctlbench: unknown workload {}; valid: {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    for line in report::stamp(&spec, args.seed, args.seconds, args.trace) {
        println!("# {line}");
    }
    let out = match run::run(&spec, args.seed, args.seconds, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("ctlbench: {}: {e}", spec.name);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = std::path::Path::new(".bench_out").join(format!("spans-{}.csv", spec.name));
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| out.tracer.write_csv(&path));
        match written {
            Ok(()) => println!(
                "# spans: {} written to {}",
                out.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("ctlbench: writing spans to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let metrics = if args.trace {
        report::layer_metrics(&spec, &out)
    } else {
        report::end_to_end(&spec, &out)
    };
    report::print_table(&metrics, &report::extras(&out));
    for c in &out.failures {
        eprintln!("CHECK FAILED: {c}");
    }
    println!("{}", report::json_line(&out, &metrics));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_invocation_parses() {
        let a = args("--workload web_churn --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("web_churn", 7, 10.0, true)
        );
        assert!(args("--workload web_churn --seed 7 --seconds 10").is_err());
        assert!(args("--workload web_churn --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload web_churn --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload web_churn --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn every_workload_name_resolves() {
        for name in workload::NAMES {
            let spec = workload::Spec::named(name).unwrap();
            assert_eq!(spec.name, name);
            assert_eq!(spec.window_ticks % workload::PERIOD, 0);
            assert_eq!(spec.warmup_ticks % workload::PERIOD, 0);
        }
        assert!(workload::Spec::named("nope").is_none());
    }
}
