//! The repo benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <spmv-lib|cg-solve|net-open|net-interference> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! One run sets the workload up (several times; `setup_s` is the median),
//! measures for `--seconds`, checks every output against a plain-CSR
//! reference, prints each metric as `name workload value unit samples`, and
//! ends with one JSON line. Every layer is measured from outside, by timing
//! calls into public functions of the product crates.

mod constants;
mod host;
mod inputs;
mod ladder;
mod metrics;
mod openloop;
mod stats;
mod trace;
mod workloads;

use host::Host;
use metrics::{Outcome, UNLISTED, WORKLOADS};
use std::process::ExitCode;
use trace::Tracer;
use workloads::Ctx;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: spmv-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] | --manifest";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut seed_given = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or bare `--trace`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().chain(&UNLISTED).map(|w| w.name).collect();
    if !names.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !seed_given {
        return Err("--seed is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        print!("{}", metrics::manifest_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let host = Host::detect();
    // The roof probe is excluded from every set-up time: it runs first.
    let roof = args.trace.then(|| host.measure_roof(args.smoke));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            constants::SMOKE_SECONDS
        } else {
            constants::RUN_SECONDS as f64
        }),
        trace: args.trace,
        smoke: args.smoke,
        host,
        roof,
        clock: std::time::Instant::now(),
    };
    let tracer = Tracer::new(ctx.trace);
    let mut out = Outcome::default();

    match args.workload.as_str() {
        "spmv-lib" => workloads::spmv_lib::run(&ctx, &tracer, &mut out),
        "cg-solve" => workloads::cg_solve::run(&ctx, &tracer, &mut out),
        "net-open" => workloads::net_open::run(&ctx, &tracer, &mut out),
        "net-interference" => workloads::net_interference::run(&ctx, &tracer, &mut out),
        _ => unreachable!("parse_args admits only table workloads"),
    }

    if ctx.trace {
        out.set("host.nproc", ctx.host.nproc as f64, 1);
        out.set("host.simd", ctx.host.simd_f64_lanes() as f64, 1);
        if let Some(llc) = ctx.host.llc_bytes {
            out.set("host.llc_bytes", llc as f64, 1);
        }
        if let Some(roof) = &ctx.roof {
            out.set("host.roof_read_gbps", roof.read_gbps, 1);
            out.set("host.roof_triad_gbps", roof.triad_gbps, 1);
            out.set("host.probe_array_bytes", roof.array_bytes as f64, 1);
        }
        let trace_header = [
            format!("\"workload\": \"{}\"", args.workload),
            format!("\"seed\": {}", ctx.seed),
            format!("\"seconds\": {}", ctx.seconds),
            format!("\"host\": {}", ctx.host.to_json(ctx.roof.as_ref())),
            ladder::run(&ctx, &mut out),
        ];
        out.set(
            "failed_share",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.attempted as usize,
        );
        // Next to this package's sources, wherever the run was started from.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace.{}.json", args.workload);
        let body = trace::to_json(&tracer.snapshot(), &trace_header);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("# trace written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }

    println!("# host {}", ctx.host.to_json(ctx.roof.as_ref()));
    for reason in &out.invalid {
        println!("# INVALID {reason}");
    }
    let rows = out.rows(ctx.trace);
    for (name, unit, value, samples) in &rows {
        println!(
            "{name} {} {} {unit} {samples}",
            args.workload,
            metrics::json_number(*value)
        );
    }
    println!(
        "# failed_share {} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", metrics::result_json(&out, &rows));
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_hand_forms_of_the_flags_parse() {
        let a = parse_args(&argv("--workload net-open --seed 7 --seconds 12 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("net-open", 7, Some(12.0), false)
        );
        assert!(
            parse_args(&argv("--workload net-open --seed 7 --trace 1"))
                .unwrap()
                .trace
        );
        let b = parse_args(&argv("--trace --smoke --workload cg-solve --seed 1")).unwrap();
        assert!(b.trace && b.smoke && b.seconds.is_none());
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload cg-solve")).is_err());
        assert!(parse_args(&argv("--workload cg-solve --seed x")).is_err());
        assert!(parse_args(&argv("--workload cg-solve --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload cg-solve --seed 1 --bogus")).is_err());
    }
}
