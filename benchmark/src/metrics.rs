//! The metric tables — the single source of the names in `BENCHMARK.json` —
//! and the result a run prints.
//!
//! Every untraced run prints every end-to-end metric and every traced run
//! prints every per-layer metric, whatever the workload. The end-to-end names
//! are therefore generic (`op_p50_ms` is one SpMV on `spmv-lib`, one solve on
//! `cg-solve`, one request on the net workloads; see [`WORKLOADS`] and the
//! README), and a per-layer metric of a layer the workload does not touch reads
//! 0 — which is the measurement: that layer did no work.

use crate::constants::{LIB_MATRICES, OPEN_RATES, RUN_SECONDS};
use std::collections::BTreeMap;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub struct LayerDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The workloads `BENCHMARK.json` lists: the ones the driver runs.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "spmv-lib",
        why: "closed loop, in-process: kernels, tuning and the engine epoch do all the work, serve and net none",
    },
    WorkloadDef {
        name: "cg-solve",
        why: "time to a solution of stated accuracy: symmetric half-traffic storage and fused one-barrier CG, batcher and wire bypassed",
    },
    WorkloadDef {
        name: "net-open",
        why: "open loop over loopback TCP at fixed rates, then a capacity probe: framing, copies, polling and batching dominate, the kernel does little",
    },
];

/// Run by hand (`--workload net-interference`), not by the driver. Its two
/// clients, the poll shard, the batchers and the engines keep more threads
/// busy than the seed host has virtual CPUs (two), so its timings follow the
/// scheduler: the driver measured the victim's p99 and the aggressor's GFLOP/s
/// 26–31 % apart between identical runs, and an `Spmm` whose kernel takes 13 ms
/// took 12–30 ms from one op to the next; taken at the quietest slice the
/// aggressor's op times still spread by 13 %. It waits for a host with a core
/// per thread; its per-layer names stay in the table.
pub const UNLISTED: [WorkloadDef; 1] = [WorkloadDef {
    name: "net-interference",
    why: "closed-loop victim beside a kernel-heavy Spmm and solver aggressor: block splitting and inline solver steps head-of-line block",
}];

/// Every bound is the contract's maximum. On the seed's host (two virtual
/// CPUs of a shared machine) identical runs spread by 5–12 % even when taken
/// at the quiet slice (README, *Repeatability*); a tighter bound would reject
/// unchanged code.
pub const END_TO_END: [EndToEndDef; 5] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "op_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "base_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "gflops",
        unit: "GFLOP/s",
        better: "higher",
        bound: 0.25,
    },
];

/// The per-layer table, in the order it is printed.
pub fn per_layer() -> Vec<LayerDef> {
    let mut defs = Vec::new();
    let mut one = |name: &str, unit: &'static str, better: &'static str| {
        defs.push(LayerDef {
            name: name.to_string(),
            unit,
            better,
        })
    };
    // host: a descriptor; the direction only says which way is "more machine".
    one("host.nproc", "count", "higher");
    one("host.llc_bytes", "bytes", "higher");
    one("host.simd", "lanes", "higher");
    one("host.roof_read_gbps", "GB/s", "higher");
    one("host.roof_triad_gbps", "GB/s", "higher");
    one("host.probe_array_bytes", "bytes", "higher");
    for (stem, unit, better) in [
        ("matrices.gen_s", "s", "lower"),
        ("tuning.plan_s", "s", "lower"),
        ("tuning.materialize_s", "s", "lower"),
        ("tuning.bytes_per_nnz", "B/nnz", "lower"),
        ("tuning.tuned_over_naive", "ratio", "higher"),
        ("kernels.naive_gflops", "GFLOP/s", "higher"),
        ("kernels.prepared_gflops", "GFLOP/s", "higher"),
        ("kernels.achieved_gbps", "GB/s", "higher"),
        ("kernels.pct_of_roof", "%", "higher"),
        ("kernels.flops_per_byte", "flop/B", "higher"),
        ("kernels.working_set_over_llc", "ratio", "higher"),
        ("engine.gflops", "GFLOP/s", "higher"),
        ("engine.speedup", "ratio", "higher"),
    ] {
        // `<m>`: the ids of the `spmv-lib` matrices.
        for (matrix, _) in LIB_MATRICES {
            one(&format!("{stem}.{}", matrix.id()), unit, better);
        }
    }
    one("kernels.sym_iter_us", "us", "lower");
    one("kernels.spmm_k8_over_k1", "ratio", "lower");
    one("kernels.ladder_us.kernel", "us", "lower");
    one("engine.kernel_share", "share", "higher");
    one("engine.barrier_share", "share", "lower");
    one("engine.time_imbalance", "ratio", "lower");
    one("engine.cg_iter_us", "us", "lower");
    one("engine.cg_barrier_share", "share", "lower");
    one("engine.ladder_us.engine", "us", "lower");
    one("engine.self_us.engine", "us", "lower");
    one("serve.insert_s", "s", "lower");
    one("serve.ladder_us.registry", "us", "lower");
    one("serve.self_us.registry", "us", "lower");
    one("serve.ladder_us.batcher", "us", "lower");
    one("serve.self_us.batcher", "us", "lower");
    for (phase, _) in OPEN_RATES {
        one(&format!("serve.avg_batch.{phase}"), "count", "higher");
    }
    one("serve.queue_wait_p50_us.mid", "us", "lower");
    one("serve.queue_wait_p99_us.mid", "us", "lower");
    one("serve.sheds", "count", "lower");
    one("serve.solver_iter_us", "us", "lower");
    one("serve.solve_iters", "iters", "lower");
    one("net.ladder_us.wire", "us", "lower");
    one("net.self_us.wire", "us", "lower");
    one("net.encode_us", "us", "lower");
    one("net.decode_us", "us", "lower");
    one("net.bytes_in_per_req", "bytes", "lower");
    one("net.bytes_out_per_req", "bytes", "lower");
    one("net.sheds", "count", "lower");
    one("net.errors", "count", "lower");
    one("net.closed_loop_rps", "req/s", "higher");
    one("net.max_rate_ok_rps", "req/s", "higher");
    for (phase, _) in OPEN_RATES {
        one(&format!("net.gen_late_p99_us.{phase}"), "us", "lower");
    }
    one("net.victim_alone_p50_ms", "ms", "lower");
    one("net.spmm_k8_ms", "ms", "lower");
    one("net.solver_iter16_ms", "ms", "lower");
    one("obs.scrape_ms", "ms", "lower");
    one("obs.trace_overhead_share", "ratio", "lower");
    // What the generic end-to-end names stand for on each workload, under the
    // specific names later issues refer to (measured in the untraced half of a
    // traced run).
    one("spmv_gflops", "GFLOP/s", "higher");
    one("spmv_serial_gflops", "GFLOP/s", "higher");
    one("solve_s", "s", "lower");
    one("solve_s_p95", "s", "lower");
    for (phase, _) in OPEN_RATES {
        one(&format!("lat_p50_ms.{phase}"), "ms", "lower");
        one(&format!("lat_p99_ms.{phase}"), "ms", "lower");
        one(&format!("within_limit_share.{phase}"), "share", "higher");
    }
    one("victim_lat_p50_ms", "ms", "lower");
    one("victim_lat_p99_ms", "ms", "lower");
    one("aggressor_gflops", "GFLOP/s", "higher");
    one("failed_share", "share", "lower");
    defs
}

/// What one run found: operation counts and measured metrics by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, (f64, usize)>,
    /// Reasons the run's numbers should not be trusted (generator too late, a
    /// tail percentile the sample cannot support). Printed, never fatal.
    pub invalid: Vec<String>,
}

impl Outcome {
    /// Record `name` = `value` measured over `samples` samples.
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.insert(name.into(), (value, samples));
    }

    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn flag(&mut self, reason: String) {
        self.invalid.push(reason);
    }

    /// The rows to print, in table order: `(name, unit, value, samples)`.
    /// Names the table has but the run did not set read 0 with 0 samples.
    /// Panics on a set name the table lacks: that is a bug in this package.
    pub fn rows(&self, traced: bool) -> Vec<Row> {
        let table: Vec<(String, &'static str)> = if traced {
            per_layer().into_iter().map(|d| (d.name, d.unit)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| (d.name.to_string(), d.unit))
                .collect()
        };
        for name in self.values.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric '{name}' is not in the {} table",
                if traced { "per-layer" } else { "end-to-end" }
            );
        }
        table
            .into_iter()
            .map(|(name, unit)| {
                let (value, samples) = self.values.get(&name).copied().unwrap_or((0.0, 0));
                (name, unit, value, samples)
            })
            .collect()
    }
}

/// A printed metric: `(name, unit, value, samples)`.
pub type Row = (String, &'static str, f64, usize);

/// The final stdout line of a run, over the rows [`Outcome::rows`] returned.
pub fn result_json(outcome: &Outcome, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// A finite number with all its digits; JSON has no NaN or infinity, so those
/// (a metric that could not be computed) read 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `BENCHMARK.json`, generated from the tables above (`--manifest` prints it;
/// a unit test keeps the committed file equal to it).
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name.to_string()));
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name.to_string()));
        }
        for m in &layers {
            assert!(ok_name(&m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(manifest_json().len() <= 64 << 10);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `--manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_carries_every_table_metric() {
        let mut o = Outcome::default();
        o.count(true);
        o.count(true);
        o.set("op_p50_ms", 1.25, 10);
        let line = result_json(&o, &o.rows(false));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0,"));
        for m in &END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\":", m.name)));
        }
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        o.count(false);
        assert!(result_json(&o, &o.rows(false)).contains("\"correct\": false"));
        assert_eq!(json_number(f64::NAN), "0");

        let mut t = Outcome::default();
        t.count(true);
        t.set("host.nproc", 2.0, 1);
        assert_eq!(t.rows(true).len(), per_layer().len());
    }

    #[test]
    #[should_panic(expected = "not in the end-to-end table")]
    fn unknown_metric_names_are_a_bug() {
        let mut o = Outcome::default();
        o.set("no_such_metric", 1.0, 1);
        o.rows(false);
    }
}
