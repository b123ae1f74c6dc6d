//! Metric catalog, sample statistics and the result line.

use std::fmt::Write as _;

/// One end-to-end metric: every workload reports every one of them.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    /// What the number is on each workload (offline_build / serve_stream /
    /// retrain_slide).
    pub definition: &'static str,
}

pub const E2E: &[E2e] = &[
    E2e {
        name: "op_ms",
        unit: "ms",
        definition: "median build / estimate p50 from due time / mean push_run+retrain",
    },
    E2e {
        name: "cpu_us_per_op",
        unit: "us",
        definition: "process CPU per build / server CPU per datapoint / process CPU per shift",
    },
    E2e {
        name: "quality_rel_smae",
        unit: "ratio",
        definition: "S-MAE over mean realized RTTF on the reference corpus",
    },
    E2e {
        name: "setup_s",
        unit: "s",
        definition: "median of repeated set-ups: inputs, artifact, server boot",
    },
    E2e {
        name: "peak_rss_mib",
        unit: "MiB",
        definition: "VmHWM of the process under test",
    },
];

/// One per-layer metric and the end-to-end metric it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn l(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer { name, unit, moves }
}

/// Every per-layer metric of every workload. A workload reports all of
/// them; one that belongs to another workload reads 0, because this
/// workload makes no such call.
pub const LAYERS: &[Layer] = &[
    // offline_build: one build replayed stage by stage.
    l("features.aggregate_ms", "ms", "offline_build op_ms"),
    l("features.lasso_path_ms", "ms", "offline_build op_ms"),
    l("ml.fit_ms.ls_svm", "ms", "offline_build op_ms"),
    l("ml.fit_ms.svm", "ms", "offline_build op_ms"),
    l("ml.fit_ms.m5p", "ms", "offline_build op_ms"),
    l("ml.fit_ms.rep_tree", "ms", "offline_build op_ms"),
    l("ml.fit_ms.linear_regression", "ms", "offline_build op_ms"),
    l("ml.fit_ms.lasso", "ms", "offline_build op_ms"),
    l("ml.validate_ms", "ms", "offline_build op_ms"),
    l("ml.grid_wall_ms", "ms", "offline_build op_ms"),
    l("ml.grid_efficiency", "ratio", "offline_build op_ms"),
    l(
        "linalg.kernel_matrix_ms",
        "ms",
        "offline_build op_ms; retrain_slide op_ms on cold fallbacks",
    ),
    l(
        "linalg.cholesky_ms",
        "ms",
        "offline_build op_ms; retrain_slide op_ms on cold fallbacks",
    ),
    l(
        "registry.publish_ms",
        "ms",
        "offline_build op_ms; serve_stream setup_s",
    ),
    l(
        "registry.load_ms",
        "ms",
        "offline_build op_ms; serve_stream setup_s",
    ),
    l(
        "registry.artifact_kib",
        "KiB",
        "offline_build op_ms; serve_stream setup_s",
    ),
    l("build.unattributed_ms", "ms", "offline_build op_ms"),
    // serve_stream: server threads from /proc, the server's own
    // exposition, and public calls replayed on the workload's bytes.
    l(
        "serve.edge_cpu_us_per_dp",
        "us",
        "serve_stream cpu_us_per_op, op_ms",
    ),
    l(
        "serve.shard_cpu_us_per_dp",
        "us",
        "serve_stream cpu_us_per_op, serve.estimate_p90_ms",
    ),
    l("serve.queue_wait_p50_us", "us", "serve.estimate_p90_ms"),
    l("serve.queue_wait_p90_us", "us", "serve.estimate_p90_ms"),
    l(
        "monitor.decode_ns_per_frame",
        "ns",
        "serve_stream edge CPU, serve.predict_p50_ms",
    ),
    l(
        "monitor.encode_ns_per_frame",
        "ns",
        "serve_stream edge CPU, serve.predict_p50_ms",
    ),
    l("core.window_us", "us", "serve_stream shard CPU, op_ms"),
    l(
        "ml.predict_us_per_row",
        "us",
        "serve_stream shard CPU, op_ms",
    ),
    l("serve.board_ns", "ns", "serve.predict_p50_ms"),
    l("obs.scrape_ms", "ms", "serve.predict_p50_ms, cpu_us_per_op"),
    l(
        "obs.exposition_kib",
        "KiB",
        "serve.predict_p50_ms, cpu_us_per_op",
    ),
    l(
        "serve.unattributed_cpu_us_per_dp",
        "us",
        "serve_stream cpu_us_per_op",
    ),
    l(
        "serve.predict_p50_ms",
        "ms",
        "serve_stream: PredictRequest round trip from due time",
    ),
    l(
        "serve.estimate_p90_ms",
        "ms",
        "serve_stream: pushed-estimate latency from due time",
    ),
    l("serve.estimate_p99_ms", "ms", "serve_stream (diagnostic)"),
    l(
        "client.late_ms_max",
        "ms",
        "serve_stream op_ms (generator lateness)",
    ),
    l("serve.datapoints_sent", "count", "serve_stream correctness"),
    l(
        "serve.datapoints_scraped",
        "count",
        "serve_stream correctness",
    ),
    l(
        "serve.estimates_expected",
        "count",
        "serve_stream correctness",
    ),
    l(
        "serve.estimates_pushed",
        "count",
        "serve_stream correctness",
    ),
    l("serve.predicts_sent", "count", "serve_stream correctness"),
    l(
        "serve.predicts_answered",
        "count",
        "serve_stream correctness",
    ),
    l("serve.drops", "count", "serve_stream correctness"),
    // retrain_slide: each shift through public calls.
    l("features.push_run_ms", "ms", "retrain_slide op_ms"),
    l("core.retrain_ms", "ms", "retrain_slide op_ms"),
    l(
        "core.retrain_cold_ms",
        "ms",
        "retrain_slide: the cold alternative",
    ),
    l("ml.score_ms", "ms", "retrain_slide (scoring the next run)"),
    l("core.warm_shifts", "count", "retrain_slide op_ms"),
    l("core.fallback_shifts", "count", "retrain_slide op_ms"),
    l("core.cold_shifts", "count", "retrain_slide op_ms"),
    l("core.rows_retired_mean", "count", "retrain_slide op_ms"),
    l("core.rows_appended_mean", "count", "retrain_slide op_ms"),
    l("core.window_rows_max", "count", "retrain_slide op_ms"),
    l("shift.unattributed_ms", "ms", "retrain_slide op_ms"),
    // Every workload.
    l(
        "trace.overhead_pct",
        "%",
        "traced minus untraced op_ms, over untraced",
    ),
];

/// A measured value with the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

pub fn v(value: f64, samples: usize) -> Value {
    Value { value, samples }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub e2e: Vec<(&'static str, Value)>,
    pub layers: Vec<(&'static str, Value)>,
    /// Free-form report lines (attribution tables, per-seed quality).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a correctness check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    pub fn e2e(&mut self, name: &'static str, value: Value) {
        debug_assert!(E2E.iter().any(|m| m.name == name), "{name}");
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: Value) {
        debug_assert!(LAYERS.iter().any(|m| m.name == name), "{name}");
        self.layers.push((name, value));
    }

    /// Every operation and check succeeded (a failed check is a failed
    /// operation).
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in [0, 1]).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (all digits Rust's shortest round-trip form
/// keeps); a non-finite value is a measurement bug and becomes `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Print the human-readable report, then the result JSON as the last
/// line of standard output.
pub fn print(out: &Outcome, trace: bool, provenance: &[(&str, String)]) {
    let mut prov = String::from("{");
    for (i, (k, val)) in provenance.iter().enumerate() {
        if i > 0 {
            prov.push_str(", ");
        }
        let _ = write!(prov, "{}: {}", json_str(k), json_str(val));
    }
    prov.push('}');
    println!("provenance {prov}");
    for (name, ok) in &out.checks {
        println!("check {:<58} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    for line in &out.notes {
        println!("{line}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted.max(1)
    );

    let mut metrics = String::from("{");
    let mut first = true;
    let mut push = |name: &str, unit: &str, value: Value, note: &str| {
        println!(
            "metric {:<34} {:>16.6} {:<6} n={:<7} {}",
            name, value.value, unit, value.samples, note
        );
        if !first {
            metrics.push_str(", ");
        }
        first = false;
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value.value),
            json_str(unit)
        );
    };
    if trace {
        for m in LAYERS {
            let value = out
                .layers
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(v(0.0, 0), |(_, val)| *val);
            push(m.name, m.unit, value, &format!("-> {}", m.moves));
        }
    } else {
        for m in E2E {
            let Some((_, value)) = out.e2e.iter().find(|(n, _)| *n == m.name) else {
                panic!("workload did not report end-to-end metric {}", m.name);
            };
            push(m.name, m.unit, *value, m.definition);
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics
    );
}
