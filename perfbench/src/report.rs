//! The metric catalogue and the result line.
//!
//! Every run prints exactly one metric set: the end-to-end metrics for an
//! untraced run, the per-layer metrics for a traced one. Names are written
//! as `(layer, metric)` pairs and joined with a dot. The code never spells
//! an `engine.…` or `serve.…` name as one string literal: the repository's
//! `dbs3-analyze` reads such literals as fault-point names.

use std::collections::BTreeMap;

/// A metric of the catalogue: layer (empty for end-to-end metrics), name,
/// unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Layer prefix; empty for end-to-end metrics.
    pub layer: &'static str,
    /// Name within the layer.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

impl MetricDef {
    /// The metric's full name, e.g. `storage.probe_ns_per_probe`.
    pub fn full_name(&self) -> String {
        if self.layer.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.layer, self.name)
        }
    }
}

const fn m(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
) -> MetricDef {
    MetricDef {
        layer,
        name,
        unit,
        higher_is_better,
    }
}

const HIGHER: bool = true;
const LOWER: bool = false;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("", "queries_per_s", "1/s", HIGHER),
    m("", "latency_p50_ms", "ms", LOWER),
    m("", "latency_p95_ms", "ms", LOWER),
    m("", "write_p50_ms", "ms", LOWER),
    m("", "goodput_qps", "1/s", HIGHER),
    m("", "ok_frac", "fraction", HIGHER),
    m("", "setup_s", "s", LOWER),
    m("", "rss_peak_mb", "MiB", LOWER),
];

/// Operations whose `OperationMetrics` are reported per layer.
pub const OPERATIONS: [&str; 3] = ["transmit", "join", "store"];

/// Per-operation metrics, reported for each of [`OPERATIONS`].
pub const OPERATION_METRICS: &[(&str, &str, bool)] = &[
    ("busy_ms", "ms", LOWER),
    ("activations", "count", LOWER),
    ("busy_imbalance", "ratio", LOWER),
    ("secondary_ratio", "fraction", LOWER),
    ("idle_polls", "count", LOWER),
    ("cache_flushes", "count", LOWER),
];

/// Layers whose self time per query is reported as `self.<layer>_ms`.
pub const SELF_TIME_LAYERS: [&str; 5] = ["bench", "gen", "storage", "engine", "serve"];

/// Per-layer metrics other than the per-operation and self-time ones,
/// reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("storage", "partition_ms", "ms", LOWER),
    m("storage", "replace_ms", "ms", LOWER),
    m("storage", "build_ns_per_tuple", "ns", LOWER),
    m("storage", "probe_ns_per_probe", "ns", LOWER),
    m("storage", "concat_ns_per_tuple", "ns", LOWER),
    m("storage", "route_ns_per_tuple", "ns", LOWER),
    m("queue", "handoff_ns_per_tuple", "ns", LOWER),
    m("cache", "plan_hit_rate", "fraction", HIGHER),
    m("cache", "index_hit_rate", "fraction", HIGHER),
    m("cache", "index_builds_per_query", "count", LOWER),
    m("cache", "evictions", "count", LOWER),
    m("engine", "prepare_ms", "ms", LOWER),
    m("engine", "submit_ms", "ms", LOWER),
    m("engine", "wait_ms", "ms", LOWER),
    m("engine", "exec_ms", "ms", LOWER),
    m("engine", "overhead_ms", "ms", LOWER),
    m("runtime", "utilisation", "fraction", HIGHER),
    m("runtime", "speedup_vs_1w", "ratio", HIGHER),
    m("op.join", "lpt", "flag", HIGHER),
    m("wire", "encode_us", "us", LOWER),
    m("wire", "decode_us", "us", LOWER),
    m("serve", "rtt_overhead_ms", "ms", LOWER),
    m("serve", "conn_wait_ms", "ms", LOWER),
    m("serve", "replayed", "count", LOWER),
    m("serve", "shed", "count", LOWER),
    m("gen", "late_ms", "ms", LOWER),
    m("ledger", "explained_frac", "fraction", HIGHER),
    m("trace", "overhead_frac", "fraction", LOWER),
];

/// Every per-layer metric a traced run reports, in print order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, bool)> {
    let mut all: Vec<(String, &'static str, bool)> = PER_LAYER
        .iter()
        .map(|d| (d.full_name(), d.unit, d.higher_is_better))
        .collect();
    for op in OPERATIONS {
        for &(name, unit, higher) in OPERATION_METRICS {
            all.push((format!("op.{op}.{name}"), unit, higher));
        }
    }
    for layer in SELF_TIME_LAYERS {
        all.push((format!("self.{layer}_ms"), "ms", LOWER));
    }
    all
}

/// Every end-to-end metric, in print order.
pub fn end_to_end_catalogue() -> Vec<(String, &'static str, bool)> {
    END_TO_END
        .iter()
        .map(|d| (d.full_name(), d.unit, d.higher_is_better))
        .collect()
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every checked answer was right.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed: errors and wrong answers.
    pub failed: u64,
    /// Metric values by full name.
    pub values: BTreeMap<String, f64>,
    /// Lines printed before the metrics (host, seed, checks).
    pub notes: Vec<String>,
}

impl Report {
    /// Checks the values against the catalogue the run must report and
    /// renders the metric lines plus the final JSON line.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let catalogue = if trace {
            per_layer_catalogue()
        } else {
            end_to_end_catalogue()
        };
        let mut out = String::new();
        for note in &self.notes {
            out.push_str("# ");
            out.push_str(note);
            out.push('\n');
        }
        let mut json = Vec::with_capacity(catalogue.len());
        for (name, unit, _) in &catalogue {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not a finite number: {value}"));
            }
            out.push_str(&format!("{name} {value} {unit}\n"));
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _, _)| n == *k))
        {
            return Err(format!("metric `{extra}` is not in the catalogue"));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct,
            self.attempted,
            self.failed,
            json.join(", ")
        ));
        Ok(out)
    }
}

/// A finite float as a JSON number with all its digits.
fn json_number(value: f64) -> String {
    let text = format!("{value:?}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}
