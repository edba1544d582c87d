//! Metric names, sample statistics, per-layer span totals and the output
//! format every workload shares.

use std::time::Instant;

/// End-to-end metrics, printed by every untraced run. The operation they
/// describe is the workload's: one merge pass, one open pass, or one
/// live arrival.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_bytes", "bytes"),
    ("resident_bytes", "bytes"),
    ("store_bytes", "bytes"),
];

/// Per-layer metrics, printed by every traced run. Times and counts are
/// per pass (per stream on `live_edit`); a layer a workload does not reach
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dag.window_s", "s"),
    ("dag.window_events", "count"),
    ("dag.critical_events", "count"),
    ("dag.plan_s", "s"),
    ("core.new_events", "count"),
    ("core.replay_ratio", "ratio"),
    ("core.window_events_per_op", "count"),
    ("core.new_events_per_op", "count"),
    ("core.walk_self_s", "s"),
    ("core.emitted_ops", "count"),
    ("core.apply_bundle_s", "s"),
    ("core.tail_s", "s"),
    ("rope.apply_s", "s"),
    ("rope.build_s", "s"),
    ("encoding.decode_s", "s"),
    ("encoding.image_decode_s", "s"),
    ("storage.open_s", "s"),
    ("storage.read_s", "s"),
    ("storage.append_s", "s"),
    ("storage.checkpoint_s", "s"),
    ("storage.bytes_written", "bytes"),
    ("sync.frame_s", "s"),
    ("server.latency_p50_ms", "ms"),
    ("server.latency_p99_ms", "ms"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.service_p50_ms", "ms"),
    ("server.service_p99_ms", "ms"),
    ("gen.late_p50_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
];

/// Latency recorded for an operation that failed or returned an error, so
/// that it counts as missing any latency limit.
pub const FAILED_MS: f64 = 1.0e9;

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `q` quantile (0..=1) of `samples` by the nearest-rank rule.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Span totals of a traced run, summed over its passes at the layer
/// boundaries the benchmark's own composition of public calls crosses.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub window_s: f64,
    pub window_events: u64,
    pub critical_events: u64,
    pub plan_s: f64,
    pub new_events: u64,
    pub walk_self_s: f64,
    pub emitted_ops: u64,
    pub apply_bundle_s: f64,
    pub tail_s: f64,
    pub rope_apply_s: f64,
    pub rope_build_s: f64,
    pub decode_s: f64,
    pub image_decode_s: f64,
    pub open_s: f64,
    pub read_s: f64,
    pub append_s: f64,
    pub checkpoint_s: f64,
    pub bytes_written: u64,
    pub frame_s: f64,
}

impl Layers {
    /// Averages `passes` accumulated passes into one, as metrics; `ops` is
    /// the number of operations one pass holds.
    pub fn into_metrics(self, passes: usize, ops_per_pass: usize, out: &mut Metrics) {
        let n = passes.max(1) as f64;
        let per = |v: f64| v / n;
        let count = |v: u64| v as f64 / n;
        out.set("dag.window_s", per(self.window_s));
        out.set("dag.window_events", count(self.window_events));
        out.set("dag.critical_events", count(self.critical_events));
        out.set("dag.plan_s", per(self.plan_s));
        out.set("core.new_events", count(self.new_events));
        if self.new_events > 0 {
            out.set(
                "core.replay_ratio",
                self.window_events as f64 / self.new_events as f64,
            );
        }
        let ops = ops_per_pass.max(1) as f64;
        out.set("core.window_events_per_op", count(self.window_events) / ops);
        out.set("core.new_events_per_op", count(self.new_events) / ops);
        out.set("core.walk_self_s", per(self.walk_self_s));
        out.set("core.emitted_ops", count(self.emitted_ops));
        out.set("core.apply_bundle_s", per(self.apply_bundle_s));
        out.set("core.tail_s", per(self.tail_s));
        out.set("rope.apply_s", per(self.rope_apply_s));
        out.set("rope.build_s", per(self.rope_build_s));
        out.set("encoding.decode_s", per(self.decode_s));
        out.set("encoding.image_decode_s", per(self.image_decode_s));
        out.set("storage.open_s", per(self.open_s));
        out.set("storage.read_s", per(self.read_s));
        out.set("storage.append_s", per(self.append_s));
        out.set("storage.checkpoint_s", per(self.checkpoint_s));
        out.set("storage.bytes_written", count(self.bytes_written));
        out.set("sync.frame_s", per(self.frame_s));
    }
}

/// Metric values in the fixed order of one of the name tables above.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: vec![0.0; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values[i] = value;
    }

    /// Sets the p50/p90/p99 metrics named `{prefix}p50_ms` etc. from
    /// millisecond samples.
    pub fn set_percentiles(&mut self, prefix: &str, samples_ms: &[f64], qs: &[(&str, f64)]) {
        if samples_ms.is_empty() {
            return;
        }
        for (suffix, q) in qs {
            self.set(&format!("{prefix}{suffix}"), quantile(samples_ms, *q));
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|((n, u), v)| (*n, *v, *u))
    }
}

/// What a workload hands back to `main` for printing.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations run, and how many of them failed or returned an error.
    pub attempted: u64,
    pub failed: u64,
    /// Oracle and self-check mismatches, one line each.
    pub mismatches: Vec<String>,
    /// Run facts that are not metrics (counts, shapes), for the log.
    pub notes: Vec<(&'static str, String)>,
    /// Figures printed with the metrics but left out of the result line:
    /// they vary too much between runs on a shared machine to hold a bound.
    pub unbounded: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn new(traced: bool) -> Self {
        Outcome {
            metrics: Metrics::new(if traced { PER_LAYER } else { END_TO_END }),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            notes: Vec::new(),
            unbounded: Vec::new(),
        }
    }

    /// Records the tail of an untraced run's operation times: p90, p99
    /// and the sample count they come from.
    pub fn tail(&mut self, samples_ms: &[f64]) {
        self.unbounded
            .push(("p90_ms", quantile(samples_ms, 0.9), "ms"));
        self.unbounded
            .push(("p99_ms", quantile(samples_ms, 0.99), "ms"));
        self.unbounded
            .push(("samples", samples_ms.len() as f64, "count"));
    }

    /// Records an oracle or self-check comparison; a mismatch fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.mismatches.push(what());
        }
        ok
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// A JSON number with all its digits; non-finite values cannot occur in
/// valid JSON and read as a failure.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{FAILED_MS}")
    }
}

/// A JSON string literal (the inputs are benchmark-chosen ASCII names and
/// short messages; quotes, backslashes and control characters are escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
