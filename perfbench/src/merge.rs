//! `offline_merge`: closed loop on one thread, each operation one pass
//! that merges the full histories of S3, C1 and A2 into empty documents
//! (`OpLog::checkout_tip`), the paper's headline cost (Fig. 8).

use std::time::{Duration, Instant};

use eg_storage::DocStore;
use egwalker::{Branch, Tracker};

use crate::inputs::{self, file_len, Trace, WorkDir};
use crate::report::{median, secs, Layers, Outcome, FAILED_MS};
use crate::{alloc, compose, setup_median, Config, SETUP_REPS};

/// A2's merge cost moves by up to ±25% with its generator seed (its fork
/// and merge structure is random), S3's and C1's by about ±3%. Passes
/// rotate through this many seeded variants of A2, so a run's figures
/// rest on several draws rather than one. Variant 0 uses the run's seed.
const A2_VARIANTS: u64 = 8;

/// The generated inputs: S3 and C1 once, A2 in several variants.
struct Inputs {
    s3_c1: Vec<Trace>,
    a2: Vec<Trace>,
}

impl Inputs {
    fn generate(cfg: &Config) -> Self {
        let a2 = (0..A2_VARIANTS)
            .flat_map(|v| {
                let seed = cfg.seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                inputs::traces(&["A2"], cfg.scale, seed)
            })
            .collect();
        Inputs {
            s3_c1: inputs::traces(&["S3", "C1"], cfg.scale, cfg.seed),
            a2,
        }
    }

    /// The three traces pass `p` merges.
    fn pass(&self, p: usize) -> [&Trace; 3] {
        [&self.s3_c1[0], &self.s3_c1[1], &self.a2[p % self.a2.len()]]
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new(cfg.traced);
    let reps = if cfg.traced { 1 } else { SETUP_REPS };
    let (inputs, setup_s) = setup_median(reps, || Inputs::generate(cfg));
    for t in inputs.s3_c1.iter().chain(&inputs.a2) {
        out.note("trace", format!("{} events={}", t.name, t.oplog.len()));
    }
    if !cfg.traced {
        let passes_ms = untraced_loop(&inputs, cfg.seconds, &mut out);
        let m = &mut out.metrics;
        m.set("setup_s", setup_s);
        m.set_percentiles("", &passes_ms, &[("p50_ms", 0.5)]);
        m.set(
            "ops_per_s",
            1e3 * passes_ms.len() as f64 / passes_ms.iter().sum::<f64>(),
        );
        // Heap and disk figures are exact per pass; take the median over
        // one pass of each A2 variant.
        let work = WorkDir::new("merge");
        let (mut peak, mut resident, mut store) = (Vec::new(), Vec::new(), Vec::new());
        for p in 0..inputs.a2.len() {
            let traces = inputs.pass(p);
            let (pk, res) = memory_pass(&traces);
            peak.push(pk as f64);
            resident.push(res as f64);
            store.push(store_bytes(&traces, &work) as f64);
        }
        m.set("peak_bytes", median(&peak));
        m.set("resident_bytes", median(&resident));
        m.set("store_bytes", median(&store));
        out.tail(&passes_ms);
    } else {
        let half = cfg.seconds / 2.0;
        let untraced_ms = untraced_loop(&inputs, half, &mut out);
        let (layers, traced_ms) = traced_loop(&inputs, half, &mut out);
        let passes = traced_ms.len();
        layers.into_metrics(passes, 3, &mut out.metrics);
        out.metrics.set(
            "trace_overhead_frac",
            median(&traced_ms) / median(&untraced_ms) - 1.0,
        );
        out.note("traced_passes", passes);
    }
    out
}

/// Timed passes until `seconds` have elapsed (at least one). Returns the
/// per-pass milliseconds; every merged document is checked against its
/// trace's reference outside the timed region.
fn untraced_loop(inputs: &Inputs, seconds: f64, out: &mut Outcome) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes_ms = Vec::new();
    while passes_ms.is_empty() || Instant::now() < deadline {
        let traces = inputs.pass(passes_ms.len());
        let t = Instant::now();
        let docs = traces.map(|tr| tr.oplog.checkout_tip());
        let ms = secs(t) * 1e3;
        let ok = check_docs(&traces, &docs, "merge", out);
        passes_ms.push(if ok { ms } else { FAILED_MS });
    }
    passes_ms
}

/// The same passes through the traced composition; the result must match
/// `Branch::merge` (the reference) byte for byte.
fn traced_loop(inputs: &Inputs, seconds: f64, out: &mut Outcome) -> (Layers, Vec<f64>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut total = Layers::default();
    let mut passes_ms = Vec::new();
    while passes_ms.is_empty() || Instant::now() < deadline {
        let traces = inputs.pass(passes_ms.len());
        let plan_before = total.plan_s;
        let t = Instant::now();
        let docs = traces.map(|tr| {
            let mut doc = Branch::new();
            let mut tracker: Tracker = Tracker::new();
            compose::merge(&tr.oplog, &mut doc, &mut tracker, &mut total);
            doc
        });
        // The standalone plan is extra work the untraced path does not do.
        passes_ms.push((secs(t) - (total.plan_s - plan_before)) * 1e3);
        for tr in traces {
            total.critical_events += compose::critical_events(&tr.oplog.graph);
        }
        check_docs(&traces, &docs, "traced merge", out);
    }
    (total, passes_ms)
}

fn check_docs(traces: &[&Trace], docs: &[Branch], what: &str, out: &mut Outcome) -> bool {
    let mut all = true;
    for (tr, doc) in traces.iter().zip(docs) {
        out.attempted += 1;
        let ok = doc.version == tr.reference.version && doc.content == tr.reference.content;
        if !out.check(ok, || {
            format!("{what} of {} differs from checkout_tip", tr.name)
        }) {
            out.failed += 1;
            all = false;
        }
    }
    all
}

/// One untimed pass under the counting allocator: peak heap above the
/// baseline while merging, and heap the merged documents still hold.
fn memory_pass(traces: &[&Trace]) -> (usize, usize) {
    let base = alloc::current_bytes();
    alloc::reset_peak();
    let docs: Vec<Branch> = traces.iter().map(|tr| tr.oplog.checkout_tip()).collect();
    let peak = alloc::peak_bytes().saturating_sub(base);
    let resident = alloc::current_bytes().saturating_sub(base);
    drop(docs);
    (peak, resident)
}

/// Bytes the merged documents take once saved: one segment store each,
/// holding the history and a checkpoint at the tip.
fn store_bytes(traces: &[&Trace], work: &WorkDir) -> u64 {
    let dir = work.fresh("stores");
    traces
        .iter()
        .map(|tr| {
            let path = dir.join(format!("{}.seg", tr.name));
            let (mut store, _) = DocStore::open(&path).expect("create segment store");
            store.append_new(&tr.oplog).expect("append history");
            store
                .write_checkpoint(&tr.oplog, &tr.reference)
                .expect("write checkpoint");
            drop(store);
            file_len(&path)
        })
        .sum()
}
