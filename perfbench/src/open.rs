//! `doc_open`: closed loop, each operation one pass that opens four
//! documents from their segment files (the paper's load-time and "smaller"
//! claims, Figs. 8, 10, 11).
//!
//! Every file holds the trace's history, a checkpoint at its tip and a
//! 64-event tail typed after it. S3, C1 and A2 get a single-typist tail,
//! which opens through `Branch::apply_sequential_tail`; C1 also gets a
//! two-typist tail branching at the checkpoint, which resumes the
//! checkpoint's tracker snapshot (`walk_resuming`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eg_encoding::{apply_bundle_bytes, decode_oplog_image};
use eg_storage::{
    decode_snapshot, read_checkpoint, scan_frames, DocStore, RECORD_CHECKPOINT, RECORD_EVENTS,
};
use egwalker::walker::{self, WalkerOpts};
use egwalker::{Branch, OpLog, Tracker};

use crate::compose::total_len;
use crate::inputs::{self, file_len, remote_version, WorkDir};
use crate::report::{median, secs, Layers, Outcome, FAILED_MS};
use crate::{alloc, setup_median, Config, SETUP_REPS};

/// Events typed after the checkpoint.
const TAIL_EVENTS: usize = 64;

/// One segment file and what opening it must produce.
struct StoredDoc {
    name: String,
    path: PathBuf,
    text: String,
    version: Vec<(String, usize)>,
    /// Whether the tail is one linear chain off the checkpoint.
    sequential: bool,
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new(cfg.traced);
    let work = WorkDir::new("open");
    let reps = if cfg.traced { 1 } else { SETUP_REPS };
    let (docs, setup_s) = setup_median(reps, || setup(cfg, &work));
    for d in &docs {
        out.note("store", format!("{} bytes={}", d.name, file_len(&d.path)));
    }
    if !cfg.traced {
        let passes_ms = untraced_loop(&docs, cfg.seconds, &mut out);
        let m = &mut out.metrics;
        m.set("setup_s", setup_s);
        m.set_percentiles("", &passes_ms, &[("p50_ms", 0.5)]);
        m.set(
            "ops_per_s",
            1e3 * passes_ms.len() as f64 / passes_ms.iter().sum::<f64>(),
        );
        let (peak, resident) = memory_pass(&docs);
        m.set("peak_bytes", peak as f64);
        m.set("resident_bytes", resident as f64);
        m.set(
            "store_bytes",
            docs.iter().map(|d| file_len(&d.path)).sum::<u64>() as f64,
        );
        out.tail(&passes_ms);
    } else {
        let half = cfg.seconds / 2.0;
        let untraced_ms = untraced_loop(&docs, half, &mut out);
        let deadline = Instant::now() + Duration::from_secs_f64(half);
        let mut total = Layers::default();
        let mut traced_ms = Vec::new();
        while traced_ms.is_empty() || Instant::now() < deadline {
            traced_ms.push(traced_pass(&docs, &mut total, &mut out));
        }
        total.into_metrics(traced_ms.len(), docs.len(), &mut out.metrics);
        out.metrics.set(
            "trace_overhead_frac",
            median(&traced_ms) / median(&untraced_ms) - 1.0,
        );
        out.note("traced_passes", traced_ms.len());
    }
    out
}

/// Generates the traces, types the tails and writes the four stores.
fn setup(cfg: &Config, work: &WorkDir) -> Vec<StoredDoc> {
    let dir = work.fresh("stores");
    let mut rng = inputs::rng(cfg.seed, 0x0BE7);
    let traces = inputs::traces(&["S3", "C1", "A2"], cfg.scale, cfg.seed);
    let mut docs = Vec::new();
    for tr in &traces {
        let len = tr.reference.len_chars();
        let mut ext = tr.oplog.clone();
        inputs::type_tail(
            &mut ext,
            "tail-typist",
            tr.oplog.version(),
            len,
            TAIL_EVENTS,
            &mut rng,
        );
        docs.push(store(&dir, &tr.name, &tr.oplog, &tr.reference, ext, true));
        if tr.name == "C1" {
            let mut ext = tr.oplog.clone();
            for typist in ["typist-a", "typist-b"] {
                let from = tr.oplog.version();
                inputs::type_tail(&mut ext, typist, from, len, TAIL_EVENTS / 2, &mut rng);
            }
            docs.push(store(
                &dir,
                "C1-concurrent",
                &tr.oplog,
                &tr.reference,
                ext,
                false,
            ));
        }
    }
    docs
}

/// Writes `base`'s history, a checkpoint of `at_save` and the tail of
/// `extended` to a new segment file.
fn store(
    dir: &Path,
    name: &str,
    base: &OpLog,
    at_save: &Branch,
    extended: OpLog,
    sequential: bool,
) -> StoredDoc {
    let path = dir.join(format!("{name}.seg"));
    let (mut store, _) = DocStore::open(&path).expect("create segment store");
    store.append_new(base).expect("append history");
    store
        .write_checkpoint(base, at_save)
        .expect("write checkpoint");
    store.append_new(&extended).expect("append tail");
    let reference = extended.checkout_tip();
    StoredDoc {
        name: name.to_owned(),
        path,
        text: reference.content.to_string(),
        version: remote_version(&extended),
        sequential,
    }
}

fn untraced_loop(docs: &[StoredDoc], seconds: f64, out: &mut Outcome) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes_ms = Vec::new();
    while passes_ms.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let opened: Vec<_> = docs.iter().map(|d| DocStore::open(&d.path)).collect();
        let ms = secs(t) * 1e3;
        let mut ok = true;
        for (d, res) in docs.iter().zip(opened) {
            out.attempted += 1;
            let good = match res {
                Ok((_, loaded)) => {
                    out.check(loaded.cached, || {
                        format!("open of {} missed the checkpoint path", d.name)
                    }) && out.check(matches(d, &loaded.oplog, &loaded.branch), || {
                        format!("open of {} differs from the extended oplog", d.name)
                    })
                }
                Err(e) => out.check(false, || format!("open of {}: {e}", d.name)),
            };
            if !good {
                out.failed += 1;
                ok = false;
            }
        }
        passes_ms.push(if ok { ms } else { FAILED_MS });
    }
    passes_ms
}

fn matches(d: &StoredDoc, oplog: &OpLog, branch: &Branch) -> bool {
    branch.version.as_slice() == oplog.version().as_slice()
        && branch.content.to_string() == d.text
        && remote_version(oplog) == d.version
}

fn memory_pass(docs: &[StoredDoc]) -> (usize, usize) {
    let base = alloc::current_bytes();
    alloc::reset_peak();
    let opened: Vec<_> = docs
        .iter()
        .map(|d| DocStore::open(&d.path).expect("reopen store"))
        .collect();
    let peak = alloc::peak_bytes().saturating_sub(base);
    let resident = alloc::current_bytes().saturating_sub(base);
    drop(opened);
    (peak, resident)
}

/// One traced pass: times `DocStore::open` whole, then re-composes the open
/// from public calls with a span per layer and checks both against each
/// other and the oracle. Returns the composition's wall milliseconds.
fn traced_pass(docs: &[StoredDoc], l: &mut Layers, out: &mut Outcome) -> f64 {
    let mut opened = Vec::new();
    for d in docs {
        let t = Instant::now();
        let res = DocStore::open(&d.path);
        l.open_s += secs(t);
        opened.push(res.map(|(_, loaded)| loaded));
    }
    let t = Instant::now();
    let composed: Vec<_> = docs.iter().map(|d| compose_open(&d.path, l)).collect();
    let ms = secs(t) * 1e3;
    for ((d, direct), composed) in docs.iter().zip(opened).zip(composed) {
        out.attempted += 1;
        let ok = match (direct, composed) {
            (Ok(direct), Ok((oplog, branch, sequential))) => {
                out.check(sequential == d.sequential, || {
                    format!("traced open of {} took the wrong tail path", d.name)
                }) && out.check(
                    branch.content == direct.branch.content
                        && branch.version == direct.branch.version
                        && matches(d, &oplog, &branch),
                    || format!("traced open of {} differs from DocStore::open", d.name),
                )
            }
            (Err(e), _) => out.check(false, || format!("open of {}: {e}", d.name)),
            (_, Err(e)) => out.check(false, || format!("traced open of {}: {e}", d.name)),
        };
        if !ok {
            out.failed += 1;
        }
    }
    ms
}

/// `DocStore::open`'s checkpoint path from public calls: scan the frames,
/// restore the oplog from the checkpoint image, ingest the tail records,
/// resolve the checkpoint version, rebuild the rope from its text, then
/// apply the tail verbatim or resume the tracker snapshot over it.
/// Returns the oplog, the document and whether the tail was sequential.
fn compose_open(path: &Path, l: &mut Layers) -> Result<(OpLog, Branch, bool), String> {
    let t = Instant::now();
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let (frames, _) = scan_frames(&bytes).map_err(|e| e.to_string())?;
    let ck = frames
        .iter()
        .rposition(|f| f.kind == RECORD_CHECKPOINT)
        .ok_or("no checkpoint")?;
    let view = read_checkpoint(frames[ck].payload).map_err(|e| e.to_string())?;
    l.read_s += secs(t);

    let t = Instant::now();
    let image = view.oplog_image.ok_or("checkpoint without image")?;
    let mut oplog = decode_oplog_image(image).map_err(|e| e.to_string())?;
    l.image_decode_s += secs(t);
    let image_len = oplog.len();

    let t = Instant::now();
    for f in frames[ck + 1..].iter().filter(|f| f.kind == RECORD_EVENTS) {
        apply_bundle_bytes(&mut oplog, f.payload).map_err(|e| format!("{e:?}"))?;
    }
    l.decode_s += secs(t);

    let t = Instant::now();
    let lvs: Option<Vec<_>> = view
        .version_ids()
        .map(|(agent, seq)| {
            let a = oplog.agents.agent_id(agent)?;
            oplog.agents.try_remote_to_lv(a, seq)
        })
        .collect();
    let frontier = oplog
        .graph
        .find_dominators(&lvs.ok_or("unresolved checkpoint")?);
    let sequential = oplog.graph.is_sequential_extension(image_len, &frontier);
    l.window_s += secs(t);

    let t = Instant::now();
    let mut branch = Branch::from_cached(view.content, frontier);
    l.rope_build_s += secs(t);

    let tail = oplog.len() - image_len;
    l.new_events += tail as u64;
    if sequential {
        l.window_events += tail as u64;
        let t = Instant::now();
        branch.apply_sequential_tail(&oplog, (image_len..oplog.len()).into());
        l.tail_s += secs(t);
    } else {
        let t = Instant::now();
        let snap = decode_snapshot(view.snapshot.ok_or("checkpoint without snapshot")?)
            .map_err(|e| e.to_string())?;
        snap.validate(oplog.len())?;
        let mut tracker: Tracker = Tracker::from_snapshot(&snap);
        l.tail_s += secs(t);

        let t = Instant::now();
        let target = oplog.graph.version_union(&branch.version, oplog.version());
        let diff = oplog.graph.diff(&branch.version, &target);
        l.window_s += secs(t);
        l.window_events += total_len(&diff.only_b) as u64;

        let mut apply_s = 0.0;
        let mut emitted = 0u64;
        let content = &mut branch.content;
        let t = Instant::now();
        walker::walk_resuming(
            &oplog,
            &branch.version,
            &diff.only_b,
            &diff.only_b,
            WalkerOpts::default(),
            &mut tracker,
            &mut |_, op| {
                let t = Instant::now();
                op.apply_to(content);
                apply_s += secs(t);
                emitted += 1;
            },
        );
        l.walk_self_s += secs(t) - apply_s;
        l.rope_apply_s += apply_s;
        l.emitted_ops += emitted;
        branch.version = target;
    }
    l.critical_events += crate::compose::critical_events(&oplog.graph);
    Ok((oplog, branch, sequential))
}
