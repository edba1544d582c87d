//! `live_edit`: a host holding the first half of C1 receives the second
//! half one bundle run per arrival, as framed `WireFrame::Sync(Bundles)`
//! bytes — the realtime path a sync daemon serves, minus its socket and
//! timers.
//!
//! Each arrival goes `FrameDecoder` → `WireFrame::decode` →
//! `ServerHost::receive_bundles` → `flush` with one request outstanding at
//! a time, as in the daemon's single-threaded reactor. The host has one
//! worker and a persist dir, so every arrival is appended to a segment
//! store and checkpointed at the host's default cadence. The untraced run
//! sends arrivals back to back (saturated); the traced run adds an
//! open-loop stream on a seeded Poisson schedule, timed from each
//! arrival's due time, so a slow arrival delays the ones behind it.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eg_rle::HasLength;
use eg_server::{ServerConfig, ServerHost};
use eg_storage::DocStore;
use eg_sync::{DocId, FrameDecoder, Message, WireFrame};
use egwalker::{Branch, EventBundle, OpLog, Tracker};

use crate::inputs::{self, file_len, remote_version, WorkDir};
use crate::report::{median, secs, Layers, Outcome, FAILED_MS};
use crate::{alloc, compose, setup_median, Config, SETUP_REPS};

/// Arrivals per second of the traced run's open-loop stream: about half
/// the host's capacity on C1 at scale 0.02 (~400–470/s on 2 vCPUs).
pub const OFFERED_RATE: f64 = 200.0;

const DOC: DocId = DocId(1);
const HOST: &str = "live-host";

/// The generated stream and the state it must leave behind.
struct Stream {
    first_half: EventBundle,
    /// One encoded frame per arrival, each carrying one bundle run.
    frames: Vec<Vec<u8>>,
    new_events: usize,
    text: String,
    version: Vec<(String, usize)>,
}

/// Per-arrival timings of the untraced stream, in milliseconds.
#[derive(Default)]
struct Samples {
    latency: Vec<f64>,
    wait: Vec<f64>,
    service: Vec<f64>,
    /// Start minus due for arrivals that found the host idle: how late
    /// the open-loop generator itself ran.
    late: Vec<f64>,
    peak: Vec<f64>,
    resident: Vec<f64>,
    store: Vec<f64>,
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new(cfg.traced);
    let work = WorkDir::new("live");
    let reps = if cfg.traced { 1 } else { SETUP_REPS };
    let (stream, setup_s) = setup_median(reps, || {
        let stream = setup(cfg);
        drop(prepare_host(&work, &stream, "setup"));
        stream
    });
    out.note("arrivals", stream.frames.len());
    out.note("new_events", stream.new_events);
    out.note("first_half_events", stream.first_half.num_events());

    if !cfg.traced {
        out.metrics.set("setup_s", setup_s);
        // Saturated streams: each arrival is sent as soon as the previous
        // one is merged. Open-loop latency depends on how fast the idle
        // worker's CPU wakes up, which on a shared VM varies too much
        // between runs to hold a bound; it is reported by the traced run.
        let mut s = Samples::default();
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        let mut streams = 0u64;
        while streams == 0 || Instant::now() < deadline {
            stream_once(&work, &stream, None, streams, &mut s, &mut out);
            streams += 1;
        }
        out.note("streams", streams);
        let m = &mut out.metrics;
        m.set_percentiles("", &s.latency, &[("p50_ms", 0.5)]);
        m.set("ops_per_s", s.service.len() as f64 / busy_s(&s));
        m.set("peak_bytes", median(&s.peak));
        m.set("resident_bytes", median(&s.resident));
        m.set("store_bytes", median(&s.store));
        out.tail(&s.latency);
    } else {
        let offsets = schedule(cfg.seed, OFFERED_RATE, stream.frames.len());
        let mut open = Samples::default();
        let host_store = stream_once(&work, &stream, Some(offsets), 0, &mut open, &mut out);
        let mut saturated = Samples::default();
        stream_once(&work, &stream, None, 1, &mut saturated, &mut out);
        let m = &mut out.metrics;
        let qs = [("p50_ms", 0.5), ("p99_ms", 0.99)];
        m.set_percentiles("server.latency_", &open.latency, &qs);
        m.set_percentiles("server.queue_wait_", &open.wait, &qs);
        m.set_percentiles("server.service_", &open.service, &qs);
        m.set_percentiles("gen.late_", &open.late, &qs);
        let (layers, traced_s) = traced_stream(&work, &stream, &host_store, &mut out);
        // The standalone plan is extra work the host does not do.
        let traced_s = traced_s - layers.plan_s;
        out.metrics
            .set("trace_overhead_frac", traced_s / busy_s(&saturated) - 1.0);
        layers.into_metrics(1, stream.frames.len(), &mut out.metrics);
    }
    out
}

fn setup(cfg: &Config) -> Stream {
    let trace = inputs::traces(&["C1"], cfg.scale, cfg.seed)
        .pop()
        .expect("one trace");
    let mut runs = trace.oplog.bundle_since_local(&[]).runs;
    let half = trace.oplog.len() / 2;
    let mut split = 0;
    let mut events = 0;
    while split < runs.len() && events < half {
        events += runs[split].len();
        split += 1;
    }
    let rest = runs.split_off(split);
    let new_events = rest.iter().map(|r| r.len()).sum();
    let frames = rest
        .into_iter()
        .map(|run| {
            let bundle = EventBundle { runs: vec![run] };
            WireFrame::Sync(Message::Bundles(vec![(DOC, bundle)])).encode()
        })
        .collect();
    Stream {
        first_half: EventBundle { runs },
        frames,
        new_events,
        text: trace.reference.content.to_string(),
        version: remote_version(&trace.oplog),
    }
}

fn host_config(dir: PathBuf) -> ServerConfig {
    ServerConfig {
        name: HOST.to_owned(),
        workers: 1,
        persist_dir: Some(dir),
        ..ServerConfig::default()
    }
}

/// A fresh host with its own persist dir, holding the first half.
fn prepare_host(work: &WorkDir, stream: &Stream, tag: &str) -> (ServerHost, PathBuf) {
    let dir = work.fresh(tag);
    let host = ServerHost::with_config(host_config(dir.clone()));
    host.receive_bundles(vec![(DOC, stream.first_half.clone())]);
    host.flush();
    (host, dir.join(format!("doc-{}.seg", DOC.0)))
}

fn busy_s(s: &Samples) -> f64 {
    s.service.iter().sum::<f64>() / 1e3
}

/// Due times, as offsets from the stream's start, of a Poisson process at
/// `rate` arrivals per second.
fn schedule(seed: u64, rate: f64, n: usize) -> Vec<Duration> {
    let mut rng = inputs::rng(seed, 0x5EED);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit_f64()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Frames, decodes and hands one arrival to the host, waiting until it is
/// merged. Returns `false` if the bytes did not decode to a bundle batch.
fn deliver(host: &ServerHost, decoder: &mut FrameDecoder, bytes: &[u8]) -> bool {
    decoder.push(bytes);
    let Ok(Some(body)) = decoder.next_frame() else {
        return false;
    };
    let Ok(WireFrame::Sync(Message::Bundles(batch))) = WireFrame::decode(&body) else {
        return false;
    };
    host.receive_bundles(batch);
    host.flush();
    true
}

/// One stream through a fresh host: open loop on `offsets` (due times
/// from the start), or saturated without them. Checks the host's final
/// document against the oracle and returns its segment file path (the
/// host has shut down, so the file is complete).
fn stream_once(
    work: &WorkDir,
    stream: &Stream,
    offsets: Option<Vec<Duration>>,
    rep: u64,
    s: &mut Samples,
    out: &mut Outcome,
) -> PathBuf {
    // Room for this stream's samples first, so they stay out of the heap
    // figures.
    let n = stream.frames.len();
    for v in [&mut s.latency, &mut s.wait, &mut s.service, &mut s.late] {
        v.reserve(n);
    }
    let base = alloc::current_bytes();
    let (host, store_path) = prepare_host(work, stream, &format!("host-{rep}"));
    let mut decoder = FrameDecoder::new();
    alloc::reset_peak();
    let start = Instant::now() + Duration::from_millis(2);
    let mut prev_done = start;
    for (i, bytes) in stream.frames.iter().enumerate() {
        let due = match &offsets {
            Some(offsets) => start + offsets[i],
            None => prev_done,
        };
        wait_until(due);
        let begin = Instant::now();
        let ok = deliver(&host, &mut decoder, bytes);
        let done = Instant::now();
        out.attempted += 1;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        if ok {
            s.latency.push(ms(done - due));
        } else {
            out.failed += 1;
            s.latency.push(FAILED_MS);
        }
        s.wait.push(ms(begin - due));
        s.service.push(ms(done - begin));
        if offsets.is_some() && prev_done <= due {
            s.late.push(ms(begin - due));
        }
        prev_done = done;
    }
    s.peak.push(alloc::peak_bytes().saturating_sub(base) as f64);
    s.resident
        .push(alloc::current_bytes().saturating_sub(base) as f64);
    let snapshot = host.snapshot();
    drop(host);
    s.store.push(file_len(&store_path) as f64);
    let got = snapshot.into_iter().find(|(d, _, _)| *d == DOC);
    let ok = got.is_some_and(|(_, digest, text)| {
        let mut version: Vec<(String, usize)> =
            digest.into_iter().map(|id| (id.agent, id.seq)).collect();
        version.sort();
        text == stream.text && version == stream.version
    });
    out.check(ok, || {
        format!("host after stream {rep} differs from C1's checkout_tip")
    });
    store_path
}

/// The host's per-arrival work re-composed from public calls on the bench
/// thread: frame → decode → `apply_bundle` → traced merge → `append_new`,
/// plus a checkpoint at the host's cadence. Closed loop: the schedule does
/// not change per-layer work. The document, its version and the segment
/// file must match the host's byte for byte. Returns the layer totals and
/// the busy seconds of the stream.
fn traced_stream(
    work: &WorkDir,
    stream: &Stream,
    host_store: &Path,
    out: &mut Outcome,
) -> (Layers, f64) {
    let checkpoint_every = host_config(PathBuf::new()).checkpoint_every;
    let path = work.fresh("traced").join(format!("doc-{}.seg", DOC.0));
    let mut doc = Doc {
        oplog: OpLog::new(),
        branch: Branch::new(),
        tracker: Tracker::new(),
        store: DocStore::open(&path).expect("create segment store").0,
        checkpoint_every,
    };
    doc.oplog.get_or_create_agent(HOST);
    let mut setup_layers = Layers::default();
    if let Err(e) = doc.ingest(&stream.first_half, &mut setup_layers) {
        out.check(false, || format!("traced first half: {e}"));
    }
    let written_before = file_len(&path);

    let mut l = Layers::default();
    let mut decoder = FrameDecoder::new();
    let mut busy_s = 0.0;
    for bytes in &stream.frames {
        let t0 = Instant::now();
        let t = Instant::now();
        decoder.push(bytes);
        let body = decoder.next_frame();
        l.frame_s += secs(t);
        let t = Instant::now();
        let frame = body.map(|b| b.map(|b| WireFrame::decode(&b)));
        l.decode_s += secs(t);
        let res = match frame {
            Ok(Some(Ok(WireFrame::Sync(Message::Bundles(batch))))) => batch
                .iter()
                .try_for_each(|(_, bundle)| doc.ingest(bundle, &mut l)),
            _ => Err("arrival did not decode to a bundle batch".to_owned()),
        };
        busy_s += secs(t0);
        out.attempted += 1;
        if !out.check(res.is_ok(), || format!("traced arrival: {res:?}")) {
            out.failed += 1;
        }
    }
    l.bytes_written = file_len(&path).saturating_sub(written_before);
    l.critical_events = compose::critical_events(&doc.oplog.graph);

    let ok = doc.branch.content.to_string() == stream.text
        && remote_version(&doc.oplog) == stream.version;
    out.check(ok, || {
        "traced stream differs from C1's checkout_tip".to_owned()
    });
    drop(doc);
    let same_file = std::fs::read(&path).ok() == std::fs::read(host_store).ok();
    out.check(same_file, || {
        "traced stream's segment file differs from the host's".to_owned()
    });
    (l, busy_s)
}

/// The bench-side twin of one host document: `Replica::receive_doc`
/// followed by the worker's persist step.
struct Doc {
    oplog: OpLog,
    branch: Branch,
    tracker: Tracker,
    store: DocStore,
    checkpoint_every: usize,
}

impl Doc {
    fn ingest(&mut self, bundle: &EventBundle, l: &mut Layers) -> Result<(), String> {
        let t = Instant::now();
        let new = self.oplog.apply_bundle(bundle);
        l.apply_bundle_s += secs(t);
        if !new.map_err(|e| e.to_string())?.is_empty() {
            compose::merge(&self.oplog, &mut self.branch, &mut self.tracker, l);
        }
        let t = Instant::now();
        self.store
            .append_new(&self.oplog)
            .map_err(|e| e.to_string())?;
        l.append_s += secs(t);
        if self.store.events_since_checkpoint() >= self.checkpoint_every {
            let t = Instant::now();
            self.store
                .write_checkpoint(&self.oplog, &self.branch)
                .map_err(|e| e.to_string())?;
            l.checkpoint_s += secs(t);
        }
        Ok(())
    }
}
