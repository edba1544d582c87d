//! Seeded inputs: the three paper traces, post-checkpoint tails, the live
//! arrival stream, and the scratch directory the stores live in.

use std::path::{Path, PathBuf};

use eg_dag::Frontier;
use eg_trace::{builtin_specs, generate};
use egwalker::testgen::SmallRng;
use egwalker::{Branch, OpLog};

/// One generated trace with its reference document.
pub struct Trace {
    pub name: String,
    pub oplog: OpLog,
    /// `oplog.checkout_tip()`: the oracle every merge and open is held to.
    pub reference: Branch,
}

/// Generates the named builtin traces at `scale`, each generator seed
/// XOR-ed with `seed` (seed 0 reproduces the builtin traces).
pub fn traces(names: &[&str], scale: f64, seed: u64) -> Vec<Trace> {
    let specs = builtin_specs(scale);
    names
        .iter()
        .map(|name| {
            let mut spec = specs
                .iter()
                .find(|s| s.name == *name)
                .unwrap_or_else(|| panic!("no builtin trace {name}"))
                .clone();
            spec.seed ^= seed;
            let oplog = generate(&spec);
            let reference = oplog.checkout_tip();
            Trace {
                name: spec.name,
                oplog,
                reference,
            }
        })
        .collect()
}

/// Canonical comparable version: the frontier as sorted remote IDs, so
/// logs with different local numbering compare equal on equal events.
pub fn remote_version(oplog: &OpLog) -> Vec<(String, usize)> {
    let mut v: Vec<(String, usize)> = oplog
        .remote_version()
        .into_iter()
        .map(|id| (id.agent.to_string(), id.seq))
        .collect();
    v.sort();
    v
}

/// A deterministic generator for inputs that are not traces (tails, the
/// arrival schedule), derived from the run seed and a purpose tag.
pub fn rng(seed: u64, purpose: u64) -> SmallRng {
    SmallRng::new(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Appends `events` keystrokes by `agent` to `log`, typed from version
/// `from` onto a document of `doc_len` characters: bursts of insertions
/// with occasional backspacing, the shape of a user typing after the last
/// save. Returns the typist's final version.
pub fn type_tail(
    log: &mut OpLog,
    agent: &str,
    from: &Frontier,
    doc_len: usize,
    events: usize,
    rng: &mut SmallRng,
) -> Frontier {
    let agent = log.get_or_create_agent(agent);
    let mut version = from.clone();
    let mut cursor = rng.below(doc_len + 1);
    let mut done = 0;
    while done < events {
        let n = (1 + rng.below(8)).min(events - done);
        let lvs = if rng.below(4) == 0 && cursor >= n {
            let lvs = log.add_backspace_at(agent, &version, cursor - 1, n);
            cursor -= n;
            lvs
        } else {
            let text: String = (0..n)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            let lvs = log.add_insert_at(agent, &version, cursor, &text);
            cursor += n;
            lvs
        };
        version = Frontier::new_1(lvs.last());
        done += n;
    }
    version
}

/// A scratch directory inside the working directory, removed on drop
/// (also when a panic unwinds through it).
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Self {
        let dir = PathBuf::from(".perfbench-work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark work dir");
        WorkDir(dir)
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark subdir");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
