//! Time travel: the event graph stores the full history, so any historical
//! version can be checked out, and the changes between two versions can be
//! extracted as transformed operations (paper §6).
//!
//! Run with: `cargo run --example time_travel`

use eg_walker_suite::core_crate::walker::{transformed_ops, WalkerOpts};
use eg_walker_suite::core_crate::Tracker;
use eg_walker_suite::OpLog;

fn main() {
    let mut oplog = OpLog::new();
    let author = oplog.get_or_create_agent("author");

    // A little editing session with checkpoints.
    let v1 = oplog.add_insert(author, 0, "The quick brown fox").last();
    let v2 = oplog
        .add_insert(author, 19, " jumps over the lazy dog")
        .last();
    oplog.add_delete(author, 4, 6); // drop "quick "
    let v3 = oplog.add_insert(author, 4, "nimble ").last();

    for (label, v) in [("v1", v1), ("v2", v2), ("v3", v3)] {
        let doc = oplog.checkout(&[v]);
        println!("{label}: {:?}", doc.content.to_string());
    }

    // Diff between two versions: the transformed operations that take the
    // v2 document to the v3 document.
    let (_, ops) = transformed_ops(
        &oplog,
        &[v2],
        &[v3],
        WalkerOpts::default(),
        &mut Tracker::new(),
    );
    println!("changes from v2 to v3:");
    for (lvs, op) in ops {
        println!("  events {:?}: {:?}", lvs, op);
    }

    // And the whole history can be saved/loaded via the event-graph format.
    let bytes = eg_walker_suite::encoding::encode(
        &oplog,
        eg_walker_suite::encoding::EncodeOpts {
            cache_final_doc: true,
            ..Default::default()
        },
    );
    println!("encoded history: {} bytes", bytes.len());
    let decoded = eg_walker_suite::encoding::decode(&bytes).unwrap();
    println!("fast load: {:?}", decoded.cached_doc.unwrap());
}
