//! Module-size guard: no Rust source file under any `src/` tree may
//! exceed [`MAX_LINES`] lines.
//!
//! The broker decomposition (DESIGN.md §3.3) replaced a monolithic
//! `broker.rs` with a layered module tree; this guard keeps the next
//! monolith from accreting. CI runs the same check as a shell job
//! (`module-hygiene`) so the failure names the offending file even when
//! the build is broken.

use std::fs;
use std::path::{Path, PathBuf};

/// Hard cap on lines per source file, tests and comments included.
const MAX_LINES: usize = 1_200;

/// Tighter cap for the engine modules: the parallel engine was born
/// layered (shard map / lookahead table / coordinator) over the serial
/// engine and its event queue, which fix the `(time, seq)` order every
/// digest rests on; this keeps each layer small enough to audit the
/// determinism argument in one sitting.
const SHARD_MAX_LINES: usize = 800;

/// Files under the tighter cap, relative to the workspace root.
const SHARD_MODULES: &[&str] = &[
    "crates/netsim/src/event.rs",
    "crates/netsim/src/engine.rs",
    "crates/netsim/src/shard.rs",
    "crates/netsim/src/parallel.rs",
];

/// The churn layer carries the byte-determinism argument for scripted
/// lifecycles (pre-sampled scripts, node-id-derived seeds), so each of
/// its modules gets the same audit-in-one-sitting cap as the sharded
/// engine.
const CHURN_MODULES: &[&str] = &[
    "crates/overlay/src/lifecycle.rs",
    "crates/workloads/src/synthtopo.rs",
    "crates/workloads/src/churn.rs",
];

/// The harness is the single place every driver's determinism contract
/// flows through, the sweep module is the one place every paper
/// cross-product expands (cell indices feed the derived seeds), and the
/// streaming modules carry the playback-clock argument; all get the same
/// audit-in-one-sitting cap.
const HARNESS_MODULES: &[&str] = &[
    "crates/workloads/src/harness.rs",
    "crates/workloads/src/sweep.rs",
    "crates/workloads/src/streaming.rs",
    "crates/overlay/src/streaming.rs",
];

/// The registry carries the read path's correctness argument — which
/// writes outdate a cached snapshot, which outdate the node order — split
/// into a write side, its host table and a read side that must each stay
/// readable in one sitting.
const REGISTRY_MODULES: &[&str] = &[
    "crates/overlay/src/broker/registry.rs",
    "crates/overlay/src/broker/hosts.rs",
    "crates/overlay/src/broker/roster.rs",
];

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_exceeds_the_module_size_cap() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut src_dirs = vec![root.join("src")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            src_dirs.push(src);
        }
    }

    let mut files = Vec::new();
    for dir in &src_dirs {
        rust_files_under(dir, &mut files);
    }
    files.sort();
    assert!(
        files.len() > 30,
        "guard walked only {} files — src discovery is broken",
        files.len()
    );

    let mut oversized = Vec::new();
    for path in &files {
        let lines = fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
            .lines()
            .count();
        if lines > MAX_LINES {
            oversized.push(format!(
                "  {} — {lines} lines (cap {MAX_LINES})",
                path.strip_prefix(&root).unwrap_or(path).display()
            ));
        }
    }
    assert!(
        oversized.is_empty(),
        "source files over the {MAX_LINES}-line cap — split them into submodules:\n{}",
        oversized.join("\n")
    );
}

#[test]
fn shard_engine_modules_stay_under_the_tight_cap() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for rel in SHARD_MODULES {
        let path = root.join(rel);
        let lines = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
            .lines()
            .count();
        assert!(
            lines <= SHARD_MAX_LINES,
            "{rel} has {lines} lines (cap {SHARD_MAX_LINES}) — keep the \
             parallel-engine layers small enough to audit"
        );
    }
}

#[test]
fn churn_modules_stay_under_the_tight_cap() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for rel in CHURN_MODULES {
        let path = root.join(rel);
        let lines = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
            .lines()
            .count();
        assert!(
            lines <= SHARD_MAX_LINES,
            "{rel} has {lines} lines (cap {SHARD_MAX_LINES}) — keep the \
             churn determinism argument auditable in one sitting"
        );
    }
}

#[test]
fn harness_modules_stay_under_the_tight_cap() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for rel in HARNESS_MODULES {
        let path = root.join(rel);
        let lines = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
            .lines()
            .count();
        assert!(
            lines <= SHARD_MAX_LINES,
            "{rel} has {lines} lines (cap {SHARD_MAX_LINES}) — keep the \
             harness, sweep and streaming layers auditable in one sitting"
        );
    }
}

#[test]
fn registry_modules_stay_under_the_tight_cap() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for rel in REGISTRY_MODULES {
        let path = root.join(rel);
        let lines = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
            .lines()
            .count();
        assert!(
            lines <= SHARD_MAX_LINES,
            "{rel} has {lines} lines (cap {SHARD_MAX_LINES}) — keep the \
             registry's write side and read side auditable in one sitting"
        );
    }
}
