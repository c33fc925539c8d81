//! Module-size guard, one rule for every Rust source file under any
//! `src/` tree: a module is at most [`MAX_LINES`] lines, and a test-only
//! module (`tests.rs`, `*_tests.rs`, `tests_*.rs`) at most
//! [`MAX_TEST_LINES`], comments included.
//!
//! The cap keeps each module small enough to audit in one sitting — the
//! determinism argument of the engine, the registry's read and write
//! sides, the harness — and keeps the next monolith from accreting. A
//! module that outgrows it moves its inline tests into a child file
//! (`#[path = "x_tests.rs"] mod tests;`) or splits into submodules. CI's
//! `module-hygiene` job applies the same rule in shell, so the failure
//! names the offending file even when the build is broken. The per-group
//! tests apply the same rule, and only add that the audit-critical
//! modules they name still exist.

use std::fs;
use std::path::{Path, PathBuf};

/// Cap on lines per source file.
const MAX_LINES: usize = 800;

/// Cap on lines per test-only module.
const MAX_TEST_LINES: usize = 1_200;

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

/// Whether `path` names a test-only module.
fn is_test_module(path: &Path) -> bool {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    stem == "tests" || stem.ends_with("_tests") || stem.starts_with("tests_")
}

/// The rule's cap for `path`.
fn cap_for(path: &Path) -> usize {
    if is_test_module(path) {
        MAX_TEST_LINES
    } else {
        MAX_LINES
    }
}

/// Lines in `path`, comments and blank lines included.
fn line_count(path: &Path) -> usize {
    fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .count()
}

/// Asserts that each module in `group` (paths relative to the workspace
/// root) still exists under that name and meets the rule. The walk in
/// [`no_source_file_exceeds_the_module_size_cap`] already sizes every
/// file; these per-group checks add that a module carrying a determinism
/// or correctness argument is not silently renamed or dissolved.
fn assert_group_meets_the_rule(group: &[&str]) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for rel in group {
        let path = root.join(rel);
        let (lines, cap) = (line_count(&path), cap_for(&path));
        assert!(lines <= cap, "{rel} has {lines} lines (cap {cap})");
    }
}

/// The serial and parallel engine layers, which fix the `(time, seq)`
/// order every digest rests on.
#[test]
fn shard_engine_modules_stay_under_the_tight_cap() {
    assert_group_meets_the_rule(&[
        "crates/netsim/src/event.rs",
        "crates/netsim/src/engine.rs",
        "crates/netsim/src/shard.rs",
        "crates/netsim/src/parallel.rs",
    ]);
}

/// The churn layer, which carries the byte-determinism argument for
/// scripted lifecycles.
#[test]
fn churn_modules_stay_under_the_tight_cap() {
    assert_group_meets_the_rule(&[
        "crates/overlay/src/lifecycle.rs",
        "crates/workloads/src/synthtopo.rs",
        "crates/workloads/src/churn.rs",
    ]);
}

/// The harness, sweep and streaming modules, through which every
/// driver's determinism contract flows.
#[test]
fn harness_modules_stay_under_the_tight_cap() {
    assert_group_meets_the_rule(&[
        "crates/workloads/src/harness.rs",
        "crates/workloads/src/sweep.rs",
        "crates/workloads/src/streaming.rs",
        "crates/overlay/src/streaming.rs",
    ]);
}

/// The registry's write side, membership table, remote slab, gossip
/// books, host table and read side.
#[test]
fn registry_modules_stay_under_the_tight_cap() {
    assert_group_meets_the_rule(&[
        "crates/overlay/src/broker/registry.rs",
        "crates/overlay/src/broker/members.rs",
        "crates/overlay/src/broker/remote.rs",
        "crates/overlay/src/broker/books.rs",
        "crates/overlay/src/broker/hosts.rs",
        "crates/overlay/src/broker/roster.rs",
    ]);
}

/// The transfer protocol's one sending end and one receiving end.
#[test]
fn protocol_end_modules_stay_under_the_tight_cap() {
    assert_group_meets_the_rule(&[
        "crates/overlay/src/sendflow.rs",
        "crates/overlay/src/receive.rs",
    ]);
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
    assert!(
        files.iter().any(|f| is_test_module(f)),
        "no test-only module found — the naming rule is broken"
    );

    let mut oversized = Vec::new();
    for path in &files {
        let (lines, cap) = (line_count(path), cap_for(path));
        if lines > cap {
            oversized.push(format!(
                "  {} — {lines} lines (cap {cap})",
                path.strip_prefix(&root).unwrap_or(path).display()
            ));
        }
    }
    assert!(
        oversized.is_empty(),
        "source files over the module-size cap — move inline tests into a \
         `*_tests.rs` child or split into submodules:\n{}",
        oversized.join("\n")
    );
}
