//! Public-API snapshot for the `netsim` crate.
//!
//! The sharded parallel engine added a second public surface next to the
//! serial `Engine` (`shard::ShardMap`, `shard::LookaheadTable`,
//! `parallel::ShardedEngine`, `profile::ParallelProfile`); this test
//! pins the whole crate's exported items so a refactor that silently
//! drops, renames, or leaks one fails CI with a readable diff instead of
//! breaking the overlay and workloads crates first. The snapshot is the
//! first line of every `pub` item (declarations and inherent methods),
//! grouped by file.
//!
//! To accept an intentional API change:
//!
//! ```text
//! UPDATE_API_SNAPSHOT=1 cargo test -p netsim --test public_api
//! ```

use std::fs;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "tests/public_api.snapshot";

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable src dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // tests.rs / tests_*.rs are #[cfg(test)] modules, not API.
            if !name.starts_with("tests") {
                out.push(path);
            }
        }
    }
}

fn current_surface(src: &Path) -> String {
    let mut files = Vec::new();
    rust_files_under(src, &mut files);
    files.sort();

    let mut out = String::new();
    for path in &files {
        let text =
            fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let pub_lines: Vec<&str> = text
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("pub ") && !l.starts_with("pub ("))
            .collect();
        if pub_lines.is_empty() {
            continue;
        }
        let rel = path.strip_prefix(src).expect("under src").display();
        out.push_str(&format!("== {rel} ==\n"));
        for line in pub_lines {
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[test]
fn public_api_matches_the_snapshot() {
    let crate_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let surface = current_surface(&crate_root.join("src"));
    for module in ["== engine.rs ==", "== shard.rs ==", "== parallel.rs =="] {
        assert!(
            surface.contains(module),
            "surface extraction is broken — {module} missing"
        );
    }

    let snapshot_path = crate_root.join(SNAPSHOT);
    if std::env::var_os("UPDATE_API_SNAPSHOT").is_some() {
        fs::write(&snapshot_path, &surface).expect("write snapshot");
        return;
    }

    let recorded = fs::read_to_string(&snapshot_path).unwrap_or_else(|e| {
        panic!(
            "missing API snapshot {SNAPSHOT} ({e}); \
             regenerate with UPDATE_API_SNAPSHOT=1"
        )
    });
    if surface != recorded {
        let current: Vec<&str> = surface.lines().collect();
        let pinned: Vec<&str> = recorded.lines().collect();
        let mut delta = Vec::new();
        for line in &current {
            if !pinned.contains(line) {
                delta.push(format!("  + {line}"));
            }
        }
        for line in &pinned {
            if !current.contains(line) {
                delta.push(format!("  - {line}"));
            }
        }
        panic!(
            "netsim public API drifted from {SNAPSHOT} \
             (review, then UPDATE_API_SNAPSHOT=1 to accept):\n{}",
            delta.join("\n")
        );
    }
}
