//! Public-surface snapshot of the five library crates, and a check that
//! every `pub` item in them has a user outside its own crate.
//!
//! rustc's `dead_code` lint never fires on a `pub` item, so a crate's
//! public surface can hide code that nothing runs. This test closes the
//! gap in two parts:
//!
//! 1. The snapshot (`tests/public_api.snapshot`) is the first line of
//!    every `pub` item (declarations, inherent methods, fields; a `pub use`
//!    or a function signature joined onto one line), grouped by crate and
//!    file, so a refactor that drops, renames or leaks an item fails with a
//!    readable diff.
//! 2. Every name a snapshot line declares must have a reason to be `pub`:
//!    - it appears, as a whole word, in some Rust file outside that crate's
//!      `src/` (the other crates, `psim`, `examples/`, `benchmark/` and
//!      every `tests/` directory; line comments do not count);
//!    - or the signature of a `pub` item that has such a reason names it
//!      as a type (a function's signature, a field's type, an enum's
//!      variants), so rustc's `private_interfaces` lint would object to
//!      demoting it;
//!    - or it is a field of a struct that an outside file builds with
//!      `..Struct::default()`, which needs every field visible;
//!    - or it sits in [`EXCEPTIONS`] with its reason.
//!
//!    A name with none of these is demoted to `pub(crate)`, and `dead_code`
//!    then says whether anything in its crate still needs it.
//!
//! Blind spot: a word match cannot tell common names apart, so a method
//! called `new` or `len` always counts as used by some other type's call.
//!
//! Test-only modules (`tests.rs`, `*_tests.rs`, `tests_*.rs`) are not
//! surface, by the same rule as `tests/module_size.rs` and CI's
//! `module-hygiene` job.
//!
//! To accept an intentional change to the surface:
//!
//! ```text
//! UPDATE_API_SNAPSHOT=1 cargo test --test public_api
//! ```

#![allow(
    clippy::disallowed_types,
    reason = "every set here is keyed by words of source text"
)]

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "tests/public_api.snapshot";

/// The library crates whose surface is pinned, by directory under `crates/`.
const CRATES: [&str; 5] = ["netsim", "overlay", "core", "planetlab", "workloads"];

/// `(crate directory, name, reason)`: a `pub` name with no outside user
/// that must stay `pub` all the same.
const EXCEPTIONS: &[(&str, &str, &str)] = &[];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Whether `path` names a test-only module.
fn is_test_module(path: &Path) -> bool {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    stem == "tests" || stem.ends_with("_tests") || stem.starts_with("tests_")
}

/// Every `.rs` file under `dir`, build outputs and hidden directories
/// skipped.
fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable dir").flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_str().unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files_under(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c| !is_word_char(c)).filter(|w| !w.is_empty())
}

fn indentation(line: &str) -> &str {
    &line[..line.len() - line.trim_start().len()]
}

/// One `pub` item of a crate's surface.
struct Item {
    /// The snapshot line: the item's first line, trimmed, with a `pub use`
    /// or a function signature joined onto it.
    line: String,
    /// The names it declares.
    names: Vec<String>,
    /// The text whose type names it exposes: the line up to any body or
    /// value, and for an enum its variants too.
    signature: String,
    /// For a field, the struct it belongs to.
    owner: Option<String>,
}

/// Whether `item` (text joined so far) runs on to the next line: a
/// `pub use` ends at its `;`, a function's signature at its body or `;`.
fn continues(item: &str) -> bool {
    if item.starts_with("pub use ") {
        return !item.ends_with(';');
    }
    let head = item.split('(').next().unwrap_or("");
    head.split_whitespace().any(|w| w == "fn") && !item.contains('{') && !item.ends_with(';')
}

/// `("struct" | "enum", name)` when `line` opens a braced struct or enum
/// body, whatever its visibility.
fn body_header(line: &str) -> Option<(&str, &str)> {
    let rest = line.strip_prefix("pub ").unwrap_or(line);
    let rest = rest.strip_prefix("pub(crate) ").unwrap_or(rest);
    let (kind, rest) = rest.split_once(' ')?;
    let name = words(rest).next()?;
    (matches!(kind, "struct" | "enum") && line.ends_with('{')).then_some((kind, name))
}

/// The names a `pub` line declares: the item's or field's name, or each
/// leaf (or `as` alias) of a `pub use`.
fn declared_names(line: &str) -> Vec<String> {
    let rest = line.strip_prefix("pub ").unwrap_or(line);
    if let Some(tree) = rest.strip_prefix("use ") {
        return tree
            .trim_end_matches(';')
            .split(['{', '}', ','])
            .filter_map(|leaf| {
                let leaf = leaf.trim();
                let name = match leaf.split_once(" as ") {
                    Some((_, alias)) => alias.trim(),
                    None => leaf.rsplit("::").next().unwrap_or(""),
                };
                (!name.is_empty() && name != "*" && name != "self").then(|| name.to_string())
            })
            .collect();
    }
    let mut words = words(rest).peekable();
    while let Some(word) = words.next() {
        match word {
            "fn" | "struct" | "enum" | "trait" | "type" | "mod" | "static" | "union" => {
                return words
                    .find(|w| *w != "mut")
                    .map(str::to_string)
                    .into_iter()
                    .collect();
            }
            "const" if !matches!(words.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))) => {
                return words.next().map(str::to_string).into_iter().collect();
            }
            "const" | "unsafe" | "async" | "extern" | "C" => {}
            field => return vec![field.to_string()],
        }
    }
    Vec::new()
}

/// The `pub` items of one source file, in order.
fn items(text: &str) -> Vec<Item> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    // The struct whose body the walk is in, with its header's indentation.
    let mut owner: Option<(&str, &str)> = None;
    let mut i = 0;
    while i < lines.len() {
        let (raw, t) = (lines[i], lines[i].trim());
        i += 1;
        if owner.is_some_and(|(_, indent)| t.starts_with('}') && indentation(raw) == indent) {
            owner = None;
        }
        let header = body_header(t);
        if !t.starts_with("pub ") {
            if let Some(("struct", name)) = header {
                owner = Some((name, indentation(raw)));
            }
            continue;
        }
        let mut line = t.to_string();
        while continues(&line) && i < lines.len() {
            let next = lines[i].trim();
            i += 1;
            let closing = next.starts_with(['}', ')', ']', '>']);
            if closing || next == "{" {
                line = line.trim_end_matches(',').to_string();
            }
            if !closing && !line.ends_with(['{', '(', '[', '<']) {
                line.push(' ');
            }
            line.push_str(next);
        }
        let value = (line.starts_with("pub const ") && !line.starts_with("pub const fn"))
            || line.starts_with("pub static ");
        let mut signature = match line.starts_with("pub use ") {
            true => String::new(),
            false if value => line.split(" = ").next().unwrap_or("").to_string(),
            false => line.split('{').next().unwrap_or("").to_string(),
        };
        let field_of = owner.map(|(name, _)| name.to_string());
        match header {
            Some(("struct", name)) => owner = Some((name, indentation(raw))),
            Some((_, _)) => {
                while i < lines.len()
                    && !(lines[i].trim_start().starts_with('}')
                        && indentation(lines[i]) == indentation(raw))
                {
                    let variant = lines[i].trim();
                    if !variant.starts_with("//") {
                        signature.push(' ');
                        signature.push_str(variant);
                    }
                    i += 1;
                }
            }
            None => {}
        }
        out.push(Item {
            names: declared_names(&line),
            line,
            signature,
            owner: field_of,
        });
    }
    out
}

/// Each crate's surface as `(file relative to the root, items)`.
fn surface() -> Vec<(String, Vec<Item>)> {
    let root = workspace_root();
    let mut out = Vec::new();
    for krate in CRATES {
        let mut files = Vec::new();
        rust_files_under(&root.join("crates").join(krate).join("src"), &mut files);
        files.retain(|f| !is_test_module(f));
        files.sort();
        for path in files {
            let items = items(&read(&path));
            if !items.is_empty() {
                let rel = path.strip_prefix(&root).expect("under the root");
                out.push((rel.display().to_string(), items));
            }
        }
    }
    out
}

fn render(surface: &[(String, Vec<Item>)]) -> String {
    let mut out = String::new();
    for (file, items) in surface {
        out.push_str(&format!("== {file} ==\n"));
        for item in items {
            out.push_str(&item.line);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// The words of `text` outside line comments, plus `..Name` for each
/// struct `Name` it builds with `..Name::…` (functional update).
fn code_words(text: &str, into: &mut HashSet<String>) {
    for line in text.lines() {
        let code = line.split("//").next().unwrap_or("");
        into.extend(words(code).map(str::to_string));
        for (at, _) in code.match_indices("..") {
            let base = code[at + 2..].split("::").next().unwrap_or("");
            if base.starts_with(|c: char| c.is_ascii_uppercase()) && base.chars().all(is_word_char)
            {
                into.insert(format!("..{base}"));
            }
        }
    }
}

/// The names among `items` that have a reason to stay `pub`, given the
/// words of every file outside the crate and the names excepted by hand.
fn kept<'a>(items: &'a [&'a Item], outside: &HashSet<&str>, excepted: &[&str]) -> HashSet<&'a str> {
    let reasoned = |item: &Item, name: &str| {
        outside.contains(name)
            || excepted.contains(&name)
            || item
                .owner
                .as_ref()
                .is_some_and(|s| outside.contains(format!("..{s}").as_str()))
    };
    let mut kept: HashSet<&str> = items
        .iter()
        .flat_map(|item| {
            item.names
                .iter()
                .filter(|n| reasoned(item, n))
                .map(String::as_str)
        })
        .collect();
    loop {
        let before = kept.len();
        for item in items {
            if item.names.iter().any(|n| kept.contains(n.as_str())) {
                kept.extend(
                    words(&item.signature)
                        .filter(|w| w.starts_with(|c: char| c.is_ascii_uppercase())),
                );
            }
        }
        if kept.len() == before {
            return kept;
        }
    }
}

#[test]
fn public_api_matches_the_snapshot() {
    let surface = surface();
    for krate in CRATES {
        let prefix = format!("crates/{krate}/src/");
        assert!(
            surface.iter().any(|(file, _)| file.starts_with(&prefix)),
            "surface extraction is broken: nothing found under {prefix}"
        );
    }
    let rendered = render(&surface);

    let path = workspace_root().join(SNAPSHOT);
    if std::env::var_os("UPDATE_API_SNAPSHOT").is_some() {
        fs::write(&path, &rendered).expect("write snapshot");
        return;
    }
    let recorded = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing API snapshot {SNAPSHOT} ({e}); regenerate with UPDATE_API_SNAPSHOT=1")
    });
    if rendered != recorded {
        let current: HashSet<&str> = rendered.lines().collect();
        let pinned: HashSet<&str> = recorded.lines().collect();
        let mut delta: Vec<String> = rendered
            .lines()
            .filter(|l| !pinned.contains(l))
            .map(|l| format!("  + {l}"))
            .collect();
        delta.extend(
            recorded
                .lines()
                .filter(|l| !current.contains(l))
                .map(|l| format!("  - {l}")),
        );
        if delta.is_empty() {
            delta.push("  (same lines, different order or grouping)".into());
        }
        panic!(
            "public API drifted from {SNAPSHOT} (review, then UPDATE_API_SNAPSHOT=1 to accept):\n{}",
            delta.join("\n")
        );
    }
}

#[test]
fn every_pub_name_has_a_user_outside_its_crate() {
    let root = workspace_root();
    let mut all = Vec::new();
    rust_files_under(&root, &mut all);
    let this_test = root.join("tests/public_api.rs");
    let files: Vec<(PathBuf, HashSet<String>)> = all
        .into_iter()
        .filter(|f| *f != this_test)
        .map(|f| {
            let mut words = HashSet::new();
            code_words(&read(&f), &mut words);
            (f, words)
        })
        .collect();
    assert!(files.len() > 100, "walked only {} Rust files", files.len());

    let surface = surface();
    let mut unused = Vec::new();
    let mut stale: Vec<&str> = Vec::new();
    for krate in CRATES {
        let src = root.join("crates").join(krate).join("src");
        let outside: HashSet<&str> = files
            .iter()
            .filter(|(f, _)| !f.starts_with(&src))
            .flat_map(|(_, words)| words.iter().map(String::as_str))
            .collect();
        let prefix = format!("crates/{krate}/src/");
        let items: Vec<(&str, &Item)> = surface
            .iter()
            .filter(|(f, _)| f.starts_with(&prefix))
            .flat_map(|(f, items)| items.iter().map(move |item| (f.as_str(), item)))
            .collect();
        let bare: Vec<&Item> = items.iter().map(|(_, item)| *item).collect();
        let excepted: Vec<&str> = EXCEPTIONS
            .iter()
            .filter(|(k, ..)| *k == krate)
            .map(|(_, n, _)| *n)
            .collect();
        let kept_anyway = kept(&bare, &outside, &[]);
        stale.extend(excepted.iter().filter(|n| {
            kept_anyway.contains(*n) || !bare.iter().any(|item| item.names.iter().any(|d| d == *n))
        }));
        let kept = kept(&bare, &outside, &excepted);
        for (file, item) in &items {
            for name in item.names.iter().filter(|n| !kept.contains(n.as_str())) {
                unused.push(format!("  {file}: `{name}` in `{}`", item.line));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "pub names that no file outside their crate's src/ names; demote them to \
         pub(crate) (then delete what dead_code reports) or list them in EXCEPTIONS \
         with a reason:\n{}",
        unused.join("\n")
    );
    assert!(
        stale.is_empty(),
        "exceptions that no longer apply: {stale:?}"
    );
}
