//! Pins the metric surface against the operator docs, the way
//! `crates/faults/tests/docs_sync.rs` pins the fault points: every family
//! of `unimatch_serve::metrics::CATALOGUE` **and** every `"unimatch_…"`
//! series name a non-test source registers through `unimatch_obs` has a
//! row in the `## Metrics` table of `docs/OPERATIONS.md`, and every row
//! names a series that exists. Removing a catalogue row, a registration
//! or a docs row on its own fails here.
//!
//! `crates/benchmark/` is frozen and reads series, it registers none; it
//! is skipped.

mod common;

use common::rust_sources;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use unimatch::serve::metrics::CATALOGUE;

/// `series → (type, labels)` from the table rows
/// `` | `series` | type | `label` or — | … | ``.
fn documented() -> BTreeMap<String, (String, String)> {
    let docs = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/OPERATIONS.md"),
    )
    .expect("read docs/OPERATIONS.md");
    let section = docs
        .split("\n## Metrics\n")
        .nth(1)
        .expect("docs/OPERATIONS.md must have a `## Metrics` section");
    let section = section.split("\n## ").next().unwrap_or(section);
    let mut rows = BTreeMap::new();
    for line in section.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let Some(name) = cells.get(1).and_then(|c| c.strip_prefix('`')?.strip_suffix('`')) else {
            continue;
        };
        let labels = cells[3].trim_matches('`').to_string();
        let previous = rows.insert(name.to_string(), (cells[2].to_string(), labels));
        assert!(previous.is_none(), "{name} has two rows in the Metrics table");
    }
    rows
}

/// Every complete `"unimatch_[a-z0-9_]+"` string literal in the non-test
/// part (before `#[cfg(test)]`) of the workspace's own `src/` trees.
fn series_literals() -> BTreeSet<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    for member in std::fs::read_dir(root.join("crates")).expect("crates/").flatten() {
        if member.file_name() != "benchmark" {
            rust_sources(&member.path().join("src"), &mut files);
        }
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read source");
        let code = text.split("#[cfg(test)]").next().unwrap_or(&text);
        // every quote-delimited run is tried, so escaped quotes elsewhere
        // in a file cannot hide a literal; code between two literals never
        // has this shape
        for literal in code.split('"') {
            let series = literal.strip_prefix("unimatch_").is_some_and(|rest| {
                !rest.is_empty()
                    && rest.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
            });
            if series {
                names.insert(literal.to_string());
            }
        }
    }
    names
}

#[test]
fn catalogue_registry_and_operations_table_agree() {
    let documented = documented();
    let literals = series_literals();
    assert!(!documented.is_empty() && !literals.is_empty());

    for row in CATALOGUE {
        let (kind, labels) = documented.get(row.name).unwrap_or_else(|| {
            panic!("{} is in the serve catalogue but has no row in the Metrics table", row.name)
        });
        assert_eq!(kind, row.kind.name(), "{}: type column", row.name);
        let key = if row.label_key.is_empty() { "—" } else { row.label_key };
        assert_eq!(labels, key, "{}: labels column", row.name);
        assert!(literals.contains(row.name), "{}: the literal scan missed a catalogue name", row.name);
    }

    let undocumented: Vec<_> = literals.iter().filter(|n| !documented.contains_key(*n)).collect();
    assert!(
        undocumented.is_empty(),
        "series named in the sources but missing from the docs/OPERATIONS.md Metrics table: \
         {undocumented:?}"
    );
    let nonexistent: Vec<_> = documented.keys().filter(|n| !literals.contains(*n)).collect();
    assert!(
        nonexistent.is_empty(),
        "rows of the docs/OPERATIONS.md Metrics table naming no series in the sources: \
         {nonexistent:?}"
    );
}
