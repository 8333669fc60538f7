//! Two policies every manifest of the workspace keeps:
//!
//! - The crates.io surface is `rand` alone, in every section of every
//!   manifest, and every edge a member declares is one it uses. A derive
//!   or a test helper that quietly brings a second name back (serde was
//!   declared in nine manifests for derives nothing called) fails here,
//!   not in review.
//! - Every member inherits the workspace lints, which forbid
//!   `unsafe_code`, so no target of any member (library, binaries,
//!   examples, tests) can hold an `unsafe` block.
//!
//! `crates/benchmark/` is frozen with its own stand-in crates and keeps
//! neither policy; it is skipped.
//!
//! One rule holds for every manifest, the benchmark's included:
//! `unimatch-experiments` (the paper's tables and figures) is a leaf. No
//! manifest but its own names it, and the facade does not re-export it,
//! so production crates never build experiment-only code.

mod common;

use common::rust_sources;
use std::path::{Path, PathBuf};

/// `(table, line)` for every non-blank, non-comment line of a manifest.
fn entries(manifest: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest).expect("read manifest");
    let mut table = String::new();
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line.trim_matches(['[', ']']).to_string();
        } else if !line.is_empty() && !line.starts_with('#') {
            out.push((table.clone(), line.to_string()));
        }
    }
    out
}

/// `(section, dependency name)` for every dependency line of a manifest.
fn declared(manifest: &Path) -> Vec<(String, String)> {
    entries(manifest)
        .into_iter()
        .filter(|(section, _)| section.ends_with("dependencies"))
        .map(|(section, line)| {
            let name = line.split(['.', ' ', '=']).next().expect("dependency name");
            (section, name.to_string())
        })
        .collect()
}

/// The root package and every member under `crates/` but the benchmark.
fn members(root: &Path) -> Vec<PathBuf> {
    let mut members = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/").flatten() {
        if entry.file_name() != "benchmark" {
            members.push(entry.path());
        }
    }
    members
}

#[test]
fn crates_io_surface_is_rand_alone_and_every_edge_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let external: Vec<String> = declared(&root.join("Cargo.toml"))
        .into_iter()
        .filter(|(section, name)| section == "workspace.dependencies" && !name.starts_with("unimatch-"))
        .map(|(_, name)| name)
        .collect();
    assert_eq!(external, ["rand"], "[workspace.dependencies] grew a crates.io name");

    for member in members(root) {
        let manifest = member.join("Cargo.toml");
        for (section, name) in declared(&manifest) {
            if section == "workspace.dependencies" {
                continue;
            }
            assert!(
                name.starts_with("unimatch-") || name == "rand",
                "{}: [{section}] declares {name}",
                manifest.display()
            );
            // a [dependencies] edge must be used by the library or its
            // binaries; a dev edge by any target of the member
            let dirs: &[&str] =
                if section == "dependencies" { &["src"] } else { &["src", "tests", "examples"] };
            let mut sources = Vec::new();
            for dir in dirs {
                rust_sources(&member.join(dir), &mut sources);
            }
            let ident = name.replace('-', "_");
            let used = sources.iter().any(|path| {
                std::fs::read_to_string(path).is_ok_and(|text| text.contains(&ident))
            });
            assert!(used, "{}: [{section}] {name} is declared but never referenced", manifest.display());
        }
    }
}

#[test]
fn every_member_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = |manifest: &Path, name: &str| -> Vec<String> {
        entries(manifest).into_iter().filter(|(t, _)| t == name).map(|(_, line)| line).collect()
    };
    assert!(
        table(&root.join("Cargo.toml"), "workspace.lints.rust")
            .contains(&"unsafe_code = \"forbid\"".to_string()),
        "the workspace lints must forbid unsafe code"
    );
    for member in members(root) {
        let manifest = member.join("Cargo.toml");
        assert_eq!(
            table(&manifest, "lints"),
            ["workspace = true"],
            "{}: must inherit the workspace lints",
            manifest.display()
        );
    }
}

#[test]
fn the_experiments_crate_is_a_leaf() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let own = root.join("crates/experiments/Cargo.toml");
    assert!(own.exists(), "crates/experiments/Cargo.toml is missing");
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/").flatten() {
        manifests.push(entry.path().join("Cargo.toml"));
    }
    for manifest in manifests.iter().filter(|m| **m != own) {
        for (table, line) in entries(manifest) {
            assert!(
                !line.contains("unimatch-experiments"),
                "{}: [{table}] names the leaf crate unimatch-experiments: {line}",
                manifest.display()
            );
        }
    }
    let facade = std::fs::read_to_string(root.join("src/lib.rs")).expect("read src/lib.rs");
    assert!(!facade.contains("unimatch_experiments"), "src/lib.rs re-exports unimatch_experiments");
}
