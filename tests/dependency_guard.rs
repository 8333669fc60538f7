//! The workspace's crates.io surface is `rand` alone, in every section
//! of every manifest, and every edge a member declares is one it uses. A
//! derive or a test helper that quietly brings a second name back (serde
//! was declared in nine manifests for derives nothing called) fails here,
//! not in review.
//!
//! `crates/benchmark/` is frozen with its own stand-in crates and is not
//! a workspace-dependency consumer; it is skipped.

mod common;

use common::rust_sources;
use std::path::Path;

/// `(section, dependency name)` for every dependency line of a manifest.
fn declared(manifest: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest).expect("read manifest");
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
        } else if section.ends_with("dependencies") && !line.is_empty() && !line.starts_with('#') {
            let name = line.split(['.', ' ', '=']).next().expect("dependency name");
            out.push((section.clone(), name.to_string()));
        }
    }
    out
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

    let mut members = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/").flatten() {
        if entry.file_name() != "benchmark" {
            members.push(entry.path());
        }
    }
    for member in members {
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
