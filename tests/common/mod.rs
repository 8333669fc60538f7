//! Shared by the root suites that read the workspace's own sources.

use std::path::{Path, PathBuf};

/// Appends every `.rs` file under `dir`, recursively, to `out`.
pub fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
