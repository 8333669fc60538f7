//! Empty offline stand-in for `serde_json` (see Cargo.toml).
