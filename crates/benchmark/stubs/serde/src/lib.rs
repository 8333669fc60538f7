//! Offline stand-in for `serde` (see Cargo.toml): the trait names exist so
//! `serde::Serialize` / `serde::Deserialize` resolve in derive position;
//! the derives expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

/// Marker for the real crate's `Serialize`.
pub trait Serialize {}

/// Marker for the real crate's `Deserialize`.
pub trait Deserialize<'de>: Sized {}
