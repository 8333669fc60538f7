//! The registry of named injection points.
//!
//! Fault points are declared ad hoc at their seams (`const P: FaultPoint =
//! FaultPoint::new("layer.operation")`), which keeps the disarmed cost at
//! one atomic load — but leaves no single place to answer "what can I
//! arm?". This module is that place: every seam the workspace ships is
//! listed in [`REGISTERED`], and a sync test pins the list against the
//! fault-point table in `docs/OPERATIONS.md` in both directions, so the
//! operator-facing docs can never drift from the code.
//!
//! Adding a new fault point therefore takes three edits: the seam itself,
//! a row here, and a row in the OPERATIONS.md table — and the test fails
//! until all three agree.

/// Every named injection point the workspace declares, with a one-line
/// operator summary. `ann.shard.search.N` stands for the per-shard
/// family (`N` = shard index 0–15): arming one member wedges exactly
/// that shard.
pub const REGISTERED: &[(&str, &str)] = &[
    ("persist.save", "checkpoint serialization/write (I/O errors, torn writes)"),
    ("persist.load", "checkpoint read (I/O errors, latency)"),
    ("persist.load.corrupt", "checkpoint bytes in flight (bit flips before validation)"),
    ("ann.search", "every pipeline retrieval, single or batch, once (latency: a slow/cold index)"),
    ("ann.shard.search", "every shard of a sharded fan-out (correlated storm)"),
    ("ann.shard.search.N", "one shard of a sharded fan-out (io/latency/crash isolation)"),
    ("serve.batch", "the serve micro-batch execution path (latency under load)"),
    ("train.step", "one optimizer step (NaN/spike injection, crashes mid-epoch)"),
    ("durable.pre_commit", "durable training between a month's last step and its file (crash)"),
    ("durable.month_end", "durable training just after a month file is committed (crash)"),
];

/// Whether `name` is a registered point, counting members of the
/// `ann.shard.search.N` family (e.g. `ann.shard.search.3`) as registered.
pub fn is_registered(name: &str) -> bool {
    REGISTERED.iter().any(|(n, _)| *n == name)
        || name
            .strip_prefix("ann.shard.search.")
            .is_some_and(|idx| !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_members_count_as_registered() {
        assert!(is_registered("ann.shard.search"));
        assert!(is_registered("ann.shard.search.0"));
        assert!(is_registered("ann.shard.search.15"));
        assert!(!is_registered("ann.shard.search."));
        assert!(!is_registered("ann.shard.search.x"));
        assert!(!is_registered("nope.never"));
    }

    #[test]
    fn registry_names_are_unique_and_dot_separated() {
        for (i, (name, summary)) in REGISTERED.iter().enumerate() {
            assert!(name.contains('.'), "{name} should follow layer.operation");
            assert!(!summary.is_empty(), "{name} needs a summary");
            assert!(
                REGISTERED[i + 1..].iter().all(|(n, _)| n != name),
                "duplicate registry entry {name}"
            );
        }
    }
}
