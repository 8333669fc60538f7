//! Vocabulary interning: production logs key users and items by arbitrary
//! external ids (strings, UUIDs, numeric SKUs); models need dense `u32`
//! universes. `Vocab` provides the bijection and survives serialization so
//! serving can translate back.

use std::collections::HashMap;

/// A bijection between external string ids and dense `u32` indices.
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    forward: HashMap<String, u32>,
    reverse: Vec<String>,
}

impl Vocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an external id, returning its dense index (stable across
    /// repeat calls).
    pub fn intern(&mut self, external: &str) -> u32 {
        if let Some(&ix) = self.forward.get(external) {
            return ix;
        }
        let ix = self.reverse.len() as u32;
        self.forward.insert(external.to_string(), ix);
        self.reverse.push(external.to_string());
        ix
    }

    /// Looks up an already-interned id.
    pub fn get(&self, external: &str) -> Option<u32> {
        self.forward.get(external).copied()
    }

    /// The external id of a dense index.
    pub fn external(&self, ix: u32) -> Option<&str> {
        self.reverse.get(ix as usize).map(String::as_str)
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }
}

/// A raw external-id record, pre-interning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawRecord<'a> {
    /// External user key.
    pub user: &'a str,
    /// External item key.
    pub item: &'a str,
    /// Absolute day.
    pub day: u32,
}

/// Interns a raw external-id log into a dense [`crate::InteractionLog`]
/// plus the two vocabularies needed to translate results back.
pub fn intern_log(records: &[RawRecord<'_>]) -> (crate::InteractionLog, Vocab, Vocab) {
    let mut users = Vocab::new();
    let mut items = Vocab::new();
    let interactions: Vec<crate::Interaction> = records
        .iter()
        .map(|r| crate::Interaction {
            user: users.intern(r.user),
            item: items.intern(r.item),
            day: r.day,
        })
        .collect();
    (crate::InteractionLog::new(interactions), users, items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut v = Vocab::new();
        let a = v.intern("sku-9");
        let b = v.intern("sku-42");
        assert_eq!(v.intern("sku-9"), a);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn round_trip() {
        let mut v = Vocab::new();
        let ix = v.intern("user@example.com");
        assert_eq!(v.external(ix), Some("user@example.com"));
        assert_eq!(v.get("user@example.com"), Some(ix));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.external(99), None);
    }

    #[test]
    fn intern_log_builds_dense_universe() {
        let records = vec![
            RawRecord { user: "alice", item: "book-1", day: 3 },
            RawRecord { user: "bob", item: "book-1", day: 5 },
            RawRecord { user: "alice", item: "book-2", day: 9 },
        ];
        let (log, users, items) = intern_log(&records);
        assert_eq!(log.len(), 3);
        assert_eq!(log.num_users(), 2);
        assert_eq!(log.num_items(), 2);
        // alice's two purchases share a dense user id
        let alice = users.get("alice").expect("alice interned");
        assert_eq!(log.timeline_of(alice).len(), 2);
        assert_eq!(items.external(0), Some("book-1"));
    }
}
