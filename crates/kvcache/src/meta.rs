//! Cache entry identity (§5.1).
//!
//! [`CacheKey`] names one logical KV entry: the unit the pool stores, the
//! cold tier demotes and `bat-meta`'s index and hotness table track.

use bat_types::{BatError, ItemId, UserId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Identifier of one logical KV entry in the disaggregated pool.
///
/// The paper stores KV entries at *user/item granularity*: "all prefix
/// tokens of a given user or item form one logical entry" (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CacheKey {
    /// A user-prefix entry.
    User(UserId),
    /// An item-prefix entry.
    Item(ItemId),
}

impl CacheKey {
    /// Whether this is a user-prefix entry.
    pub fn is_user(self) -> bool {
        matches!(self, CacheKey::User(_))
    }

    /// The user id, for user-prefix entries.
    pub fn as_user(self) -> Option<UserId> {
        match self {
            CacheKey::User(u) => Some(u),
            CacheKey::Item(_) => None,
        }
    }
}

impl fmt::Display for CacheKey {
    /// Renders `kv:u{id}` / `kv:i{id}` with the kind prefix emitted here,
    /// not inherited from the id type's own `Display` — so user and item
    /// entries can never collide textually even if the id formats change,
    /// and the string round-trips through [`CacheKey::from_str`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheKey::User(u) => write!(f, "kv:u{}", u.as_u64()),
            CacheKey::Item(i) => write!(f, "kv:i{}", i.as_u64()),
        }
    }
}

impl FromStr for CacheKey {
    type Err = BatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let invalid = || BatError::InvalidRequest(format!("malformed cache key {s:?}"));
        let rest = s.strip_prefix("kv:").ok_or_else(invalid)?;
        let (kind, digits) = rest.split_at(rest.len().min(1));
        let id: u64 = digits.parse().map_err(|_| invalid())?;
        match kind {
            "u" => Ok(CacheKey::User(UserId::new(id))),
            "i" => Ok(CacheKey::Item(ItemId::new(id))),
            _ => Err(invalid()),
        }
    }
}

impl From<UserId> for CacheKey {
    fn from(u: UserId) -> Self {
        CacheKey::User(u)
    }
}

impl From<ItemId> for CacheKey {
    fn from(i: ItemId) -> Self {
        CacheKey::Item(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_kinds() {
        let u: CacheKey = UserId::new(1).into();
        let i: CacheKey = ItemId::new(1).into();
        assert!(u.is_user());
        assert!(!i.is_user());
        assert_ne!(u, i, "user and item entries never collide");
        assert_eq!(u.as_user(), Some(UserId::new(1)));
        assert_eq!(i.as_user(), None);
    }

    #[test]
    fn display_includes_kind_prefix() {
        assert_eq!(CacheKey::User(UserId::new(2)).to_string(), "kv:u2");
        assert_eq!(CacheKey::Item(ItemId::new(2)).to_string(), "kv:i2");
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for key in [
            CacheKey::User(UserId::new(0)),
            CacheKey::User(UserId::new(712)),
            CacheKey::Item(ItemId::new(712)),
            CacheKey::Item(ItemId::new(u64::MAX)),
        ] {
            let parsed: CacheKey = key.to_string().parse().unwrap();
            assert_eq!(parsed, key);
        }
    }

    #[test]
    fn from_str_rejects_malformed_keys() {
        for bad in [
            "", "kv:", "kv:x3", "kv:u", "kv:u-1", "kv:u3x", "u3", "kv:u 3",
        ] {
            assert!(bad.parse::<CacheKey>().is_err(), "accepted {bad:?}");
        }
    }
}
