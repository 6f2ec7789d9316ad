//! Interned tenant identity for the serving runtime.
//!
//! The serving runtime tags every queue, event, record and report row
//! with a tenant, and its event loop does so several times per job, so
//! the handle must cost nothing to copy or compare. [`TenantId`] is a
//! `Copy` pair of the tenant's registration index in its serving
//! configuration and its display name, a `&'static str` interned in one
//! process-wide set: every constructor ([`TenantId::new`],
//! [`TenantId::unresolved`], both `From`s and `Deserialize`) looks the
//! name up and leaks it on its first use, once per distinct name.
//! Names come from configurations and workload specs, so the set stays
//! small. (A reference-counted name would make every copy and drop an
//! atomic refcount update, paid per event even when no observer
//! listens.)
//!
//! Identity is *by name only*: the index is a routing hint, not part of
//! the identity. Because each distinct name is interned exactly once,
//! equality compares the name pointers and never the bytes; hashing,
//! ordering and `Display` read the name, so hash sets, sort orders and
//! printed tables are the same as with plain strings. A `TenantId`
//! serializes as its bare name string (report JSON is unchanged from
//! the `String` era) and deserializes as an
//! [`unresolved`](TenantId::unresolved) handle that any scheduler can
//! re-resolve against its own registry.

use serde::{value::Value, DeError, Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Index marking a [`TenantId`] that has not been resolved against a
/// serving configuration (e.g. one parsed back from JSON).
pub const TENANT_UNRESOLVED: u32 = u32::MAX;

/// The one `&'static` copy of `name`, leaked on its first use.
fn intern(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    // A panic inside `insert` leaves the set valid (with or without the
    // new name), so a poisoned lock is safe to keep using.
    let mut names = NAMES
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&interned) = names.get(name) {
        return interned;
    }
    let interned: &'static str = Box::leak(Box::<str>::from(name));
    names.insert(interned);
    interned
}

/// An interned tenant identity: display name plus registration index.
///
/// See the [module docs](self) for identity and serialization rules.
#[derive(Debug, Clone, Copy)]
pub struct TenantId {
    index: u32,
    name: &'static str,
}

impl TenantId {
    /// A tenant resolved to `index` in its serving configuration.
    pub fn new(index: u32, name: &str) -> Self {
        TenantId {
            index,
            name: intern(name),
        }
    }

    /// A tenant known only by name (index [`TENANT_UNRESOLVED`]).
    pub fn unresolved(name: &str) -> Self {
        TenantId::new(TENANT_UNRESOLVED, name)
    }

    /// Whether this handle carries a resolved registration index.
    pub fn is_resolved(&self) -> bool {
        self.index != TENANT_UNRESOLVED
    }

    /// The registration index ([`TENANT_UNRESOLVED`] if never resolved).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The display name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl PartialEq for TenantId {
    fn eq(&self, other: &Self) -> bool {
        // One interned copy per name: the same name is the same pointer.
        std::ptr::eq(self.name, other.name)
    }
}

impl Eq for TenantId {}

impl PartialOrd for TenantId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TenantId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name.cmp(other.name)
    }
}

impl std::hash::Hash for TenantId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

impl PartialEq<str> for TenantId {
    fn eq(&self, other: &str) -> bool {
        self.name == other
    }
}

impl PartialEq<&str> for TenantId {
    fn eq(&self, other: &&str) -> bool {
        self.name == *other
    }
}

impl PartialEq<String> for TenantId {
    fn eq(&self, other: &String) -> bool {
        self.name == other.as_str()
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // pad() honors width/alignment so table printers line up
        f.pad(self.name)
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId::unresolved(name)
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        TenantId::unresolved(&name)
    }
}

impl Serialize for TenantId {
    fn to_json_value(&self) -> Value {
        Value::String(self.name.to_string())
    }
}

impl Deserialize for TenantId {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(TenantId::unresolved(s)),
            other => Err(DeError::new(format!(
                "expected a tenant name string, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn identity_is_by_name_not_index() {
        let a = TenantId::new(0, "interactive");
        let b = TenantId::unresolved("interactive");
        let c = TenantId::new(0, "batch");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn every_constructor_shares_one_interned_name() {
        let a = TenantId::new(3, "t");
        let owned = String::from("t");
        let from_json = TenantId::from_json_value(&Value::String("t".into())).unwrap();
        for other in [
            TenantId::unresolved("t"),
            TenantId::from("t"),
            TenantId::from(owned.clone()),
            from_json,
        ] {
            assert!(std::ptr::eq(a.name(), other.name()));
            assert_eq!(a, other);
        }
        // The handle does not borrow from the string it was built from.
        assert!(!std::ptr::eq(a.name().as_ptr(), owned.as_ptr()));
        // Copy: both handles stay usable.
        let b = a;
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn order_and_hash_follow_the_name() {
        // Interned in the opposite order to their names' order.
        let z = TenantId::new(0, "zz-order");
        let a = TenantId::new(1, "aa-order");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, [a, z]);
        use std::hash::{BuildHasher, RandomState};
        let s = RandomState::new();
        assert_eq!(s.hash_one(a), s.hash_one("aa-order"));
    }

    #[test]
    fn serializes_as_bare_name_string() {
        let t = TenantId::new(2, "interactive");
        assert_eq!(t.to_json_value(), Value::String("interactive".into()));
        let back = TenantId::from_json_value(&Value::String("interactive".into())).unwrap();
        assert_eq!(back, t);
        assert!(!back.is_resolved());
        assert!(TenantId::from_json_value(&Value::Null).is_err());
    }

    #[test]
    fn compares_against_plain_strings() {
        let t = TenantId::new(0, "batch");
        assert_eq!(t, "batch");
        assert_eq!(t, String::from("batch"));
        assert_eq!(t.to_string(), "batch");
        assert_eq!(format!("{t:>7}"), "  batch");
    }
}
