//! Method-argument values.
//!
//! The paper writes messages as `O.m(parameters)` and lets commutativity
//! depend on parameter values (e.g. `insert(DBS)` commutes with
//! `insert(DBMS)` on a B⁺-tree node because the keys differ). [`Value`] is
//! the small dynamic value type those parameters are drawn from.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// A dynamically typed method argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// No payload.
    Unit,
    /// Boolean flag.
    Bool(bool),
    /// Signed integer (amounts, counts, page numbers).
    Int(i64),
    /// A search/index key (the `DBS` / `DBMS` of the paper's examples).
    Key(Key),
    /// Free-form string payload.
    Str(String),
}

impl Value {
    /// The key payload, if this value is a [`Value::Key`].
    pub fn as_key(&self) -> Option<&str> {
        match self {
            Value::Key(k) => Some(k),
            _ => None,
        }
    }

    /// The integer payload, if this value is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload of either a [`Value::Str`] or a [`Value::Key`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Key(k) => Some(k),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Key(k) => write!(f, "{k}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Convenience constructor for key arguments.
pub fn key(k: impl AsRef<str>) -> Value {
    Value::Key(Key::new(k.as_ref()))
}

/// Bytes a [`Key`] holds without a heap block: every key the engine's
/// workloads generate, and the paper's `DBS` / `DBMS`.
const INLINE: usize = 22;

/// A search key. Up to 22 bytes are stored in the value itself, so
/// building, cloning and dropping a descriptor of a keyed operation
/// allocates nothing; a longer key (up to the tree's `MAX_KEY_LEN`)
/// spills into one heap block. Compares and orders by its bytes — as the
/// `str` it holds does, so the specs compare keys without looking at
/// them as text — and displays and dereferences as that `str`.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<str>),
}

impl Key {
    /// The key `k`.
    pub fn new(k: &str) -> Key {
        if k.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..k.len()].copy_from_slice(k.as_bytes());
            Key(KeyRepr::Inline {
                len: k.len() as u8,
                bytes,
            })
        } else {
            Key(KeyRepr::Heap(k.into()))
        }
    }

    /// The key's bytes: what it compares, orders and hashes by.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            KeyRepr::Heap(k) => k.as_bytes(),
        }
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Inline { .. } => std::str::from_utf8(self.as_bytes())
                .expect("an inline key holds the whole of the str it was built from"),
            KeyRepr::Heap(k) => k,
        }
    }
}

impl Deref for Key {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(key("DBS").as_key(), Some("DBS"));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(key("k").as_str(), Some("k"));
        assert_eq!(Value::Unit.as_key(), None);
        assert_eq!(Value::Bool(true).as_int(), None);
    }

    #[test]
    fn display() {
        assert_eq!(key("DBS").to_string(), "DBS");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(format!("{:?}", key("DBS")), "Key(\"DBS\")");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }

    /// Inline and spilled keys behave as the `str` they hold, across the
    /// boundary between the two.
    #[test]
    fn keys_behave_as_their_str() {
        let texts: Vec<String> = (INLINE - 2..=INLINE + 2)
            .flat_map(|n| ["a".repeat(n), "b".repeat(n), format!("{}é", "a".repeat(n))])
            .chain(["".into(), "DBS".into(), "DBMS".into(), "k0001234".into()])
            .collect();
        for a in &texts {
            let ka = Key::new(a);
            assert_eq!(ka.as_str(), a);
            assert_eq!(format!("{ka:?}"), format!("{a:?}"));
            for b in &texts {
                let kb = Key::new(b);
                assert_eq!(ka == kb, a == b);
                assert_eq!(ka.cmp(&kb), a.cmp(b));
            }
        }
        assert!(std::mem::size_of::<Key>() <= 24);
    }
}
