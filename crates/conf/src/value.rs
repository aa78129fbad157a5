//! The dynamic value tree shared by the YAML and JSON front ends.
//!
//! Maps preserve insertion order so that rendered configs and published
//! records are deterministic (the portal and the tests depend on this).

use std::collections::HashSet;
use std::fmt;

/// The deepest nesting of sequences and maps the parsers accept. A deeper
/// document is refused with a [`ParseError`](crate::ParseError) at its line
/// instead of recursing until the stack overflows. The deepest document
/// this workspace writes nests 5 levels.
pub const MAX_DEPTH: usize = 128;

/// The entries of a map being parsed, with a linear-time check for repeated
/// keys. Small maps, the common case, compare keys directly; a map that
/// reaches [`MapEntries::INDEXED_FROM`] entries also keeps its keys in a
/// hash set.
pub(crate) struct MapEntries {
    entries: Vec<(String, Value)>,
    index: Option<HashSet<String>>,
}

impl MapEntries {
    const INDEXED_FROM: usize = 16;

    pub(crate) fn new() -> MapEntries {
        MapEntries { entries: Vec::new(), index: None }
    }

    /// Is `key` already an entry?
    #[inline]
    pub(crate) fn contains(&self, key: &str) -> bool {
        match &self.index {
            Some(index) => index.contains(key),
            None => self.entries.iter().any(|(k, _)| k == key),
        }
    }

    /// Append an entry whose key [`MapEntries::contains`] has refused.
    #[inline]
    pub(crate) fn push(&mut self, key: String, value: Value) {
        if self.index.is_some() || self.entries.len() + 1 == Self::INDEXED_FROM {
            self.index_key(&key);
        }
        self.entries.push((key, value));
    }

    /// Add `key` to the index, building the index from every key so far
    /// when this is the entry that reaches [`MapEntries::INDEXED_FROM`].
    #[cold]
    fn index_key(&mut self, key: &str) {
        let entries = &self.entries;
        let index =
            self.index.get_or_insert_with(|| entries.iter().map(|(k, _)| k.clone()).collect());
        index.insert(key.to_string());
    }

    pub(crate) fn into_value(self) -> Value {
        Value::Map(self.entries)
    }
}

/// A dynamically-typed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// YAML `null` / JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (decimal, 64-bit signed).
    Int(i64),
    /// Floating-point number (always finite in well-formed documents).
    Float(f64),
    /// String.
    Str(String),
    /// Sequence / array.
    Seq(Vec<Value>),
    /// Mapping with insertion-ordered string keys.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Shorthand for an empty map.
    pub fn map() -> Value {
        Value::Map(Vec::new())
    }

    /// Shorthand for an empty sequence.
    pub fn seq() -> Value {
        Value::Seq(Vec::new())
    }

    /// Insert (or replace) a key in a map value; panics if `self` is not a map.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) -> &mut Value {
        let key = key.into();
        match self {
            Value::Map(entries) => {
                let value = value.into();
                if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    entries.push((key, value));
                }
            }
            _ => panic!("Value::set on non-map"),
        }
        self
    }

    /// Append to a sequence value; panics if `self` is not a sequence.
    pub fn push(&mut self, value: impl Into<Value>) -> &mut Value {
        match self {
            Value::Seq(items) => items.push(value.into()),
            _ => panic!("Value::push on non-seq"),
        }
        self
    }

    /// Map lookup by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sequence lookup by index.
    pub fn idx(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Seq(items) => items.get(i),
            _ => None,
        }
    }

    /// View as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as float; integers coerce.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// View as boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// View as sequence items.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// View as map entries.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::json::to_json(self))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Seq(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_entries_find_repeats_below_and_above_the_index_threshold() {
        let mut map = MapEntries::new();
        for i in 0..40 {
            let key = format!("k{i}");
            assert!(!map.contains(&key), "{key} reported before it was added");
            map.push(key, Value::Int(i));
            assert!((0..=i).all(|j| map.contains(&format!("k{j}"))), "lost a key at {i}");
        }
        assert_eq!(map.into_value().as_map().map(<[_]>::len), Some(40));
    }

    #[test]
    fn builder_pattern_constructs_trees() {
        let mut root = Value::map();
        root.set("name", "rpl_workcell").set("modules", vec!["pf400", "ot2"]);
        assert_eq!(root.get("name").and_then(Value::as_str), Some("rpl_workcell"));
        assert_eq!(root.get("modules").and_then(|m| m.idx(1)).and_then(Value::as_str), Some("ot2"));
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut m = Value::map();
        m.set("k", 1);
        m.set("k", 2);
        assert_eq!(m.get("k").and_then(Value::as_i64), Some(2));
        assert_eq!(m.as_map().unwrap().len(), 1);
    }

    #[test]
    fn as_f64_coerces_ints() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = Value::Int(1);
        assert!(v.as_str().is_none());
        assert!(v.as_seq().is_none());
        assert!(v.as_map().is_none());
        assert!(v.get("k").is_none());
        assert!(v.idx(0).is_none());
        assert!(!v.is_null());
        assert_eq!(v.type_name(), "int");
    }

    #[test]
    #[should_panic(expected = "non-map")]
    fn set_on_seq_panics() {
        Value::seq().set("k", 1);
    }
}
