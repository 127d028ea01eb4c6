//! Typed per-app configuration parsed from `key=value` strings.
//!
//! A workload receives its knobs as an opaque [`Params`] map and reads them
//! through a [`ParamReader`], which tracks every key it was asked about.
//! [`ParamReader::finish`] then rejects any key the workload never consumed,
//! so a typo'd `--param` fails loudly instead of silently running defaults.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A configuration error: malformed input, a bad value, or unknown keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// An input string was not of the form `key=value`.
    Malformed(String),
    /// The same key appeared twice.
    Duplicate(String),
    /// A value failed to parse as the requested type.
    Invalid {
        key: String,
        value: String,
        want: &'static str,
    },
    /// Keys present in the map that the workload never consumed.
    Unknown(Vec<String>),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::Malformed(s) => write!(f, "malformed param {s:?} (want key=value)"),
            ParamError::Duplicate(k) => write!(f, "duplicate param key {k:?}"),
            ParamError::Invalid { key, value, want } => {
                write!(f, "param {key}={value:?}: expected {want}")
            }
            ParamError::Unknown(keys) => write!(f, "unknown param keys: {}", keys.join(", ")),
        }
    }
}

impl std::error::Error for ParamError {}

/// An ordered `key=value` map. Order-insensitive, round-trippable
/// ([`Params::to_pairs`] re-emits sorted `key=value` strings).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Params {
    map: BTreeMap<String, String>,
}

impl Params {
    /// No parameters: every workload runs on its defaults.
    pub fn empty() -> Params {
        Params::default()
    }

    /// Parse a list of `key=value` strings.
    pub fn parse<S: AsRef<str>>(pairs: &[S]) -> Result<Params, ParamError> {
        let mut map = BTreeMap::new();
        for p in pairs {
            let p = p.as_ref();
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| ParamError::Malformed(p.to_string()))?;
            let k = k.trim();
            let v = v.trim();
            if k.is_empty() {
                return Err(ParamError::Malformed(p.to_string()));
            }
            if map.insert(k.to_string(), v.to_string()).is_some() {
                return Err(ParamError::Duplicate(k.to_string()));
            }
        }
        Ok(Params { map })
    }

    /// Insert / overwrite one key (builder-style, mostly for tests).
    pub fn set(mut self, key: &str, value: impl fmt::Display) -> Params {
        self.map.insert(key.to_string(), value.to_string());
        self
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Re-emit as sorted `key=value` strings (parse ∘ to_pairs = identity).
    pub fn to_pairs(&self) -> Vec<String> {
        self.map.iter().map(|(k, v)| format!("{k}={v}")).collect()
    }

    /// Start a tracked read of this map.
    pub fn reader(&self) -> ParamReader<'_> {
        ParamReader {
            params: self,
            consumed: BTreeSet::new(),
        }
    }
}

/// Tracked, typed access to a [`Params`] map.
pub struct ParamReader<'a> {
    params: &'a Params,
    consumed: BTreeSet<String>,
}

impl<'a> ParamReader<'a> {
    fn raw(&mut self, key: &str) -> Option<&'a str> {
        self.consumed.insert(key.to_string());
        self.params.map.get(key).map(String::as_str)
    }

    fn parse_or<T: std::str::FromStr>(
        &mut self,
        key: &str,
        default: T,
        want: &'static str,
    ) -> Result<T, ParamError> {
        match self.raw(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ParamError::Invalid {
                key: key.to_string(),
                value: v.to_string(),
                want,
            }),
        }
    }

    pub fn usize_or(&mut self, key: &str, default: usize) -> Result<usize, ParamError> {
        self.parse_or(key, default, "unsigned integer")
    }

    pub fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, ParamError> {
        self.parse_or(key, default, "unsigned integer")
    }

    pub fn u32_or(&mut self, key: &str, default: u32) -> Result<u32, ParamError> {
        self.parse_or(key, default, "unsigned integer")
    }

    pub fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, ParamError> {
        self.parse_or(key, default, "number")
    }

    pub fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, ParamError> {
        match self.raw(key) {
            None => Ok(default),
            Some("true") | Some("1") | Some("yes") => Ok(true),
            Some("false") | Some("0") | Some("no") => Ok(false),
            Some(v) => Err(ParamError::Invalid {
                key: key.to_string(),
                value: v.to_string(),
                want: "bool (true/false/1/0/yes/no)",
            }),
        }
    }

    /// One of a fixed set of names; returns the matching name from
    /// `choices`, or `default` when absent.
    pub fn choice_or(
        &mut self,
        key: &str,
        choices: &[&'static str],
        default: &'static str,
    ) -> Result<&'static str, ParamError> {
        debug_assert!(choices.contains(&default));
        match self.raw(key) {
            None => Ok(default),
            Some(v) => choices
                .iter()
                .find(|c| **c == v)
                .copied()
                .ok_or_else(|| ParamError::Invalid {
                    key: key.to_string(),
                    value: v.to_string(),
                    want: "one of the documented choices",
                }),
        }
    }

    /// Reject any key never consumed by the workload.
    pub fn finish(self) -> Result<(), ParamError> {
        let unknown: Vec<String> = self
            .params
            .map
            .keys()
            .filter(|k| !self.consumed.contains(*k))
            .cloned()
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ParamError::Unknown(unknown))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_sorted() {
        let p = Params::parse(&["b=2", "a=1", "c=x y"]).unwrap();
        assert_eq!(p.to_pairs(), vec!["a=1", "b=2", "c=x y"]);
        let q = Params::parse(&p.to_pairs()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn malformed_and_duplicates_rejected() {
        assert!(matches!(
            Params::parse(&["noequals"]),
            Err(ParamError::Malformed(_))
        ));
        assert!(matches!(
            Params::parse(&["=v"]),
            Err(ParamError::Malformed(_))
        ));
        assert!(matches!(
            Params::parse(&["a=1", "a=2"]),
            Err(ParamError::Duplicate(_))
        ));
    }

    #[test]
    fn unknown_keys_rejected_consumed_keys_pass() {
        let p = Params::parse(&["known=1", "typo=2"]).unwrap();
        let mut r = p.reader();
        assert_eq!(r.usize_or("known", 0).unwrap(), 1);
        match r.finish() {
            Err(ParamError::Unknown(keys)) => assert_eq!(keys, vec!["typo"]),
            other => panic!("expected Unknown, got {other:?}"),
        }
        // Consuming everything passes, even keys read at their default.
        let mut r = p.reader();
        let _ = r.usize_or("known", 0).unwrap();
        let _ = r.usize_or("typo", 0).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn typed_getters_and_defaults() {
        let p = Params::parse(&["n=64", "f=1.5", "flag=yes", "mode=fast"]).unwrap();
        let mut r = p.reader();
        assert_eq!(r.usize_or("n", 1).unwrap(), 64);
        assert_eq!(r.f64_or("f", 0.0).unwrap(), 1.5);
        assert!(r.bool_or("flag", false).unwrap());
        assert_eq!(r.choice_or("mode", &["slow", "fast"], "slow").unwrap(), "fast");
        assert_eq!(r.usize_or("absent", 7).unwrap(), 7);
        r.finish().unwrap();
        // Bad values are typed errors.
        let p = Params::parse(&["n=abc"]).unwrap();
        let mut r = p.reader();
        assert!(matches!(
            r.usize_or("n", 1),
            Err(ParamError::Invalid { .. })
        ));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// parse ∘ to_pairs is the identity on arbitrary key/value sets,
        /// regardless of insertion order.
        #[test]
        fn parse_to_pairs_is_identity(vals in proptest::collection::vec(0u64..1_000_000, 0..10)) {
            let mut pairs = Vec::new();
            let mut keys = std::collections::BTreeSet::new();
            for v in &vals {
                if keys.insert(v % 37) {
                    pairs.push(format!("k{}={v}", v % 37));
                }
            }
            let p = Params::parse(&pairs).unwrap();
            prop_assert_eq!(p.len(), keys.len());
            let q = Params::parse(&p.to_pairs()).unwrap();
            prop_assert_eq!(&p, &q);
            prop_assert_eq!(p.to_pairs(), q.to_pairs());
        }

        /// A reader that consumes every key but one reports exactly that key
        /// as unknown; consuming all of them finishes clean.
        #[test]
        fn finish_flags_exactly_the_unconsumed_keys(
            vals in proptest::collection::vec(0u64..1_000_000, 1..10),
            pick in 0u64..1_000_000,
        ) {
            let mut keys = std::collections::BTreeSet::new();
            let pairs: Vec<String> = vals
                .iter()
                .filter(|v| keys.insert(*v % 37))
                .map(|v| format!("k{}={v}", v % 37))
                .collect();
            let p = Params::parse(&pairs).unwrap();
            let keys: Vec<u64> = keys.into_iter().collect();
            let skip = (pick % keys.len() as u64) as usize;

            let mut r = p.reader();
            for (i, k) in keys.iter().enumerate() {
                if i != skip {
                    let _ = r.u64_or(&format!("k{k}"), 0).unwrap();
                }
            }
            match r.finish() {
                Err(ParamError::Unknown(u)) => {
                    prop_assert_eq!(u, vec![format!("k{}", keys[skip])]);
                }
                other => panic!("expected Unknown, got {other:?}"),
            }

            let mut r = p.reader();
            for k in &keys {
                let _ = r.u64_or(&format!("k{k}"), 0).unwrap();
            }
            r.finish().unwrap();
        }
    }
}
