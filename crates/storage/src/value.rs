//! Column values.
//!
//! The Wisconsin benchmark relations only need 32-bit integers and short
//! fixed-width strings, so the value type is intentionally small. Keeping the
//! value representation compact matters: the execution engine moves millions
//! of tuple activations through shared queues, and the activation payload size
//! directly shows up in the queue/cache interference the paper discusses.

use std::fmt;
use std::sync::Arc;

/// A single column value.
///
/// Strings are stored behind `Arc<str>` so cloning a value — which the
/// engine does for every tuple it projects, concatenates or re-partitions —
/// is a pointer copy instead of a heap allocation plus memcpy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit signed integer (the Wisconsin attributes are all small
    /// non-negative integers, but intermediate expressions may go negative).
    Int(i64),
    /// Variable-length string (the Wisconsin `stringu1`/`stringu2`/`string4`
    /// attributes), shared on clone.
    Str(Arc<str>),
}

impl Value {
    /// Returns the integer payload, or `None` for strings.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// Returns the string payload, or `None` for integers.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    /// Human-readable name of the runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Str(_) => "string",
        }
    }

    /// Approximate in-memory size of the value in bytes.
    ///
    /// Used by the Allcache simulator to account for the bytes a fragment
    /// occupies in a processor's local cache. A string is one shared
    /// `Arc<str>` allocation: a 16-byte reference-count header plus the
    /// bytes themselves.
    pub fn approximate_size(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Str(s) => 16 + s.len(),
        }
    }

    /// A stable 64-bit hash of the value, used by the partitioning function
    /// and by the `Transmit` (redistribution) operator.
    ///
    /// The partitioning function must be deterministic across runs so that
    /// "IdealJoin" plans (both operands partitioned on the join attribute
    /// with the same degree) really are co-partitioned; we therefore use an
    /// explicit FNV-1a instead of the std `RandomState`.
    pub fn stable_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        match self {
            Value::Int(v) => {
                feed(&[0x01]);
                feed(&v.to_le_bytes());
            }
            Value::Str(s) => {
                feed(&[0x02]);
                feed(s.as_bytes());
            }
        }
        h
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Hash a slice of values as a unit (multi-attribute partitioning keys).
pub fn stable_hash_values<'a, I>(values: I) -> u64
where
    I: IntoIterator<Item = &'a Value>,
{
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for v in values {
        let vh = v.stable_hash();
        // A simple but well-mixing combiner (splitmix-style).
        h ^= vh;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_accessors() {
        let v = Value::Int(42);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.as_str(), None);
        assert_eq!(v.type_name(), "int");
    }

    #[test]
    fn str_accessors() {
        let v = Value::from("BAAAAA");
        assert_eq!(v.as_str(), Some("BAAAAA"));
        assert_eq!(v.as_int(), None);
        assert_eq!(v.type_name(), "string");
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::from("x").to_string(), "x");
    }

    #[test]
    fn stable_hash_is_deterministic() {
        let a = Value::Int(12345);
        let b = Value::Int(12345);
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn stable_hash_differs_between_types() {
        // The integer 65 and the string "A" must not collide just because the
        // byte content overlaps: the hash feeds a type tag first.
        let i = Value::Int(65);
        let s = Value::from("A");
        assert_ne!(i.stable_hash(), s.stable_hash());
    }

    #[test]
    fn stable_hash_spreads_consecutive_ints() {
        // Consecutive integers must land in different buckets most of the
        // time for, say, 200 fragments; otherwise unique1-partitioning would
        // produce badly skewed fragments even with unskewed data.
        let degree = 200u64;
        let mut counts = vec![0usize; degree as usize];
        for i in 0..10_000i64 {
            let b = (Value::Int(i).stable_hash() % degree) as usize;
            counts[b] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // With 10_000 tuples over 200 buckets the expectation is 50; allow a
        // generous band but catch catastrophic clustering.
        assert!(max < 100, "max bucket too large: {max}");
        assert!(min > 10, "min bucket too small: {min}");
    }

    #[test]
    fn multi_value_hash_order_sensitive() {
        let a = [Value::Int(1), Value::Int(2)];
        let b = [Value::Int(2), Value::Int(1)];
        assert_ne!(stable_hash_values(a.iter()), stable_hash_values(b.iter()));
    }

    #[test]
    fn approximate_size_accounts_for_string_length() {
        assert_eq!(Value::Int(1).approximate_size(), 8);
        assert!(Value::from("ABCDEFGH").approximate_size() > Value::from("AB").approximate_size());
    }

    #[test]
    fn cloning_a_string_value_shares_the_allocation() {
        let v = Value::from("BAAAAAAX");
        let c = v.clone();
        match (&v, &c) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!("both values are strings"),
        }
    }

    #[test]
    fn value_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::from("AAA") < Value::from("AAB"));
    }
}
