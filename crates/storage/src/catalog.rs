//! A small relation catalog.
//!
//! Execution plans refer to base relations by name; the catalog maps those
//! names to partitioned relations. It corresponds to the part of DBS3's
//! storage manager the compiler consults to find the degree of partitioning
//! and the partitioning attributes of each relation.
//!
//! Each name also carries a *generation*, which every mutation renews. The
//! engine's plan cache keys prepared plans on it, so a mutation makes every
//! plan over the relation stale. Indexes need no such key: each fragment
//! owns the indexes built over it (see [`Fragment`](crate::Fragment)), and
//! a [`replace`](Catalog::replace) hands the built ones on to the fragments
//! of the new version whose tuples did not change.

use crate::error::StorageError;
use crate::partition::PartitionedRelation;
use crate::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ordering: Relaxed — NEXT_GENERATION is a pure uniqueness counter; no other
// memory is published through it, fetch_add's atomicity alone guarantees
// distinct values across threads and catalogs.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Hands out a process-wide unique generation. Generations are unique
/// across *all* catalogs, not merely monotonic within one, so a
/// `(relation name, generation)` pair identifies one immutable
/// [`PartitionedRelation`] no matter how many catalogs or sessions exist —
/// the property the engine's process-wide plan cache keys on.
fn next_generation() -> u64 {
    // ordering: Relaxed — see NEXT_GENERATION; only uniqueness matters.
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A registered relation and the generation stamped on it.
#[derive(Debug, Clone)]
struct Entry {
    relation: Arc<PartitionedRelation>,
    generation: u64,
}

/// Name → partitioned relation map.
///
/// Relations are stored behind `Arc` so that plans, the execution engine and
/// the simulator can all hold references to the same fragments without
/// copying the data (exactly the shared-memory assumption of the paper).
///
/// Every mutation ([`register`](Catalog::register),
/// [`replace`](Catalog::replace), [`remove`](Catalog::remove)) stamps the
/// affected name with a fresh process-wide unique *generation*
/// ([`generation`](Catalog::generation)). Caches layered above the catalog
/// key their entries on it: a mutation makes every stale entry unreachable
/// without the catalog knowing the caches exist.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    entries: HashMap<String, Entry>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog {
            entries: HashMap::new(),
        }
    }

    /// Registers a partitioned relation under its name, with a fresh
    /// generation.
    pub fn register(&mut self, relation: PartitionedRelation) -> Result<Arc<PartitionedRelation>> {
        let name = relation.name().to_string();
        if self.entries.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name));
        }
        let relation = Arc::new(relation);
        self.entries.insert(
            name,
            Entry {
                relation: Arc::clone(&relation),
                generation: next_generation(),
            },
        );
        Ok(relation)
    }

    /// Replaces (or inserts) a relation, returning the previous entry if any.
    ///
    /// The name is stamped with a fresh generation either way. A fragment
    /// whose tuples equal the predecessor's fragment at the same index takes
    /// over the indexes, dense integer columns and route tables the
    /// predecessor built, so only the fragments the replace changed build
    /// them afresh. A pair is compared only when the new fragment could
    /// receive one: some cell is empty in it and built in its predecessor. A version that already
    /// holds everything its predecessor could hand it is installed without
    /// reading a tuple.
    /// Tuples shared with the predecessor compare by pointer, so an edit
    /// that reuses the unchanged rows costs one pointer compare per row.
    pub fn replace(&mut self, relation: PartitionedRelation) -> Option<Arc<PartitionedRelation>> {
        let name = relation.name().to_string();
        if let Some(previous) = self.entries.get(&name) {
            if previous.relation.degree() == relation.degree() {
                for (old, new) in previous
                    .relation
                    .fragments()
                    .iter()
                    .zip(relation.fragments())
                {
                    if new.could_adopt(old) && old.tuples() == new.tuples() {
                        new.adopt_indexes(old);
                    }
                }
            }
        }
        let entry = Entry {
            relation: Arc::new(relation),
            generation: next_generation(),
        };
        self.entries.insert(name, entry).map(|e| e.relation)
    }

    /// The current generation of a registered relation. `None` for unknown
    /// names. Every mutation of the name renews it, and generations are
    /// unique across the whole process: two distinct `PartitionedRelation`s
    /// never share one, even across catalogs.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.entries.get(name).map(|e| e.generation)
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Result<Arc<PartitionedRelation>> {
        self.entries
            .get(name)
            .map(|e| Arc::clone(&e.relation))
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Whether a relation with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Removes a relation by name. Its generation is removed with it, so
    /// re-registering later assigns a fresh one.
    pub fn remove(&mut self, name: &str) -> Result<Arc<PartitionedRelation>> {
        self.entries
            .remove(name)
            .map(|e| e.relation)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::RouteTable;
    use crate::index::HashIndex;
    use crate::partition::{PartitionSpec, PartitionedRelation};
    use crate::relation::test_relation;
    use crate::value::Value;

    fn partitioned(name: &str) -> PartitionedRelation {
        let rel = test_relation(name, &[(1, 10), (2, 20), (3, 30)]);
        PartitionedRelation::from_relation(&rel, PartitionSpec::on("id", 2, 1)).unwrap()
    }

    #[test]
    fn register_and_get() {
        let mut cat = Catalog::new();
        cat.register(partitioned("A")).unwrap();
        assert!(cat.contains("A"));
        assert_eq!(cat.get("A").unwrap().cardinality(), 3);
        assert!(matches!(
            cat.get("B"),
            Err(StorageError::UnknownRelation(_))
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut cat = Catalog::new();
        cat.register(partitioned("A")).unwrap();
        assert!(matches!(
            cat.register(partitioned("A")),
            Err(StorageError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn replace_overwrites() {
        let mut cat = Catalog::new();
        cat.register(partitioned("A")).unwrap();
        let old = cat.replace(partitioned("A"));
        assert!(old.is_some());
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn remove_and_names() {
        let mut cat = Catalog::new();
        cat.register(partitioned("B")).unwrap();
        cat.register(partitioned("A")).unwrap();
        assert!(cat.contains("A") && cat.contains("B"));
        cat.remove("A").unwrap();
        assert!(!cat.contains("A"));
        assert!(cat.remove("A").is_err());
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn generations_are_unique_and_bump_on_mutation() {
        let mut cat = Catalog::new();
        assert_eq!(cat.generation("A"), None);
        cat.register(partitioned("A")).unwrap();
        cat.register(partitioned("B")).unwrap();
        let gen_a = cat.generation("A").unwrap();
        let gen_b = cat.generation("B").unwrap();
        assert_ne!(gen_a, gen_b);

        // replace() stamps a fresh generation, so plans over A miss; the
        // old one is never reused.
        cat.replace(partitioned("A"));
        let gen_a2 = cat.generation("A").unwrap();
        assert_ne!(gen_a2, gen_a);
        assert_ne!(gen_a2, gen_b);

        // remove() forgets the generation; re-registering the same content
        // assigns a fresh one.
        cat.remove("A").unwrap();
        assert_eq!(cat.generation("A"), None);
        cat.register(partitioned("A")).unwrap();
        let gen_a3 = cat.generation("A").unwrap();
        assert!(![gen_a, gen_a2, gen_b].contains(&gen_a3));

        // Generations are process-wide unique: an unrelated catalog
        // registering the same name never collides with this one.
        let mut other = Catalog::new();
        other.register(partitioned("A")).unwrap();
        assert_ne!(other.generation("A"), cat.generation("A"));

        // Cloning shares the stamps (same underlying relations).
        let cloned = cat.clone();
        assert_eq!(cloned.generation("A"), cat.generation("A"));
    }

    /// Builds the index on column 0 of every fragment of `relation`.
    fn build_all(relation: &PartitionedRelation) -> Vec<Arc<HashIndex>> {
        relation
            .fragments()
            .iter()
            .map(|f| {
                let cell = f.index_cell(0);
                Arc::clone(cell.get_or_init(|| Arc::new(HashIndex::build_for_fragment(f, 0))))
            })
            .collect()
    }

    #[test]
    fn replace_hands_built_indexes_only_to_equal_fragments() {
        let mut cat = Catalog::new();
        let first = cat.register(partitioned("A")).unwrap();
        let built = build_all(&first);

        // Equal content, every tuple allocated afresh: values are compared,
        // not only pointers, so every fragment takes its predecessor's index.
        cat.replace(partitioned("A"));
        let same = cat.get("A").unwrap();
        for (fragment, index) in same.fragments().iter().zip(&built) {
            assert!(Arc::ptr_eq(fragment.index_cell(0).get().unwrap(), index));
            assert!(fragment.index_cell(1).get().is_none(), "never built");
        }

        // One changed row: its fragment starts empty, the others are handed
        // their built indexes.
        let edited = PartitionedRelation::from_relation(
            &test_relation("A", &[(1, 10), (2, 21), (3, 30)]),
            PartitionSpec::on("id", 2, 1),
        )
        .unwrap();
        let changed = edited
            .fragments()
            .iter()
            .position(|f| f.tuples().iter().any(|t| t.value(1) == &Value::Int(21)))
            .unwrap();
        cat.replace(edited);
        let edited = cat.get("A").unwrap();
        for (fragment, (new, index)) in edited.fragments().iter().zip(&built).enumerate() {
            let handed = new.index_cell(0).get();
            if fragment == changed {
                assert!(handed.is_none(), "the changed fragment is indexed afresh");
            } else {
                assert!(Arc::ptr_eq(handed.unwrap(), index), "fragment {fragment}");
            }
        }

        // A degree change hands nothing over.
        cat.replace(partitioned("A").repartitioned(3).unwrap());
        let regraded = cat.get("A").unwrap();
        assert!(regraded
            .fragments()
            .iter()
            .all(|f| f.index_cell(0).get().is_none()));
    }

    #[test]
    fn replace_hands_a_built_dense_column_only_to_an_equal_fragment() {
        let mut cat = Catalog::new();
        let first = cat.register(partitioned("A")).unwrap();
        let built: Vec<*const i64> = first
            .fragments()
            .iter()
            .map(|f| f.int_column(1).unwrap().as_ptr())
            .collect();

        // One changed row: its fragment builds its own column, the other is
        // handed the built one. No index was built, so only the dense
        // columns make the pairs worth comparing.
        let edited = PartitionedRelation::from_relation(
            &test_relation("A", &[(1, 10), (2, 21), (3, 30)]),
            PartitionSpec::on("id", 2, 1),
        )
        .unwrap();
        cat.replace(edited);
        let edited = cat.get("A").unwrap();
        let mut handed = 0;
        for (new, old) in edited.fragments().iter().zip(&built) {
            let changed = new.tuples().iter().any(|t| t.value(1) == &Value::Int(21));
            let keys = new.int_column(1).unwrap();
            assert_eq!(keys.as_ptr() == *old, !changed, "{keys:?}");
            assert!(new.index_cell(0).get().is_none(), "never built");
            handed += usize::from(!changed);
        }
        assert_eq!(handed, 1, "one of the two fragments is unchanged");
    }

    #[test]
    fn replace_hands_route_tables_only_to_equal_fragments() {
        let mut cat = Catalog::new();
        let first = cat.register(partitioned("A")).unwrap();
        let built: Vec<*const RouteTable> = first
            .fragments()
            .iter()
            .map(|f| f.routes(1, 5) as *const _)
            .collect();

        let edited = PartitionedRelation::from_relation(
            &test_relation("A", &[(1, 10), (2, 21), (3, 30)]),
            PartitionSpec::on("id", 2, 1),
        )
        .unwrap();
        cat.replace(edited);
        let edited = cat.get("A").unwrap();
        let mut handed = 0;
        for (new, old) in edited.fragments().iter().zip(&built) {
            let changed = new.tuples().iter().any(|t| t.value(1) == &Value::Int(21));
            let table = new.routes(1, 5);
            assert_eq!(std::ptr::eq(table, *old), !changed);
            let dests: Vec<u64> = table
                .rows()
                .iter()
                .map(|&r| new.tuples()[r as usize].hash_key(&[1]) % 5)
                .collect();
            assert!(dests.windows(2).all(|w| w[0] <= w[1]), "its own rows");
            handed += usize::from(!changed);
        }
        assert_eq!(handed, 1, "one of the two fragments is unchanged");
    }

    #[test]
    fn empty_catalog() {
        let cat = Catalog::new();
        assert!(cat.is_empty());
        assert_eq!(cat.len(), 0);
    }
}
