//! A small relation catalog.
//!
//! Execution plans refer to base relations by name; the catalog maps those
//! names to partitioned relations. It corresponds to the part of DBS3's
//! storage manager the compiler consults to find the degree of partitioning
//! and the partitioning attributes of each relation.

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

/// Hands out a process-wide unique relation generation. Generations are
/// unique across *all* catalogs, not merely monotonic within one, so a
/// `(relation name, generation)` pair identifies one immutable
/// [`PartitionedRelation`] no matter how many catalogs or sessions exist —
/// the property the engine's shared build-index cache keys on.
fn next_generation() -> u64 {
    // ordering: Relaxed — see NEXT_GENERATION; only uniqueness matters.
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
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
/// (prepared plans, shared build-side hash indexes) key their entries on it:
/// a mutation makes every stale entry unreachable without the catalog
/// knowing the caches exist.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    relations: HashMap<String, Arc<PartitionedRelation>>,
    generations: HashMap<String, u64>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog {
            relations: HashMap::new(),
            generations: HashMap::new(),
        }
    }

    /// Registers a partitioned relation under its name.
    pub fn register(&mut self, relation: PartitionedRelation) -> Result<Arc<PartitionedRelation>> {
        let name = relation.name().to_string();
        if self.relations.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name));
        }
        let arc = Arc::new(relation);
        self.generations.insert(name.clone(), next_generation());
        self.relations.insert(name, Arc::clone(&arc));
        Ok(arc)
    }

    /// Replaces (or inserts) a relation, returning the previous entry if any.
    /// The name is stamped with a fresh generation either way.
    pub fn replace(&mut self, relation: PartitionedRelation) -> Option<Arc<PartitionedRelation>> {
        let name = relation.name().to_string();
        self.generations.insert(name.clone(), next_generation());
        self.relations.insert(name, Arc::new(relation))
    }

    /// The current generation of a registered relation. `None` for unknown
    /// names. Generations are unique across the whole process: two distinct
    /// `PartitionedRelation`s never share one, even across catalogs.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.generations.get(name).copied()
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Result<Arc<PartitionedRelation>> {
        self.relations
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Whether a relation with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Removes a relation by name. The name's generation entry is removed
    /// with it, so re-registering later assigns a fresh one.
    pub fn remove(&mut self, name: &str) -> Result<Arc<PartitionedRelation>> {
        let removed = self
            .relations
            .remove(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))?;
        self.generations.remove(name);
        Ok(removed)
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Returns true when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionSpec, PartitionedRelation};
    use crate::relation::test_relation;

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

        // replace() stamps a fresh generation; the old one is never reused.
        cat.replace(partitioned("A"));
        let gen_a2 = cat.generation("A").unwrap();
        assert_ne!(gen_a2, gen_a);
        assert_ne!(gen_a2, gen_b);

        // remove() forgets the generation; re-register assigns a fresh one.
        cat.remove("A").unwrap();
        assert_eq!(cat.generation("A"), None);
        cat.register(partitioned("A")).unwrap();
        assert_ne!(cat.generation("A").unwrap(), gen_a2);

        // Generations are process-wide unique: an unrelated catalog
        // registering the same name never collides with this one.
        let mut other = Catalog::new();
        other.register(partitioned("A")).unwrap();
        assert_ne!(other.generation("A"), cat.generation("A"));

        // Cloning shares the stamps (same underlying relations).
        let cloned = cat.clone();
        assert_eq!(cloned.generation("A"), cat.generation("A"));
    }

    #[test]
    fn empty_catalog() {
        let cat = Catalog::new();
        assert!(cat.is_empty());
        assert_eq!(cat.len(), 0);
    }
}
