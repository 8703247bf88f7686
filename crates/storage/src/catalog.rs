//! A small relation catalog.
//!
//! Execution plans refer to base relations by name; the catalog maps those
//! names to partitioned relations. It corresponds to the part of DBS3's
//! storage manager the compiler consults to find the degree of partitioning
//! and the partitioning attributes of each relation.
//!
//! Each name also carries *generations*: one for the relation, which every
//! mutation renews, and one per fragment, which a [`replace`](Catalog::replace)
//! renews only where the fragment's tuples changed. Caches above the catalog
//! key on them — prepared plans on the relation generation, shared
//! build-side indexes on the fragment generations — so a one-row edit
//! invalidates every plan over the relation but only one fragment's index.

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
/// across *all* catalogs, not merely monotonic within one, and relation and
/// fragment generations come from the same counter, so a `(relation name,
/// generation)` pair identifies one immutable [`PartitionedRelation`] (or
/// one fragment's content) no matter how many catalogs or sessions exist —
/// the property the engine's shared build-index cache keys on.
fn next_generation() -> u64 {
    // ordering: Relaxed — see NEXT_GENERATION; only uniqueness matters.
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// One fresh generation per fragment.
fn fresh_generations(degree: usize) -> Arc<[u64]> {
    (0..degree).map(|_| next_generation()).collect()
}

/// A registered relation and the generations stamped on it.
#[derive(Debug, Clone)]
struct Entry {
    relation: Arc<PartitionedRelation>,
    generation: u64,
    fragment_generations: Arc<[u64]>,
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
/// ([`generation`](Catalog::generation)), and each fragment carries a
/// generation of its own ([`fragment_generations`](Catalog::fragment_generations))
/// that changes only with the fragment's content. Caches layered above the
/// catalog key their entries on these: a mutation makes every stale entry
/// unreachable without the catalog knowing the caches exist.
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

    /// Registers a partitioned relation under its name. The relation and
    /// every fragment get fresh generations.
    pub fn register(&mut self, relation: PartitionedRelation) -> Result<Arc<PartitionedRelation>> {
        let name = relation.name().to_string();
        if self.entries.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name));
        }
        let fragment_generations = fresh_generations(relation.degree());
        let relation = Arc::new(relation);
        self.entries.insert(
            name,
            Entry {
                relation: Arc::clone(&relation),
                generation: next_generation(),
                fragment_generations,
            },
        );
        Ok(relation)
    }

    /// Replaces (or inserts) a relation, returning the previous entry if any.
    ///
    /// The name is stamped with a fresh relation generation either way. A
    /// fragment whose tuples equal the predecessor's fragment at the same
    /// index keeps its fragment generation; every other fragment gets a
    /// fresh one, and all do when there is no predecessor or the degree
    /// changed. Tuples shared with the predecessor compare by pointer, so an
    /// edit that reuses the unchanged rows costs one pointer compare per row.
    pub fn replace(&mut self, relation: PartitionedRelation) -> Option<Arc<PartitionedRelation>> {
        let name = relation.name().to_string();
        let fragment_generations = match self.entries.get(&name) {
            Some(previous) if previous.relation.degree() == relation.degree() => previous
                .relation
                .fragments()
                .iter()
                .zip(relation.fragments())
                .zip(previous.fragment_generations.iter())
                .map(|((old, new), &generation)| {
                    if old.tuples() == new.tuples() {
                        generation
                    } else {
                        next_generation()
                    }
                })
                .collect(),
            _ => fresh_generations(relation.degree()),
        };
        let entry = Entry {
            relation: Arc::new(relation),
            generation: next_generation(),
            fragment_generations,
        };
        self.entries.insert(name, entry).map(|e| e.relation)
    }

    /// The current relation generation of a registered relation. `None` for
    /// unknown names. Every mutation of the name renews it, and generations
    /// are unique across the whole process: two distinct
    /// `PartitionedRelation`s never share one, even across catalogs.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.entries.get(name).map(|e| e.generation)
    }

    /// The current generation of each fragment of a registered relation,
    /// indexed by fragment id. `None` for unknown names. A fragment's
    /// generation changes only when its tuples do (see
    /// [`replace`](Catalog::replace)), so equal generations under one name
    /// mean equal fragment content. The slice is shared: cloning the `Arc`
    /// allocates nothing.
    pub fn fragment_generations(&self, name: &str) -> Option<&Arc<[u64]>> {
        self.entries.get(name).map(|e| &e.fragment_generations)
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

    /// Removes a relation by name. Its generations are removed with it, so
    /// re-registering later assigns fresh ones.
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
        assert_eq!(cat.fragment_generations("A"), None);
        cat.register(partitioned("A")).unwrap();
        cat.register(partitioned("B")).unwrap();
        let gen_a = cat.generation("A").unwrap();
        let gen_b = cat.generation("B").unwrap();
        assert_ne!(gen_a, gen_b);
        let fragments = |cat: &Catalog| cat.fragment_generations("A").unwrap().to_vec();
        let frag_a = fragments(&cat);
        let mut stamps = [frag_a.as_slice(), &[gen_a, gen_b]].concat();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 4, "register stamps every fragment fresh");

        // replace() stamps a fresh relation generation, so plans over A
        // miss; the old one is never reused. `partitioned` allocates every
        // tuple afresh, and equal content keeps every fragment generation:
        // values are compared, not only pointers.
        cat.replace(partitioned("A"));
        let gen_a2 = cat.generation("A").unwrap();
        assert_ne!(gen_a2, gen_a);
        assert_ne!(gen_a2, gen_b);
        assert_eq!(fragments(&cat), frag_a);

        // One changed row renews exactly its fragment's generation, and the
        // relation generation once more.
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
        let frag_edited = fragments(&cat);
        for (fragment, (old, new)) in frag_a.iter().zip(&frag_edited).enumerate() {
            assert_eq!(old == new, fragment != changed, "fragment {fragment}");
        }
        assert!(!stamps.contains(&frag_edited[changed]));
        let gen_a3 = cat.generation("A").unwrap();
        assert_ne!(gen_a3, gen_a2);

        // A degree change renews every fragment generation.
        cat.replace(partitioned("A").repartitioned(3).unwrap());
        let frag_regraded = fragments(&cat);
        assert_eq!(frag_regraded.len(), 3);
        assert!(frag_regraded.iter().all(|g| !frag_edited.contains(g)));
        assert_ne!(cat.generation("A").unwrap(), gen_a3);

        // remove() forgets the generations; re-registering the same content
        // assigns fresh ones, relation and fragments alike.
        cat.remove("A").unwrap();
        assert_eq!(cat.generation("A"), None);
        assert_eq!(cat.fragment_generations("A"), None);
        cat.register(partitioned("A").repartitioned(3).unwrap())
            .unwrap();
        assert_ne!(cat.generation("A").unwrap(), gen_a3);
        assert!(fragments(&cat).iter().all(|g| !frag_regraded.contains(g)));

        // Generations are process-wide unique: an unrelated catalog
        // registering the same name never collides with this one.
        let mut other = Catalog::new();
        other.register(partitioned("A")).unwrap();
        assert_ne!(other.generation("A"), cat.generation("A"));
        assert!(!other
            .fragment_generations("A")
            .unwrap()
            .iter()
            .any(|g| frag_a.contains(g)));

        // Cloning shares the stamps (same underlying relations).
        let cloned = cat.clone();
        assert_eq!(cloned.generation("A"), cat.generation("A"));
        assert_eq!(
            cloned.fragment_generations("A"),
            cat.fragment_generations("A")
        );
    }

    #[test]
    fn empty_catalog() {
        let cat = Catalog::new();
        assert!(cat.is_empty());
        assert_eq!(cat.len(), 0);
    }
}
