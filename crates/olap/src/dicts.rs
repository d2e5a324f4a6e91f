//! Cached dense group-key dictionaries.
//!
//! Building a group-key dictionary walks the whole dimension table —
//! O(members) per group-by attribute per query. But the dictionary
//! depends only on the dimension table, which changes far less often
//! than queries arrive: ingest epochs touch fact tables only, and even
//! schema personalization grows dimensions additively per publish. So
//! the serving layer keeps a [`GroupDictCache`] next to its result
//! cache: dictionaries are cached per (snapshot generation, group-by
//! attribute) and shared by every query — and every member of a query
//! batch — until the generation moves on.
//!
//! Invalidation mirrors the result cache's split: publishes that
//! provably leave dimension tables untouched (ingest epochs, fact
//! compaction) [`advance`](GroupDictCache::advance) the generation and
//! keep every entry; publishes that may have changed dimensions (rule
//! firing) [`invalidate`](GroupDictCache::invalidate) and flush. A
//! lookup at a generation *newer* than the cache's conservatively
//! flushes too — the cache cannot prove what that publish changed.

use crate::column::Column;
use crate::cube::{attribute_column, Cube};
use crate::error::OlapError;
use crate::hash::FxHashMap;
use crate::query::AttributeRef;
use crate::value::CellValue;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Dense id every group-key dictionary reserves for the `Null` key
/// value.
pub(crate) const NULL_KEY: u32 = 0;

/// The dimension-side half of a group-key dictionary: member row id →
/// dense key id, plus the key `CellValue` per dense id. Depends only on
/// the dimension table — never on the fact — so one instance can back
/// the same group-by attribute in every query against a snapshot.
#[derive(Debug)]
pub(crate) struct GroupKeys {
    /// Member row id → dense key id. Members sharing an attribute value
    /// (the serial reference collapses them by `CellValue::group_key`)
    /// share a dense id.
    pub(crate) member_to_key: Vec<u32>,
    /// Dense key id → the key `CellValue`, resolved once here and read
    /// back only at finalisation. Entry 0 is reserved for `Null`, which
    /// is also what the serial reference reads for an out-of-range
    /// member.
    pub(crate) key_values: Vec<CellValue>,
}

impl GroupKeys {
    /// Walks one group-by attribute's dimension table into a dense
    /// dictionary. Deterministic: rebuilding over the same table yields
    /// the same ids (and, for a broken attribute, the same error), so a
    /// cached and a freshly built dictionary are interchangeable.
    pub(crate) fn build(cube: &Cube, attr: &AttributeRef) -> Result<GroupKeys, OlapError> {
        let table = &cube.dimension_table(&attr.dimension)?.table;
        let column = table.column(&attribute_column(&attr.level, &attr.attribute))?;
        // Text attributes are already dictionary-encoded in storage, and
        // the interner guarantees distinct codes ↔ distinct strings —
        // exactly the grouping identity `group_key` provides — so the
        // dense dictionary is the storage dictionary shifted by the
        // reserved null id, with no per-member string materialisation at
        // all.
        if let Column::Text { codes, dictionary } = column {
            let mut key_values = Vec::with_capacity(dictionary.len() + 1);
            key_values.push(CellValue::Null);
            for code in 0..dictionary.len() as u32 {
                let text = dictionary.resolve(code).expect("codes are dense");
                key_values.push(CellValue::Text(text.to_string()));
            }
            let member_to_key = (0..table.len())
                .map(|member| codes.get(member).map_or(NULL_KEY, |code| code + 1))
                .collect();
            return Ok(GroupKeys {
                member_to_key,
                key_values,
            });
        }
        let mut key_values = vec![CellValue::Null];
        let mut interned: HashMap<String, u32> = HashMap::new();
        interned.insert(CellValue::Null.group_key(), NULL_KEY);
        let mut member_to_key = Vec::with_capacity(table.len());
        for member in 0..table.len() {
            let cell = column.get(member);
            let dense = match interned.entry(cell.group_key()) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    let dense = key_values.len() as u32;
                    key_values.push(cell);
                    entry.insert(dense);
                    dense
                }
            };
            member_to_key.push(dense);
        }
        Ok(GroupKeys {
            member_to_key,
            key_values,
        })
    }
}

/// The cache key of one group-by attribute.
pub(crate) fn attr_key(attr: &AttributeRef) -> (String, String, String) {
    (
        attr.dimension.clone(),
        attr.level.clone(),
        attr.attribute.clone(),
    )
}

/// Counters describing a dictionary cache's behaviour so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DictCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the dictionary.
    pub misses: u64,
    /// Dictionaries currently stored.
    pub entries: usize,
    /// Dictionaries dropped because their generation became stale.
    pub invalidations: u64,
}

#[derive(Debug, Default)]
struct DictInner {
    /// The snapshot generation the stored dictionaries are valid for.
    generation: u64,
    entries: FxHashMap<(String, String, String), Arc<GroupKeys>>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl DictInner {
    fn flush(&mut self) {
        self.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }
}

/// A thread-safe cache of group-key dictionaries, keyed by (snapshot
/// generation, group-by attribute). One instance lives next to each
/// cube's result cache; the executor consults it through
/// [`crate::ExecOptions::dicts`].
#[derive(Debug, Default)]
pub struct GroupDictCache {
    inner: Mutex<DictInner>,
}

impl GroupDictCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        GroupDictCache::default()
    }

    /// Advances the valid generation after a publish that provably left
    /// every dimension table untouched (an ingest epoch, a fact-table
    /// compaction): the stored dictionaries stay correct, so they keep
    /// hitting at the new generation.
    pub fn advance(&self, generation: u64) {
        let mut inner = self.inner.lock().expect("dict cache poisoned");
        inner.generation = inner.generation.max(generation);
    }

    /// Advances the valid generation after a publish that may have
    /// changed dimension tables (rule-driven personalization): every
    /// stored dictionary is flushed.
    pub fn invalidate(&self, generation: u64) {
        let mut inner = self.inner.lock().expect("dict cache poisoned");
        inner.flush();
        inner.generation = inner.generation.max(generation);
    }

    /// Returns the attribute's dictionary for `generation`, building it
    /// from `cube` on a miss (outside the lock — builds walk whole
    /// dimension tables). A lookup at a newer generation than the
    /// cache's flushes first: the cache cannot prove what that publish
    /// changed. A lookup at an *older* generation (a query pinned to an
    /// old snapshot racing a publish) builds uncached instead of
    /// poisoning newer entries.
    pub(crate) fn get_or_build(
        &self,
        generation: u64,
        cube: &Cube,
        attr: &AttributeRef,
    ) -> Result<Arc<GroupKeys>, OlapError> {
        let key = attr_key(attr);
        {
            let mut inner = self.inner.lock().expect("dict cache poisoned");
            if generation > inner.generation {
                inner.flush();
                inner.generation = generation;
            }
            if generation == inner.generation {
                if let Some(keys) = inner.entries.get(&key).map(Arc::clone) {
                    inner.hits += 1;
                    return Ok(keys);
                }
            }
            inner.misses += 1;
        }
        let keys = Arc::new(GroupKeys::build(cube, attr)?);
        let mut inner = self.inner.lock().expect("dict cache poisoned");
        if generation == inner.generation {
            // A racing builder may have inserted first; keep whichever
            // is stored (both were built from the same snapshot).
            inner
                .entries
                .entry(key)
                .or_insert_with(|| Arc::clone(&keys));
        }
        Ok(keys)
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> DictCacheStats {
        let inner = self.inner.lock().expect("dict cache poisoned");
        DictCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.entries.len(),
            invalidations: inner.invalidations,
        }
    }
}
