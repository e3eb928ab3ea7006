//! Interned task labels and pooled rank sets.
//!
//! A 100k-GPU iteration DAG has millions of tasks but only thousands of *distinct*
//! labels ("fwd s3 mb1 L27") and rank sets (one per communication group, plus the
//! per-rank singletons and pipeline pairs). Storing an owned `String` and a cloned
//! `Vec<GpuId>` per task made redundant heap data dominate the DAG footprint and put
//! a `String` clone on the simulator's per-event hot path. This module replaces both
//! with 4-byte handles into process-wide, append-only intern tables:
//!
//! * [`LabelId`] — a symbol-table handle; [`LabelId::intern`] deduplicates, and
//!   [`LabelId::as_str`] resolves to a `&'static str` (interned strings are leaked
//!   once, so resolution never copies and never holds a lock across use).
//! * [`RankSet`] — a pooled `[GpuId]` handle with the same contract; one copy per
//!   distinct participant set instead of one per task.
//!
//! Both tables are global and append-only, guarded by an `RwLock` that is only
//! write-locked when a *new* entry is inserted. The rank-set table is created with
//! the empty set at handle 0, so [`RankSet::is_empty`] compares handles and takes
//! no lock. Handles are only meaningful within
//! the process that created them (they are never serialized as raw indices —
//! `Serialize` resolves them back to the string / rank sequence, so serialized
//! output is byte-identical to the owned representation it replaced).

use railsim_topology::GpuId;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A handle to an interned label string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(u32);

/// A handle to a pooled, immutable set of participating ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankSet(u32);

/// One append-only intern table: dedup map plus resolution vector.
struct Table<T: ?Sized + 'static> {
    by_value: HashMap<&'static T, u32>,
    entries: Vec<&'static T>,
}

impl<T: ?Sized + 'static> Table<T> {
    fn new() -> Self {
        Table {
            by_value: HashMap::new(),
            entries: Vec::new(),
        }
    }
}

fn labels() -> &'static RwLock<Table<str>> {
    static LABELS: OnceLock<RwLock<Table<str>>> = OnceLock::new();
    LABELS.get_or_init(|| RwLock::new(Table::new()))
}

/// The handle of the empty rank set, reserved when the table is created.
const EMPTY_RANK_SET: u32 = 0;

fn rank_sets() -> &'static RwLock<Table<[GpuId]>> {
    static RANK_SETS: OnceLock<RwLock<Table<[GpuId]>>> = OnceLock::new();
    RANK_SETS.get_or_init(|| {
        let empty: &'static [GpuId] = &[];
        let mut table = Table::new();
        table.entries.push(empty);
        table.by_value.insert(empty, EMPTY_RANK_SET);
        RwLock::new(table)
    })
}

impl LabelId {
    /// Interns `label`, returning the handle of its canonical copy. The first caller
    /// for a given string pays one allocation (the leaked canonical copy); every
    /// subsequent call is a read-locked hash lookup.
    pub fn intern(label: &str) -> LabelId {
        {
            let table = labels().read().expect("label interner poisoned");
            if let Some(&id) = table.by_value.get(label) {
                return LabelId(id);
            }
        }
        let mut table = labels().write().expect("label interner poisoned");
        // Double-check: another thread may have interned it between the locks.
        if let Some(&id) = table.by_value.get(label) {
            return LabelId(id);
        }
        let canonical: &'static str = Box::leak(label.to_owned().into_boxed_str());
        let id = u32::try_from(table.entries.len()).expect("label intern table overflow");
        table.entries.push(canonical);
        table.by_value.insert(canonical, id);
        LabelId(id)
    }

    /// Resolves the handle back to the interned string.
    ///
    /// # Panics
    /// Panics if the handle did not come from [`LabelId::intern`] in this process.
    pub fn as_str(self) -> &'static str {
        labels().read().expect("label interner poisoned").entries[self.0 as usize]
    }

    /// The raw table index (diagnostics only; indices are process-local).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl RankSet {
    /// Interns `ranks`, returning the handle of the canonical copy.
    pub fn intern(ranks: &[GpuId]) -> RankSet {
        {
            let table = rank_sets().read().expect("rank-set pool poisoned");
            if let Some(&id) = table.by_value.get(ranks) {
                return RankSet(id);
            }
        }
        let mut table = rank_sets().write().expect("rank-set pool poisoned");
        if let Some(&id) = table.by_value.get(ranks) {
            return RankSet(id);
        }
        let canonical: &'static [GpuId] = Box::leak(ranks.to_vec().into_boxed_slice());
        let id = u32::try_from(table.entries.len()).expect("rank-set pool overflow");
        table.entries.push(canonical);
        table.by_value.insert(canonical, id);
        RankSet(id)
    }

    /// Resolves the handle back to the pooled rank slice.
    ///
    /// # Panics
    /// Panics if the handle did not come from [`RankSet::intern`] in this process.
    pub fn ranks(self) -> &'static [GpuId] {
        rank_sets().read().expect("rank-set pool poisoned").entries[self.0 as usize]
    }

    /// Number of ranks in the set.
    pub fn len(self) -> usize {
        self.ranks().len()
    }

    /// True when the set is empty (never produced by the DAG builder, which rejects
    /// participant-less tasks, but interning an empty slice is well-defined). The
    /// empty set owns a handle reserved when the pool is created, so this compares
    /// handles and reads no table: concurrent validations never contend on the
    /// pool's lock.
    pub fn is_empty(self) -> bool {
        self.0 == EMPTY_RANK_SET
    }

    /// True when `rank` is a member.
    pub fn contains(self, rank: GpuId) -> bool {
        self.ranks().contains(&rank)
    }

    /// The first rank (the anchor used for rail affinity of compute tasks).
    ///
    /// # Panics
    /// Panics if the set is empty.
    pub fn first(self) -> GpuId {
        self.ranks()[0]
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// Handles serialize as the value they resolve to, so swapping `String` /
// `Vec<GpuId>` fields for handles leaves every serialized document byte-identical.
impl Serialize for LabelId {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Serialize for RankSet {
    fn to_value(&self) -> Value {
        Value::Seq(self.ranks().iter().map(Serialize::to_value).collect())
    }
}

impl<'de> Deserialize<'de> for LabelId {}
impl<'de> Deserialize<'de> for RankSet {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates_labels() {
        let a = LabelId::intern("fwd s0 mb0 L0");
        let b = LabelId::intern("fwd s0 mb0 L0");
        let c = LabelId::intern("fwd s0 mb0 L1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "fwd s0 mb0 L0");
        assert_eq!(c.as_str(), "fwd s0 mb0 L1");
    }

    #[test]
    fn interning_deduplicates_rank_sets() {
        let a = RankSet::intern(&[GpuId(0), GpuId(4)]);
        let b = RankSet::intern(&[GpuId(0), GpuId(4)]);
        let c = RankSet::intern(&[GpuId(4), GpuId(0)]);
        assert_eq!(a, b);
        assert_ne!(a, c, "order is significant (ring order matters)");
        assert_eq!(a.ranks(), &[GpuId(0), GpuId(4)]);
        assert_eq!(a.len(), 2);
        assert!(a.contains(GpuId(4)));
        assert!(!a.contains(GpuId(1)));
        assert_eq!(a.first(), GpuId(0));
    }

    #[test]
    fn empty_rank_set_is_well_defined() {
        let e = RankSet::intern(&[]);
        assert!(e.is_empty());
        assert_eq!(e.ranks(), &[] as &[GpuId]);
    }

    #[test]
    fn only_the_empty_set_is_empty_whatever_the_intern_order() {
        // Sets interned before and after the empty slice, by this thread and by
        // others: the empty set's handle is reserved when the pool is created, so no
        // intern order can hand it to a non-empty set.
        let before = RankSet::intern(&[GpuId(900_001)]);
        let empty = RankSet::intern(&[]);
        let after = RankSet::intern(&[GpuId(900_002), GpuId(900_003)]);
        assert!(empty.is_empty());
        assert!(!before.is_empty());
        assert!(!after.is_empty());
        let concurrent: Vec<RankSet> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|i| {
                    s.spawn(move || {
                        let set = RankSet::intern(&[GpuId(910_000 + i)]);
                        (set, RankSet::intern(&[]))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (set, empty_again) = h.join().unwrap();
                    assert_eq!(empty_again, empty);
                    set
                })
                .collect()
        });
        for set in concurrent {
            assert!(!set.is_empty());
            assert_eq!(set.len(), 1);
        }
    }

    #[test]
    fn handles_are_four_bytes() {
        assert_eq!(std::mem::size_of::<LabelId>(), 4);
        assert_eq!(std::mem::size_of::<RankSet>(), 4);
        assert_eq!(std::mem::size_of::<Option<LabelId>>(), 8);
    }

    #[test]
    fn serialization_matches_the_owned_representation() {
        use serde::Serialize as _;
        let label = LabelId::intern("sync-AR DP (grad norm)");
        assert_eq!(
            label.to_value(),
            "sync-AR DP (grad norm)".to_string().to_value()
        );
        let set = RankSet::intern(&[GpuId(3), GpuId(7)]);
        assert_eq!(set.to_value(), vec![GpuId(3), GpuId(7)].to_value());
    }

    #[test]
    fn display_resolves() {
        let label = LabelId::intern("optimizer step r0");
        assert_eq!(format!("{label}"), "optimizer step r0");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let ids: Vec<LabelId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| LabelId::intern("concurrent label")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for id in &ids {
            assert_eq!(*id, ids[0]);
            assert_eq!(id.as_str(), "concurrent label");
        }
    }
}
