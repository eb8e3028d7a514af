//! The shared map store: deduplicated materialized maps across views.
//!
//! The paper's compiled engines are "a set of in-memory maps plus
//! triggers". When one server hosts N standing queries over the same
//! catalog, structurally identical maps recur constantly — every view
//! that touches a relation through the re-evaluation or depth-limited
//! path materializes the same `BASE_<REL>` multiplicity map, and
//! independently compiled queries produce alpha-equivalent sub-aggregates
//! (the cross-*handler* sharing of the paper, lifted across *queries*).
//! This module is the storage half of that lift:
//!
//! * maps are interned by canonical **fingerprint**
//!   (`MapDecl::fingerprint`): the first view to register a fingerprint
//!   allocates storage and becomes the map's **maintainer**; later views
//!   bind the existing slot and *skip* their own statements targeting it,
//!   so a shared map is written once per event, not once per sharer;
//! * storage is partitioned into **map groups** keyed by [`GroupKey`]:
//!   every `BASE_<REL>` multiplicity map lives in the *relation's* group
//!   (shared by whichever views materialize base maps of that relation),
//!   while the non-base maps a view introduces live in that *view's*
//!   group. Each group sits behind its own `RwLock`; two views sharing
//!   `BASE_R` contend only on `R`'s lock, not on each other's derived
//!   state. Lock plans are deterministic (ascending group id), which
//!   keeps multi-group acquisition deadlock-free and snapshots
//!   consistent, and gives sharded dispatch its unit of parallelism;
//! * execution addresses maps by store-wide **slot** id: a view's lowered
//!   program is rebound (`ExecProgram::with_remapped_maps`) from its
//!   dense local ids to slots, and a [`WriteFrame`]/[`ReadFrame`] built
//!   over a reusable [`FramePlan`] (slot → guard-position table, computed
//!   once per lock plan and cached by the server) serves slot lookups
//!   during evaluation without any per-event allocation.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use dbtoaster_common::FxHashMap;
use dbtoaster_telemetry::Histogram;

use crate::storage::{MapRead, MapStorage, MapWrite};

/// Optional lock-wait histograms the owning server wires in — how long
/// acquisitions of a whole lock plan wait, end to end (nanoseconds).
/// Recording is gated by the histograms' shared registry flag, so the
/// disabled acquisition path pays one branch and no clock reads.
pub struct LockWaitMetrics {
    pub read: Arc<Histogram>,
    pub write: Arc<Histogram>,
}

/// What a view asks the store for, per map of its compiled program
/// (in local map-id order).
#[derive(Debug, Clone)]
pub struct MapRegistration {
    /// The view-local map name (`Q`, `M3_ST`, `BASE_BIDS`, ...).
    pub name: String,
    /// Cross-program canonical fingerprint (`MapDecl::fingerprint`).
    pub fingerprint: String,
    /// Key arity.
    pub arity: usize,
    /// Base-relation multiplicity map?
    pub is_base_relation: bool,
    /// Secondary-index patterns this view's loops need on the map.
    pub patterns: Vec<Vec<usize>>,
    /// Key positions this view's range aggregations need an
    /// ordered/cumulative index over.
    pub ordered: Vec<usize>,
    /// May this view bind an already-stored copy of the map instead of
    /// materializing its own? False when the view requires *pre-event*
    /// reads of the map — it has a delta (`Update`) statement that reads
    /// the map in a trigger for a relation the map's definition depends
    /// on (a self-join shape). Sharing would let the map's maintainer
    /// update the storage earlier in the same event, so such views get a
    /// private copy. `false` never prevents the view from *providing*
    /// the map to later, hazard-free sharers (as maintainer, its own
    /// statement order is intact).
    pub shareable: bool,
}

impl MapRegistration {
    /// The lock-group key this map's storage belongs in: base-relation
    /// maps go to their relation's group (the canonical `BASE_<REL>`
    /// name carries the relation), everything else to the registering
    /// view's group.
    fn group_key(&self, view: usize) -> GroupKey {
        if self.is_base_relation {
            let rel = self.name.strip_prefix("BASE_").unwrap_or(&self.name);
            GroupKey::Relation(rel.to_string())
        } else {
            GroupKey::View(view)
        }
    }
}

/// Identity of one lock group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// The `BASE_<REL>` multiplicity maps of one relation — including
    /// private (hazarded) copies, so all base state of a relation sits
    /// behind one lock however many views materialize it.
    Relation(String),
    /// The non-base maps one view introduced (its sub-aggregates and
    /// result map).
    View(usize),
}

/// Immutable metadata of one stored map.
#[derive(Debug, Clone)]
pub struct SlotMeta {
    /// Group the storage lives in.
    pub group: usize,
    /// Index within the group.
    pub index: usize,
    pub fingerprint: String,
    pub arity: usize,
    pub is_base_relation: bool,
    /// View id that allocated the slot and maintains its contents.
    pub maintainer: usize,
    /// `(view id, view-local map name)` for every view bound to the slot
    /// (the maintainer first, in registration order).
    pub aliases: Vec<(usize, String)>,
}

impl SlotMeta {
    /// Number of views bound to this slot.
    pub fn sharers(&self) -> usize {
        self.aliases.len()
    }
}

/// A view's binding into the store, in local map-id order.
#[derive(Debug, Clone, Default)]
pub struct ViewBinding {
    /// Local map id → store slot.
    pub slots: Vec<usize>,
    /// Local map id → does this view maintain the slot? Statements
    /// targeting non-maintained slots must be skipped at apply time.
    pub maintains: Vec<bool>,
    /// Sorted, deduplicated ids of every group this view touches (its
    /// own group, the relation groups of its base maps, and the groups
    /// of shared slots) — the view's lock plan.
    pub groups: Vec<usize>,
}

impl ViewBinding {
    /// Skip list indexed by store slot (`true` = statements targeting
    /// the slot must not run in this view), sized to the given slot
    /// count. Slots the view does not bind are never targeted by its
    /// statements, so they stay `false`.
    pub fn skip_targets(&self, slot_count: usize) -> Vec<bool> {
        let mut skip = vec![false; slot_count];
        for (local, &slot) in self.slots.iter().enumerate() {
            if !self.maintains[local] {
                skip[slot] = true;
            }
        }
        skip
    }
}

/// The deduplicated map storage shared by every view of a server.
#[derive(Default)]
pub struct SharedMapStore {
    /// One lock per map group, allocated in key-first-seen order.
    groups: Vec<RwLock<Vec<MapStorage>>>,
    /// group id → identity (registration-time only, lock-free to read).
    group_keys: Vec<GroupKey>,
    /// identity → group id.
    by_key: FxHashMap<GroupKey, usize>,
    /// Per-slot metadata (registration-time only; never changes during
    /// event processing, so it is readable without any lock).
    slots: Vec<SlotMeta>,
    /// group id → index-in-group → slot id (plan construction table).
    group_slots: Vec<Vec<usize>>,
    /// fingerprint → slot.
    by_fingerprint: FxHashMap<String, usize>,
    /// Lock-wait histograms, when the owning server wired them in.
    lock_wait: Option<LockWaitMetrics>,
}

impl SharedMapStore {
    pub fn new() -> SharedMapStore {
        SharedMapStore::default()
    }

    /// Number of stored (deduplicated) maps.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of map groups (relation groups that hold at least one base
    /// map, plus view groups that hold at least one derived map).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Identity of one group.
    pub fn group_key(&self, group: usize) -> &GroupKey {
        &self.group_keys[group]
    }

    /// Metadata of one slot.
    pub fn slot(&self, slot: usize) -> &SlotMeta {
        &self.slots[slot]
    }

    /// Metadata of every slot, in allocation order.
    pub fn slots(&self) -> &[SlotMeta] {
        &self.slots
    }

    /// All group ids (the lock plan of a full snapshot).
    pub fn all_groups(&self) -> Vec<usize> {
        (0..self.groups.len()).collect()
    }

    /// The existing group for `key`, or a fresh one.
    fn group_for(&mut self, key: GroupKey) -> usize {
        if let Some(&g) = self.by_key.get(&key) {
            return g;
        }
        let g = self.groups.len();
        self.groups.push(RwLock::new(Vec::new()));
        self.group_slots.push(Vec::new());
        self.group_keys.push(key.clone());
        self.by_key.insert(key, g);
        g
    }

    /// Bind a view's maps, deduplicating against every map already
    /// stored. New fingerprints are allocated into the group their
    /// [`GroupKey`] names — base maps into their relation's group
    /// (created on first use, appended to thereafter), derived maps into
    /// this view's own group; known fingerprints are shared (and the
    /// view's secondary-index patterns are registered on the existing
    /// storage, which backfills them from live entries).
    ///
    /// Deduplication is strictly *across* views: if one program carries
    /// two maps with equal fingerprints (the compiler's within-query
    /// sharing missed them), both get their own slot — collapsing them
    /// would make the view write the same storage twice per event.
    pub fn register_view(&mut self, view: usize, maps: &[MapRegistration]) -> ViewBinding {
        let mut binding = ViewBinding::default();
        let mut fresh_fingerprints: FxHashMap<&str, usize> = FxHashMap::default();
        for reg in maps {
            let shared = match self.by_fingerprint.get(reg.fingerprint.as_str()) {
                Some(&slot)
                    if reg.shareable
                        && !fresh_fingerprints.contains_key(reg.fingerprint.as_str()) =>
                {
                    debug_assert_eq!(self.slots[slot].arity, reg.arity, "fingerprint collision");
                    Some(slot)
                }
                _ => None,
            };
            match shared {
                Some(slot) => {
                    let meta = &mut self.slots[slot];
                    meta.aliases.push((view, reg.name.clone()));
                    let group = meta.group;
                    let index = meta.index;
                    let storage = self.groups[group].get_mut();
                    for p in &reg.patterns {
                        storage[index].register_pattern(p);
                    }
                    for &p in &reg.ordered {
                        storage[index].register_ordered(p);
                    }
                    binding.slots.push(slot);
                    binding.maintains.push(false);
                }
                None => {
                    let slot = self.slots.len();
                    let group = self.group_for(reg.group_key(view));
                    let mut storage = MapStorage::new(reg.arity);
                    for p in &reg.patterns {
                        storage.register_pattern(p);
                    }
                    for &p in &reg.ordered {
                        storage.register_ordered(p);
                    }
                    let index = {
                        let maps = self.groups[group].get_mut();
                        maps.push(storage);
                        maps.len() - 1
                    };
                    self.group_slots[group].push(slot);
                    fresh_fingerprints.insert(reg.fingerprint.as_str(), slot);
                    self.slots.push(SlotMeta {
                        group,
                        index,
                        fingerprint: reg.fingerprint.clone(),
                        arity: reg.arity,
                        is_base_relation: reg.is_base_relation,
                        maintainer: view,
                        aliases: vec![(view, reg.name.clone())],
                    });
                    // First allocation wins the interning: a within-view
                    // duplicate gets its own slot (above) but future
                    // views keep sharing the original.
                    self.by_fingerprint
                        .entry(reg.fingerprint.clone())
                        .or_insert(slot);
                    binding.slots.push(slot);
                    binding.maintains.push(true);
                }
            }
        }
        binding.groups = binding.slots.iter().map(|&s| self.slots[s].group).collect();
        binding.groups.sort_unstable();
        binding.groups.dedup();
        binding
    }

    /// Wire in lock-wait histograms (done once, by the owning server at
    /// construction; recording stays off until the registry enables it).
    pub fn set_lock_wait_metrics(&mut self, metrics: LockWaitMetrics) {
        self.lock_wait = Some(metrics);
    }

    /// Acquire read locks on the given groups. `groups` must be sorted
    /// ascending (every lock plan in this module is) so that concurrent
    /// acquisitions cannot deadlock.
    pub fn lock_read<'a>(&'a self, groups: &[usize]) -> Vec<RwLockReadGuard<'a, Vec<MapStorage>>> {
        debug_assert!(groups.windows(2).all(|w| w[0] < w[1]), "unsorted lock plan");
        if let Some(m) = &self.lock_wait {
            if m.read.is_enabled() {
                let started = Instant::now();
                let guards = groups.iter().map(|&g| self.groups[g].read()).collect();
                m.read.record_unchecked(started.elapsed().as_nanos() as u64);
                return guards;
            }
        }
        groups.iter().map(|&g| self.groups[g].read()).collect()
    }

    /// Acquire write locks on the given groups (sorted ascending).
    pub fn lock_write<'a>(
        &'a self,
        groups: &[usize],
    ) -> Vec<RwLockWriteGuard<'a, Vec<MapStorage>>> {
        debug_assert!(groups.windows(2).all(|w| w[0] < w[1]), "unsorted lock plan");
        if let Some(m) = &self.lock_wait {
            if m.write.is_enabled() {
                let started = Instant::now();
                let guards = groups.iter().map(|&g| self.groups[g].write()).collect();
                m.write
                    .record_unchecked(started.elapsed().as_nanos() as u64);
                return guards;
            }
        }
        groups.iter().map(|&g| self.groups[g].write()).collect()
    }

    /// Build the reusable slot-resolution table for a lock plan. The
    /// plan depends only on registration state (which slots live in
    /// which group), so callers cache it across events and batches;
    /// building a frame from a cached plan allocates nothing.
    pub fn plan(&self, groups: &[usize]) -> FramePlan {
        debug_assert!(groups.windows(2).all(|w| w[0] < w[1]), "unsorted lock plan");
        let mut table: Vec<Option<(u32, u32)>> = vec![None; self.slots.len()];
        for (position, &group) in groups.iter().enumerate() {
            for (index, &slot) in self.group_slots[group].iter().enumerate() {
                table[slot] = Some((position as u32, index as u32));
            }
        }
        FramePlan {
            groups: groups.to_vec(),
            table,
        }
    }

    /// Read one map under its group lock.
    pub fn with_map<R>(&self, slot: usize, f: impl FnOnce(&MapStorage) -> R) -> R {
        let meta = &self.slots[slot];
        let storage = self.groups[meta.group].read();
        f(&storage[meta.index])
    }

    /// Approximate bytes held by all stored maps, each counted once
    /// regardless of how many views share it.
    pub fn approx_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.read().iter().map(MapStorage::approx_bytes).sum::<usize>())
            .sum()
    }
}

/// A cached lock plan plus its slot-resolution table: for every store
/// slot the plan covers, the position of its group among the acquired
/// guards and its index within the group. Computed once per lock plan
/// ([`SharedMapStore::plan`]), reused for every frame built over it —
/// the store-wide `Vec<Option<&mut MapStorage>>` the old frames
/// allocated per call is gone.
#[derive(Debug, Clone, Default)]
pub struct FramePlan {
    /// The lock plan (ascending group ids) the table was built for.
    groups: Vec<usize>,
    /// slot → (position in `groups`, index within the group).
    table: Vec<Option<(u32, u32)>>,
}

impl FramePlan {
    /// The groups to lock (ascending) before building a frame.
    pub fn groups(&self) -> &[usize] {
        &self.groups
    }

    /// Resolve a slot to (guard position, index within group).
    #[inline]
    fn resolve(&self, slot: usize) -> (usize, usize) {
        let (position, index) = self
            .table
            .get(slot)
            .copied()
            .flatten()
            .expect("slot not covered by this frame's lock plan");
        (position as usize, index as usize)
    }

    /// Borrowed read access over guards acquired with exactly this
    /// plan's groups ([`SharedMapStore::lock_read`]).
    pub fn read_frame<'a, 'g>(
        &'a self,
        guards: &'a [RwLockReadGuard<'g, Vec<MapStorage>>],
    ) -> ReadFrame<'a, 'g> {
        debug_assert_eq!(guards.len(), self.groups.len(), "guards do not match plan");
        ReadFrame { plan: self, guards }
    }

    /// Borrowed write access over guards acquired with exactly this
    /// plan's groups ([`SharedMapStore::lock_write`]).
    pub fn write_frame<'a, 'g>(
        &'a self,
        guards: &'a mut [RwLockWriteGuard<'g, Vec<MapStorage>>],
    ) -> WriteFrame<'a, 'g> {
        debug_assert_eq!(guards.len(), self.groups.len(), "guards do not match plan");
        WriteFrame { plan: self, guards }
    }
}

/// Borrowed read access to stored maps, indexed by store slot.
pub struct ReadFrame<'a, 'g> {
    plan: &'a FramePlan,
    guards: &'a [RwLockReadGuard<'g, Vec<MapStorage>>],
}

impl MapRead for ReadFrame<'_, '_> {
    #[inline]
    fn map(&self, id: usize) -> &MapStorage {
        let (position, index) = self.plan.resolve(id);
        &self.guards[position][index]
    }
}

/// Borrowed write access to stored maps, indexed by store slot.
pub struct WriteFrame<'a, 'g> {
    plan: &'a FramePlan,
    guards: &'a mut [RwLockWriteGuard<'g, Vec<MapStorage>>],
}

impl MapRead for WriteFrame<'_, '_> {
    #[inline]
    fn map(&self, id: usize) -> &MapStorage {
        let (position, index) = self.plan.resolve(id);
        &self.guards[position][index]
    }
}

impl MapWrite for WriteFrame<'_, '_> {
    #[inline]
    fn map_mut(&mut self, id: usize) -> &mut MapStorage {
        let (position, index) = self.plan.resolve(id);
        &mut self.guards[position][index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::{tuple, Value};

    fn reg(name: &str, fingerprint: &str, arity: usize) -> MapRegistration {
        MapRegistration {
            name: name.to_string(),
            fingerprint: fingerprint.to_string(),
            arity,
            is_base_relation: name.starts_with("BASE_"),
            patterns: Vec::new(),
            ordered: Vec::new(),
            shareable: true,
        }
    }

    #[test]
    fn first_registrant_allocates_later_views_share() {
        let mut store = SharedMapStore::new();
        let a = store.register_view(0, &[reg("Q", "fp:q", 0), reg("BASE_R", "fp:base_r", 2)]);
        assert_eq!(a.slots, vec![0, 1]);
        assert_eq!(a.maintains, vec![true, true]);
        // Q lives in view 0's group, BASE_R in relation R's group.
        assert_eq!(a.groups, vec![0, 1]);
        assert_eq!(store.group_key(0), &GroupKey::View(0));
        assert_eq!(store.group_key(1), &GroupKey::Relation("R".into()));

        let b = store.register_view(1, &[reg("Q2", "fp:q2", 1), reg("BASE_R", "fp:base_r", 2)]);
        assert_eq!(b.slots, vec![2, 1], "BASE_R reuses slot 1");
        assert_eq!(b.maintains, vec![true, false]);
        assert_eq!(
            b.groups,
            vec![1, 2],
            "lock plan covers R's relation group + view 1's own group"
        );

        assert_eq!(store.slot_count(), 3);
        assert_eq!(store.group_count(), 3);
        let base = store.slot(1);
        assert_eq!(base.maintainer, 0);
        assert_eq!(base.sharers(), 2);
        assert!(base.is_base_relation);
        assert_eq!(
            base.aliases,
            vec![(0, "BASE_R".into()), (1, "BASE_R".into())]
        );
    }

    #[test]
    fn base_maps_of_different_views_share_one_relation_group() {
        let mut store = SharedMapStore::new();
        // Two views with *different* base-map fingerprints over the same
        // relation (e.g. a private hazarded copy): both copies land in
        // the one relation group, so all base state of R is one lock.
        let a = store.register_view(0, &[reg("BASE_R", "fp:base_r", 2), reg("QA", "fp:qa", 0)]);
        let mut private = reg("BASE_R", "fp:base_r", 2);
        private.shareable = false;
        let b = store.register_view(1, &[private, reg("QB", "fp:qb", 0)]);
        assert_eq!(store.slot(a.slots[0]).group, store.slot(b.slots[0]).group);
        assert_ne!(a.slots[0], b.slots[0], "private copy kept its own slot");
        assert_ne!(
            store.slot(a.slots[1]).group,
            store.slot(b.slots[1]).group,
            "derived maps stay in per-view groups"
        );
        // Disjoint derived state + the shared relation group: the two
        // views' plans overlap exactly on R's group.
        let common: Vec<usize> = a
            .groups
            .iter()
            .filter(|g| b.groups.contains(g))
            .copied()
            .collect();
        assert_eq!(common, vec![store.slot(a.slots[0]).group]);
    }

    #[test]
    fn duplicate_fingerprints_within_one_view_stay_separate() {
        let mut store = SharedMapStore::new();
        let b = store.register_view(0, &[reg("Q", "fp:same", 1), reg("M1_R", "fp:same", 1)]);
        assert_eq!(b.slots, vec![0, 1], "no within-view collapse");
        assert_eq!(b.maintains, vec![true, true]);
        // A later view still shares the first of the two.
        let c = store.register_view(1, &[reg("X", "fp:same", 1)]);
        assert_eq!(c.slots, vec![0]);
        assert_eq!(c.maintains, vec![false]);
    }

    #[test]
    fn frames_resolve_shared_slots_and_apply_writes_once() {
        let mut store = SharedMapStore::new();
        let a = store.register_view(0, &[reg("BASE_R", "fp:base_r", 1)]);
        let b = store.register_view(1, &[reg("OWN", "fp:own", 1), reg("BASE_R", "fp:base_r", 1)]);
        assert!(b.groups.contains(&store.slot(a.slots[0]).group));

        // Write through the union of both views' lock plans.
        let groups: Vec<usize> = {
            let mut g = a.groups.clone();
            g.extend(&b.groups);
            g.sort_unstable();
            g.dedup();
            g
        };
        let plan = store.plan(&groups);
        {
            let mut guards = store.lock_write(plan.groups());
            let mut frame = plan.write_frame(&mut guards);
            frame.map_mut(a.slots[0]).add(tuple![7i64], Value::Int(3));
            frame.map_mut(b.slots[0]).add(tuple![1i64], Value::Int(1));
        }
        // Both views observe the same storage for BASE_R.
        assert_eq!(
            store.with_map(a.slots[0], |m| m.get(&tuple![7i64])),
            Value::Int(3)
        );
        assert_eq!(b.slots[1], a.slots[0]);
        let all = store.all_groups();
        let all_plan = store.plan(&all);
        let guards = store.lock_read(&all);
        let frame = all_plan.read_frame(&guards);
        assert_eq!(frame.map(b.slots[1]).get(&tuple![7i64]), Value::Int(3));
        assert_eq!(frame.map(b.slots[0]).get(&tuple![1i64]), Value::Int(1));
    }

    #[test]
    fn shared_slots_backfill_new_patterns() {
        let mut store = SharedMapStore::new();
        let a = store.register_view(0, &[reg("BASE_R", "fp:base_r", 2)]);
        let plan = store.plan(&a.groups);
        {
            let mut guards = store.lock_write(plan.groups());
            let mut frame = plan.write_frame(&mut guards);
            frame
                .map_mut(a.slots[0])
                .add(tuple![1i64, 2i64], Value::Int(1));
        }
        // Second view needs a slice pattern the first never registered.
        let mut shared = reg("BASE_R", "fp:base_r", 2);
        shared.patterns = vec![vec![0]];
        let b = store.register_view(1, &[shared]);
        store.with_map(b.slots[0], |m| {
            assert_eq!(m.index_count(), 1, "pattern registered on shared storage");
            assert_eq!(m.slice(&[0], &tuple![1i64]).len(), 1, "and backfilled");
        });
    }

    #[test]
    fn shared_slots_backfill_new_ordered_indexes() {
        use dbtoaster_calculus::CmpOp;
        let mut store = SharedMapStore::new();
        let a = store.register_view(0, &[reg("BASE_R", "fp:base_r", 2)]);
        let plan = store.plan(&a.groups);
        {
            let mut guards = store.lock_write(plan.groups());
            let mut frame = plan.write_frame(&mut guards);
            frame
                .map_mut(a.slots[0])
                .add(tuple![1i64, 10i64], Value::Int(3));
            frame
                .map_mut(a.slots[0])
                .add(tuple![1i64, 20i64], Value::Int(4));
        }
        // Second view needs an ordered index the first never registered.
        let mut shared = reg("BASE_R", "fp:base_r", 2);
        shared.ordered = vec![1];
        let b = store.register_view(1, &[shared]);
        assert_eq!(b.slots, a.slots, "same storage");
        store.with_map(b.slots[0], |m| {
            assert!(m.has_ordered(1), "ordered index registered on shared slot");
            assert_eq!(
                m.range_sum(1, &tuple![1i64], CmpOp::Gt, &Value::Int(10)),
                Some(Value::Int(4)),
                "and backfilled from live entries"
            );
        });
    }

    #[test]
    fn unshareable_maps_get_private_slots_but_still_serve_later_sharers() {
        let mut store = SharedMapStore::new();
        store.register_view(0, &[reg("M1", "fp:m", 1)]);
        // View 1 needs pre-event reads of its copy: private slot.
        let mut hazarded = reg("M2", "fp:m", 1);
        hazarded.shareable = false;
        let b = store.register_view(1, &[hazarded]);
        assert_eq!(b.slots, vec![1], "own copy despite the fingerprint hit");
        assert_eq!(b.maintains, vec![true]);
        // A later hazard-free view still shares the *first* copy.
        let c = store.register_view(2, &[reg("M3", "fp:m", 1)]);
        assert_eq!(c.slots, vec![0]);
        assert_eq!(c.maintains, vec![false]);
    }

    #[test]
    fn skip_targets_cover_only_non_maintained_slots() {
        let mut store = SharedMapStore::new();
        store.register_view(0, &[reg("A", "fp:a", 0)]);
        let b = store.register_view(1, &[reg("B", "fp:b", 0), reg("A2", "fp:a", 0)]);
        let skip = b.skip_targets(store.slot_count());
        assert_eq!(skip, vec![true, false], "shared slot skipped, own slot not");
    }

    #[test]
    fn plans_built_before_later_registrations_still_resolve_their_slots() {
        let mut store = SharedMapStore::new();
        let a = store.register_view(0, &[reg("Q", "fp:q", 1)]);
        let plan = store.plan(&a.groups);
        store.register_view(1, &[reg("Q2", "fp:q2", 1)]);
        // The stale plan still serves the slots it covered.
        let mut guards = store.lock_write(plan.groups());
        let mut frame = plan.write_frame(&mut guards);
        frame.map_mut(a.slots[0]).add(tuple![4i64], Value::Int(2));
        assert_eq!(frame.map(a.slots[0]).get(&tuple![4i64]), Value::Int(2));
    }
}
