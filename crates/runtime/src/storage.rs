//! In-memory map storage.
//!
//! A [`MapStorage`] is one of the paper's in-memory aggregate views: a
//! hash map from key tuples to ring values. Entries whose value becomes
//! the additive identity are removed, so memory stays proportional to the
//! live support of the view. Maintenance of auxiliary access paths is
//! factored behind the [`MapIndex`] trait; two implementations exist:
//!
//! * [`HashSliceIndex`] — the equality *slice* index `foreach`
//!   statements need (e.g. iterating all `c` with `q1[b, c] ≠ 0` for a
//!   fixed `b`); the lowering pass registers the patterns it uses up
//!   front so maintenance is incremental.
//! * [`OrderedIndex`] — an order-statistic index over one key position:
//!   a coordinate-compressed segment tree of the map's values, sorted by
//!   that key, answering *range aggregations* (`Σ value where key > p`)
//!   in O(log P) instead of a full-domain scan. This is what turns the
//!   correlated-inequality child maps of the materialization hierarchy
//!   (the `b2.PRICE > b1.PRICE` shape) from O(P) per probe into
//!   O(log P), and it is the substrate the re-scan-on-extremum MIN/MAX
//!   maintenance wants as well.

use std::cmp::Ordering;

use dbtoaster_calculus::CmpOp;
use dbtoaster_common::{FxHashMap, Tuple, Value};

/// Read access to a resolved set of maps, indexed by map id.
///
/// Statement evaluation and result assembly are generic over this trait
/// so the same compiled code runs against two map layouts:
///
/// * an engine's privately owned `Vec<MapStorage>` (embedded mode, where
///   map ids are dense `0..n`), and
/// * a *frame* of borrowed references into the shared map store (server
///   mode, where ids are store-wide slots and the storage behind a slot
///   may be shared by several views).
pub trait MapRead {
    /// The map with the given id. Panics if the id is not resolved in
    /// this frame — lowering resolves every id it emits, so an
    /// unresolved id is a frame-construction bug, not a data error.
    fn map(&self, id: usize) -> &MapStorage;
}

/// Write access to a resolved set of maps, indexed by map id.
pub trait MapWrite: MapRead {
    /// Mutable access to the map with the given id (same panic contract
    /// as [`MapRead::map`]).
    fn map_mut(&mut self, id: usize) -> &mut MapStorage;
}

impl MapRead for [MapStorage] {
    #[inline]
    fn map(&self, id: usize) -> &MapStorage {
        &self[id]
    }
}

impl MapWrite for [MapStorage] {
    #[inline]
    fn map_mut(&mut self, id: usize) -> &mut MapStorage {
        &mut self[id]
    }
}

/// Maintenance interface of one auxiliary access path over a map.
///
/// [`MapStorage`] routes every mutation of its primary storage through
/// each registered index, so an index only has to keep itself consistent
/// with the stream of entry transitions; what queries it answers is its
/// own business (slices for [`HashSliceIndex`], range aggregations for
/// [`OrderedIndex`]).
pub trait MapIndex {
    /// A key not previously live acquires a non-zero `value`.
    fn insert(&mut self, key: &Tuple, value: &Value);
    /// A live key's value changes from `old` to `new` (both non-zero).
    fn update(&mut self, key: &Tuple, old: &Value, new: &Value);
    /// A live key's value reaches zero and the entry is removed.
    fn remove(&mut self, key: &Tuple, old: &Value);
    /// All entries are removed at once.
    fn clear(&mut self);
    /// Approximate memory footprint of the index structure.
    fn approx_bytes(&self) -> usize;
}

/// A secondary equality index: the sorted key positions it covers and
/// the postings from projected keys to the full keys sharing that
/// projection. Values are irrelevant to it — only key liveness matters.
#[derive(Debug, Clone)]
pub struct HashSliceIndex {
    positions: Vec<usize>,
    postings: FxHashMap<Tuple, Vec<Tuple>>,
}

impl HashSliceIndex {
    fn new(positions: Vec<usize>) -> HashSliceIndex {
        HashSliceIndex {
            positions,
            postings: FxHashMap::default(),
        }
    }
}

impl MapIndex for HashSliceIndex {
    fn insert(&mut self, key: &Tuple, _value: &Value) {
        self.postings
            .entry(key.project(&self.positions))
            .or_default()
            .push(key.clone());
    }

    fn update(&mut self, _key: &Tuple, _old: &Value, _new: &Value) {}

    fn remove(&mut self, key: &Tuple, _old: &Value) {
        let projected = key.project(&self.positions);
        if let Some(keys) = self.postings.get_mut(&projected) {
            keys.retain(|k| k != key);
            if keys.is_empty() {
                self.postings.remove(&projected);
            }
        }
    }

    fn clear(&mut self) {
        self.postings.clear();
    }

    fn approx_bytes(&self) -> usize {
        self.postings
            .iter()
            .map(|(k, keys)| k.approx_bytes() + keys.len() * std::mem::size_of::<Tuple>())
            .sum()
    }
}

/// Key class an ordered group is homogeneous in. Binary search over the
/// group's sorted keys is only sound when [`Value::total_cmp`] (the sort
/// order) and [`Value::compare`] (the SQL comparison the query actually
/// evaluates) agree — which they do within the numeric class and within
/// dates, but not across classes. Mixed or exotic groups simply report
/// range queries as unsupported and callers fall back to a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyClass {
    Numeric,
    Date,
    Other,
}

fn key_class(v: &Value) -> KeyClass {
    match v {
        Value::Int(_) | Value::Float(_) => KeyClass::Numeric,
        Value::Date(_) => KeyClass::Date,
        _ => KeyClass::Other,
    }
}

/// True when a leaf value is outside the "known non-negative" cone the
/// monotone fast path needs (see `OrderedGroup::nonnegative`).
fn leaf_breaks_monotonicity(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i < 0,
        Value::Float(f) => !matches!(
            f.partial_cmp(&0.0),
            Some(Ordering::Greater | Ordering::Equal)
        ),
        // Non-numeric ring values cannot be reasoned about; count them
        // as monotonicity breakers so the fast path stands down.
        _ => true,
    }
}

/// Rebuild the segment tree's internal nodes from its leaves after this
/// many floating-point leaf mutations. The recompute-from-children
/// update discipline keeps every internal node an *exact* sum of its two
/// children at all times, so this re-anchor is a defensive bound on ulp
/// residue (and a cheap place to normalize signed zeros), not a
/// correctness requirement for integer rings.
const FLOAT_REANCHOR_EVERY: u32 = 4096;

/// One equality group of an [`OrderedIndex`]: the distinct ordered-key
/// values seen (sorted), and a segment tree whose leaves mirror the
/// map's current value under each key *exactly* (set, not
/// delta-accumulated). Internal node `i` is always `tree[2i] +
/// tree[2i+1]`, recomputed from its children on every update, so range
/// sums are built purely by *adding* O(log P) node values — never by
/// subtracting a prefix from a total, which would smear float error.
///
/// Keys deleted down to zero keep their (zero) leaf slot so re-insertion
/// is O(log P); the group itself is dropped the moment its last live
/// key disappears, which is what makes teardown-to-empty return the
/// exact additive identity even for float sums.
#[derive(Debug, Clone, Default)]
struct OrderedGroup {
    /// Distinct ordered-key values, sorted by [`Value::total_cmp`].
    keys: Vec<Value>,
    /// Segment tree over `keys.len()` leaves: `tree[n + i]` is the leaf
    /// for `keys[i]`, `tree[i]` (for `1 <= i < n`) its internal sums.
    tree: Vec<Value>,
    /// Leaves currently non-zero. The group is dropped at zero.
    live: usize,
    /// Leaves that break the non-negativity precondition of the
    /// monotone-guard fast path (negative, NaN, or non-numeric).
    monotonicity_breakers: usize,
    /// Key class when homogeneous; `None` once classes mix.
    class: Option<KeyClass>,
    /// Float leaf mutations since the last internal-node re-anchor.
    float_ops: u32,
}

impl OrderedGroup {
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// `Ok(position)` of an existing key, else `Err(insertion point)`.
    fn position(&self, key: &Value) -> Result<usize, usize> {
        self.keys.binary_search_by(|k| k.total_cmp(key))
    }

    /// Insert a new distinct key at sorted position `at` with a zero
    /// leaf. O(P): rebuilds the tree. Amortized away in steady state —
    /// real workloads revisit a bounded key grid (price ticks), and
    /// deleted keys keep their slot, so growth happens once per distinct
    /// key, not once per event.
    fn grow(&mut self, at: usize, key: Value) {
        let n = self.len();
        let mut leaves: Vec<Value> = (0..n).map(|i| self.tree[n + i].clone()).collect();
        leaves.insert(at, Value::ZERO);
        self.keys.insert(at, key);
        self.rebuild(leaves);
    }

    fn rebuild(&mut self, leaves: Vec<Value>) {
        let n = leaves.len();
        let mut tree = vec![Value::ZERO; 2 * n];
        tree[n..].clone_from_slice(&leaves);
        for i in (1..n).rev() {
            tree[i] = tree[2 * i].add(&tree[2 * i + 1]);
        }
        self.tree = tree;
    }

    /// Re-anchor: recompute every internal node from the current leaves,
    /// discarding whatever the incremental path produced.
    fn reanchor(&mut self) {
        let n = self.len();
        for i in (1..n).rev() {
            self.tree[i] = self.tree[2 * i].add(&self.tree[2 * i + 1]);
        }
        self.float_ops = 0;
    }

    /// Overwrite the leaf at `pos` and recompute its ancestor sums from
    /// their children (exact at every node, O(log P)).
    fn set_leaf(&mut self, pos: usize, value: Value) {
        let n = self.len();
        if matches!(value, Value::Float(_)) {
            self.float_ops += 1;
        }
        let mut i = n + pos;
        self.tree[i] = value;
        i >>= 1;
        while i >= 1 {
            self.tree[i] = self.tree[2 * i].add(&self.tree[2 * i + 1]);
            i >>= 1;
        }
        if self.float_ops >= FLOAT_REANCHOR_EVERY {
            self.reanchor();
        }
    }

    /// Sum of the leaves in `[l, r)`, assembled by adding O(log P)
    /// node aggregates.
    fn interval_sum(&self, mut l: usize, mut r: usize) -> Value {
        let n = self.len();
        let mut acc = Value::ZERO;
        l += n;
        r += n;
        while l < r {
            if l & 1 == 1 {
                acc = acc.add(&self.tree[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                acc = acc.add(&self.tree[r]);
            }
            l >>= 1;
            r >>= 1;
        }
        acc
    }

    /// First position whose key is `>= bound` under the sort order.
    fn lower_bound(&self, bound: &Value) -> usize {
        self.keys
            .partition_point(|k| k.total_cmp(bound) == Ordering::Less)
    }

    /// First position whose key is `> bound` under the sort order.
    fn upper_bound(&self, bound: &Value) -> usize {
        self.keys
            .partition_point(|k| k.total_cmp(bound) != Ordering::Greater)
    }

    /// Whether binary search against `bound` is consistent with SQL
    /// comparison semantics for every key in this group.
    fn supports_bound(&self, bound: &Value) -> bool {
        match (self.class, key_class(bound)) {
            (Some(KeyClass::Numeric), KeyClass::Numeric) => match bound {
                Value::Float(f) => !f.is_nan(),
                _ => true,
            },
            (Some(KeyClass::Date), KeyClass::Date) => true,
            // An empty group supports everything (sums are zero).
            (None, _) => self.keys.is_empty(),
            _ => false,
        }
    }

    /// All leaf values are known `>= 0`, so any sum over a key range is
    /// monotone in the range endpoints — the precondition for treating
    /// a guard over such a sum as a monotone predicate of the key.
    fn nonnegative(&self) -> bool {
        self.monotonicity_breakers == 0
    }

    fn approx_bytes(&self) -> usize {
        let per_value = std::mem::size_of::<Value>();
        self.keys.iter().map(Value::approx_bytes).sum::<usize>() + self.tree.len() * per_value
    }
}

/// An order-statistic index over one key position of a map, grouped by
/// the remaining (equality) key positions. Each group answers
/// `Σ value over keys ⟨op⟩ bound` in O(log P).
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    /// Key positions that group entries (all positions except the
    /// ordered one, ascending — the projection `Tuple::project` uses).
    eq_positions: Vec<usize>,
    /// The key position range queries order by.
    ordered_pos: usize,
    groups: FxHashMap<Tuple, OrderedGroup>,
}

impl OrderedIndex {
    fn new(arity: usize, ordered_pos: usize) -> OrderedIndex {
        OrderedIndex {
            eq_positions: (0..arity).filter(|&p| p != ordered_pos).collect(),
            ordered_pos,
            groups: FxHashMap::default(),
        }
    }

    /// The ordered key position this index serves.
    pub fn ordered_pos(&self) -> usize {
        self.ordered_pos
    }

    fn group_key(&self, key: &Tuple) -> Tuple {
        key.project(&self.eq_positions)
    }
}

impl MapIndex for OrderedIndex {
    fn insert(&mut self, key: &Tuple, value: &Value) {
        let group = self.groups.entry(self.group_key(key)).or_default();
        let k = &key[self.ordered_pos];
        let class = key_class(k);
        match group.class {
            None if group.keys.is_empty() => group.class = Some(class),
            Some(c) if c != class => group.class = None,
            _ => {}
        }
        let pos = match group.position(k) {
            Ok(pos) => pos,
            Err(at) => {
                group.grow(at, k.clone());
                at
            }
        };
        group.live += 1;
        if leaf_breaks_monotonicity(value) {
            group.monotonicity_breakers += 1;
        }
        group.set_leaf(pos, value.clone());
    }

    fn update(&mut self, key: &Tuple, old: &Value, new: &Value) {
        let group_key = self.group_key(key);
        let Some(group) = self.groups.get_mut(&group_key) else {
            return;
        };
        let Ok(pos) = group.position(&key[self.ordered_pos]) else {
            return;
        };
        if leaf_breaks_monotonicity(old) {
            group.monotonicity_breakers -= 1;
        }
        if leaf_breaks_monotonicity(new) {
            group.monotonicity_breakers += 1;
        }
        group.set_leaf(pos, new.clone());
    }

    fn remove(&mut self, key: &Tuple, old: &Value) {
        let group_key = self.group_key(key);
        let Some(group) = self.groups.get_mut(&group_key) else {
            return;
        };
        let Ok(pos) = group.position(&key[self.ordered_pos]) else {
            return;
        };
        if leaf_breaks_monotonicity(old) {
            group.monotonicity_breakers -= 1;
        }
        group.live -= 1;
        if group.live == 0 {
            // Teardown-to-empty: dropping the whole group is what makes
            // a fully retracted float sum exactly zero — no residue can
            // survive a structure that no longer exists.
            self.groups.remove(&group_key);
        } else {
            group.set_leaf(pos, Value::ZERO);
        }
    }

    fn clear(&mut self) {
        self.groups.clear();
    }

    fn approx_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|(k, g)| k.approx_bytes() + g.approx_bytes())
            .sum()
    }
}

/// A borrowed window onto one equality group of an ordered index: the
/// sorted key grid and exact interval sums over it. This is the probe
/// surface of the monotone-guard fast path (binary-search a predicate
/// flip over `keys()`, then answer with one `interval_sum`).
pub struct OrderedView<'a> {
    group: &'a OrderedGroup,
}

impl OrderedView<'_> {
    /// The group's distinct ordered-key values, ascending. Slots whose
    /// value was deleted to zero remain (contributing zero to any sum).
    pub fn keys(&self) -> &[Value] {
        &self.group.keys
    }

    /// Exact sum of the values under `keys()[l..r]`.
    pub fn interval_sum(&self, l: usize, r: usize) -> Value {
        self.group.interval_sum(l, r)
    }

    /// True when every value in the group is known non-negative — the
    /// monotonicity precondition for guard binary search.
    pub fn nonnegative(&self) -> bool {
        self.group.nonnegative()
    }

    /// True when binary search over this group agrees with SQL
    /// comparison semantics (homogeneous numeric or date keys).
    pub fn comparable(&self) -> bool {
        match self.group.class {
            Some(KeyClass::Numeric) | Some(KeyClass::Date) => true,
            _ => self.group.keys.is_empty(),
        }
    }
}

/// One maintained map (in-memory view).
#[derive(Debug, Clone, Default)]
pub struct MapStorage {
    /// Key arity (0 for scalar maps such as the query result `q`).
    arity: usize,
    /// Primary storage.
    data: FxHashMap<Tuple, Value>,
    /// Equality slice indexes, one per registered pattern.
    slices: Vec<HashSliceIndex>,
    /// Order-statistic indexes, one per registered ordered position.
    ordered: Vec<OrderedIndex>,
}

impl MapStorage {
    /// Create a map with the given key arity.
    pub fn new(arity: usize) -> MapStorage {
        MapStorage {
            arity,
            data: FxHashMap::default(),
            slices: Vec::new(),
            ordered: Vec::new(),
        }
    }

    /// Key arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Registered equality-pattern position lists (introspection).
    pub fn pattern_positions(&self) -> Vec<Vec<usize>> {
        self.slices.iter().map(|s| s.positions.clone()).collect()
    }

    /// Number of live (non-zero) entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the map has no live entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Register a secondary index over the given key positions (idempotent).
    /// A pattern covering all positions or the empty pattern needs no
    /// index (full lookups and full scans use the primary storage).
    pub fn register_pattern(&mut self, positions: &[usize]) {
        if positions.is_empty() || positions.len() >= self.arity {
            return;
        }
        let mut pat = positions.to_vec();
        pat.sort_unstable();
        pat.dedup();
        if self.slices.iter().any(|s| s.positions == pat) {
            return;
        }
        let mut index = HashSliceIndex::new(pat);
        for (key, value) in &self.data {
            index.insert(key, value);
        }
        self.slices.push(index);
    }

    /// Register an order-statistic index over one key position
    /// (idempotent), grouped by every other position. Existing entries
    /// are backfilled.
    pub fn register_ordered(&mut self, ordered_pos: usize) {
        if ordered_pos >= self.arity {
            return;
        }
        if self.ordered.iter().any(|o| o.ordered_pos == ordered_pos) {
            return;
        }
        let mut index = OrderedIndex::new(self.arity, ordered_pos);
        for (key, value) in &self.data {
            index.insert(key, value);
        }
        self.ordered.push(index);
    }

    /// Number of registered secondary indexes of either kind
    /// (introspection for tests and the memory report; patterns covering
    /// all or no positions are served by primary storage and register
    /// nothing).
    pub fn index_count(&self) -> usize {
        self.slices.len() + self.ordered.len()
    }

    /// Key positions with a registered order-statistic index.
    pub fn ordered_positions(&self) -> Vec<usize> {
        self.ordered.iter().map(|o| o.ordered_pos).collect()
    }

    /// True when `ordered_pos` has a registered order-statistic index.
    pub fn has_ordered(&self, ordered_pos: usize) -> bool {
        self.ordered.iter().any(|o| o.ordered_pos == ordered_pos)
    }

    /// The value stored under `key` (zero if absent).
    pub fn get(&self, key: &Tuple) -> Value {
        self.data.get(key).cloned().unwrap_or(Value::ZERO)
    }

    /// Add `delta` to the entry under `key`, removing it if it becomes
    /// zero. This is the hot operation of every generated trigger.
    pub fn add(&mut self, key: Tuple, delta: Value) {
        if delta.is_zero() {
            return;
        }
        debug_assert_eq!(key.arity(), self.arity, "key arity mismatch");
        if self.ordered.is_empty() {
            // Flat hot path: equality slices never care about in-place
            // value changes, so an existing entry updates without any
            // index traffic.
            match self.data.get_mut(&key) {
                Some(v) => {
                    *v = v.add(&delta);
                    if v.is_zero() {
                        let old = self.data.remove(&key).unwrap_or(Value::ZERO);
                        for index in &mut self.slices {
                            index.remove(&key, &old);
                        }
                    }
                }
                None => {
                    for index in &mut self.slices {
                        index.insert(&key, &delta);
                    }
                    self.data.insert(key, delta);
                }
            }
            return;
        }
        // Ordered indexes mirror values, so they see every transition
        // with both the old and new value.
        match self.data.get_mut(&key) {
            Some(v) => {
                let old = v.clone();
                let new = old.add(&delta);
                if new.is_zero() {
                    self.data.remove(&key);
                    for index in &mut self.slices {
                        index.remove(&key, &old);
                    }
                    for index in &mut self.ordered {
                        index.remove(&key, &old);
                    }
                } else {
                    *v = new.clone();
                    for index in &mut self.ordered {
                        index.update(&key, &old, &new);
                    }
                }
            }
            None => {
                for index in &mut self.slices {
                    index.insert(&key, &delta);
                }
                for index in &mut self.ordered {
                    index.insert(&key, &delta);
                }
                self.data.insert(key, delta);
            }
        }
    }

    /// Overwrite the entry under `key` (used by `Replace` statements and
    /// by bulk loading).
    pub fn set(&mut self, key: Tuple, value: Value) {
        let current = self.get(&key);
        let delta = value.sub(&current);
        self.add(key, delta);
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.data.clear();
        for index in &mut self.slices {
            MapIndex::clear(index);
        }
        for index in &mut self.ordered {
            MapIndex::clear(index);
        }
    }

    /// Iterate all `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &Value)> {
        self.data.iter()
    }

    /// All keys matching the given bound positions/values, using a
    /// registered secondary index when one exists and falling back to a
    /// scan otherwise. `positions` must be sorted (as produced by
    /// `register_pattern`).
    pub fn slice<'a>(&'a self, positions: &[usize], bound: &Tuple) -> Vec<(&'a Tuple, &'a Value)> {
        if positions.is_empty() {
            return self.data.iter().collect();
        }
        if positions.len() >= self.arity {
            // Fully bound: a point lookup.
            return match self.data.get_key_value(bound) {
                Some((k, v)) => vec![(k, v)],
                None => Vec::new(),
            };
        }
        if let Some(index) = self.slices.iter().find(|s| s.positions == positions) {
            match index.postings.get(bound) {
                Some(keys) => keys
                    .iter()
                    .filter_map(|k| self.data.get_key_value(k))
                    .collect(),
                None => Vec::new(),
            }
        } else {
            // Unregistered pattern: scan (correct but slow; the lowering
            // pass registers every pattern it uses, so this is a fallback
            // for ad-hoc snapshot queries only).
            self.data
                .iter()
                .filter(|(k, _)| positions.iter().enumerate().all(|(i, &p)| k[p] == bound[i]))
                .collect()
        }
    }

    /// `Σ value` over all entries whose equality positions match
    /// `eq_bound` and whose ordered key satisfies `key ⟨op⟩ bound`,
    /// answered in O(log P) from the ordered index.
    ///
    /// Returns `None` when the index cannot answer exactly under SQL
    /// comparison semantics — no index on `ordered_pos`, mixed-class
    /// keys, or an incomparable bound — in which case the caller falls
    /// back to a scan ([`MapStorage::range_sum_scan`]).
    pub fn range_sum(
        &self,
        ordered_pos: usize,
        eq_bound: &Tuple,
        op: CmpOp,
        bound: &Value,
    ) -> Option<Value> {
        let index = self.ordered.iter().find(|o| o.ordered_pos == ordered_pos)?;
        let Some(group) = index.groups.get(eq_bound) else {
            return Some(Value::ZERO);
        };
        if matches!(bound, Value::Null) {
            // SQL: NULL compares false against everything.
            return Some(Value::ZERO);
        }
        if !group.supports_bound(bound) {
            return None;
        }
        let n = group.len();
        Some(match op {
            CmpOp::Lt => group.interval_sum(0, group.lower_bound(bound)),
            CmpOp::LtEq => group.interval_sum(0, group.upper_bound(bound)),
            CmpOp::Gt => group.interval_sum(group.upper_bound(bound), n),
            CmpOp::GtEq => group.interval_sum(group.lower_bound(bound), n),
            CmpOp::Eq => group.interval_sum(group.lower_bound(bound), group.upper_bound(bound)),
            CmpOp::NotEq => {
                let (lb, ub) = (group.lower_bound(bound), group.upper_bound(bound));
                group.interval_sum(0, lb).add(&group.interval_sum(ub, n))
            }
        })
    }

    /// The scan oracle for [`MapStorage::range_sum`]: O(P) over primary
    /// storage, also the fallback when the index cannot answer.
    pub fn range_sum_scan(
        &self,
        ordered_pos: usize,
        eq_positions: &[usize],
        eq_bound: &Tuple,
        op: CmpOp,
        bound: &Value,
    ) -> Value {
        let mut acc = Value::ZERO;
        for (key, value) in &self.data {
            if !eq_positions
                .iter()
                .enumerate()
                .all(|(i, &p)| key[p] == eq_bound[i])
            {
                continue;
            }
            if op.eval(&key[ordered_pos], bound) {
                acc = acc.add(value);
            }
        }
        acc
    }

    /// The equality positions [`MapStorage::range_sum`] groups by for a
    /// given ordered position (every other position, ascending).
    pub fn ordered_eq_positions(&self, ordered_pos: usize) -> Vec<usize> {
        (0..self.arity).filter(|&p| p != ordered_pos).collect()
    }

    /// A window onto one equality group of the ordered index on
    /// `ordered_pos`: sorted keys plus exact interval sums — the probe
    /// surface of the monotone-guard fast path. `None` when no index is
    /// registered on that position or the group has no entries (an
    /// empty group sums to zero under any range).
    pub fn ordered_view(&self, ordered_pos: usize, eq_bound: &Tuple) -> Option<OrderedView<'_>> {
        let index = self.ordered.iter().find(|o| o.ordered_pos == ordered_pos)?;
        index
            .groups
            .get(eq_bound)
            .map(|group| OrderedView { group })
    }

    /// Approximate bytes held by auxiliary indexes alone (slices and
    /// ordered trees) — the index column of the memory report.
    pub fn index_bytes(&self) -> usize {
        self.slices
            .iter()
            .map(MapIndex::approx_bytes)
            .sum::<usize>()
            + self
                .ordered
                .iter()
                .map(MapIndex::approx_bytes)
                .sum::<usize>()
    }

    /// Approximate memory footprint in bytes (primary + indexes), for the
    /// memory-usage experiment (E4).
    pub fn approx_bytes(&self) -> usize {
        let entry_overhead = std::mem::size_of::<(Tuple, Value)>();
        let primary: usize = self
            .data
            .iter()
            .map(|(k, v)| k.approx_bytes() + v.approx_bytes() + entry_overhead)
            .sum();
        primary + self.index_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::tuple;

    #[test]
    fn add_get_and_zero_elimination() {
        let mut m = MapStorage::new(1);
        m.add(tuple![1i64], Value::Int(5));
        m.add(tuple![1i64], Value::Int(-2));
        assert_eq!(m.get(&tuple![1i64]), Value::Int(3));
        m.add(tuple![1i64], Value::Int(-3));
        assert_eq!(m.get(&tuple![1i64]), Value::ZERO);
        assert_eq!(m.len(), 0, "zero entries must be removed");
    }

    #[test]
    fn scalar_maps_use_the_empty_key() {
        let mut m = MapStorage::new(0);
        m.add(Tuple::empty(), Value::Float(2.5));
        m.add(Tuple::empty(), Value::Float(1.0));
        assert_eq!(m.get(&Tuple::empty()), Value::Float(3.5));
    }

    #[test]
    fn slices_use_secondary_indexes() {
        let mut m = MapStorage::new(2);
        m.register_pattern(&[0]);
        for b in 0..5i64 {
            for c in 0..3i64 {
                m.add(tuple![b, c], Value::Int(b * 10 + c));
            }
        }
        let slice = m.slice(&[0], &tuple![2i64]);
        assert_eq!(slice.len(), 3);
        assert!(slice.iter().all(|(k, _)| k[0] == Value::Int(2)));
        // Removing an entry keeps the index consistent.
        m.add(tuple![2i64, 1i64], Value::Int(-21));
        assert_eq!(m.slice(&[0], &tuple![2i64]).len(), 2);
    }

    #[test]
    fn patterns_registered_after_data_are_backfilled() {
        let mut m = MapStorage::new(2);
        for b in 0..4i64 {
            m.add(tuple![b, b + 1], Value::Int(1));
        }
        m.register_pattern(&[1]);
        assert_eq!(m.slice(&[1], &tuple![3i64]).len(), 1);
    }

    #[test]
    fn unregistered_patterns_fall_back_to_scans() {
        let mut m = MapStorage::new(3);
        m.add(tuple![1i64, 2i64, 3i64], Value::Int(1));
        m.add(tuple![1i64, 5i64, 3i64], Value::Int(1));
        let s = m.slice(&[0, 2], &tuple![1i64, 3i64]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn register_pattern_is_idempotent_and_normalizes() {
        let mut m = MapStorage::new(3);
        m.register_pattern(&[1, 0]);
        m.register_pattern(&[0, 1]);
        m.register_pattern(&[0, 1, 1]); // duplicates collapse to {0, 1}
        assert_eq!(m.index_count(), 1, "equivalent patterns share one index");
        m.register_pattern(&[2]);
        assert_eq!(m.index_count(), 2);
        // Degenerate patterns register nothing: the empty pattern is a
        // full scan, and a pattern covering every position is a point
        // lookup — both served by primary storage.
        m.register_pattern(&[]);
        m.register_pattern(&[0, 1, 2]);
        assert_eq!(m.index_count(), 2);
        // The shared index answers slices regardless of the order the
        // pattern was first registered in.
        m.add(tuple![1i64, 2i64, 3i64], Value::Int(1));
        m.add(tuple![1i64, 2i64, 4i64], Value::Int(1));
        m.add(tuple![1i64, 9i64, 3i64], Value::Int(1));
        assert_eq!(m.slice(&[0, 1], &tuple![1i64, 2i64]).len(), 2);
    }

    #[test]
    fn slices_track_inserts_updates_and_deletes_to_zero() {
        let mut m = MapStorage::new(2);
        m.register_pattern(&[0]);

        // Insert: new keys appear in the slice.
        m.add(tuple![1i64, 10i64], Value::Int(3));
        m.add(tuple![1i64, 11i64], Value::Int(4));
        m.add(tuple![2i64, 10i64], Value::Int(5));
        assert_eq!(m.slice(&[0], &tuple![1i64]).len(), 2);

        // Update (delta on an existing key): entry stays, value changes,
        // and no duplicate index posting appears.
        m.add(tuple![1i64, 10i64], Value::Int(7));
        let slice = m.slice(&[0], &tuple![1i64]);
        assert_eq!(slice.len(), 2);
        assert_eq!(m.get(&tuple![1i64, 10i64]), Value::Int(10));

        // Delete-to-zero: the key vanishes from the slice...
        m.add(tuple![1i64, 10i64], Value::Int(-10));
        let slice = m.slice(&[0], &tuple![1i64]);
        assert_eq!(slice.len(), 1);
        assert_eq!(*slice[0].0, tuple![1i64, 11i64]);

        // ...and when the last key of a projected group goes, the whole
        // group disappears (no stale empty postings serve lookups).
        m.add(tuple![1i64, 11i64], Value::Int(-4));
        assert!(m.slice(&[0], &tuple![1i64]).is_empty());
        assert_eq!(m.slice(&[0], &tuple![2i64]).len(), 1);

        // Re-insert after delete-to-zero works like a fresh key.
        m.add(tuple![1i64, 12i64], Value::Int(1));
        assert_eq!(m.slice(&[0], &tuple![1i64]).len(), 1);
    }

    #[test]
    fn clear_resets_indexes_consistently() {
        let mut m = MapStorage::new(2);
        m.register_pattern(&[1]);
        for i in 0..5i64 {
            m.add(tuple![i, i % 2], Value::Int(1));
        }
        assert_eq!(m.slice(&[1], &tuple![0i64]).len(), 3);
        m.clear();
        assert!(m.slice(&[1], &tuple![0i64]).is_empty());
        m.add(tuple![9i64, 0i64], Value::Int(1));
        assert_eq!(m.slice(&[1], &tuple![0i64]).len(), 1);
    }

    #[test]
    fn set_and_clear() {
        let mut m = MapStorage::new(1);
        m.set(tuple![1i64], Value::Int(9));
        m.set(tuple![1i64], Value::Int(4));
        assert_eq!(m.get(&tuple![1i64]), Value::Int(4));
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn approx_bytes_grows_with_entries() {
        let mut m = MapStorage::new(1);
        let empty = m.approx_bytes();
        for i in 0..100i64 {
            m.add(tuple![i], Value::Int(i));
        }
        assert!(m.approx_bytes() > empty);
    }

    #[test]
    fn range_sum_answers_every_comparison_operator() {
        let mut m = MapStorage::new(1);
        m.register_ordered(0);
        for (k, v) in [(10i64, 1i64), (20, 2), (30, 4), (40, 8)] {
            m.add(tuple![k], Value::Int(v));
        }
        let sum = |op, b: i64| m.range_sum(0, &Tuple::empty(), op, &Value::Int(b)).unwrap();
        assert_eq!(sum(CmpOp::Gt, 20), Value::Int(12));
        assert_eq!(sum(CmpOp::GtEq, 20), Value::Int(14));
        assert_eq!(sum(CmpOp::Lt, 20), Value::Int(1));
        assert_eq!(sum(CmpOp::LtEq, 20), Value::Int(3));
        assert_eq!(sum(CmpOp::Eq, 20), Value::Int(2));
        assert_eq!(sum(CmpOp::NotEq, 20), Value::Int(13));
        // Bounds off the key grid.
        assert_eq!(sum(CmpOp::Gt, 5), Value::Int(15));
        assert_eq!(sum(CmpOp::Gt, 45), Value::Int(0));
        assert_eq!(sum(CmpOp::Eq, 25), Value::Int(0));
        // SQL: NULL compares false against everything.
        assert_eq!(
            m.range_sum(0, &Tuple::empty(), CmpOp::Gt, &Value::Null)
                .unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn range_sum_tracks_updates_and_deletions_to_zero() {
        let mut m = MapStorage::new(1);
        m.register_ordered(0);
        m.add(tuple![1i64], Value::Int(5));
        m.add(tuple![2i64], Value::Int(7));
        m.add(tuple![2i64], Value::Int(3)); // update in place
        assert_eq!(
            m.range_sum(0, &Tuple::empty(), CmpOp::GtEq, &Value::Int(0))
                .unwrap(),
            Value::Int(15)
        );
        m.add(tuple![1i64], Value::Int(-5)); // delete to zero
        assert_eq!(
            m.range_sum(0, &Tuple::empty(), CmpOp::GtEq, &Value::Int(0))
                .unwrap(),
            Value::Int(10)
        );
        // Re-insert onto the retained (zero) leaf slot.
        m.add(tuple![1i64], Value::Int(2));
        assert_eq!(
            m.range_sum(0, &Tuple::empty(), CmpOp::Lt, &Value::Int(2))
                .unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn grouped_range_sums_are_isolated_per_equality_group() {
        // Arity 3, ordered on position 1: groups are (key[0], key[2]).
        let mut m = MapStorage::new(3);
        m.register_ordered(1);
        m.add(tuple![1i64, 10i64, 7i64], Value::Int(1));
        m.add(tuple![1i64, 20i64, 7i64], Value::Int(2));
        m.add(tuple![2i64, 20i64, 7i64], Value::Int(100));
        assert_eq!(
            m.range_sum(1, &tuple![1i64, 7i64], CmpOp::GtEq, &Value::Int(0))
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            m.range_sum(1, &tuple![2i64, 7i64], CmpOp::Gt, &Value::Int(10))
                .unwrap(),
            Value::Int(100)
        );
        // Absent group: zero, not a fallback.
        assert_eq!(
            m.range_sum(1, &tuple![9i64, 7i64], CmpOp::Gt, &Value::Int(0))
                .unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn ordered_register_is_idempotent_and_backfills() {
        let mut m = MapStorage::new(1);
        for i in 0..10i64 {
            m.add(tuple![i], Value::Int(i));
        }
        m.register_ordered(0);
        m.register_ordered(0);
        assert_eq!(m.index_count(), 1);
        assert_eq!(
            m.range_sum(0, &Tuple::empty(), CmpOp::Gt, &Value::Int(6))
                .unwrap(),
            Value::Int(7 + 8 + 9)
        );
        // Out-of-range position registers nothing.
        m.register_ordered(5);
        assert_eq!(m.index_count(), 1);
    }

    #[test]
    fn mixed_key_classes_decline_to_answer() {
        let mut m = MapStorage::new(1);
        m.register_ordered(0);
        m.add(tuple![1i64], Value::Int(1));
        m.add(Tuple::new(vec![Value::str("zebra")]), Value::Int(2));
        assert_eq!(
            m.range_sum(0, &Tuple::empty(), CmpOp::Gt, &Value::Int(0)),
            None,
            "mixed numeric/string keys cannot binary-search under SQL semantics"
        );
        // The scan fallback still answers exactly.
        assert_eq!(
            m.range_sum_scan(0, &[], &Tuple::empty(), CmpOp::Gt, &Value::Int(0)),
            Value::Int(1)
        );
    }

    #[test]
    fn teardown_to_empty_leaves_exact_float_zero() {
        let mut m = MapStorage::new(1);
        m.register_ordered(0);
        // Values chosen to accumulate ulp residue under naive
        // delta-accumulation: 0.1 has no exact binary representation, so
        // the internal tree nodes see inexact partial sums throughout.
        let vals: Vec<f64> = (1..=100).map(|i| i as f64 * 0.1).collect();
        for (i, v) in vals.iter().enumerate() {
            m.add(tuple![i as i64], Value::Float(*v));
        }
        // Retract in a different order than insertion, heaviest first.
        for (i, v) in vals.iter().enumerate().rev() {
            m.add(tuple![i as i64], Value::Float(-*v));
        }
        assert!(m.is_empty());
        let total = m
            .range_sum(0, &Tuple::empty(), CmpOp::GtEq, &Value::Int(i64::MIN))
            .unwrap();
        assert!(
            matches!(total, Value::Int(0)),
            "full retraction must tear the ordered group down to the exact \
             additive identity, got {total:?}"
        );
    }
}
