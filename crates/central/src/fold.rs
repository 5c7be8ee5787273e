//! Typed column fold kernel for single-input aggregate plans.
//!
//! [`FoldKernel::compile`] turns a plan's group-by keys and aggregate
//! arguments into column readers once, when the executor is built. A slot
//! reference reads its column slice directly; any other expression keeps
//! the generic per-row evaluator (the fallback is per expression, so one
//! computed key does not slow the others down). Per chunk the kernel is
//! bound to the chunk's columns ([`FoldKernel::bind`]), the surviving
//! `(row, window)` pairs are bucketed by `(window, typed key)` in reused
//! scratch ([`FoldScratch::bucket`]), and each bucket costs one group-map
//! lookup ([`fold_into_group`]) plus a fold of its rows in row order.
//!
//! Typed readers reproduce `Value` semantics exactly:
//! - keys: Int/Long/DateTime/Bool and the request-id/timestamp slots read
//!   as `GroupKey::Int`, Float/Double as IEEE bits (`Value::group_key`),
//!   strings as deduplicated dictionary ids mapped to `GroupKey::Str` once
//!   per chunk, validity-bitmap holes as `GroupKey::Null`;
//! - SUM/AVG and the estimator moments read the `Value::as_f64` view;
//! - COUNT(expr) counts the non-null rows;
//! - MIN/MAX/TOP/COUNT_DISTINCT fold the exact `Value` per row.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;

use scrub_core::columnar::{ColumnChunk, ColumnData};
use scrub_core::expr::ResolvedExpr;
use scrub_core::plan::{CentralPlan, OutputMode};
use scrub_core::value::{GroupKey, Value};
use scrub_sketch::Welford;

use crate::agg::AggState;
use crate::executor::GroupState;

/// Fold `rows` rows that share the group key `key` into `groups`, holding
/// the map to at most `cap` groups. Returns the rows dropped by the bound.
///
/// The overflow policy keeps the `cap` *smallest* group keys: a new key
/// larger than the current maximum is rejected outright (all `rows` are
/// dropped), and a new key smaller than the maximum evicts the largest
/// group (every row already folded into it counts as dropped). A key that
/// was rejected or evicted once never re-enters: from then on the map
/// holds `cap` keys smaller than it. So the kept set is the `cap` smallest
/// keys seen, whatever their arrival order, and a key's rank in any
/// subset of the keys is at most its global rank — the kept set and the
/// total dropped-row count are identical whether rows pass through one
/// executor or are split across N partitions and re-capped at the merge.
///
/// An existing group costs one map walk; `new_group` and the key clone
/// run only when a group is created.
pub(crate) fn fold_into_group(
    groups: &mut BTreeMap<Vec<GroupKey>, GroupState>,
    cap: usize,
    key: &[GroupKey],
    rows: u64,
    new_group: impl FnOnce() -> GroupState,
    fold: impl FnOnce(&mut GroupState),
) -> u64 {
    if let Some(g) = groups.get_mut(key) {
        fold(g);
        return 0;
    }
    let mut dropped = 0u64;
    if groups.len() >= cap {
        let new_is_largest = groups
            .last_key_value()
            .map(|(k, _)| k.as_slice() < key)
            .unwrap_or(false);
        if new_is_largest || cap == 0 {
            // the new key ranks past the cap — drop these rows
            return rows;
        }
        // the new key displaces the current largest group
        let (_, evicted) = groups.pop_last().expect("len >= cap >= 1");
        dropped += evicted.rows;
    }
    fold(groups.entry(key.to_vec()).or_insert_with(new_group));
    dropped
}

/// Slot accessor over one chunk of a single-input plan, mirroring the
/// executor's row builder: projected columns first, then the request-id
/// and timestamp slots; out-of-block slots and short chunks (arity below
/// the plan's field count) read Null, extra trailing columns are ignored.
pub(crate) struct ChunkSlots<'c> {
    chunk: &'c ColumnChunk,
    off: usize,
    rid_slot: usize,
}

impl<'c> ChunkSlots<'c> {
    /// Accessor for `chunk` under an input block at `off` with `nfields`
    /// projected fields.
    fn new(chunk: &'c ColumnChunk, off: usize, nfields: usize) -> Self {
        ChunkSlots {
            chunk,
            off,
            rid_slot: off + nfields,
        }
    }

    /// The value of `slot` in row `i`.
    pub(crate) fn fetch(&self, i: usize, slot: usize) -> Cow<'static, Value> {
        Cow::Owned(if slot >= self.off && slot < self.rid_slot {
            match self.chunk.columns.get(slot - self.off) {
                Some(col) => col.value_at(i),
                None => Value::Null,
            }
        } else if slot == self.rid_slot {
            Value::Long(self.chunk.request_ids[i] as i64)
        } else if slot == self.rid_slot + 1 {
            Value::DateTime(self.chunk.timestamps[i])
        } else {
            Value::Null
        })
    }
}

/// Where one key or aggregate argument reads from, fixed at plan time.
#[derive(Debug)]
enum Reader {
    /// Projected column `i` of the input block.
    Column(usize),
    RequestId,
    Timestamp,
    /// A slot outside the input block: always Null.
    Null,
    /// Any other expression: the generic evaluator, row by row.
    Eval(ResolvedExpr),
}

/// A single-input aggregate plan's group-by keys and aggregate arguments,
/// compiled to column readers.
#[derive(Debug)]
pub(crate) struct FoldKernel {
    off: usize,
    nfields: usize,
    keys: Vec<Reader>,
    /// One per aggregate; `None` is COUNT(*).
    args: Vec<Option<Reader>>,
}

impl FoldKernel {
    /// Compile `plan`; `None` for join and stream plans, which take the
    /// row path.
    pub(crate) fn compile(plan: &CentralPlan) -> Option<FoldKernel> {
        let OutputMode::Aggregate {
            group_by,
            aggregates,
            ..
        } = &plan.mode
        else {
            return None;
        };
        if plan.is_join() {
            return None;
        }
        let input = plan.inputs.first()?;
        let (off, nfields) = (input.block_offset, input.fields.len());
        let reader = |e: &ResolvedExpr| match e {
            ResolvedExpr::Input(s) if *s >= off && *s < off + nfields => Reader::Column(s - off),
            ResolvedExpr::Input(s) if *s == off + nfields => Reader::RequestId,
            ResolvedExpr::Input(s) if *s == off + nfields + 1 => Reader::Timestamp,
            ResolvedExpr::Input(_) => Reader::Null,
            other => Reader::Eval(other.clone()),
        };
        Some(FoldKernel {
            off,
            nfields,
            keys: group_by.iter().map(reader).collect(),
            args: aggregates
                .iter()
                .map(|a| a.arg.as_ref().map(reader))
                .collect(),
        })
    }

    /// Bind the readers to one chunk's columns.
    pub(crate) fn bind<'c>(&'c self, chunk: &'c ColumnChunk) -> BoundKernel<'c> {
        let bind = |r: &'c Reader| -> Bound<'c> {
            let (validity, data) = match r {
                Reader::Column(c) => match chunk.columns.get(*c) {
                    Some(col) => (
                        col.validity.as_deref(),
                        match &col.data {
                            ColumnData::Null => Slice::Null,
                            ColumnData::Bool(v) => Slice::Bool(v),
                            ColumnData::Int(v) => Slice::Int(v),
                            ColumnData::Long(v) => Slice::Long(v),
                            ColumnData::Float(v) => Slice::Float(v),
                            ColumnData::Double(v) => Slice::Double(v),
                            ColumnData::DateTime(v) => Slice::DateTime(v),
                            ColumnData::Str { dict, idx } => Slice::Str(dict, idx),
                            ColumnData::Mixed(v) => Slice::Mixed(v),
                        },
                    ),
                    None => (None, Slice::Null),
                },
                Reader::RequestId => (None, Slice::RequestId(&chunk.request_ids)),
                Reader::Timestamp => (None, Slice::DateTime(&chunk.timestamps)),
                Reader::Null => (None, Slice::Null),
                Reader::Eval(e) => (None, Slice::Eval(e)),
            };
            Bound { validity, data }
        };
        BoundKernel {
            slots: ChunkSlots::new(chunk, self.off, self.nfields),
            keys: self.keys.iter().map(|r| KeyPos::new(bind(r))).collect(),
            args: self.args.iter().map(|a| a.as_ref().map(&bind)).collect(),
        }
    }
}

/// A column slice as the kernel reads it.
enum Slice<'c> {
    Null,
    Bool(&'c [bool]),
    Int(&'c [i32]),
    Long(&'c [i64]),
    Float(&'c [f32]),
    Double(&'c [f64]),
    DateTime(&'c [i64]),
    RequestId(&'c [u64]),
    Str(&'c [String], &'c [u32]),
    Mixed(&'c [Value]),
    Eval(&'c ResolvedExpr),
}

/// A reader bound to one chunk: the slice plus its validity bitmap.
struct Bound<'c> {
    validity: Option<&'c [bool]>,
    data: Slice<'c>,
}

impl Bound<'_> {
    fn present(&self, i: usize) -> bool {
        self.validity.is_none_or(|v| v[i])
    }

    /// The exact value at row `i` (what `Column::value_at` returns).
    fn value(&self, i: usize, slots: &ChunkSlots) -> Value {
        if !self.present(i) {
            return Value::Null;
        }
        match self.data {
            Slice::Null => Value::Null,
            Slice::Bool(v) => Value::Bool(v[i]),
            Slice::Int(v) => Value::Int(v[i]),
            Slice::Long(v) => Value::Long(v[i]),
            Slice::Float(v) => Value::Float(v[i]),
            Slice::Double(v) => Value::Double(v[i]),
            Slice::DateTime(v) => Value::DateTime(v[i]),
            Slice::RequestId(v) => Value::Long(v[i] as i64),
            Slice::Str(dict, idx) => Value::Str(dict[idx[i] as usize].clone()),
            Slice::Mixed(v) => v[i].clone(),
            Slice::Eval(e) => e.eval(&|s| slots.fetch(i, s)).into_owned(),
        }
    }

    fn is_null(&self, i: usize, slots: &ChunkSlots) -> bool {
        if !self.present(i) {
            return true;
        }
        match self.data {
            Slice::Null => true,
            Slice::Mixed(v) => v[i].is_null(),
            Slice::Eval(e) => e.eval(&|s| slots.fetch(i, s)).is_null(),
            _ => false,
        }
    }

    /// Call `f` with the `Value::as_f64` view of every row in `rows` that
    /// has one, in order. The type dispatch sits outside the row loop.
    fn for_each_f64(
        &self,
        rows: impl Iterator<Item = usize>,
        slots: &ChunkSlots,
        mut f: impl FnMut(f64),
    ) {
        let valid = self.validity;
        let mut put = |x: Option<f64>| x.into_iter().for_each(&mut f);
        match self.data {
            Slice::Null | Slice::Str(..) => {}
            Slice::Bool(v) => each(
                rows,
                valid,
                v,
                None,
                |x| Some(if x { 1.0 } else { 0.0 }),
                put,
            ),
            Slice::Int(v) => each(rows, valid, v, None, |x| Some(x as f64), put),
            Slice::Long(v) | Slice::DateTime(v) => {
                each(rows, valid, v, None, |x| Some(x as f64), put)
            }
            Slice::Float(v) => each(rows, valid, v, None, |x| Some(x as f64), put),
            Slice::Double(v) => each(rows, valid, v, None, Some, put),
            Slice::RequestId(v) => each(rows, valid, v, None, |x| Some(x as i64 as f64), put),
            Slice::Mixed(_) | Slice::Eval(_) => {
                rows.for_each(|i| put(self.value(i, slots).as_f64()))
            }
        }
    }
}

/// Map every row of `rows` through `conv` over a typed slice (`absent`
/// at validity holes) and hand the results to `put`, in order.
#[inline]
fn each<T: Copy, R: Copy>(
    rows: impl Iterator<Item = usize>,
    validity: Option<&[bool]>,
    v: &[T],
    absent: R,
    conv: impl Fn(T) -> R,
    mut put: impl FnMut(R),
) {
    match validity {
        None => rows.for_each(|i| put(conv(v[i]))),
        Some(valid) => rows.for_each(|i| put(if valid[i] { conv(v[i]) } else { absent })),
    }
}

/// One group-key atom: a `GroupKey` without its heap part. Strings (and
/// the non-scalar keys of computed or mixed columns) are ids into the
/// key position's per-chunk table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Atom {
    Null,
    Int(i64),
    Bits(u64),
    Id(u32),
}

impl Atom {
    fn of(key: &GroupKey, intern: impl FnOnce() -> u32) -> Atom {
        match key {
            GroupKey::Null => Atom::Null,
            GroupKey::Int(v) => Atom::Int(*v),
            GroupKey::Bits(b) => Atom::Bits(*b),
            _ => Atom::Id(intern()),
        }
    }

    fn word(self) -> (u64, u64) {
        match self {
            Atom::Null => (0, 0),
            Atom::Int(v) => (1, v as u64),
            Atom::Bits(b) => (2, b),
            Atom::Id(k) => (3, k as u64),
        }
    }
}

const HASH_K: u64 = 0x517c_c1b7_2722_0a95;

fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(HASH_K)
}

/// One group-by position bound to a chunk, with the per-chunk table that
/// `Atom::Id` indexes: canonical dictionary strings for a string column
/// (a dictionary that repeats a string maps both entries to the first),
/// interned keys for computed and mixed columns.
struct KeyPos<'c> {
    bound: Bound<'c>,
    /// Dictionary index → canonical id (string columns only).
    canon: Vec<u32>,
    /// `Atom::Id` → its `GroupKey`. An entry is lent out (swapped for
    /// `GroupKey::Null`) while a bucket's key is looked up.
    table: Vec<GroupKey>,
    interned: HashMap<GroupKey, u32>,
}

impl<'c> KeyPos<'c> {
    fn new(bound: Bound<'c>) -> Self {
        let mut canon = Vec::new();
        let mut table = Vec::new();
        if let Slice::Str(dict, _) = bound.data {
            let mut first: HashMap<&str, u32> = HashMap::with_capacity(dict.len());
            for s in dict {
                let id = *first.entry(s.as_str()).or_insert_with(|| {
                    table.push(GroupKey::Str(s.clone()));
                    (table.len() - 1) as u32
                });
                canon.push(id);
            }
        }
        KeyPos {
            bound,
            canon,
            table,
            interned: HashMap::new(),
        }
    }

    /// Write the atom of each row in `rows` through `put`, in order.
    fn atoms(
        &mut self,
        rows: impl Iterator<Item = usize>,
        slots: &ChunkSlots,
        put: impl FnMut(Atom),
    ) {
        let b = &self.bound;
        let valid = b.validity;
        let null = Atom::Null;
        match b.data {
            Slice::Null => rows.map(|_| null).for_each(put),
            Slice::Bool(v) => each(rows, valid, v, null, |x| Atom::Int(x as i64), put),
            Slice::Int(v) => each(rows, valid, v, null, |x| Atom::Int(x as i64), put),
            Slice::Long(v) | Slice::DateTime(v) => each(rows, valid, v, null, Atom::Int, put),
            Slice::RequestId(v) => each(rows, valid, v, null, |x| Atom::Int(x as i64), put),
            Slice::Float(v) => each(
                rows,
                valid,
                v,
                null,
                |x| Atom::Bits((x as f64).to_bits()),
                put,
            ),
            Slice::Double(v) => each(rows, valid, v, null, |x| Atom::Bits(x.to_bits()), put),
            Slice::Str(_, idx) => {
                let canon = &self.canon;
                each(rows, valid, idx, null, |x| Atom::Id(canon[x as usize]), put)
            }
            Slice::Mixed(_) | Slice::Eval(_) => {
                let (table, interned) = (&mut self.table, &mut self.interned);
                rows.map(|i| {
                    let key = b.value(i, slots).group_key();
                    Atom::of(&key, || {
                        *interned.entry(key.clone()).or_insert_with(|| {
                            table.push(key.clone());
                            (table.len() - 1) as u32
                        })
                    })
                })
                .for_each(put)
            }
        }
    }

    /// Lend the `GroupKey` of `atom` (its table entry is moved out and
    /// must come back through [`KeyPos::restore`]).
    fn lend(&mut self, atom: Atom) -> GroupKey {
        match atom {
            Atom::Null => GroupKey::Null,
            Atom::Int(v) => GroupKey::Int(v),
            Atom::Bits(b) => GroupKey::Bits(b),
            Atom::Id(k) => std::mem::replace(&mut self.table[k as usize], GroupKey::Null),
        }
    }

    fn restore(&mut self, atom: Atom, key: GroupKey) {
        if let Atom::Id(k) = atom {
            self.table[k as usize] = key;
        }
    }
}

/// The kernel bound to one chunk.
pub(crate) struct BoundKernel<'c> {
    slots: ChunkSlots<'c>,
    keys: Vec<KeyPos<'c>>,
    args: Vec<Option<Bound<'c>>>,
}

impl BoundKernel<'_> {
    /// The slot accessor of the bound chunk (for the residual pass).
    pub(crate) fn slots(&self) -> &ChunkSlots<'_> {
        &self.slots
    }

    /// Number of aggregates.
    pub(crate) fn aggregates(&self) -> usize {
        self.args.len()
    }

    /// Fold rows `0..n` into per-aggregate estimator moments (COUNT(*)
    /// adds 1.0 per row; other aggregates their argument's f64 view).
    pub(crate) fn add_moments(&self, n: usize, moments: &mut [Welford]) {
        for (m, arg) in moments.iter_mut().zip(&self.args) {
            match arg {
                None => (0..n).for_each(|_| m.add(1.0)),
                Some(b) => b.for_each_f64(0..n, &self.slots, |x| m.add(x)),
            }
        }
    }

    /// Fold one bucket into its group: `bucket`'s key is looked up once,
    /// a new group takes its key values from the bucket's first row, and
    /// the rows fold in row order. Returns the rows dropped by `cap`.
    pub(crate) fn fold_bucket(
        &mut self,
        scratch: &mut FoldScratch,
        bucket: usize,
        groups: &mut BTreeMap<Vec<GroupKey>, GroupState>,
        cap: usize,
        new_aggs: impl FnOnce() -> Vec<AggState>,
    ) -> u64 {
        let g = self.keys.len();
        let FoldScratch {
            bucket_atoms,
            start,
            members,
            key,
            ..
        } = scratch;
        let atoms = &bucket_atoms[bucket * g..(bucket + 1) * g];
        let rows = &members[start[bucket] as usize..start[bucket + 1] as usize];
        key.clear();
        for (kp, &a) in self.keys.iter_mut().zip(atoms) {
            key.push(kp.lend(a));
        }
        let (keys, args, slots) = (&self.keys, &self.args, &self.slots);
        let dropped = fold_into_group(
            groups,
            cap,
            key.as_slice(),
            rows.len() as u64,
            || GroupState {
                keys: keys
                    .iter()
                    .map(|kp| kp.bound.value(rows[0] as usize, slots))
                    .collect(),
                aggs: new_aggs(),
                rows: 0,
            },
            |group| fold_rows(group, rows, args, slots),
        );
        for ((kp, &a), k) in self.keys.iter_mut().zip(atoms).zip(key.drain(..)) {
            kp.restore(a, k);
        }
        dropped
    }
}

/// Fold `rows` (chunk row indices, ascending) into one group.
fn fold_rows(group: &mut GroupState, rows: &[u32], args: &[Option<Bound>], slots: &ChunkSlots) {
    let n = rows.len() as u64;
    group.rows += n;
    let each = || rows.iter().map(|&r| r as usize);
    for (state, arg) in group.aggs.iter_mut().zip(args) {
        match (state, arg) {
            (AggState::Count(c), None) => *c += n,
            (AggState::Count(c), Some(b)) => {
                *c += each().filter(|&i| !b.is_null(i, slots)).count() as u64
            }
            (AggState::Sum { sum, any }, Some(b)) => b.for_each_f64(each(), slots, |x| {
                *sum += x;
                *any = true;
            }),
            (AggState::Avg(w), Some(b)) => b.for_each_f64(each(), slots, |x| w.add(x)),
            (state, Some(b)) => {
                for i in each() {
                    state.update(Some(&b.value(i, slots)));
                }
            }
            (state, None) => each().for_each(|_| state.update(None)),
        }
    }
}

/// Reused per-executor buffers of the column path's selection and
/// bucketing passes.
#[derive(Debug)]
pub(crate) struct FoldScratch {
    /// Covering window starts of the surviving rows, back to back.
    pub(crate) wins: Vec<i64>,
    /// Surviving rows: `(row, lo, hi)`, row `row` covers `wins[lo..hi]`.
    pub(crate) sel: Vec<(u32, u32, u32)>,
    /// Per selected row: its key atoms (stride = number of keys).
    row_atoms: Vec<Atom>,
    /// Open-addressing table of bucket ids + 1 (0 = empty), sized per
    /// chunk at twice its pair count.
    table: Vec<u32>,
    /// Random per-executor hash seed. Keys are application data, so a
    /// fixed hash would let crafted keys collide; bucket numbering is by
    /// first appearance, so the seed never changes a result.
    seed: u64,
    /// Per bucket: window start and key atoms.
    bucket_windows: Vec<i64>,
    bucket_atoms: Vec<Atom>,
    /// Per `(row, window)` pair, in pair order: its bucket and row.
    pair_bucket: Vec<u32>,
    pair_row: Vec<u32>,
    /// Bucket `b`'s rows are `members[start[b]..start[b + 1]]`.
    start: Vec<u32>,
    members: Vec<u32>,
    cursor: Vec<u32>,
    /// The group key being looked up.
    key: Vec<GroupKey>,
}

impl Default for FoldScratch {
    fn default() -> Self {
        FoldScratch {
            wins: Vec::new(),
            sel: Vec::new(),
            row_atoms: Vec::new(),
            table: Vec::new(),
            seed: RandomState::new().hash_one(0u8),
            bucket_windows: Vec::new(),
            bucket_atoms: Vec::new(),
            pair_bucket: Vec::new(),
            pair_row: Vec::new(),
            start: Vec::new(),
            members: Vec::new(),
            cursor: Vec::new(),
            key: Vec::new(),
        }
    }
}

impl FoldScratch {
    /// Bucket the surviving rows (`sel`/`wins`) by `(window, key)`.
    /// Buckets are numbered in first-appearance order; each bucket's rows
    /// stay in row order. Returns the number of buckets.
    pub(crate) fn bucket(&mut self, kernel: &mut BoundKernel) -> usize {
        let (sel, wins) = (&self.sel, &self.wins);
        let g = kernel.keys.len();
        self.row_atoms.clear();
        self.row_atoms.resize(sel.len() * g, Atom::Null);
        for (p, kp) in kernel.keys.iter_mut().enumerate() {
            let mut out = self.row_atoms.iter_mut().skip(p).step_by(g);
            kp.atoms(sel.iter().map(|s| s.0 as usize), &kernel.slots, |a| {
                *out.next().expect("one atom per row") = a
            });
        }

        let pairs: usize = sel.iter().map(|&(_, lo, hi)| (hi - lo) as usize).sum();
        let bits = (pairs.max(8) * 2).next_power_of_two().trailing_zeros();
        self.table.clear();
        self.table.resize(1 << bits, 0);
        self.bucket_windows.clear();
        self.bucket_atoms.clear();
        self.pair_bucket.clear();
        self.pair_row.clear();
        for (r, &(row, lo, hi)) in sel.iter().enumerate() {
            let atoms = &self.row_atoms[r * g..(r + 1) * g];
            let h0 = atoms.iter().fold(self.seed, |h, a| {
                let (tag, x) = a.word();
                mix(mix(h, tag), x)
            });
            for &w in &wins[lo as usize..hi as usize] {
                let mut slot = (mix(h0, w as u64) >> (64 - bits)) as usize;
                let b = loop {
                    let e = self.table[slot];
                    if e == 0 {
                        let b = self.bucket_windows.len() as u32;
                        self.table[slot] = b + 1;
                        self.bucket_windows.push(w);
                        self.bucket_atoms.extend_from_slice(atoms);
                        break b;
                    }
                    let b = (e - 1) as usize;
                    if self.bucket_windows[b] == w
                        && self.bucket_atoms[b * g..(b + 1) * g] == *atoms
                    {
                        break b as u32;
                    }
                    slot = (slot + 1) & ((1 << bits) - 1);
                };
                self.pair_bucket.push(b);
                self.pair_row.push(row);
            }
        }

        // counting sort of the pairs by bucket (stable: row order holds)
        let nb = self.bucket_windows.len();
        self.start.clear();
        self.start.resize(nb + 1, 0);
        for &b in &self.pair_bucket {
            self.start[b as usize + 1] += 1;
        }
        for b in 0..nb {
            self.start[b + 1] += self.start[b];
        }
        self.members.clear();
        self.members.resize(self.pair_row.len(), 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.start[..nb]);
        for (&b, &row) in self.pair_bucket.iter().zip(&self.pair_row) {
            let c = &mut self.cursor[b as usize];
            self.members[*c as usize] = row;
            *c += 1;
        }
        nb
    }

    /// Window start of bucket `b`.
    pub(crate) fn window(&self, b: usize) -> i64 {
        self.bucket_windows[b]
    }
}
