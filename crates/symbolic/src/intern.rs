//! Hash-consed symbol, monomial, and polynomial tables behind the optimized
//! [`crate::Poly`].
//!
//! Every distinct monomial is interned exactly once and identified by a
//! [`MonoId`]; id equality is structural equality, so polynomial arithmetic
//! reduces to merging sorted `u32` runs instead of cloning and re-comparing
//! `Vec<(Symbol, i32)>` factor lists. A second table does the same for whole
//! canonical polynomials: a [`PolyId`] names one id-sorted term vector, so
//! the algebra memos (`pow`, `subst`, products, summations) key on packed
//! integer ids instead of hashing and cloning entire `Poly` values.
//!
//! # Concurrency architecture (sharded, lock-free reads)
//!
//! The single process-wide `RwLock` this design replaces serialized every
//! batch-prediction worker on one lock and copied whole table tails into
//! per-thread mirrors under it. The tables are now **sharded and
//! append-only**:
//!
//! - Each table (symbols, monomials, polynomials) is split into
//!   [`NUM_SHARDS`] shards selected by content hash. An id packs its
//!   coordinates as `(index << SHARD_BITS) | shard`, so ids stay `u32`,
//!   [`MONO_ONE`] stays `0` (shard 0, slot 0 is pre-seeded with the
//!   constant monomial), and [`POLY_UNINTERNED`] (`u32::MAX`) can never
//!   collide with a real id (per-shard poly capacity keeps indices far
//!   below the packing limit).
//! - **Interning** (key → id) takes exactly one shard mutex for one
//!   hash-map probe and, on a miss, one append. Distinct shapes hash to
//!   distinct shards, so concurrent workers interning different content
//!   almost never touch the same lock. A thread-local key → id cache in
//!   front makes repeat interning from the same thread lock-free.
//! - **Resolving** (id → entry) never locks: each shard stores entries in
//!   a [`SlotArena`] — a bucketed, append-only slot array whose buckets
//!   are published with release stores and whose length is the
//!   release/acquire fence. Readers index straight into shared memory.
//!
//! # Lifecycle: immortal monomials, epoch-confined polynomials
//!
//! Symbol and monomial entries leak their canonical data (`&'static
//! Monomial`, `&'static` factor lists) so every thread reads the same
//! storage without ownership gymnastics. That leak is deliberate and
//! bounded: [`crate::Poly`] values embed `MonoId`s and outlive any job,
//! so those two tables must stay append-only forever, and their growth is
//! limited by the number of distinct variable names × exponent shapes
//! ever seen — structurally tiny.
//!
//! Polynomial entries are different: a `PolyId` only ever lives in memo
//! keys/values and in-flight computation (never inside a `Poly`), so the
//! poly shards participate in [`crate::epoch`]-based reclamation instead
//! of leaking. Every entry carries the *generation* (epoch) in which it
//! was last interned or re-interned; [`reclaim_polys`] — called from
//! `epoch::advance` after every `PolyId`-bearing L2 memo has been
//! cleared — frees the term slices of entries retired by every active
//! pin and recycles their slots through a per-shard free list. Slot reuse
//! means a numeric id can name different content across generations;
//! that is sound because the epoch protocol guarantees no retired id
//! survives anywhere reachable (L2s cleared on advance, thread-local L1s
//! epoch-stamped, stack-held ids covered by their thread's pin).
//!
//! Each poly shard additionally caps its *live* entry count at
//! [`POLY_ARENA_CAP`]`/`[`NUM_SHARDS`]; past the cap [`intern_poly`]
//! reports [`POLY_UNINTERNED`] for shapes hashing into that shard and
//! callers fall back to direct (unmemoized) computation until the next
//! epoch advance frees room. A pathological workload fills shards
//! independently instead of stalling every worker on one global
//! eviction.

use crate::monomial::Monomial;
use crate::symbol::Symbol;
use crate::Rational;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Interned symbol id: packed `(index, shard)` into the symbol table.
pub(crate) type SymId = u32;
/// Interned monomial id: packed `(index, shard)` into the monomial table.
pub(crate) type MonoId = u32;

/// Interned polynomial id: packed `(index, shard)` into the polynomial table.
pub(crate) type PolyId = u32;

/// Shard-count exponent: ids reserve this many low bits for the shard.
const SHARD_BITS: u32 = 4;

/// Number of independent shards per table. Shard selection is by content
/// hash, so concurrent interning of distinct shapes spreads evenly.
pub(crate) const NUM_SHARDS: usize = 1 << SHARD_BITS;

/// The constant monomial `1` is always id 0 (shard 0, slot 0 — pre-seeded
/// at table construction), so a polynomial's constant term (if present) is
/// always the first element of its id-sorted term list.
pub(crate) const MONO_ONE: MonoId = 0;

/// Sentinel returned by [`intern_poly`] once the target shard is full: the
/// polynomial is *not* interned and the caller must compute unmemoized.
/// Never a valid table index (see [`POLY_SHARD_CAP`]).
pub(crate) const POLY_UNINTERNED: PolyId = u32::MAX;

/// Hard cap on distinct interned polynomials across all shards. Entries
/// leak (by design — ids must stay valid forever), so a pathological
/// workload producing unboundedly many distinct polynomials must not grow
/// the arena without limit; past the cap the algebra simply stops
/// memoizing new shapes.
pub(crate) const POLY_ARENA_CAP: usize = 1 << 20;

/// Per-shard polynomial capacity. Indices therefore stay at most 16 bits,
/// so a packed poly id can never reach [`POLY_UNINTERNED`].
const POLY_SHARD_CAP: usize = POLY_ARENA_CAP / NUM_SHARDS;

/// Test-only override of the per-shard poly cap (`0` = use the default).
/// Lives behind a runtime atomic because `cfg(test)` does not cross crate
/// boundaries and the cap-pressure tests drive shards past capacity.
static POLY_SHARD_CAP_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn poly_shard_cap() -> usize {
    match POLY_SHARD_CAP_OVERRIDE.load(Ordering::Relaxed) {
        0 => POLY_SHARD_CAP,
        n => n,
    }
}

/// Overrides the per-shard live-entry cap of the polynomial arena.
/// Test hook only — pass `0` to restore the default.
#[doc(hidden)]
pub fn set_poly_shard_cap_for_tests(cap: usize) {
    POLY_SHARD_CAP_OVERRIDE.store(cap, Ordering::Relaxed);
}

/// Generation stamp of a vacant (reclaimed, not yet reused) poly slot.
const VACANT_GEN: u64 = u64::MAX;

/// Cumulative count of polynomial entries reclaimed by [`reclaim_polys`].
static POLYS_RECLAIMED: AtomicUsize = AtomicUsize::new(0);

/// Thread-local key→id caches and op memos clear (not evict) past this
/// size; the workloads here never approach it, it only guards against
/// pathological inputs.
const CACHE_CAP: usize = 1 << 14;

#[inline]
fn shard_of(id: u32) -> usize {
    (id & (NUM_SHARDS as u32 - 1)) as usize
}

#[inline]
fn index_of(id: u32) -> u32 {
    id >> SHARD_BITS
}

#[inline]
fn pack_id(shard: usize, index: u32) -> u32 {
    debug_assert!(index <= u32::MAX >> SHARD_BITS);
    (index << SHARD_BITS) | shard as u32
}

/// Packed factor list: `(SymId, exponent)` pairs sorted by `SymId`, with
/// inline storage for the ≤2-variable case.
#[derive(Clone, Copy)]
pub(crate) enum Factors {
    /// Up to two factors stored in the entry itself.
    Inline { len: u8, fac: [(SymId, i32); 2] },
    /// Larger factor lists, interned once and leaked.
    Spill(&'static [(SymId, i32)]),
}

impl Factors {
    pub(crate) fn as_slice(&self) -> &[(SymId, i32)] {
        match self {
            Factors::Inline { len, fac } => &fac[..*len as usize],
            Factors::Spill(s) => s,
        }
    }

    fn from_slice(fs: &[(SymId, i32)]) -> Factors {
        if fs.len() <= 2 {
            let mut fac = [(0, 0); 2];
            fac[..fs.len()].copy_from_slice(fs);
            Factors::Inline {
                len: fs.len() as u8,
                fac,
            }
        } else {
            Factors::Spill(Box::leak(fs.to_vec().into_boxed_slice()))
        }
    }
}

/// One monomial-table entry. `Copy` so slot reads hand out the leaked data.
#[derive(Clone, Copy)]
pub(crate) struct MonoEntry {
    /// The canonical (name-sorted) monomial, leaked for `&'static` access.
    pub(crate) mono: &'static Monomial,
    /// Id-sorted factor list used by the arithmetic fast paths.
    pub(crate) factors: Factors,
    /// Laurent total degree (sum of exponents).
    pub(crate) degree: i32,
    /// Whether any exponent is negative.
    pub(crate) has_neg: bool,
}

/// One polynomial-table entry: the canonical id-sorted term slice, leaked
/// so every thread shares the same storage.
type PolyTerms = &'static [(MonoId, Rational)];

// ---- lock-free slot storage -------------------------------------------------

/// Capacity of bucket 0; bucket `k` holds `FIRST_BUCKET << k` slots.
const FIRST_BUCKET: usize = 32;
/// Bucket count: cumulative capacity `FIRST_BUCKET * (2^BUCKETS - 1)`
/// comfortably exceeds the `u32 >> SHARD_BITS` index space.
const BUCKETS: usize = 24;

/// Append-only slot array with lock-free reads.
///
/// Slots live in geometrically growing buckets behind atomic pointers.
/// Appends happen under the owning shard's mutex (single writer at a
/// time); the published `len` is the release/acquire fence that makes a
/// slot's contents — and its bucket pointer — visible to every reader
/// that observes an index below it.
struct SlotArena<T> {
    len: AtomicU32,
    buckets: [AtomicPtr<T>; BUCKETS],
}

impl<T: Copy> SlotArena<T> {
    fn new() -> SlotArena<T> {
        SlotArena {
            len: AtomicU32::new(0),
            buckets: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// `(bucket, offset)` coordinates of slot `idx`.
    #[inline]
    fn locate(idx: u32) -> (usize, usize) {
        let n = idx as usize / FIRST_BUCKET + 1;
        let k = (usize::BITS - 1 - n.leading_zeros()) as usize;
        let start = FIRST_BUCKET * ((1usize << k) - 1);
        (k, idx as usize - start)
    }

    /// Published slot count (acquire: pairs with the release in `push`).
    #[inline]
    fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }

    /// Reads slot `idx`. Caller must have observed `idx < self.len()`.
    #[inline]
    fn get(&self, idx: u32) -> T {
        let (k, off) = Self::locate(idx);
        let ptr = self.buckets[k].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null(), "slot read below published len");
        // SAFETY: `idx < len` was observed with acquire ordering, and the
        // writer stored `len` with release ordering *after* writing this
        // slot and publishing its bucket, so both are visible here. Slots
        // are never mutated after publication (append-only).
        unsafe { *ptr.add(off) }
    }

    /// Appends `value`, returning its index. Must be called while holding
    /// the owning shard's mutex — that exclusivity is what makes the
    /// relaxed `len` read and the raw slot write sound.
    fn push(&self, value: T) -> u32 {
        let idx = self.len.load(Ordering::Relaxed);
        assert!(
            (idx as usize) < FIRST_BUCKET * ((1usize << BUCKETS) - 1),
            "intern arena shard exhausted its slot space"
        );
        let (k, off) = Self::locate(idx);
        let mut ptr = self.buckets[k].load(Ordering::Relaxed);
        if ptr.is_null() {
            let cap = FIRST_BUCKET << k;
            let storage: Box<[MaybeUninit<T>]> = Box::new_uninit_slice(cap);
            ptr = Box::leak(storage).as_mut_ptr() as *mut T;
            // Release so a reader that follows the pointer (after seeing
            // a published len) also sees initialized bucket memory.
            self.buckets[k].store(ptr, Ordering::Release);
        }
        // SAFETY: `off < cap` by construction; this writer is the only
        // one appending (shard mutex held) and `idx >= len` means no
        // reader may touch the slot yet.
        unsafe { ptr.add(off).write(value) };
        self.len.store(idx + 1, Ordering::Release);
        idx
    }

    /// Overwrites an existing slot (free-list reuse). Must be called while
    /// holding the owning shard's mutex with `idx < len`.
    ///
    /// Unlike `push` there is no length fence to publish the write; the
    /// caller's epoch protocol must guarantee that (a) no thread still
    /// holds an id naming the slot's previous occupant, and (b) the new id
    /// reaches readers only through a synchronizing handoff (the shard
    /// mutex, an L2 memo mutex, a scoped-thread join) that happens-after
    /// this write.
    fn replace(&self, idx: u32, value: T) {
        debug_assert!(idx < self.len.load(Ordering::Relaxed));
        let (k, off) = Self::locate(idx);
        let ptr = self.buckets[k].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null());
        // SAFETY: `idx < len` so the bucket is allocated and the slot in
        // bounds; exclusivity and reader visibility per the doc contract.
        unsafe { ptr.add(off).write(value) };
    }
}

// ---- sharded tables ---------------------------------------------------------

/// One shard of one table: the key → id map (guarding appends) plus the
/// lock-free slot storage resolved ids read from.
struct ShardTab<K, T> {
    /// Maps interned content to its packed id. The mutex also serializes
    /// appends to `slots`; critical sections are one probe or one probe
    /// plus one append.
    map: Mutex<HashMap<K, u32>>,
    slots: SlotArena<T>,
}

impl<K: Hash + Eq, T: Copy> ShardTab<K, T> {
    fn new() -> ShardTab<K, T> {
        ShardTab {
            map: Mutex::new(HashMap::new()),
            slots: SlotArena::new(),
        }
    }

    /// Resolves `id` to its entry, lock-free in the steady state.
    ///
    /// An id always originates from an intern call whose effects reach
    /// other threads through some synchronizing handoff (scoped-thread
    /// join, shared-cache mutex, …), so the published length normally
    /// covers it already. If it does not — an id raced ahead of any such
    /// handoff — taking the shard mutex synchronizes with the writer that
    /// produced the id, after which the length must cover it.
    fn entry(&self, idx: u32) -> T {
        if idx < self.slots.len() {
            return self.slots.get(idx);
        }
        drop(self.map.lock().unwrap_or_else(|e| e.into_inner()));
        assert!(
            idx < self.slots.len(),
            "interned id {idx} beyond published table length"
        );
        self.slots.get(idx)
    }
}

/// Book-keeping for one polynomial shard, all guarded by one mutex:
/// content → id map (live entries only), per-slot generation stamps
/// ([`VACANT_GEN`] marks reclaimed slots), and the free list of
/// recyclable slot indices.
#[derive(Default)]
struct PolyState {
    map: HashMap<Box<[(MonoId, Rational)]>, u32>,
    gens: Vec<u64>,
    free: Vec<u32>,
}

/// One polynomial shard: locked state plus the lock-free slot storage
/// resolved ids read from. Unlike [`ShardTab`], slots here are *recycled*
/// across epochs (see the module docs for why that is sound).
struct PolyShard {
    state: Mutex<PolyState>,
    slots: SlotArena<PolyTerms>,
}

impl PolyShard {
    fn new() -> PolyShard {
        PolyShard {
            state: Mutex::new(PolyState::default()),
            slots: SlotArena::new(),
        }
    }

    /// Resolves a slot index to its term slice; same synchronization
    /// contract as [`ShardTab::entry`].
    fn entry(&self, idx: u32) -> PolyTerms {
        if idx < self.slots.len() {
            return self.slots.get(idx);
        }
        drop(self.state.lock().unwrap_or_else(|e| e.into_inner()));
        assert!(
            idx < self.slots.len(),
            "interned poly id {idx} beyond published table length"
        );
        self.slots.get(idx)
    }
}

/// Canonical monomial content: sorted `(symbol id, exponent)` pairs.
type MonoKey = Box<[(SymId, i32)]>;

struct Tables {
    syms: [ShardTab<Symbol, &'static Symbol>; NUM_SHARDS],
    monos: [ShardTab<MonoKey, MonoEntry>; NUM_SHARDS],
    polys: [PolyShard; NUM_SHARDS],
    /// Shard selector; per-process random keys are fine — ids are
    /// process-local — and hardened against adversarial shard pile-up.
    hasher: RandomState,
}

impl Tables {
    fn new() -> Tables {
        let t = Tables {
            syms: std::array::from_fn(|_| ShardTab::new()),
            monos: std::array::from_fn(|_| ShardTab::new()),
            polys: std::array::from_fn(|_| PolyShard::new()),
            hasher: RandomState::new(),
        };
        // Pre-seed MONO_ONE at shard 0, slot 0: the empty factor list is
        // special-cased before hashing, so no other shard can alias it.
        let one: &'static Monomial = Box::leak(Box::new(Monomial::one()));
        let entry = MonoEntry {
            mono: one,
            factors: Factors::from_slice(&[]),
            degree: 0,
            has_neg: false,
        };
        let shard = &t.monos[0];
        let guard = shard.map.lock().unwrap_or_else(|e| e.into_inner());
        let idx = shard.slots.push(entry);
        debug_assert_eq!(pack_id(0, idx), MONO_ONE);
        drop(guard);
        t
    }

    #[inline]
    fn shard_for<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        self.hasher.hash_one(key) as usize & (NUM_SHARDS - 1)
    }
}

static TABLES: OnceLock<Tables> = OnceLock::new();

fn tables() -> &'static Tables {
    TABLES.get_or_init(Tables::new)
}

// ---- thread-local L1 --------------------------------------------------------

/// Per-thread key → id caches (so repeat interning never locks) and op
/// memos (monomial products, `split_symbol` results), plus a
/// scratch-buffer pool for merge-based polynomial ops. All maps
/// clear-on-cap at [`CACHE_CAP`] independently.
#[derive(Default)]
struct Local {
    sym_ids: HashMap<Symbol, SymId>,
    mono_ids: HashMap<MonoKey, MonoId>,
    poly_ids: HashMap<Box<[(MonoId, Rational)]>, PolyId>,
    /// Pin epoch `poly_ids` was last validated at: poly ids are
    /// epoch-confined, so the L1 self-clears on the first intern under a
    /// newer pin (before any stale id could be returned).
    poly_epoch: u64,
    mul_cache: HashMap<(MonoId, MonoId), MonoId>,
    split_cache: HashMap<(MonoId, SymId), (i32, MonoId)>,
    scratch: Vec<Vec<(MonoId, Rational)>>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn cache_insert<K: Hash + Eq, V>(cache: &mut HashMap<K, V>, key: K, value: V) {
    if cache.len() >= CACHE_CAP {
        cache.clear();
    }
    cache.insert(key, value);
}

// ---- interning --------------------------------------------------------------

fn sym_id_in(l: &mut Local, sym: &Symbol) -> SymId {
    if let Some(&id) = l.sym_ids.get(sym) {
        return id;
    }
    let t = tables();
    let shard_no = t.shard_for(sym.name());
    let shard = &t.syms[shard_no];
    let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
    let id = match map.get(sym) {
        Some(&id) => id,
        None => {
            let leaked: &'static Symbol = Box::leak(Box::new(sym.clone()));
            let idx = shard.slots.push(leaked);
            let id = pack_id(shard_no, idx);
            map.insert(sym.clone(), id);
            id
        }
    };
    drop(map);
    cache_insert(&mut l.sym_ids, sym.clone(), id);
    id
}

/// Interns an id-sorted, zero-free factor list.
fn intern_factors_in(l: &mut Local, fs: &[(SymId, i32)]) -> MonoId {
    if fs.is_empty() {
        return MONO_ONE;
    }
    if let Some(&id) = l.mono_ids.get(fs) {
        return id;
    }
    let t = tables();
    let shard_no = t.shard_for(fs);
    let shard = &t.monos[shard_no];
    let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
    let id = match map.get(fs) {
        Some(&id) => id,
        None => {
            // Resolving sym ids here is lock-free, so building the
            // canonical Monomial holds only this shard's mutex.
            let pairs: Vec<(Symbol, i32)> = fs
                .iter()
                .map(|&(sid, exp)| (sym(sid).clone(), exp))
                .collect();
            let mono: &'static Monomial = Box::leak(Box::new(Monomial::from_pairs(pairs)));
            let entry = MonoEntry {
                mono,
                factors: Factors::from_slice(fs),
                degree: fs.iter().map(|&(_, e)| e).sum(),
                has_neg: fs.iter().any(|&(_, e)| e < 0),
            };
            let idx = shard.slots.push(entry);
            let id = pack_id(shard_no, idx);
            map.insert(fs.to_vec().into_boxed_slice(), id);
            id
        }
    };
    drop(map);
    cache_insert(&mut l.mono_ids, fs.to_vec().into_boxed_slice(), id);
    id
}

/// Interns a canonical (id-sorted, zero-free) polynomial term slice.
/// Returns [`POLY_UNINTERNED`] once the target shard holds its share of
/// [`POLY_ARENA_CAP`] *live* polynomials; callers must then skip
/// memoization for this shape until an epoch advance frees room.
///
/// `pin_epoch` is the calling thread's validated pin: it gates the L1
/// cache (cleared on the first call under a newer pin) and lower-bounds
/// the generation stamp written to the arena.
fn intern_poly_in(l: &mut Local, terms: &[(MonoId, Rational)], pin_epoch: u64) -> PolyId {
    if l.poly_epoch != pin_epoch {
        l.poly_ids.clear();
        l.poly_epoch = pin_epoch;
    }
    if let Some(&id) = l.poly_ids.get(terms) {
        return id;
    }
    let t = tables();
    let shard_no = t.shard_for(terms);
    let shard = &t.polys[shard_no];
    let mut st = shard.state.lock().unwrap_or_else(|e| e.into_inner());
    let id = match st.map.get(terms) {
        Some(&id) => {
            // Re-stamp on hit so shapes in active use survive the next
            // advance. `current()` cannot lag the pin (same-thread
            // coherence after the pin's SeqCst load), so the stamp never
            // moves backwards past the reclaim bound.
            let slot = index_of(id) as usize;
            let gen = crate::epoch::current().max(pin_epoch);
            st.gens[slot] = st.gens[slot].max(gen);
            id
        }
        None => {
            if st.map.len() >= poly_shard_cap() {
                return POLY_UNINTERNED;
            }
            let leaked: PolyTerms = Box::leak(terms.to_vec().into_boxed_slice());
            let gen = crate::epoch::current().max(pin_epoch);
            let idx = match st.free.pop() {
                Some(idx) => {
                    // Recycle a reclaimed slot: sound because no thread
                    // can still hold the retired id (see module docs).
                    shard.slots.replace(idx, leaked);
                    st.gens[idx as usize] = gen;
                    idx
                }
                None => {
                    let idx = shard.slots.push(leaked);
                    debug_assert_eq!(st.gens.len(), idx as usize);
                    st.gens.push(gen);
                    idx
                }
            };
            let id = pack_id(shard_no, idx);
            st.map.insert(terms.to_vec().into_boxed_slice(), id);
            id
        }
    };
    drop(st);
    cache_insert(&mut l.poly_ids, terms.to_vec().into_boxed_slice(), id);
    id
}

/// Frees polynomial-arena entries whose generation is strictly below
/// `retire_before`, recycling their slots. Called only from
/// [`crate::epoch::advance`], *after* every `PolyId`-bearing L2 memo has
/// been cleared — that ordering (plus epoch-stamped L1s and active-pin
/// accounting in the bound) is what makes freeing the leaked term slices
/// sound. Returns the number of entries freed.
pub(crate) fn reclaim_polys(retire_before: u64) -> usize {
    if retire_before == 0 {
        return 0;
    }
    let t = tables();
    let mut freed = 0usize;
    for shard in &t.polys {
        let mut st = shard.state.lock().unwrap_or_else(|e| e.into_inner());
        let PolyState { map, gens, free } = &mut *st;
        let slots = &shard.slots;
        map.retain(|_, id| {
            let idx = index_of(*id);
            if gens[idx as usize] >= retire_before {
                return true;
            }
            let terms = slots.get(idx);
            // SAFETY: the slice was created by `Box::leak` in
            // `intern_poly_in` with exactly this pointer and length, and
            // the epoch protocol guarantees no thread can reach it again
            // through this (now retired) id.
            unsafe {
                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                    terms.as_ptr() as *mut (MonoId, Rational),
                    terms.len(),
                )));
            }
            gens[idx as usize] = VACANT_GEN;
            free.push(idx);
            freed += 1;
            false
        });
    }
    POLYS_RECLAIMED.fetch_add(freed, Ordering::Relaxed);
    freed
}

/// Whether `id` currently names a live (non-reclaimed) arena entry.
/// Test hook for the reclamation and fallback-key suites.
#[doc(hidden)]
pub fn poly_id_is_live(id: u32) -> bool {
    if id == POLY_UNINTERNED {
        return false;
    }
    let st = tables().polys[shard_of(id)]
        .state
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let idx = index_of(id) as usize;
    idx < st.gens.len() && st.gens[idx] != VACANT_GEN
}

// ---- monomial algebra (thread-local memos over lock-free reads) -------------

fn mono_mul_in(l: &mut Local, a: MonoId, b: MonoId) -> MonoId {
    if a == MONO_ONE {
        return b;
    }
    if b == MONO_ONE {
        return a;
    }
    if let Some(&id) = l.mul_cache.get(&(a, b)) {
        return id;
    }
    let fa = mono_entry(a).factors;
    let fb = mono_entry(b).factors;
    let (sa, sb) = (fa.as_slice(), fb.as_slice());
    let mut out: Vec<(SymId, i32)> = Vec::with_capacity(sa.len() + sb.len());
    let (mut i, mut j) = (0, 0);
    while i < sa.len() && j < sb.len() {
        match sa[i].0.cmp(&sb[j].0) {
            std::cmp::Ordering::Less => {
                out.push(sa[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(sb[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let e = sa[i].1 + sb[j].1;
                if e != 0 {
                    out.push((sa[i].0, e));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&sa[i..]);
    out.extend_from_slice(&sb[j..]);
    let id = intern_factors_in(l, &out);
    cache_insert(&mut l.mul_cache, (a, b), id);
    id
}

fn mono_split_in(l: &mut Local, id: MonoId, sid: SymId) -> (i32, MonoId) {
    if id == MONO_ONE {
        return (0, MONO_ONE);
    }
    if let Some(&r) = l.split_cache.get(&(id, sid)) {
        return r;
    }
    let factors = mono_entry(id).factors;
    let fs = factors.as_slice();
    let r = match fs.iter().position(|&(s, _)| s == sid) {
        None => (0, id),
        Some(pos) => {
            let exp = fs[pos].1;
            let mut rest: Vec<(SymId, i32)> = Vec::with_capacity(fs.len() - 1);
            rest.extend_from_slice(&fs[..pos]);
            rest.extend_from_slice(&fs[pos + 1..]);
            (exp, intern_factors_in(l, &rest))
        }
    };
    cache_insert(&mut l.split_cache, (id, sid), r);
    r
}

// ---- public (crate) surface -------------------------------------------------

/// Interns a canonical polynomial term slice; see [`intern_poly_in`].
///
/// Pins the calling thread for the duration of the intern. Callers that
/// go on to *use* the returned id (resolve it, key a memo with it) must
/// hold their own covering pin — the id is only guaranteed live while a
/// pin taken at or before acquisition is held.
pub(crate) fn intern_poly(terms: &[(MonoId, Rational)]) -> PolyId {
    let guard = crate::epoch::pin();
    LOCAL.with(|l| intern_poly_in(&mut l.borrow_mut(), terms, guard.epoch()))
}

/// The canonical term slice for an interned polynomial id (lock-free).
pub(crate) fn poly_terms(id: PolyId) -> PolyTerms {
    debug_assert_ne!(id, POLY_UNINTERNED);
    tables().polys[shard_of(id)].entry(index_of(id))
}

pub(crate) fn sym_id(sym: &Symbol) -> SymId {
    LOCAL.with(|l| sym_id_in(&mut l.borrow_mut(), sym))
}

/// The canonical interned symbol for `id` (lock-free).
fn sym(id: SymId) -> &'static Symbol {
    tables().syms[shard_of(id)].entry(index_of(id))
}

/// The canonical shared [`Symbol`] for `name`, interning it on first use —
/// the allocation-free path behind [`Symbol::interned`].
pub(crate) fn symbol_named(name: &str) -> Symbol {
    LOCAL.with(|l| {
        let l = &mut *l.borrow_mut();
        if let Some((sym, _)) = l.sym_ids.get_key_value(name) {
            return sym.clone();
        }
        let sym = Symbol::new(name);
        let id = sym_id_in(l, &sym);
        // Hand back the canonical leaked Arc so clones share storage.
        self::sym(id).clone()
    })
}

/// The canonical interned monomial for `id` (lock-free).
pub(crate) fn mono(id: MonoId) -> &'static Monomial {
    mono_entry(id).mono
}

/// A copy of the full table entry (factors, degree, negativity flag) —
/// lock-free.
pub(crate) fn mono_entry(id: MonoId) -> MonoEntry {
    tables().monos[shard_of(id)].entry(index_of(id))
}

/// Interns an API-level monomial (name-sorted factors → id-sorted key).
pub(crate) fn intern_mono(m: &Monomial) -> MonoId {
    LOCAL.with(|l| {
        let l = &mut *l.borrow_mut();
        let mut fs: Vec<(SymId, i32)> = m.factors().map(|(s, e)| (sym_id_in(l, s), e)).collect();
        fs.sort_unstable_by_key(|&(s, _)| s);
        intern_factors_in(l, &fs)
    })
}

/// `sym^exp` as an interned id (`MONO_ONE` when `exp == 0`).
pub(crate) fn mono_power(sym: &Symbol, exp: i32) -> MonoId {
    if exp == 0 {
        return MONO_ONE;
    }
    LOCAL.with(|l| {
        let l = &mut *l.borrow_mut();
        let sid = sym_id_in(l, sym);
        intern_factors_in(l, &[(sid, exp)])
    })
}

/// Product of two interned monomials (memoized per thread).
pub(crate) fn mono_mul(a: MonoId, b: MonoId) -> MonoId {
    LOCAL.with(|l| mono_mul_in(&mut l.borrow_mut(), a, b))
}

/// Raises every exponent by `exp` (id order is preserved, so no re-sort).
pub(crate) fn mono_pow(id: MonoId, exp: i32) -> MonoId {
    if exp == 0 || id == MONO_ONE {
        return if exp == 0 { MONO_ONE } else { id };
    }
    if exp == 1 {
        return id;
    }
    let factors = mono_entry(id).factors;
    let fs: Vec<(SymId, i32)> = factors
        .as_slice()
        .iter()
        .map(|&(s, e)| (s, e * exp))
        .collect();
    LOCAL.with(|l| intern_factors_in(&mut l.borrow_mut(), &fs))
}

/// Removes `sym` from the monomial: `(removed exponent, remaining id)`,
/// memoized per thread — the backbone of `subst`/`derivative`/`as_univariate`.
pub(crate) fn mono_split(id: MonoId, sid: SymId) -> (i32, MonoId) {
    LOCAL.with(|l| mono_split_in(&mut l.borrow_mut(), id, sid))
}

/// Grabs a reusable term buffer from the thread-local pool.
pub(crate) fn take_scratch() -> Vec<(MonoId, Rational)> {
    LOCAL
        .with(|l| l.borrow_mut().scratch.pop())
        .map(|mut v| {
            v.clear();
            v
        })
        .unwrap_or_default()
}

/// Returns a term buffer to the pool for reuse.
pub(crate) fn put_scratch(v: Vec<(MonoId, Rational)>) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.scratch.len() < 8 {
            l.scratch.push(v);
        }
    })
}

/// Footprint of the process-wide intern arenas — the soak-check probe.
///
/// Symbol and monomial counts are published table lengths (those entries
/// never leave, so they are monotone). `polynomials` counts **live**
/// entries only — epoch advances reclaim retired ones — while
/// `poly_slots` is the monotone allocated-slot high-water mark and
/// `poly_reclaimed` the cumulative reclamation total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct interned symbols.
    pub symbols: usize,
    /// Distinct interned monomials (including the constant `1`).
    pub monomials: usize,
    /// Live (non-reclaimed) interned polynomials.
    pub polynomials: usize,
    /// Allocated polynomial slots (monotone high-water mark; vacant slots
    /// are recycled before new ones are allocated).
    pub poly_slots: usize,
    /// Cumulative polynomial entries reclaimed across all epoch advances.
    pub poly_reclaimed: usize,
    /// Total live-polynomial capacity across shards ([`POLY_ARENA_CAP`]).
    pub poly_capacity: usize,
}

/// Current sizes of the global symbol/monomial/polynomial arenas.
pub fn arena_stats() -> ArenaStats {
    let t = tables();
    let count = |lens: &mut dyn Iterator<Item = u32>| lens.map(|n| n as usize).sum::<usize>();
    ArenaStats {
        symbols: count(&mut t.syms.iter().map(|s| s.slots.len())),
        monomials: count(&mut t.monos.iter().map(|s| s.slots.len())),
        polynomials: t
            .polys
            .iter()
            .map(|s| s.state.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum(),
        poly_slots: count(&mut t.polys.iter().map(|s| s.slots.len())),
        poly_reclaimed: POLYS_RECLAIMED.load(Ordering::Relaxed),
        poly_capacity: POLY_ARENA_CAP,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: &str) -> Symbol {
        Symbol::new(n)
    }

    #[test]
    fn ids_are_structural_identity() {
        let a = intern_mono(&Monomial::from_pairs([(s("x"), 2), (s("y"), 1)]));
        let b = intern_mono(&Monomial::from_pairs([(s("y"), 1), (s("x"), 2)]));
        assert_eq!(a, b);
        assert_ne!(a, intern_mono(&Monomial::var(s("x"))));
        assert_eq!(intern_mono(&Monomial::one()), MONO_ONE);
    }

    #[test]
    fn mul_merges_and_cancels() {
        let x2 = mono_power(&s("x"), 2);
        let xinv2 = mono_power(&s("x"), -2);
        assert_eq!(mono_mul(x2, xinv2), MONO_ONE);
        let y = mono_power(&s("y"), 1);
        let xy = mono_mul(mono_power(&s("x"), 1), y);
        assert_eq!(mono(xy).to_string(), "x*y");
        assert_eq!(mono_entry(xy).degree, 2);
    }

    #[test]
    fn split_round_trips() {
        let m = intern_mono(&Monomial::from_pairs([(s("x"), 3), (s("y"), -1)]));
        let sid = sym_id(&s("x"));
        let (e, rest) = mono_split(m, sid);
        assert_eq!(e, 3);
        assert_eq!(mono(rest).to_string(), "y^-1");
        assert_eq!(mono_mul(rest, mono_power(&s("x"), 3)), m);
    }

    #[test]
    fn cross_thread_ids_resolve() {
        let id = std::thread::spawn(|| intern_mono(&Monomial::from_pairs([(s("tq"), 5)])))
            .join()
            .unwrap();
        assert_eq!(mono(id).to_string(), "tq^5");
    }

    #[test]
    fn poly_ids_are_structural_identity() {
        // Pin across acquisition and resolution: ids are epoch-confined,
        // and sibling tests advance the epoch concurrently.
        let _g = crate::epoch::pin();
        let x = mono_power(&s("px"), 1);
        let terms = [
            (MONO_ONE, Rational::from_int(3)),
            (x, Rational::from_int(2)),
        ];
        let a = intern_poly(&terms);
        let b = intern_poly(&terms);
        assert_eq!(a, b);
        assert_ne!(a, POLY_UNINTERNED);
        assert_eq!(poly_terms(a), &terms[..]);
        let other = intern_poly(&[(x, Rational::from_int(7))]);
        assert_ne!(a, other);
    }

    #[test]
    fn cross_thread_poly_ids_resolve() {
        // The spawning thread's pin covers the child's id: the child
        // interns at the current epoch (>= our pin), so the entry outlives
        // any advance that could run while we hold the guard.
        let _g = crate::epoch::pin();
        let id = std::thread::spawn(|| {
            let y = mono_power(&s("py"), 2);
            intern_poly(&[(y, Rational::from_int(5))])
        })
        .join()
        .unwrap();
        let terms = poly_terms(id);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].1, Rational::from_int(5));
    }

    #[test]
    fn reclaim_frees_retired_polys_and_recycles_slots() {
        let x = mono_power(&s("rcl_x"), 1);
        let terms = [
            (MONO_ONE, Rational::from_int(11)),
            (x, Rational::from_int(3)),
        ];
        let id = {
            let _g = crate::epoch::pin();
            intern_poly(&terms)
        };
        assert_ne!(id, POLY_UNINTERNED);
        assert!(poly_id_is_live(id));
        // With no pin held, the entry retires after its generation falls
        // behind the reclaim bound. Sibling tests' short pins can hold
        // the bound back transiently, so advance until it lands.
        for _ in 0..64 {
            crate::epoch::advance();
            if !poly_id_is_live(id) {
                break;
            }
        }
        assert!(!poly_id_is_live(id), "retired entry was never reclaimed");
        assert!(arena_stats().poly_reclaimed >= 1);
        // Re-interning the same shape under a fresh pin is live again and
        // resolves to identical content (slot recycling preserved
        // structural identity).
        let _g = crate::epoch::pin();
        let id2 = intern_poly(&terms);
        assert_ne!(id2, POLY_UNINTERNED);
        assert!(poly_id_is_live(id2));
        assert_eq!(poly_terms(id2), &terms[..]);
    }

    #[test]
    fn pow_scales_exponents() {
        let m = intern_mono(&Monomial::from_pairs([(s("a"), 1), (s("b"), 2)]));
        let m2 = mono_pow(m, 2);
        assert_eq!(mono(m2).to_string(), "a^2*b^4");
        assert_eq!(mono_pow(m, 0), MONO_ONE);
    }

    #[test]
    fn id_packing_round_trips() {
        for shard in 0..NUM_SHARDS {
            for index in [0u32, 1, 31, 32, 95, 96, 1 << 16, (1 << 20) - 1] {
                let id = pack_id(shard, index);
                assert_eq!(shard_of(id), shard);
                assert_eq!(index_of(id), index);
            }
        }
        assert_eq!(pack_id(0, 0), MONO_ONE);
        // POLY_UNINTERNED can never be a legal poly id: per-shard caps
        // keep indices 16-bit, far below the sentinel's 28-bit index.
        assert!(index_of(POLY_UNINTERNED) as usize >= POLY_SHARD_CAP);
    }

    #[test]
    fn slot_arena_bucket_math_is_contiguous() {
        for idx in 0..10_000u32 {
            let (k, off) = SlotArena::<u32>::locate(idx);
            if off == 0 && idx > 0 {
                // Bucket boundary: previous bucket was exactly full.
                let (pk, poff) = SlotArena::<u32>::locate(idx - 1);
                assert_eq!(pk + 1, k, "idx {idx}");
                assert_eq!(poff + 1, FIRST_BUCKET << pk, "idx {idx}");
            }
            assert!(off < FIRST_BUCKET << k, "idx {idx}");
        }
    }

    #[test]
    fn concurrent_interning_converges_on_one_id() {
        // All threads intern the same shapes; every id must agree, and
        // resolution must be readable from the spawning thread.
        let ids: Vec<Vec<MonoId>> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..64)
                            .map(|k| {
                                intern_mono(&Monomial::from_pairs([
                                    (s("cc_a"), k % 5 + 1),
                                    (s("cc_b"), k % 7 + 1),
                                ]))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other, "interned ids diverged across threads");
        }
        for &id in &ids[0] {
            assert!(!mono(id).to_string().is_empty());
        }
    }

    #[test]
    fn arena_stats_are_monotone() {
        let before = arena_stats();
        let _ = intern_mono(&Monomial::from_pairs([(s("stat_probe"), 3)]));
        let after = arena_stats();
        assert!(after.monomials > 0);
        assert!(after.symbols >= before.symbols);
        assert!(after.monomials >= before.monomials);
        assert_eq!(after.poly_capacity, POLY_ARENA_CAP);
    }
}
