//! Memoized instruction translation keyed by canonical AST hash.
//!
//! After the hash-consed symbolic engine and the scheduling memo, roughly
//! half of a `predict_source` round is sema + translation + back-end
//! imitation — work that is a pure function of `(program, machine)` and
//! that the restructuring workload (§3.2: "call repeatedly during
//! restructuring") redoes for every repeated program shape. This cache
//! computes the paper's Figure 6 two-level translation once per canonical
//! program and serves every later request from the table, the same way
//! instruction-decomposition tools precompute their mapping tables
//! instead of re-deriving them per query.
//!
//! The key is the span-insensitive structural hash of the subroutine's
//! AST ([`presage_frontend::fold::subroutine_hash`] family) mixed with
//! the machine name, so:
//!
//! - re-parsed or re-emitted copies of the same program hit (the hash
//!   ignores spans and formatting);
//! - the same program on different machines misses (translation imitates
//!   machine-specific back-end behavior), and one shared cache is sound
//!   across all target machines simultaneously;
//! - there is no invalidation story to get wrong: keys are content
//!   hashes and values are immutable [`Arc<ProgramIr>`]s. Entries carry
//!   the epoch generation of their last use, so a long-lived server can
//!   bound the table with [`TranslationCache::evict_older_than`] between
//!   job waves; eviction only drops the table's reference — in-flight
//!   holders keep their `Arc`, and a re-translated program simply
//!   re-interns its blocks under fresh (never-reused) ids.
//!
//! The cached value already carries interned block ids
//! ([`presage_translate::intern`]), so downstream scheduling-memo lookups
//! on a cache hit are O(1) id folds as well.

use crate::predictor::PredictError;
use presage_frontend::fold::{encode_str, encode_subroutine, fold128, AST_SEED};
use presage_frontend::{sema, Subroutine};
use presage_machine::MachineDesc;
use presage_translate::{translate, ProgramIr};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independent lock shards. Keys are uniformly mixed 128-bit
/// folds, so the low bits index shards evenly; 16 shards keep
/// [`crate::predictor::Predictor::predict_batch`] workers from
/// serializing on one mutex while staying small enough to initialize
/// cheaply.
const SHARDS: usize = 16;

/// A cached translation and the epoch generation of its last touch.
type CachedIr = (Arc<ProgramIr>, u64);

/// A thread-safe memo table from canonical `(machine, AST)` identity to
/// the translated program.
///
/// Interior mutability keeps one instance shareable (via [`Arc`]) across
/// every [`crate::predictor::Predictor`] of a restructuring session,
/// across the parallel A* candidate-evaluation workers, and across
/// [`crate::predictor::Predictor::predict_batch`] workers. The table is
/// split into [`SHARDS`] independently locked shards selected by the low
/// key bits, so concurrent lookups for different programs rarely touch
/// the same mutex.
#[derive(Debug)]
pub struct TranslationCache {
    /// Value: translation plus the epoch generation of its last hit or
    /// insert (drives [`TranslationCache::evict_older_than`]).
    shards: [Mutex<HashMap<u128, CachedIr>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for TranslationCache {
    fn default() -> TranslationCache {
        TranslationCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl TranslationCache {
    /// An empty cache.
    pub fn new() -> TranslationCache {
        TranslationCache::default()
    }

    /// The canonical cache key: machine name + span-insensitive AST fold,
    /// collapsed through [`fold128`] with the fixed [`AST_SEED`] so every
    /// thread and every cache instance derives the same key for the same
    /// program.
    pub fn key(machine: &MachineDesc, sub: &Subroutine) -> u128 {
        let mut buf = Vec::with_capacity(256);
        encode_str(&mut buf, machine.name());
        encode_subroutine(&mut buf, sub);
        fold128(&buf, AST_SEED)
    }

    /// Translates `sub` for `machine`, serving a memoized [`ProgramIr`]
    /// when one exists.
    ///
    /// Sema and translation run outside the table lock, so concurrent
    /// workers serialize only on the lookup and the final insert; two
    /// threads racing on the same miss both translate, and the loser's
    /// identical result is dropped. Failures are not cached — they are
    /// deterministic, rare, and carry per-call diagnostics.
    ///
    /// # Errors
    ///
    /// Propagates semantic-analysis and translation errors.
    pub fn translated(
        &self,
        sub: &Subroutine,
        machine: &MachineDesc,
    ) -> Result<Arc<ProgramIr>, PredictError> {
        let key = Self::key(machine, sub);
        let shard = &self.shards[key as usize % SHARDS];
        let gen = presage_symbolic::epoch::current();
        if let Some(entry) = shard
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&key)
        {
            // Re-stamp on hit so translations in active use survive
            // generation-based eviction.
            entry.1 = entry.1.max(gen);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry.0.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let symbols = sema::analyze(sub)?;
        // Store a clone: translation grows its vectors by pushing,
        // interleaved with its scratch tables, while a clone allocates
        // exact capacities in one compact run. Every prediction of the
        // program shares the entry and may outlive its eviction, so the
        // compact copy is what stays resident.
        let ir = Arc::new(translate(sub, &symbols, machine)?.clone());
        shard
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert_with(|| (ir.clone(), gen));
        Ok(ir)
    }

    /// Drops entries whose generation is strictly below `bound` (as
    /// reported by `presage_symbolic::epoch::advance`), returning how
    /// many were evicted. The server calls this between job waves to
    /// bound the cache under millions of distinct programs; in-flight
    /// holders of an evicted translation keep their [`Arc`].
    pub fn evict_older_than(&self, bound: u64) -> usize {
        if bound == 0 {
            return 0;
        }
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let before = shard.len();
            shard.retain(|_, (_, gen)| *gen >= bound);
            evicted += before - shard.len();
        }
        evicted
    }

    /// Number of translations served from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to translate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct `(machine, program)` translations memoized.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Returns `true` if nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all memoized translations and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presage_frontend::parse;
    use presage_machine::machines;

    const SRC: &str = "subroutine s(a, n)
        real a(n)
        integer i, n
        do i = 1, n
          a(i) = a(i) * 2.0 + 1.0
        end do
      end";

    #[test]
    fn second_lookup_hits_and_matches() {
        let cache = TranslationCache::new();
        let m = machines::power_like();
        let sub = parse(SRC).unwrap().units.remove(0);
        let first = cache.translated(&sub, &m).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.translated(&sub, &m).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit serves the same translation"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reemitted_source_hits() {
        let cache = TranslationCache::new();
        let m = machines::power_like();
        let sub = parse(SRC).unwrap().units.remove(0);
        cache.translated(&sub, &m).unwrap();
        // Re-emission changes layout and spans, not structure.
        let reparsed = parse(&sub.to_string()).unwrap().units.remove(0);
        cache.translated(&reparsed, &m).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn machines_do_not_alias() {
        let cache = TranslationCache::new();
        let sub = parse(SRC).unwrap().units.remove(0);
        let a = cache.translated(&sub, &machines::power_like()).unwrap();
        let b = cache.translated(&sub, &machines::risc1()).unwrap();
        assert_eq!(cache.misses(), 2, "distinct machines are distinct entries");
        assert_eq!(cache.len(), 2);
        // risc1 has no FMA: the translations genuinely differ.
        assert_ne!(a.as_ref(), b.as_ref());
    }

    #[test]
    fn sema_errors_propagate_uncached() {
        let cache = TranslationCache::new();
        let m = machines::power_like();
        // `a` used as an array but declared scalar.
        let sub = parse("subroutine s(a)\nreal a\na(1) = 0.0\nend")
            .unwrap()
            .units
            .remove(0);
        assert!(cache.translated(&sub, &m).is_err());
        assert!(cache.is_empty(), "failures are not cached");
    }

    #[test]
    fn clear_resets() {
        let cache = TranslationCache::new();
        let m = machines::power_like();
        let sub = parse(SRC).unwrap().units.remove(0);
        cache.translated(&sub, &m).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }
}
