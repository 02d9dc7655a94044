//! The per-session profile store: named, client-submitted sampling
//! profiles held under a configurable byte budget — the server's only
//! unboundedly-client-driven memory, so it is the one place that must
//! degrade instead of grow.
//!
//! Two stores live here:
//!
//! * `SessionStore` — one independently-locked *shard*: an evicting
//!   store with its own byte budget, clock, name→index map (O(1)
//!   lookup) and per-session fitted-model cache keyed on a profile
//!   version counter.
//! * [`ShardedSessionStore`] — N shards selected by session-name hash,
//!   each with a proportional slice of the byte budget, so submits and
//!   queries to different sessions never contend on one mutex.
//!
//! Eviction is W-TinyLFU admission + segmented eviction: new sessions
//! enter a small *window* segment (~1% of the shard budget). A window
//! victim moves into the probation/protected *main* segment while the
//! store fits its budget; under byte pressure it is admitted only if
//! its frequency — a 4-bit count-min sketch behind a doorkeeper bloom
//! filter, see `crate::tinylfu` — beats the main segment's own eviction
//! candidate, so a burst of one-shot sessions cannot flush the hot
//! working set. Reads record frequency through a lock-free striped
//! buffer drained in batches under the shard lock the lookup already
//! holds, never an extra acquisition.
//!
//! While the store fits its budget nothing is evicted or refused —
//! replay's oracle never evicts, so replay digests stay
//! node-count-invariant.
//!
//! Model caching: every submit bumps the session's version; a query
//! either reuses the cached [`Arc<StatStackModel>`] (version match — no
//! fit at all) or folds the samples submitted since the last fit into
//! the previous model with [`StatStackModel::extend`] and publishes the
//! result. The refit shares the previous model's large base level and
//! rebuilds only its small delta (about `4√n` of an `n`-sample history),
//! so it costs `O(new samples · √n)` amortized, not `O(n)`. Either way
//! the caller gets an `Arc` it can evaluate *after* releasing the shard
//! lock. A peer that pulls a session's model while holding an older
//! copy of it is answered with the samples submitted since that copy
//! (`SessionStore::pull_current`), which fits nothing here.
//!
//! Budget accounting covers the client-submitted sample data (profile
//! vectors). The derived fitting state is bounded by a small constant
//! factor of the same data — the pending [`StatStackBuilder`] is cleared
//! on every fit, and a cached model holds two `u64`s per reuse sample
//! (distance and prefix sum) plus one per-PC copy — and is dropped with
//! the entry on eviction, so the aggregate stays proportional to the
//! configured budget.

use crate::proto::SampleBatch;
use crate::tinylfu::{AccessBuffer, TinyLfu};
use repf_sampling::{DanglingSample, Profile, ReuseSample, StrideSample};
use repf_statstack::{StatStackBuilder, StatStackModel};
use repf_trace::hash::FxHashMap;
use std::collections::VecDeque;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The hash every consumer of a session name agrees on: shard
/// selection, the frequency sketch, and the striped access buffers all
/// key off this one FxHash value.
pub(crate) fn name_hash(name: &str) -> u64 {
    let hasher: BuildHasherDefault<repf_trace::hash::FxHasher> = Default::default();
    hasher.hash_one(name.as_bytes())
}

/// Fixed per-session bookkeeping charge (name, map entry, vec headers).
const SESSION_OVERHEAD_BYTES: usize = 256;

/// Approximate heap footprint of a profile's sample vectors.
fn profile_bytes(p: &Profile) -> usize {
    p.reuse.len() * std::mem::size_of::<ReuseSample>()
        + p.dangling.len() * std::mem::size_of::<DanglingSample>()
        + p.strides.len() * std::mem::size_of::<StrideSample>()
}

/// Which W-TinyLFU segment an entry lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    /// New arrivals; ~1% of the shard budget.
    Window,
    /// Admitted from the window; first to be evicted from main.
    Probation,
    /// Probation entries that were touched again; evicted last.
    Protected,
}

struct SessionEntry {
    name: String,
    /// `name_hash(name)` — the sketch/doorkeeper key.
    hash: u64,
    segment: Segment,
    profile: Profile,
    /// Samples submitted since the last fit.
    pending: StatStackBuilder,
    /// Bumped on every submit, starting from the shard's high-water
    /// mark; a cached fit is valid iff its version matches.
    version: u64,
    /// The first version of the history this node holds: its first
    /// submit's here, or the version it was imported at. The profile
    /// only grows, so each version from `first` to `version` names a
    /// prefix of it.
    first: u64,
    /// The last published fit and the version it covers.
    cached: Option<(u64, Arc<StatStackModel>)>,
    bytes: usize,
    last_used: u64,
}

/// Extra frequency credit for an imported session that carries a
/// cached model: the exporter considered it hot enough to fit, so the
/// importer's admission filter must not treat it as a one-hit wonder
/// (that would silently defeat fleet-wide fit-at-most-once).
const MODEL_IMPORT_FREQ_BOOST: u32 = 4;

/// A portable snapshot of one session — everything a peer needs to take
/// ownership without refitting: the full raw profile as a wire batch,
/// the version counter (so fleet-wide `(session, version)` model keys
/// stay continuous across moves), and the cached fit when it covers the
/// snapshotted version.
pub struct SessionExport {
    /// The complete profile as one submit-shaped batch.
    pub batch: SampleBatch,
    /// The session's version counter at snapshot time.
    pub version: u64,
    /// The cached model, only when it is valid for `version` — a stale
    /// cache is not shipped (the importer would refit at the *new*
    /// version anyway, which no node has fit yet).
    pub model: Option<Arc<StatStackModel>>,
}

/// A session's fitted model and the version it covers.
pub struct Fit {
    /// The model.
    pub model: Arc<StatStackModel>,
    /// The session version whose samples the model covers, read under
    /// the lock the fit was taken under.
    pub version: u64,
    /// Served from the model cache, without a fit.
    pub hit: bool,
}

/// How the store answers a peer's pull of a session's current model
/// (see [`ShardedSessionStore::pull_current`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PullAnswer {
    /// The caller's copy is current: the version alone.
    Current(u64),
    /// The samples the caller's copy lacks, in the terms of
    /// `Response::ModelTail`.
    Tail {
        /// The version the extended copy reaches.
        version: u64,
        /// Completed samples as `(end pc, distance)`, in profile order.
        completed: Vec<(u32, u64)>,
        /// Dangling samples as `(pc, count)`, sorted by PC.
        dangling: Vec<(u32, u64)>,
    },
    /// The caller needs the whole model: see
    /// [`ShardedSessionStore::fitted`].
    Whole,
}

/// Outcome of a successful submit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Store-wide bytes after the submit (≤ the budget). For a sharded
    /// store this is the aggregate across all shards.
    pub store_bytes: u64,
    /// Sessions evicted to fit the budget.
    pub evicted: u32,
}

/// Why a submit was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitRejected {
    /// The batch's `line_bytes` disagrees with earlier batches of the
    /// same session — mixing them would corrupt the model.
    InconsistentLineBytes,
    /// The batch's `line_bytes` is 0: no cache size converts to lines.
    /// Refused before any session is created.
    ZeroLineBytes,
}

/// A W-TinyLFU session store with a hard byte budget — one shard of a
/// [`ShardedSessionStore`].
///
/// Eviction happens on submit: after a batch is appended, window
/// overflow passes through the admission filter and main victims are
/// dropped until the store fits the budget again (submits and queries
/// both refresh recency and frequency). The invariant `bytes() ≤ budget`
/// holds unconditionally after every operation.
pub(crate) struct SessionStore {
    budget_bytes: usize,
    entries: Vec<SessionEntry>,
    /// Name → index into `entries`, maintained across `swap_remove`.
    index: FxHashMap<String, usize>,
    /// Migrated-away sessions: name → (destination address, insertion
    /// sequence), left behind by [`SessionStore::remove_migrated`] so
    /// the old owner can forward in-flight requests during the handoff
    /// window.
    tombstones: FxHashMap<String, (String, u64)>,
    /// Insertion order of live tombstones, for FIFO cap-eviction.
    /// Entries whose sequence no longer matches the map are stale
    /// (cleared or re-inserted) and skipped lazily.
    tombstone_fifo: VecDeque<(String, u64)>,
    tombstone_seq: u64,
    /// The highest version any session of this shard has held. A new
    /// session starts from it, so a session evicted and then created
    /// again never reuses a version: `(session, version)` names one
    /// history on this node, which is what peers' cached pulls rely on.
    version_hwm: u64,
    clock: u64,
    bytes: usize,
    evictions: u64,
    model_hits: u64,
    model_misses: u64,
    /// The admission filter.
    filter: TinyLfu,
    /// Byte budget of the window segment (~1% of the shard budget,
    /// clamped to [1 KiB, budget]).
    window_budget: usize,
    /// Byte budget of the protected segment (80% of main).
    protected_budget: usize,
    window_bytes: usize,
    probation_bytes: usize,
    protected_bytes: usize,
    /// Window victims admitted into main / refused by the filter.
    admitted: u64,
    rejected: u64,
}

/// Tombstones beyond this count evict the *oldest* ones first (FIFO) —
/// they are a forwarding hint for the handoff window, not durable
/// state, and the most recent migrations are the ones still being
/// chased.
const MAX_TOMBSTONES: usize = 4096;

impl SessionStore {
    /// An empty store with the given byte budget (clamped to ≥ 1 so a
    /// zero budget means "keep nothing", not "unbounded").
    pub fn new(budget_bytes: usize) -> Self {
        let budget_bytes = budget_bytes.max(1);
        let window_budget = (budget_bytes / 100).clamp(1024.min(budget_bytes), budget_bytes);
        SessionStore {
            budget_bytes,
            entries: Vec::new(),
            index: FxHashMap::default(),
            tombstones: FxHashMap::default(),
            tombstone_fifo: VecDeque::new(),
            tombstone_seq: 0,
            version_hwm: 0,
            clock: 0,
            bytes: 0,
            evictions: 0,
            model_hits: 0,
            model_misses: 0,
            filter: TinyLfu::for_budget(budget_bytes),
            window_budget,
            protected_budget: (budget_bytes - window_budget) / 5 * 4,
            window_bytes: 0,
            probation_bytes: 0,
            protected_bytes: 0,
            admitted: 0,
            rejected: 0,
        }
    }

    fn seg_bytes_mut(&mut self, seg: Segment) -> &mut usize {
        match seg {
            Segment::Window => &mut self.window_bytes,
            Segment::Probation => &mut self.probation_bytes,
            Segment::Protected => &mut self.protected_bytes,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    fn remove_at(&mut self, ix: usize) -> SessionEntry {
        let e = self.entries.swap_remove(ix);
        self.index.remove(&e.name);
        // `swap_remove` moved the former last entry into `ix`.
        if let Some(moved) = self.entries.get(ix) {
            self.index.insert(moved.name.clone(), ix);
        }
        e
    }

    /// Remove the entry at `ix`, updating the byte gauge and segment
    /// accounting (no eviction counter — migration removals use this
    /// too).
    fn detach_at(&mut self, ix: usize) -> SessionEntry {
        let seg = self.entries[ix].segment;
        let e = self.remove_at(ix);
        self.bytes -= e.bytes;
        *self.seg_bytes_mut(seg) -= e.bytes;
        e
    }

    fn evict_at(&mut self, ix: usize) {
        self.detach_at(ix);
        self.evictions += 1;
    }

    /// Record one access of `hash` in the admission filter. The sharded
    /// store feeds this from the striped read buffers and from submits.
    pub fn record_access(&mut self, hash: u64) {
        self.filter.record(hash);
    }

    /// Refresh `ix`'s recency; a touched probation entry is promoted to
    /// protected (demoting the protected LRU back to probation if the
    /// protected segment overflows).
    fn touch(&mut self, ix: usize) {
        let now = self.tick();
        self.entries[ix].last_used = now;
        self.promote_if_probation(ix);
    }

    /// Segmented-LRU promotion: an accessed (queried or re-submitted)
    /// probation entry moves to protected; protected overflow demotes
    /// its LRU back to probation.
    fn promote_if_probation(&mut self, ix: usize) {
        if self.entries[ix].segment != Segment::Probation {
            return;
        }
        self.move_segment(ix, Segment::Protected);
        while self.protected_bytes > self.protected_budget {
            let Some(demote) = self.lru_victim_in(Segment::Protected) else {
                break;
            };
            self.move_segment(demote, Segment::Probation);
            if demote == ix {
                break; // the sole protected entry is the one just promoted
            }
        }
    }

    fn move_segment(&mut self, ix: usize, to: Segment) {
        let from = self.entries[ix].segment;
        if from == to {
            return;
        }
        let bytes = self.entries[ix].bytes;
        self.entries[ix].segment = to;
        *self.seg_bytes_mut(from) -= bytes;
        *self.seg_bytes_mut(to) += bytes;
    }

    fn lru_victim_in(&self, seg: Segment) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.segment == seg)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
    }

    /// The main segment's eviction candidate: probation LRU first,
    /// protected LRU only when probation is empty.
    fn main_victim(&self) -> Option<usize> {
        self.lru_victim_in(Segment::Probation)
            .or_else(|| self.lru_victim_in(Segment::Protected))
    }

    /// Rebalance after any growth: first migrate window overflow into
    /// main through the admission filter, then — if the store is still
    /// over budget (an entry already in main grew) — evict main victims
    /// outright. While the store fits its budget this only moves window
    /// overflow into main; it never evicts.
    fn rebalance(&mut self, evicted: &mut u32) {
        while self.window_bytes > self.window_budget {
            let Some(w) = self.lru_victim_in(Segment::Window) else {
                break;
            };
            self.admit_window_victim(w, evicted);
        }
        while self.bytes > self.budget_bytes && !self.entries.is_empty() {
            let v = self
                .main_victim()
                .or_else(|| self.lru_victim_in(Segment::Window))
                .unwrap();
            self.evict_at(v);
            *evicted += 1;
        }
    }

    /// Try to move the window victim at `w` into probation. It moves
    /// while the store fits its budget or main has room for it; past
    /// that, free main space by evicting main victims the window
    /// victim's sketch frequency beats; the first main victim it cannot
    /// beat wins, and the window victim is evicted instead (admission
    /// rejected).
    fn admit_window_victim(&mut self, mut w: usize, evicted: &mut u32) {
        let main_budget = self.budget_bytes - self.window_budget;
        loop {
            let store_fits = self.bytes <= self.budget_bytes;
            let main_bytes = self.probation_bytes + self.protected_bytes;
            if store_fits || main_bytes + self.entries[w].bytes <= main_budget {
                self.move_segment(w, Segment::Probation);
                self.admitted += 1;
                return;
            }
            let Some(m) = self.main_victim() else {
                // Main is empty and the victim alone exceeds the main
                // budget: nothing to compare against, drop it.
                self.evict_at(w);
                *evicted += 1;
                self.rejected += 1;
                return;
            };
            let wf = self.filter.frequency(self.entries[w].hash);
            let mf = self.filter.frequency(self.entries[m].hash);
            if wf > mf {
                // `swap_remove` may relocate the last entry into `m`.
                let last = self.entries.len() - 1;
                self.evict_at(m);
                *evicted += 1;
                if w == last {
                    w = m;
                }
            } else {
                self.evict_at(w);
                *evicted += 1;
                self.rejected += 1;
                return;
            }
        }
    }

    /// Append a batch to `name`'s profile, creating the session on
    /// first use, then rebalance until the store fits its budget: window
    /// overflow through the admission filter, then main victims.
    pub fn submit(
        &mut self,
        name: &str,
        batch: SampleBatch,
    ) -> Result<SubmitOutcome, SubmitRejected> {
        if batch.line_bytes == 0 {
            return Err(SubmitRejected::ZeroLineBytes);
        }
        let now = self.tick();
        let hash = name_hash(name);
        let ix = match self.index_of(name) {
            Some(ix) => ix,
            None => {
                // A fresh local session supersedes any forwarding hint.
                self.tombstones.remove(name);
                self.entries.push(SessionEntry {
                    name: name.to_string(),
                    hash,
                    segment: Segment::Window,
                    profile: Profile {
                        sample_period: batch.sample_period,
                        line_bytes: batch.line_bytes,
                        ..Profile::default()
                    },
                    pending: StatStackBuilder::new(batch.line_bytes),
                    version: self.version_hwm,
                    first: self.version_hwm + 1,
                    cached: None,
                    bytes: SESSION_OVERHEAD_BYTES + name.len(),
                    last_used: now,
                });
                self.bytes += SESSION_OVERHEAD_BYTES + name.len();
                self.window_bytes += SESSION_OVERHEAD_BYTES + name.len();
                let ix = self.entries.len() - 1;
                self.index.insert(name.to_string(), ix);
                ix
            }
        };
        let entry = &mut self.entries[ix];
        if entry.profile.line_bytes != batch.line_bytes {
            return Err(SubmitRejected::InconsistentLineBytes);
        }
        let before = profile_bytes(&entry.profile);
        entry.pending.push_batch(&batch.reuse, &batch.dangling);
        entry.version += 1;
        self.version_hwm = self.version_hwm.max(entry.version);
        entry.profile.total_refs += batch.total_refs;
        entry.profile.sample_period = batch.sample_period;
        entry.profile.reuse.extend(batch.reuse);
        entry.profile.dangling.extend(batch.dangling);
        entry.profile.strides.extend(batch.strides);
        let grown = profile_bytes(&entry.profile) - before;
        entry.bytes += grown;
        entry.last_used = now;
        let seg = entry.segment;
        self.bytes += grown;
        *self.seg_bytes_mut(seg) += grown;
        self.record_access(hash);
        // A re-submitted session is being reused: promote it like any
        // other access.
        self.promote_if_probation(ix);

        let mut evicted = 0u32;
        self.rebalance(&mut evicted);
        Ok(SubmitOutcome {
            store_bytes: self.bytes as u64,
            evicted,
        })
    }

    /// The profile of `name`, refreshing its recency. `None` when the
    /// session does not exist (never created, or evicted).
    #[cfg(test)]
    pub fn get(&mut self, name: &str) -> Option<&Profile> {
        let ix = self.index_of(name)?;
        self.touch(ix);
        // `touch` may relocate entries across segments but never
        // reorders `entries` itself; re-resolve anyway for clarity.
        let ix = self.index_of(name)?;
        Some(&self.entries[ix].profile)
    }

    /// A fitted model of `name`'s profile, refreshing recency. Returns
    /// the model and whether it was a cache hit (see
    /// [`fitted`](Self::fitted)).
    pub fn model(&mut self, name: &str) -> Option<(Arc<StatStackModel>, bool)> {
        self.fitted(name).map(|f| (f.model, f.hit))
    }

    /// A fitted model of `name`'s profile and the version it covers,
    /// refreshing recency. On a cache miss the samples submitted since
    /// the last fit are folded into the previous model with
    /// [`StatStackModel::extend`] (first fit: from the pending samples
    /// alone) and the result is published for later queries.
    pub fn fitted(&mut self, name: &str) -> Option<Fit> {
        let ix = self.index_of(name)?;
        self.touch(ix);
        let entry = &mut self.entries[ix];
        let version = entry.version;
        if let Some((v, m)) = &entry.cached {
            if *v == version {
                self.model_hits += 1;
                return Some(Fit {
                    model: Arc::clone(m),
                    version,
                    hit: true,
                });
            }
        }
        let model = match &entry.cached {
            Some((_, base)) => base.extend(&entry.pending),
            None => entry.pending.fit(),
        };
        entry.pending.clear();
        let model = Arc::new(model);
        entry.cached = Some((version, Arc::clone(&model)));
        self.model_misses += 1;
        Some(Fit {
            model,
            version,
            hit: false,
        })
    }

    /// Answer a peer that pulls `name`'s current model and holds a copy
    /// at `cached_version` of `cached_samples` = `(completed, dangling)`
    /// samples. Never fits. `None` when the session is not live here.
    ///
    /// A copy at version `v` in `first..version` holds the first
    /// `completed` and `dangling` samples of this profile, which only
    /// grows, so the samples it lacks are the profile's from those
    /// ranks on. Versions below `first` may name another history (an
    /// evicted incarnation, or one from before an import), so such a
    /// copy gets the whole model, as does a pull that quotes no counts
    /// or counts past the profile. A tail is a read of the session: it
    /// refreshes recency and frequency as a fit would.
    pub fn pull_current(
        &mut self,
        name: &str,
        cached_version: u64,
        cached_samples: Option<(u64, u64)>,
    ) -> Option<PullAnswer> {
        let ix = self.index_of(name)?;
        let e = &self.entries[ix];
        if e.version == cached_version {
            return Some(PullAnswer::Current(e.version));
        }
        let lacking = cached_samples.filter(|&(completed, dangling)| {
            (e.first..e.version).contains(&cached_version)
                && completed <= e.profile.reuse.len() as u64
                && dangling <= e.profile.dangling.len() as u64
        });
        let Some((completed, dangling)) = lacking else {
            return Some(PullAnswer::Whole);
        };
        let completed = e.profile.reuse[completed as usize..]
            .iter()
            .map(|r| (r.end_pc.0, r.distance))
            .collect();
        let mut pcs: Vec<u32> = e.profile.dangling[dangling as usize..]
            .iter()
            .map(|s| s.pc.0)
            .collect();
        pcs.sort_unstable();
        let mut dangling: Vec<(u32, u64)> = Vec::new();
        for pc in pcs {
            match dangling.last_mut() {
                Some((last, count)) if *last == pc => *count += 1,
                _ => dangling.push((pc, 1)),
            }
        }
        let (version, hash) = (e.version, e.hash);
        self.touch(ix);
        self.record_access(hash);
        Some(PullAnswer::Tail {
            version,
            completed,
            dangling,
        })
    }

    /// Run `f` on `name`'s profile *and* its (cached or freshly fitted)
    /// model, refreshing recency. The second return is the cache-hit
    /// flag. Used by plan queries, which need both.
    pub fn with_profile_and_model<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&Profile, &StatStackModel) -> R,
    ) -> Option<(R, bool)> {
        let (model, hit) = self.model(name)?;
        let ix = self.index_of(name)?;
        Some((f(&self.entries[ix].profile, &model), hit))
    }

    /// Current bytes held (always ≤ the budget).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total sessions evicted over the store's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Model-cache hits served by this store.
    pub fn model_hits(&self) -> u64 {
        self.model_hits
    }

    /// Model-cache misses (fits performed) by this store.
    pub fn model_misses(&self) -> u64 {
        self.model_misses
    }

    /// Window victims admitted into the main segment.
    pub fn admission_accepted(&self) -> u64 {
        self.admitted
    }

    /// Window victims rejected by the admission filter.
    pub fn admission_rejected(&self) -> u64 {
        self.rejected
    }

    /// One-hit wonders absorbed by the doorkeeper.
    pub fn doorkeeper_hits(&self) -> u64 {
        self.filter.doorkeeper_hits()
    }

    /// Frequency-sketch halving resets performed.
    pub fn sketch_resets(&self) -> u64 {
        self.filter.sketch_resets()
    }

    /// Bytes held per segment as (window, probation, protected).
    pub fn segment_bytes(&self) -> (u64, u64, u64) {
        (
            self.window_bytes as u64,
            self.probation_bytes as u64,
            self.protected_bytes as u64,
        )
    }

    /// True when `name` is live, *without* refreshing recency — routing
    /// probes must not distort the recency order.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// `name`'s version counter (no recency refresh).
    pub fn version_of(&self, name: &str) -> Option<u64> {
        self.index_of(name).map(|ix| self.entries[ix].version)
    }

    /// Names of every live session, in no particular order — the
    /// migration sweep's work list.
    pub fn session_names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Non-destructive snapshot of `name` for migration: the full
    /// profile as one batch, the version counter, and the cached model
    /// when it covers that exact version. No recency refresh — the
    /// session is about to leave.
    pub fn export(&self, name: &str) -> Option<SessionExport> {
        let e = &self.entries[self.index_of(name)?];
        let model = match &e.cached {
            Some((v, m)) if *v == e.version => Some(Arc::clone(m)),
            _ => None,
        };
        Some(SessionExport {
            batch: SampleBatch::from_profile(&e.profile),
            version: e.version,
            model,
        })
    }

    /// Complete a migration: drop `name` *iff* its version still equals
    /// `version` (no submit raced the snapshot) and leave a tombstone
    /// pointing at `dest`. Returns `false` when the version moved — the
    /// caller must re-export and try again.
    pub fn remove_migrated(&mut self, name: &str, version: u64, dest: &str) -> bool {
        let Some(ix) = self.index_of(name) else {
            return true; // already gone (evicted) — nothing to move
        };
        if self.entries[ix].version != version {
            return false;
        }
        self.detach_at(ix);
        self.tombstone_seq += 1;
        let seq = self.tombstone_seq;
        self.tombstones
            .insert(name.to_string(), (dest.to_string(), seq));
        self.tombstone_fifo.push_back((name.to_string(), seq));
        // FIFO cap: the oldest live tombstone goes first. Queue entries
        // whose sequence no longer matches the map (cleared by a fresh
        // submit/import, or superseded by a re-migration) are stale —
        // skip them, and compact them eagerly so the queue stays
        // proportional to the live set.
        while self.tombstones.len() > MAX_TOMBSTONES {
            match self.tombstone_fifo.pop_front() {
                Some((k, s)) => {
                    if self.tombstones.get(&k).is_some_and(|(_, live)| *live == s) {
                        self.tombstones.remove(&k);
                    }
                }
                None => break,
            }
        }
        while let Some((k, s)) = self.tombstone_fifo.front() {
            if self.tombstones.get(k).is_some_and(|(_, live)| live == s) {
                break;
            }
            self.tombstone_fifo.pop_front();
        }
        true
    }

    /// Install a migrated session wholesale, replacing any local entry
    /// and clearing any tombstone. The version counter continues from
    /// the exporter's value; when `model` is present it is published as
    /// the cached fit for that version, so the importer never refits
    /// (otherwise the full batch is staged as pending for the next
    /// query's fit). Admission and eviction apply as for submits.
    pub fn import(
        &mut self,
        name: &str,
        version: u64,
        batch: SampleBatch,
        model: Option<Arc<StatStackModel>>,
    ) -> Result<SubmitOutcome, SubmitRejected> {
        if batch.line_bytes == 0 {
            return Err(SubmitRejected::ZeroLineBytes);
        }
        if let Some(ix) = self.index_of(name) {
            self.detach_at(ix);
        }
        self.tombstones.remove(name);
        if model.is_some() {
            // A session arriving with a cached fit was hot on the
            // exporter; pre-credit the admission filter so migration
            // under pressure cannot discard the model fleet-wide
            // fit-at-most-once just paid for.
            let h = name_hash(name);
            for _ in 0..MODEL_IMPORT_FREQ_BOOST {
                self.record_access(h);
            }
        }
        let out = self.submit(name, batch)?;
        if let Some(ix) = self.index_of(name) {
            // submit() gave the session its own next version and staged
            // the batch as pending; rewrite both to reflect the
            // exporter's state. This node holds the history from the
            // imported version on.
            let e = &mut self.entries[ix];
            e.version = version;
            e.first = version;
            self.version_hwm = self.version_hwm.max(version);
            if let Some(m) = model {
                e.pending.clear();
                e.cached = Some((version, m));
            }
        }
        Ok(out)
    }

    /// Where `name` migrated to, if a tombstone is held for it.
    pub fn tombstone_of(&self, name: &str) -> Option<&str> {
        self.tombstones.get(name).map(|(dest, _)| dest.as_str())
    }

    /// Live tombstone count.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// The cached fit for `name` *iff* it covers exactly `version`.
    /// No recency refresh and never fits — peer model pulls must stay
    /// cheap on the answering side.
    pub fn cached_model_at(&self, name: &str, version: u64) -> Option<Arc<StatStackModel>> {
        let e = &self.entries[self.index_of(name)?];
        match &e.cached {
            Some((v, m)) if *v == version => Some(Arc::clone(m)),
            _ => None,
        }
    }

    /// Publish a model fitted elsewhere as `name`'s cached fit,
    /// provided the session still sits at exactly `version` (a racing
    /// submit voids the pull). The model covers the whole profile at
    /// that version, so staged pending batches are superseded by it.
    /// Returns whether it was installed.
    pub fn install_model(&mut self, name: &str, version: u64, model: Arc<StatStackModel>) -> bool {
        let Some(ix) = self.index_of(name) else {
            return false;
        };
        let e = &mut self.entries[ix];
        if e.version != version {
            return false;
        }
        e.pending.clear();
        e.cached = Some((version, model));
        true
    }
}

/// A point-in-time summary of one shard, surfaced through the `Stats`
/// request as `sessions.shard.N.*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Bytes held (≤ `budget_bytes`).
    pub bytes: u64,
    /// This shard's slice of the byte budget.
    pub budget_bytes: u64,
    /// Live sessions.
    pub sessions: u64,
    /// Lifetime evictions.
    pub evictions: u64,
    /// Model-cache hits.
    pub model_hits: u64,
    /// Model-cache misses (fits performed).
    pub model_misses: u64,
    /// Window victims admitted into main.
    pub admission_accepted: u64,
    /// Window victims rejected by the admission filter.
    pub admission_rejected: u64,
    /// One-hit wonders absorbed by the doorkeeper.
    pub doorkeeper_hits: u64,
    /// Frequency-sketch halving resets.
    pub sketch_resets: u64,
    /// Bytes in the window segment.
    pub window_bytes: u64,
    /// Bytes in the probation segment.
    pub probation_bytes: u64,
    /// Bytes in the protected segment.
    pub protected_bytes: u64,
    /// Batched drains of the striped read-access buffer, each performed
    /// under a lock the drainer already held — the counter that proves
    /// reads never took an extra lock to record frequency.
    pub access_drains: u64,
    /// Pending accesses lost to ring overwrites, including a push whose
    /// slot write landed after a drain had passed it (lossy by design).
    pub access_dropped: u64,
}

struct Shard {
    store: Mutex<SessionStore>,
    /// Lock-free mirror of the store's byte gauge, refreshed after every
    /// submit, so aggregate reporting never takes other shards' locks.
    bytes: AtomicU64,
    /// Pending read accesses awaiting a batched drain.
    accesses: AccessBuffer,
    /// Batched drains performed (each under an already-held lock).
    drains: AtomicU64,
    /// Accesses lost to ring overwrites.
    dropped: AtomicU64,
}

impl Shard {
    /// Drain the pending read accesses into the store. The caller holds
    /// the shard lock already — this is the *batched* recording path,
    /// never an extra acquisition.
    fn drain_accesses(&self, store: &mut SessionStore) {
        let n = self.accesses.drain(|h| store.record_access(h));
        if n > 0 {
            self.drains.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// N independently-locked session-store shards selected by session-name
/// hash. Each shard owns `budget / N` bytes with its own clock and
/// admission filter, so the aggregate never exceeds the configured budget
/// while submits and queries to different sessions proceed without
/// contending on a single mutex.
pub struct ShardedSessionStore {
    shards: Vec<Shard>,
}

impl ShardedSessionStore {
    /// A store of `shards` shards splitting `budget_bytes` evenly
    /// (`shards` is clamped to ≥ 1).
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let per_shard = budget_bytes / n;
        ShardedSessionStore {
            shards: (0..n)
                .map(|_| Shard {
                    store: Mutex::new(SessionStore::new(per_shard)),
                    bytes: AtomicU64::new(0),
                    accesses: AccessBuffer::new(),
                    drains: AtomicU64::new(0),
                    dropped: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `name` maps to.
    pub fn shard_of(&self, name: &str) -> usize {
        (name_hash(name) % self.shards.len() as u64) as usize
    }

    /// Record a read access for the admission filter: a lock-free push
    /// into the shard's striped buffer. Returns the shard, and whether
    /// the caller — who is about to take the shard lock for its own
    /// lookup anyway — should drain the batch.
    fn note_read(&self, name: &str) -> (&Shard, bool) {
        let hash = name_hash(name);
        let shard = &self.shards[(hash % self.shards.len() as u64) as usize];
        let out = shard.accesses.push(hash);
        if out.dropped {
            shard.dropped.fetch_add(1, Ordering::Relaxed);
        }
        (shard, out.should_drain)
    }

    /// Submit a batch to `name`'s session (see `SessionStore::submit`).
    /// `store_bytes` in the outcome is the aggregate across shards.
    pub fn submit(&self, name: &str, batch: SampleBatch) -> Result<SubmitOutcome, SubmitRejected> {
        let shard = &self.shards[self.shard_of(name)];
        let out = {
            let mut store = shard.store.lock().unwrap();
            // Writers drain the pending read accesses first so the
            // admission filter decides on up-to-date frequencies.
            shard.drain_accesses(&mut store);
            let out = store.submit(name, batch)?;
            shard.bytes.store(store.bytes() as u64, Ordering::Relaxed);
            out
        };
        Ok(SubmitOutcome {
            store_bytes: self.bytes(),
            evicted: out.evicted,
        })
    }

    /// The cached-or-refitted model of `name` plus the cache-hit flag
    /// (see [`fitted`](Self::fitted)).
    pub fn model(&self, name: &str) -> Option<(Arc<StatStackModel>, bool)> {
        self.fitted(name).map(|f| (f.model, f.hit))
    }

    /// The cached-or-refitted model of `name` and the version it covers.
    /// The fit (if any) runs under the shard lock — concurrent queries of
    /// one hot session do one fit, not N — and the returned `Arc` is
    /// evaluated by the caller after the lock is released.
    pub fn fitted(&self, name: &str) -> Option<Fit> {
        let (shard, drain) = self.note_read(name);
        let mut store = shard.store.lock().unwrap();
        if drain {
            shard.drain_accesses(&mut store);
        }
        store.fitted(name)
    }

    /// Answer a peer's pull of `name`'s current model under one shard
    /// lock (see `SessionStore::pull_current`).
    pub fn pull_current(
        &self,
        name: &str,
        cached_version: u64,
        cached_samples: Option<(u64, u64)>,
    ) -> Option<PullAnswer> {
        self.shards[self.shard_of(name)]
            .store
            .lock()
            .unwrap()
            .pull_current(name, cached_version, cached_samples)
    }

    /// Run `f` on `name`'s profile and model under the shard lock (see
    /// `SessionStore::with_profile_and_model`).
    pub fn with_profile_and_model<R>(
        &self,
        name: &str,
        f: impl FnOnce(&Profile, &StatStackModel) -> R,
    ) -> Option<(R, bool)> {
        let (shard, drain) = self.note_read(name);
        let mut store = shard.store.lock().unwrap();
        if drain {
            shard.drain_accesses(&mut store);
        }
        store.with_profile_and_model(name, f)
    }

    /// Aggregate bytes across shards (lock-free; each shard's gauge is
    /// refreshed under its own lock on submit).
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Aggregate budget (sum of per-shard slices, ≤ the configured
    /// budget).
    pub fn budget_bytes(&self) -> usize {
        self.shards.len() * self.shards[0].store.lock().unwrap().budget_bytes()
    }

    /// Live sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.store.lock().unwrap().len())
            .sum()
    }

    /// `true` when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime evictions across all shards.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.store.lock().unwrap().evictions())
            .sum()
    }

    /// True when `name` is live (no recency refresh).
    pub fn contains(&self, name: &str) -> bool {
        self.shards[self.shard_of(name)]
            .store
            .lock()
            .unwrap()
            .contains(name)
    }

    /// `name`'s version counter (no recency refresh).
    pub fn version_of(&self, name: &str) -> Option<u64> {
        self.shards[self.shard_of(name)]
            .store
            .lock()
            .unwrap()
            .version_of(name)
    }

    /// Names of every live session across all shards.
    pub fn session_names(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| s.store.lock().unwrap().session_names())
            .collect()
    }

    /// Snapshot `name` for migration (see `SessionStore::export`).
    pub fn export(&self, name: &str) -> Option<SessionExport> {
        self.shards[self.shard_of(name)]
            .store
            .lock()
            .unwrap()
            .export(name)
    }

    /// Drop `name` iff still at `version`, leaving a tombstone → `dest`
    /// (see `SessionStore::remove_migrated`).
    pub fn remove_migrated(&self, name: &str, version: u64, dest: &str) -> bool {
        let shard = &self.shards[self.shard_of(name)];
        let mut store = shard.store.lock().unwrap();
        let ok = store.remove_migrated(name, version, dest);
        shard.bytes.store(store.bytes() as u64, Ordering::Relaxed);
        ok
    }

    /// Install a migrated session (see `SessionStore::import`).
    pub fn import(
        &self,
        name: &str,
        version: u64,
        batch: SampleBatch,
        model: Option<Arc<StatStackModel>>,
    ) -> Result<SubmitOutcome, SubmitRejected> {
        let shard = &self.shards[self.shard_of(name)];
        let out = {
            let mut store = shard.store.lock().unwrap();
            shard.drain_accesses(&mut store);
            let out = store.import(name, version, batch, model)?;
            shard.bytes.store(store.bytes() as u64, Ordering::Relaxed);
            out
        };
        Ok(SubmitOutcome {
            store_bytes: self.bytes(),
            evicted: out.evicted,
        })
    }

    /// Where `name` migrated to, if a tombstone is held.
    pub fn tombstone_of(&self, name: &str) -> Option<String> {
        self.shards[self.shard_of(name)]
            .store
            .lock()
            .unwrap()
            .tombstone_of(name)
            .map(str::to_string)
    }

    /// The cached fit for `name` iff it covers exactly `version` (see
    /// `SessionStore::cached_model_at`).
    pub fn cached_model_at(&self, name: &str, version: u64) -> Option<Arc<StatStackModel>> {
        self.shards[self.shard_of(name)]
            .store
            .lock()
            .unwrap()
            .cached_model_at(name, version)
    }

    /// Publish a remotely-fitted model for `name` at `version` (see
    /// `SessionStore::install_model`).
    pub fn install_model(&self, name: &str, version: u64, model: Arc<StatStackModel>) -> bool {
        self.shards[self.shard_of(name)]
            .store
            .lock()
            .unwrap()
            .install_model(name, version, model)
    }

    /// Live tombstones across all shards.
    pub fn tombstone_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.store.lock().unwrap().tombstone_count())
            .sum()
    }

    /// Per-shard statistics in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let store = s.store.lock().unwrap();
                let (window_bytes, probation_bytes, protected_bytes) = store.segment_bytes();
                ShardStats {
                    bytes: store.bytes() as u64,
                    budget_bytes: store.budget_bytes() as u64,
                    sessions: store.len() as u64,
                    evictions: store.evictions(),
                    model_hits: store.model_hits(),
                    model_misses: store.model_misses(),
                    admission_accepted: store.admission_accepted(),
                    admission_rejected: store.admission_rejected(),
                    doorkeeper_hits: store.doorkeeper_hits(),
                    sketch_resets: store.sketch_resets(),
                    window_bytes,
                    probation_bytes,
                    protected_bytes,
                    access_drains: s.drains.load(Ordering::Relaxed),
                    access_dropped: s.dropped.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repf_trace::{AccessKind, Pc};

    fn batch(n_reuse: usize) -> SampleBatch {
        SampleBatch {
            total_refs: 100,
            sample_period: 10,
            line_bytes: 64,
            reuse: (0..n_reuse)
                .map(|i| ReuseSample {
                    start_pc: Pc(1),
                    start_kind: AccessKind::Load,
                    end_pc: Pc(2),
                    end_kind: AccessKind::Load,
                    distance: i as u64,
                    start_index: i as u64,
                })
                .collect(),
            dangling: vec![],
            strides: vec![],
        }
    }

    /// `n_reuse` completed samples over three PCs and `n_dangling`
    /// dangling ones over four, their distances and PCs shifted by
    /// `salt`.
    fn mixed_batch(n_reuse: u64, n_dangling: u64, salt: u64) -> SampleBatch {
        SampleBatch {
            total_refs: 1000,
            sample_period: 10,
            line_bytes: 64,
            reuse: (0..n_reuse)
                .map(|i| ReuseSample {
                    start_pc: Pc(1),
                    start_kind: AccessKind::Load,
                    end_pc: Pc(1 + ((i + salt) % 3) as u32),
                    end_kind: AccessKind::Load,
                    distance: (i * 7919 + salt * 31) % 5000,
                    start_index: i,
                })
                .collect(),
            dangling: (0..n_dangling)
                .map(|i| DanglingSample {
                    pc: Pc(10 + ((i * 3 + salt) % 4) as u32),
                    kind: AccessKind::Load,
                    start_index: i,
                })
                .collect(),
            strides: vec![],
        }
    }

    /// `name`'s `(completed, dangling)` profile counts.
    fn profile_split(s: &mut SessionStore, name: &str) -> (u64, u64) {
        let p = s.get(name).unwrap();
        (p.reuse.len() as u64, p.dangling.len() as u64)
    }

    #[test]
    fn a_fit_reports_the_version_whose_samples_it_covers() {
        let check = |s: &mut SessionStore, what: &str| {
            let fit = s.fitted("a").unwrap();
            assert_eq!(Some(fit.version), s.version_of("a"), "{what}: version");
            assert_eq!(
                fit.model.sample_split(),
                profile_split(s, "a"),
                "{what}: the model covers the version's samples"
            );
        };
        // A plain refit: extend the cached fit by a new batch.
        let mut s = SessionStore::new(1 << 20);
        s.submit("a", mixed_batch(40, 6, 1)).unwrap();
        check(&mut s, "first fit");
        s.submit("a", mixed_batch(25, 3, 2)).unwrap();
        check(&mut s, "plain refit");

        // A refit right after an import, with and without the
        // exporter's model.
        let ex = s.export("a").unwrap();
        let mut bare = SessionStore::new(1 << 20);
        bare.import("a", ex.version, ex.batch.clone(), None)
            .unwrap();
        check(&mut bare, "fit of an import without a model");
        let mut shipped = SessionStore::new(1 << 20);
        shipped.import("a", ex.version, ex.batch, ex.model).unwrap();
        shipped.submit("a", mixed_batch(9, 2, 3)).unwrap();
        check(&mut shipped, "refit after an import with its model");

        // A refit after install_model: the installed fit is extended.
        let mut s = SessionStore::new(1 << 20);
        s.submit("a", mixed_batch(30, 4, 4)).unwrap();
        let version = s.version_of("a").unwrap();
        let elsewhere = StatStackModel::from_profile(s.get("a").unwrap());
        assert!(s.install_model("a", version, Arc::new(elsewhere)));
        s.submit("a", mixed_batch(12, 1, 5)).unwrap();
        check(&mut s, "refit after install_model");
    }

    #[test]
    fn a_pull_gets_the_samples_its_copy_lacks() {
        let mut s = SessionStore::new(1 << 20);
        s.submit("a", mixed_batch(40, 6, 1)).unwrap();
        let copy = s.fitted("a").unwrap();
        let split = copy.model.sample_split();
        assert_eq!(
            s.pull_current("a", copy.version, Some(split)),
            Some(PullAnswer::Current(copy.version))
        );
        for salt in 2..6 {
            s.submit("a", mixed_batch(16, salt % 3, salt)).unwrap();
        }
        let version = s.version_of("a").unwrap();
        let misses = s.model_misses();
        let Some(PullAnswer::Tail {
            version: tail_version,
            completed,
            dangling,
        }) = s.pull_current("a", copy.version, Some(split))
        else {
            panic!("a copy inside the history gets a tail");
        };
        assert_eq!(tail_version, version);
        assert_eq!(s.model_misses(), misses, "a tail answer never fits");
        assert_eq!(completed.len(), 64);
        assert!(
            dangling.windows(2).all(|w| w[0].0 < w[1].0),
            "one entry per PC, sorted"
        );
        assert_eq!(
            dangling.iter().map(|(_, n)| n).sum::<u64>(),
            (2..6).map(|salt| salt % 3).sum::<u64>()
        );
        let mut tail = StatStackModel::builder(64);
        tail.push_samples(
            completed.into_iter().map(|(pc, d)| (Pc(pc), d)),
            dangling.into_iter().map(|(pc, n)| (Pc(pc), n)),
        );
        let extended = copy.model.extend(&tail);
        assert_eq!(
            extended.to_parts(),
            s.fitted("a").unwrap().model.to_parts(),
            "the extended copy is the owner's model"
        );

        // No counts, counts past the profile, or a version outside the
        // history held here: the whole model.
        for (cached_version, counts) in [
            (copy.version, None),
            (copy.version, Some((split.0 + 100, split.1))),
            (copy.version, Some((split.0, split.1 + 100))),
            (0, Some(split)),
            (version + 1, Some(split)),
        ] {
            assert_eq!(
                s.pull_current("a", cached_version, counts),
                Some(PullAnswer::Whole),
                "quoted {cached_version} with {counts:?}"
            );
        }
        assert_eq!(s.pull_current("missing", 1, Some(split)), None);

        // An import starts the history held here at the imported version:
        // an older copy may name the exporter's history or another one.
        let ex = s.export("a").unwrap();
        let mut importer = SessionStore::new(1 << 20);
        importer.import("a", ex.version, ex.batch, None).unwrap();
        importer.submit("a", mixed_batch(8, 1, 9)).unwrap();
        assert_eq!(
            importer.pull_current("a", ex.version - 1, Some(split)),
            Some(PullAnswer::Whole),
            "a copy from before the import"
        );
        assert!(matches!(
            importer.pull_current(
                "a",
                ex.version,
                Some(s.fitted("a").unwrap().model.sample_split())
            ),
            Some(PullAnswer::Tail { .. })
        ));
    }

    #[test]
    fn a_copy_of_an_evicted_incarnation_gets_no_tail() {
        // "b" comes first, so its versions stay below the mark, and is
        // touched into the protected segment; "a" waits in probation,
        // where eviction looks first. Stride samples make the first
        // incarnation of "a" large without adding to its sample counts.
        let mut s = SessionStore::new(8 << 10);
        for salt in 0..3 {
            s.submit("b", mixed_batch(2, 0, salt)).unwrap();
        }
        let mut first = mixed_batch(10, 2, 3);
        first.strides = (0..40)
            .map(|i| StrideSample {
                pc: Pc(1),
                kind: AccessKind::Load,
                stride: 64,
                recurrence: i,
            })
            .collect();
        s.submit("a", first).unwrap();
        s.get("b").unwrap();
        let copy = s.fitted("a").unwrap();
        assert_eq!(copy.version, 4);
        // b's growth evicts a without raising the mark: a's last version
        // is the mark a new incarnation of a starts from.
        s.submit("b", mixed_batch(200, 0, 5)).unwrap();
        assert!(!s.contains("a") && s.contains("b"), "b's growth evicted a");
        assert_eq!(s.version_of("b"), Some(4));
        s.submit("a", mixed_batch(12, 2, 6)).unwrap();
        assert_eq!(
            s.version_of("a"),
            Some(5),
            "the new incarnation starts past the mark"
        );
        let split = copy.model.sample_split();
        let held = profile_split(&mut s, "a");
        assert!(
            split.0 <= held.0 && split.1 <= held.1,
            "the counts fit the new profile"
        );
        assert_eq!(
            s.pull_current("a", copy.version, Some(split)),
            Some(PullAnswer::Whole),
            "a copy of the evicted incarnation must not be extended by the new one's samples"
        );
    }

    #[test]
    fn submit_accumulates_and_get_refreshes() {
        let mut s = SessionStore::new(1 << 20);
        s.submit("a", batch(10)).unwrap();
        s.submit("a", batch(5)).unwrap();
        let p = s.get("a").unwrap();
        assert_eq!(p.reuse.len(), 15);
        assert_eq!(p.total_refs, 200);
        assert!(s.get("missing").is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn budget_is_enforced_by_refusing_newcomers_no_more_frequent() {
        // Each 100-reuse batch is ~3.5 kB with overhead; budget fits 4.
        let mut s = SessionStore::new(16 << 10);
        for name in ["a", "b", "c", "d", "e"] {
            s.submit(name, batch(100)).unwrap();
            assert!(s.bytes() <= s.budget_bytes(), "invariant after {name}");
        }
        assert_eq!(s.evictions(), 1, "pressure must evict");
        assert_eq!(s.admission_rejected(), 1);
        // "e" is seen once, like the oldest resident "a": the filter
        // keeps "a" and refuses the newcomer.
        assert!(s.get("a").is_some());
        assert!(s.get("e").is_none());
    }

    #[test]
    fn a_store_that_fits_its_budget_admits_the_window_victim() {
        // `b` overflows the window and does not fit main's 99 % slice
        // next to `a`, but the whole store, `b` included, fits the
        // budget: it is admitted, not compared with `a` and refused.
        let mut s = SessionStore::new(100_000);
        s.submit("a", batch(3069)).unwrap();
        assert_eq!(s.bytes(), 98_465);
        assert_eq!(
            s.submit("b", batch(30)).unwrap(),
            SubmitOutcome {
                store_bytes: 99_682,
                evicted: 0
            }
        );
        assert!(s.contains("a") && s.contains("b"));
        assert_eq!((s.evictions(), s.admission_rejected()), (0, 0));
    }

    #[test]
    fn recency_from_queries_protects_sessions() {
        let mut s = SessionStore::new(16 << 10);
        s.submit("old", batch(100)).unwrap();
        s.submit("mid", batch(100)).unwrap();
        s.get("old"); // refresh: now "mid" is the LRU
        loop {
            s.submit("new", batch(100)).unwrap();
            if s.get("mid").is_none() || s.get("old").is_none() {
                break;
            }
        }
        assert!(s.get("old").is_some(), "refreshed session outlives mid");
    }

    #[test]
    fn single_session_over_budget_is_evicted_too() {
        let mut s = SessionStore::new(1 << 10);
        let out = s.submit("huge", batch(1000)).unwrap();
        assert_eq!(out.store_bytes, 0, "store never exceeds budget");
        assert!(s.get("huge").is_none());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn line_bytes_mismatch_is_rejected() {
        let mut s = SessionStore::new(1 << 20);
        s.submit("a", batch(1)).unwrap();
        let mut b = batch(1);
        b.line_bytes = 128;
        assert_eq!(s.submit("a", b), Err(SubmitRejected::InconsistentLineBytes));
    }

    #[test]
    fn zero_line_bytes_is_refused_before_a_session_exists() {
        let mut s = SessionStore::new(1 << 20);
        s.submit("a", batch(1)).unwrap();
        let mut zero = batch(2);
        zero.line_bytes = 0;
        assert_eq!(
            s.submit("z", zero.clone()),
            Err(SubmitRejected::ZeroLineBytes)
        );
        assert_eq!(
            s.import("a", 7, zero, None),
            Err(SubmitRejected::ZeroLineBytes)
        );
        assert!(s.get("z").is_none());
        assert_eq!(
            s.get("a").unwrap().line_bytes,
            64,
            "import left 'a' as it was"
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn name_index_survives_eviction_churn() {
        // swap_remove reshuffles entry positions; the name→index map must
        // track every move or lookups would hit the wrong session.
        let mut s = SessionStore::new(24 << 10);
        for round in 0..6u32 {
            for i in 0..8u32 {
                let name = format!("s{}", (round * 3 + i) % 10);
                s.submit(&name, batch(60)).unwrap();
                assert!(s.bytes() <= s.budget_bytes());
            }
        }
        // Every live session's profile is reachable under its own name
        // and line size is intact (i.e. no cross-wired indices).
        let live: Vec<String> = (0..10).map(|i| format!("s{i}")).collect();
        let mut found = 0;
        for name in &live {
            if let Some(p) = s.get(name) {
                assert_eq!(p.line_bytes, 64);
                assert_eq!(p.reuse.len() % 60, 0, "{name} holds whole batches");
                found += 1;
            }
        }
        assert_eq!(found, s.len(), "index and entries agree on liveness");
        assert!(s.evictions() > 0);
    }

    #[test]
    fn model_cache_hits_until_submit_invalidates() {
        let mut s = SessionStore::new(1 << 20);
        s.submit("a", batch(50)).unwrap();
        let (m1, hit1) = s.model("a").unwrap();
        assert!(!hit1, "first fit is a miss");
        let (m2, hit2) = s.model("a").unwrap();
        assert!(hit2, "unchanged session reuses the fit");
        assert!(Arc::ptr_eq(&m1, &m2), "same published model");
        s.submit("a", batch(7)).unwrap();
        let (m3, hit3) = s.model("a").unwrap();
        assert!(!hit3, "submit bumped the version");
        assert_eq!(m3.sample_count(), 57);
        assert_eq!(s.model_hits(), 1);
        assert_eq!(s.model_misses(), 2);
        assert!(s.model("missing").is_none());
    }

    #[test]
    fn recreated_sessions_never_reuse_a_version() {
        // One session's worth of budget: each new session evicts the
        // previous one.
        let mut s = SessionStore::new(SESSION_OVERHEAD_BYTES + 400);
        s.submit("a", batch(5)).unwrap();
        s.submit("a", batch(5)).unwrap();
        assert_eq!(s.version_of("a"), Some(2));
        s.submit("b", batch(5)).unwrap();
        assert!(!s.contains("a"), "b evicted a");
        assert_eq!(s.version_of("b"), Some(3), "b starts past a's versions");
        s.submit("a", batch(5)).unwrap();
        assert_eq!(
            s.version_of("a"),
            Some(4),
            "the new incarnation of a never names the old one's history"
        );
        // Imports keep the exporter's counter and raise the mark.
        s.import("c", 40, batch(5), None).unwrap();
        s.submit("d", batch(5)).unwrap();
        assert_eq!(s.version_of("d"), Some(41));
    }

    #[test]
    fn incremental_session_model_matches_from_scratch() {
        let mut s = SessionStore::new(1 << 20);
        s.submit("a", batch(40)).unwrap();
        s.model("a").unwrap(); // fit #1: pending-only path
        s.submit("a", batch(25)).unwrap();
        s.submit("a", batch(13)).unwrap();
        let (m, _) = s.model("a").unwrap(); // fit #2: extend path, 2 batches
        let direct = StatStackModel::from_profile(s.get("a").unwrap());
        for lines in [0u64, 1, 10, 39, 1000] {
            assert_eq!(
                m.miss_ratio(lines).to_bits(),
                direct.miss_ratio(lines).to_bits(),
                "MR({lines})"
            );
        }
        assert_eq!(m.sample_count(), direct.sample_count());
    }

    #[test]
    fn export_import_roundtrip_preserves_model_and_version() {
        let mut a = SessionStore::new(1 << 20);
        a.submit("s", batch(40)).unwrap();
        a.submit("s", batch(10)).unwrap();
        let (fitted, _) = a.model("s").unwrap();
        let ex = a.export("s").unwrap();
        assert_eq!(ex.version, 2);
        assert!(Arc::ptr_eq(ex.model.as_ref().unwrap(), &fitted));
        assert_eq!(ex.batch.reuse.len(), 50);

        let mut b = SessionStore::new(1 << 20);
        b.import("s", ex.version, ex.batch, ex.model).unwrap();
        assert_eq!(b.version_of("s"), Some(2));
        let (m, hit) = b.model("s").unwrap();
        assert!(hit, "imported model serves without a refit");
        assert!(Arc::ptr_eq(&m, &fitted));
        assert_eq!(b.model_misses(), 0);
        // Profile carried over losslessly: a post-import submit extends
        // incrementally and matches a from-scratch fit.
        b.submit("s", batch(7)).unwrap();
        assert_eq!(b.version_of("s"), Some(3));
        let (m2, _) = b.model("s").unwrap();
        let direct = StatStackModel::from_profile(b.get("s").unwrap());
        for lines in [0u64, 5, 40, 500] {
            assert_eq!(
                m2.miss_ratio(lines).to_bits(),
                direct.miss_ratio(lines).to_bits()
            );
        }
    }

    #[test]
    fn export_without_fresh_fit_ships_no_model() {
        let mut s = SessionStore::new(1 << 20);
        s.submit("s", batch(20)).unwrap();
        s.model("s").unwrap();
        s.submit("s", batch(5)).unwrap(); // cache now stale
        let ex = s.export("s").unwrap();
        assert!(ex.model.is_none(), "stale cache must not travel");
        let mut b = SessionStore::new(1 << 20);
        b.import("s", ex.version, ex.batch, ex.model).unwrap();
        let (m, hit) = b.model("s").unwrap();
        assert!(!hit);
        assert_eq!(m.sample_count(), 25, "pending holds the full profile");
    }

    #[test]
    fn remove_migrated_is_version_guarded_and_leaves_tombstone() {
        let mut s = SessionStore::new(1 << 20);
        s.submit("s", batch(10)).unwrap();
        let ex = s.export("s").unwrap();
        // A submit racing the snapshot bumps the version → removal must
        // refuse so the new samples are not silently dropped.
        s.submit("s", batch(3)).unwrap();
        assert!(!s.remove_migrated("s", ex.version, "peer:1"));
        assert!(s.contains("s"));
        let ex2 = s.export("s").unwrap();
        assert!(s.remove_migrated("s", ex2.version, "peer:1"));
        assert!(!s.contains("s"));
        assert_eq!(s.tombstone_of("s"), Some("peer:1"));
        assert_eq!(s.tombstone_count(), 1);
        // Removing an already-gone session is a success (evicted is fine).
        assert!(s.remove_migrated("never", 9, "peer:2"));
        // A fresh local submit clears the forwarding hint.
        s.submit("s", batch(1)).unwrap();
        assert_eq!(s.tombstone_of("s"), None);
    }

    #[test]
    fn import_replaces_existing_entry_and_clears_tombstone() {
        let mut s = SessionStore::new(1 << 20);
        s.submit("s", batch(30)).unwrap();
        let ex = s.export("s").unwrap();
        assert!(s.remove_migrated("s", ex.version, "elsewhere"));
        // The session comes back (ring flapped): import must clear the
        // tombstone and install the authoritative copy.
        let mut other = SessionStore::new(1 << 20);
        other.submit("s", batch(30)).unwrap();
        other.submit("s", batch(4)).unwrap();
        let back = other.export("s").unwrap();
        s.import("s", back.version, back.batch, back.model).unwrap();
        assert_eq!(s.tombstone_of("s"), None);
        assert_eq!(s.version_of("s"), Some(2));
        assert_eq!(s.get("s").unwrap().reuse.len(), 34);
        let bytes = s.bytes();
        assert!(bytes <= s.budget_bytes());
    }

    #[test]
    fn sharded_export_import_and_tombstones() {
        let a = ShardedSessionStore::new(1 << 20, 4);
        for i in 0..6u32 {
            a.submit(&format!("s{i}"), batch(10 + i as usize)).unwrap();
        }
        let mut names = a.session_names();
        names.sort();
        assert_eq!(names, (0..6).map(|i| format!("s{i}")).collect::<Vec<_>>());
        let b = ShardedSessionStore::new(1 << 20, 2);
        let mut versions = Vec::new();
        for name in &names {
            let ex = a.export(name).unwrap();
            versions.push(ex.version);
            b.import(name, ex.version, ex.batch, ex.model).unwrap();
            assert!(a.remove_migrated(name, ex.version, "b:0"));
        }
        assert!(a.is_empty());
        assert_eq!(a.bytes(), 0, "byte gauges drained with the sessions");
        assert_eq!(a.tombstone_count(), 6);
        assert_eq!(a.tombstone_of("s3"), Some("b:0".to_string()));
        assert_eq!(b.len(), 6);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                b.version_of(name),
                Some(versions[i]),
                "imports keep the version"
            );
            assert!(b.contains(name));
            assert_eq!(b.model(name).unwrap().0.sample_count(), 10 + i as u64);
        }
    }

    #[test]
    fn sharded_store_routes_and_respects_aggregate_budget() {
        let s = ShardedSessionStore::new(64 << 10, 4);
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.budget_bytes(), 64 << 10);
        // Names deterministically map to shards and stay there.
        for i in 0..32u32 {
            let name = format!("app-{i}");
            assert_eq!(s.shard_of(&name), s.shard_of(&name));
            s.submit(&name, batch(100)).unwrap();
            assert!(
                s.bytes() <= s.budget_bytes() as u64,
                "aggregate within budget after {name}"
            );
        }
        let stats = s.shard_stats();
        assert_eq!(stats.len(), 4);
        for (i, st) in stats.iter().enumerate() {
            assert!(st.bytes <= st.budget_bytes, "shard {i} within its slice");
        }
        assert_eq!(
            stats.iter().map(|st| st.bytes).sum::<u64>(),
            s.bytes(),
            "gauges mirror the stores"
        );
        assert!(s.evictions() > 0, "32 × 4 kB over 64 kB must evict");
        assert_eq!(
            s.len(),
            stats.iter().map(|st| st.sessions).sum::<u64>() as usize
        );
    }

    #[test]
    fn sharded_eviction_spares_the_hottest_session() {
        let s = ShardedSessionStore::new(48 << 10, 4);
        s.submit("hot", batch(100)).unwrap();
        // Hammer "hot" with queries while flooding its own shard with
        // fresh sessions; its frequency must keep it alive in its shard.
        let shard = s.shard_of("hot");
        let mut flooded = 0;
        let mut i = 0;
        while flooded < 12 {
            let name = format!("cold-{i}");
            i += 1;
            if s.shard_of(&name) != shard {
                continue;
            }
            s.model("hot").expect("hot stays live");
            s.submit(&name, batch(100)).unwrap();
            flooded += 1;
        }
        assert!(s.model("hot").is_some(), "hottest survives");
        assert!(s.evictions() > 0, "flooding the shard evicted colder ones");
        assert!(s.bytes() <= s.budget_bytes() as u64);
    }

    #[test]
    fn under_budget_never_evicts_or_rejects() {
        // Replay-safety: while the store fits its budget, admission
        // must be invisible — no eviction, no rejection, every session
        // answerable — or replay digests would diverge from the oracle.
        let mut s = SessionStore::new(1 << 20);
        for name in ["a", "b", "c", "d", "e", "f"] {
            s.submit(name, batch(50)).unwrap();
        }
        for name in ["a", "b", "c", "d", "e", "f"] {
            assert!(s.get(name).is_some());
            assert!(s.model(name).is_some());
        }
        assert_eq!(s.len(), 6);
        assert_eq!(s.evictions(), 0);
        assert_eq!(s.admission_rejected(), 0);
        let (w, p, pr) = s.segment_bytes();
        assert_eq!(
            (w + p + pr) as usize,
            s.bytes(),
            "segments partition the gauge"
        );
    }

    #[test]
    fn admission_protects_hot_session_from_one_shot_flood() {
        // Build up one hot session, then flood with one-shot sessions
        // that together exceed the budget several times over: the
        // admission filter keeps the hot session.
        let mut lfu = SessionStore::new(16 << 10);
        for _ in 0..3 {
            lfu.submit("hot", batch(100)).unwrap();
        }
        for i in 0..20 {
            lfu.submit(&format!("flood-{i}"), batch(100)).unwrap();
        }
        assert!(lfu.get("hot").is_some(), "admission keeps the hot session");
        assert!(lfu.admission_rejected() > 0, "one-shots were turned away");
        assert!(
            lfu.evictions() > 0,
            "rejected window victims count as evictions"
        );
        assert!(lfu.bytes() <= lfu.budget_bytes());
        let (w, p, pr) = lfu.segment_bytes();
        assert_eq!((w + p + pr) as usize, lfu.bytes());
    }

    #[test]
    fn import_with_model_beats_admission_where_plain_import_fails() {
        // A fitted model travels with a migrating session; the importer
        // must not let its admission filter discard what fleet-wide
        // fit-at-most-once just paid to ship.
        let mut exporter = SessionStore::new(1 << 20);
        exporter.submit("migrant", batch(100)).unwrap();
        exporter.model("migrant").unwrap();
        let ex = exporter.export("migrant").unwrap();
        assert!(ex.model.is_some());

        let setup = || {
            let mut s = SessionStore::new(16 << 10);
            for _ in 0..3 {
                s.submit("resident", batch(100)).unwrap();
            }
            s.submit("filler", batch(100)).unwrap();
            s
        };
        // Without the cached model the migrant's frequency is 1 — it
        // cannot beat even the coldest main entry, and is rejected.
        let mut plain = setup();
        plain
            .import("migrant", ex.version, ex.batch.clone(), None)
            .unwrap();
        assert!(
            plain.get("migrant").is_none(),
            "freq-1 import loses admission"
        );
        // With the model the boost carries it past the cold filler.
        let mut boosted = setup();
        boosted
            .import("migrant", ex.version, ex.batch.clone(), ex.model.clone())
            .unwrap();
        assert!(
            boosted.get("migrant").is_some(),
            "model-carrying import admitted"
        );
        let (m, hit) = boosted.model("migrant").unwrap();
        assert!(hit, "the shipped fit serves without a refit");
        assert!(Arc::ptr_eq(&m, ex.model.as_ref().unwrap()));
        assert!(boosted.get("resident").is_some(), "hot resident untouched");
    }

    #[test]
    fn probation_promotes_to_protected_on_touch() {
        let mut s = SessionStore::new(64 << 10);
        s.submit("a", batch(100)).unwrap(); // window → probation (overflow)
        let (_, p0, pr0) = s.segment_bytes();
        assert!(p0 > 0, "first session admitted to probation");
        assert_eq!(pr0, 0);
        s.get("a").unwrap(); // touch → protected
        let (_, p1, pr1) = s.segment_bytes();
        assert_eq!(p1, 0);
        assert_eq!(pr1, p0, "touched probation entry moved wholesale");
    }

    #[test]
    fn tombstone_cap_drops_oldest_first() {
        let mut s = SessionStore::new(64 << 20);
        let extra = 100;
        for i in 0..(MAX_TOMBSTONES + extra) {
            let name = format!("t{i}");
            s.submit(&name, batch(1)).unwrap();
            let v = s.version_of(&name).unwrap();
            assert!(s.remove_migrated(&name, v, "peer:9"));
            assert!(
                s.tombstone_count() <= MAX_TOMBSTONES,
                "bound holds after t{i}"
            );
        }
        assert_eq!(s.tombstone_count(), MAX_TOMBSTONES);
        // FIFO: exactly the oldest `extra` tombstones were dropped.
        for i in 0..extra {
            assert!(
                s.tombstone_of(&format!("t{i}")).is_none(),
                "t{i} (oldest) dropped"
            );
        }
        for i in extra..(MAX_TOMBSTONES + extra) {
            assert_eq!(
                s.tombstone_of(&format!("t{i}")),
                Some("peer:9"),
                "t{i} kept"
            );
        }
    }

    #[test]
    fn sharded_store_batches_read_recording_off_the_hot_path() {
        let s = ShardedSessionStore::new(1 << 20, 1);
        s.submit("a", batch(10)).unwrap();
        // A burst of reads records through the striped buffer: drains
        // happen in batches (under the lock each read already held for
        // its lookup), not once per read.
        for _ in 0..1000 {
            s.model("a").unwrap();
        }
        let st = &s.shard_stats()[0];
        assert!(st.access_drains > 0, "reads fed the sketch");
        assert!(
            st.access_drains <= 1000 / 64 + 2,
            "{} drains for 1000 reads is not batched",
            st.access_drains
        );
    }

    #[test]
    fn sharded_model_cache_and_profiles_are_consistent() {
        let s = ShardedSessionStore::new(1 << 20, 8);
        for i in 0..10u32 {
            s.submit(&format!("s{i}"), batch(30 + i as usize)).unwrap();
        }
        for i in 0..10u32 {
            let name = format!("s{i}");
            let (m, hit) = s.model(&name).unwrap();
            assert!(!hit);
            assert_eq!(m.sample_count(), 30 + u64::from(i));
            let (m2, hit2) = s.model(&name).unwrap();
            assert!(hit2);
            assert!(Arc::ptr_eq(&m, &m2));
            let ((), hit3) = s
                .with_profile_and_model(&name, |p, model| {
                    assert_eq!(p.reuse.len() as u64, model.sample_count());
                })
                .unwrap();
            assert!(hit3);
        }
        let stats = s.shard_stats();
        assert_eq!(stats.iter().map(|st| st.model_misses).sum::<u64>(), 10);
        assert_eq!(stats.iter().map(|st| st.model_hits).sum::<u64>(), 20);
    }
}
