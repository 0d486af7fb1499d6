//! Columnar client fleet: struct-of-arrays mobile-unit state.
//!
//! The boxed-[`sw_client::MobileUnit`] fleet stores each client's cache
//! as a dense `n_items`-wide table behind a trait-object handler. That
//! layout is exact but hostile to the hot path: one report sweep visits
//! a thousand heap-scattered caches, each a universe-sized vector of
//! `Option<CacheEntry>`, and at 10⁵–10⁶ clients per cell the per-client
//! tables alone dwarf RAM (a million 2000-item dense caches ≈ 48 GB).
//!
//! This module stores the same client state in parallel columns. The
//! enabling invariant is that a client's cache is always a subset of
//! its hotspot: queries draw only hotspot items, and entries are
//! installed only by answers to queries. So every client owns a fixed
//! block of `H = hotspot_size` *slots*, one per hotspot item in
//! ascending id order, and the whole fleet is a few flat vectors
//! indexed by `client * H + slot`:
//!
//! * `slot_items` — the hotspot, sorted (slot → item id);
//! * `valid` — one bit per slot (cached or not), `⌈H/64⌉` words/client;
//! * `values`, `stamps` — the cached value and validity timestamp;
//! * plus per-client scalars (stats, `T_l`, awake flag, pending
//!   queries, the query/sleep processes).
//!
//! One report sweep is then a cache-friendly linear scan over the slot
//! block, and disjoint client ranges of the columns can be swept by
//! parallel workers with no aliasing. The report rules themselves are
//! not here: each client's slot block is a [`CacheRow`], and the sweep
//! runs the same [`sw_client::kernel`] functions the boxed units run.
//! Slot order is ascending item id, the iteration order of the dense
//! cache, so the two layouts produce bit-identical outcomes.
//! `tests/columnar_equivalence.rs` and `tests/golden_digests.rs` pin
//! the two storage layouts against each other and against recorded
//! results.
//!
//! Bounded caches ride along as optional columns ([`CapColumns`]):
//! per-slot recency/frequency ticks, a per-client access clock, and a
//! per-slot ghost byte remembering evicted-entry stamps. They are
//! materialized only when the cell bounds its caches, so unbounded
//! sweeps touch nothing new; when armed, eviction at install time
//! transcribes `sw_client::Cache::insert` (the victim key's item-id
//! tiebreak makes the minimum unique, so the slot scan and the boxed
//! table walk pick the same victim).
//!
//! Eligibility is decided by the simulation driver: static strategies
//! only (TS/AT/SIG/NC/HYB/GR), no piggyback histories, standalone cells
//! (no mesh backbone). Everything else stays on the boxed-unit fleet.

use std::sync::Arc;

use sw_capacity::{victim_key, EntryMeta, GhostFate, ReplacementPolicy};
use sw_client::kernel::{self, CacheRow, PreparedReport, SigRow, StaticSpec};
use sw_client::{MuStats, PendingQuery};
use sw_server::{ItemId, QueryAnswer};
use sw_signature::CombinedSignature;
use sw_sim::{BernoulliIntervalProcess, PoissonProcess, RngStream, SimDuration, SimTime};
use sw_wireless::FramePayload;

use crate::simulation::SweepItem;

/// Per-client SIG/HYB tracking state, columnar: the fields of
/// [`sw_client::kernel::SigState`], `m` signature slots per client.
struct SigColumns {
    m: usize,
    /// Tracked combined signature per subset, stride `m` per client.
    tracked: Vec<Option<CombinedSignature>>,
    tracked_count: Vec<usize>,
    last_report: Vec<Arc<Vec<CombinedSignature>>>,
    last_unmatched: Vec<u32>,
}

impl SigColumns {
    fn chunk(&mut self) -> SigChunk<'_> {
        SigChunk {
            m: self.m,
            tracked: &mut self.tracked,
            tracked_count: &mut self.tracked_count,
            last_report: &mut self.last_report,
            last_unmatched: &mut self.last_unmatched,
        }
    }
}

/// Capacity configuration for a bounded fleet (mirrors the boxed
/// cache's `with_capacity` + `set_replacement`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapacitySpec {
    /// Max cached entries per client.
    pub cap: usize,
    /// Victim selection policy.
    pub policy: ReplacementPolicy,
    /// TS window `w = kL` for [`ReplacementPolicy::WindowAge`].
    pub window: SimDuration,
}

/// Bounded-cache state, columnar: the per-entry replacement metadata
/// and ghost list of `sw_client::Cache`, as parallel slot columns.
/// Allocated only for bounded fleets — unbounded sweeps never touch it.
struct CapColumns {
    spec: CapacitySpec,
    /// Recency tick of the last access, stride `h` (only meaningful
    /// where the valid bit is set; reinstall overwrites).
    last_used: Vec<u64>,
    /// Hits since install (1 at install), stride `h`.
    use_count: Vec<u64>,
    /// Ghost state per slot: 0 = none, 1 = fresh, 2 = proven stale.
    ghost: Vec<u8>,
    /// Evicted entry's validity stamp (meaningful where `ghost != 0`),
    /// stride `h`.
    ghost_stamps: Vec<SimTime>,
    /// Per-client access clock (`Cache::clock`): bumped on every
    /// answer-loop read — hit or miss — and on every install.
    clock: Vec<u64>,
}

impl CapColumns {
    fn chunk(&mut self, h: usize) -> CapChunk<'_> {
        CapChunk {
            spec: self.spec,
            h,
            last_used: &mut self.last_used,
            use_count: &mut self.use_count,
            ghost: &mut self.ghost,
            ghost_stamps: &mut self.ghost_stamps,
            clock: &mut self.clock,
        }
    }
}

/// The columnar client fleet. See the module docs for the layout.
pub(crate) struct ColumnarFleet {
    n: usize,
    /// Hotspot size `H` = slots per client.
    h: usize,
    /// Validity bitmap words per client.
    words: usize,
    /// Hotspot in *draw order*, stride `h` (query draws map a uniform
    /// index through this, exactly like `MuConfig::hotspot`).
    hotspot_draw: Vec<ItemId>,
    /// Hotspot in ascending id order, stride `h` (slot → item).
    slot_items: Vec<ItemId>,
    /// Validity bitmap, stride `words`.
    valid: Vec<u64>,
    /// Cached values, stride `h`.
    values: Vec<u64>,
    /// Validity timestamps `t_x`, stride `h`.
    stamps: Vec<SimTime>,
    /// Live slot count per client (= `cache.len()`).
    cached: Vec<u32>,
    t_l: Vec<Option<SimTime>>,
    awake: Vec<bool>,
    pending: Vec<Vec<PendingQuery>>,
    stats: Vec<MuStats>,
    queries: Vec<PoissonProcess>,
    sleep: Vec<BernoulliIntervalProcess>,
    spec: StaticSpec,
    sig: Option<SigColumns>,
    cap: Option<CapColumns>,
}

impl ColumnarFleet {
    /// Creates an empty fleet; clients are appended by
    /// [`Self::push_client`] in the constructor's per-index loop, so
    /// the rng draw order matches the boxed-unit path exactly.
    pub(crate) fn new(
        hotspot_size: usize,
        spec: StaticSpec,
        capacity: Option<CapacitySpec>,
    ) -> Self {
        assert!(hotspot_size > 0, "hotspot cannot be empty");
        let sig = spec.decoder().map(|d| SigColumns {
            m: d.plan().m as usize,
            tracked: Vec::new(),
            tracked_count: Vec::new(),
            last_report: Vec::new(),
            last_unmatched: Vec::new(),
        });
        let cap = capacity.map(|spec| {
            assert!(spec.cap > 0, "cache capacity must be positive");
            CapColumns {
                spec,
                last_used: Vec::new(),
                use_count: Vec::new(),
                ghost: Vec::new(),
                ghost_stamps: Vec::new(),
                clock: Vec::new(),
            }
        });
        ColumnarFleet {
            n: 0,
            h: hotspot_size,
            words: hotspot_size.div_ceil(64),
            hotspot_draw: Vec::new(),
            slot_items: Vec::new(),
            valid: Vec::new(),
            values: Vec::new(),
            stamps: Vec::new(),
            cached: Vec::new(),
            t_l: Vec::new(),
            awake: Vec::new(),
            pending: Vec::new(),
            stats: Vec::new(),
            queries: Vec::new(),
            sleep: Vec::new(),
            spec,
            sig,
            cap,
        }
    }

    /// Appends one client, consuming exactly the draws
    /// `MobileUnit::new` would: one exponential from `query_rng` for
    /// the Poisson query process's first arrival. The hotspot arrives
    /// in draw order and is sorted into slot order here.
    pub(crate) fn push_client(
        &mut self,
        hotspot: Vec<ItemId>,
        query_rate_per_item: f64,
        sleep_probability: f64,
        query_rng: &mut RngStream,
    ) {
        assert_eq!(hotspot.len(), self.h, "fleet hotspots must share one size");
        let total_rate = query_rate_per_item * hotspot.len() as f64;
        let mut sorted = hotspot.clone();
        sorted.sort_unstable();
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "hotspot draws must be distinct for the slot mapping"
        );
        self.hotspot_draw.extend_from_slice(&hotspot);
        self.slot_items.extend_from_slice(&sorted);
        self.valid.extend(std::iter::repeat_n(0u64, self.words));
        self.values.extend(std::iter::repeat_n(0u64, self.h));
        self.stamps
            .extend(std::iter::repeat_n(SimTime::ZERO, self.h));
        self.cached.push(0);
        self.t_l.push(None);
        self.awake.push(true);
        self.pending.push(Vec::new());
        self.stats.push(MuStats::default());
        self.queries
            .push(PoissonProcess::new(total_rate, query_rng));
        self.sleep
            .push(BernoulliIntervalProcess::new(sleep_probability));
        if let Some(sig) = &mut self.sig {
            sig.tracked.extend(std::iter::repeat_n(None, sig.m));
            sig.tracked_count.push(0);
            sig.last_report.push(Arc::new(Vec::new()));
            sig.last_unmatched.push(0);
        }
        if let Some(cap) = &mut self.cap {
            cap.last_used.extend(std::iter::repeat_n(0u64, self.h));
            cap.use_count.extend(std::iter::repeat_n(0u64, self.h));
            cap.ghost.extend(std::iter::repeat_n(0u8, self.h));
            cap.ghost_stamps
                .extend(std::iter::repeat_n(SimTime::ZERO, self.h));
            cap.clock.push(0);
        }
        self.n += 1;
    }

    /// Number of clients.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Whether client `idx` is awake this interval.
    pub(crate) fn is_awake(&self, idx: usize) -> bool {
        self.awake[idx]
    }

    /// Stats snapshot for client `idx`.
    pub(crate) fn stats(&self, idx: usize) -> MuStats {
        self.stats[idx]
    }

    /// Iterates all per-client stats (report aggregation).
    pub(crate) fn stats_iter(&self) -> impl Iterator<Item = &MuStats> + '_ {
        self.stats.iter()
    }

    /// Zeroes every client's stats (warm-up reset).
    pub(crate) fn reset_stats(&mut self) {
        self.stats.fill(MuStats::default());
    }

    /// Marks client `idx` asleep.
    pub(crate) fn enter_sleep(&mut self, idx: usize) {
        self.awake[idx] = false;
    }

    /// Credits `k` asleep intervals (lazy settlement at wake-up).
    pub(crate) fn credit_asleep_intervals(&mut self, idx: usize, k: u64) {
        self.stats[idx].intervals_asleep += k;
    }

    /// Draws client `idx`'s next sleep run.
    pub(crate) fn draw_sleep_run(&self, idx: usize, rng: &mut RngStream) -> u64 {
        self.sleep[idx].draw_sleep_run(rng)
    }

    /// Unmatched-subset telemetry from the last processed report
    /// (SIG/HYB only, mirroring `ReportHandler::last_unmatched_subsets`).
    pub(crate) fn last_unmatched_subsets(&self, idx: usize) -> Option<u32> {
        self.sig.as_ref().map(|s| s.last_unmatched[idx])
    }

    /// Starts interval `(from, to]` for awake client `idx`: generates
    /// this interval's query arrivals into its pending list, consuming
    /// `query_rng` exactly like `MobileUnit::begin_awake_interval`.
    /// When `pick` is `Some` (Zipf skew), each arrival's hotspot index
    /// comes from the closure and the uniform draw on `query_rng` is
    /// *not consumed* — mirroring
    /// `MobileUnit::begin_awake_interval_skewed`.
    pub(crate) fn begin_awake_interval_skewed(
        &mut self,
        idx: usize,
        from: SimTime,
        to: SimTime,
        query_rng: &mut RngStream,
        mut pick: Option<&mut dyn FnMut() -> usize>,
    ) {
        self.awake[idx] = true;
        let stats = &mut self.stats[idx];
        stats.intervals_awake += 1;
        let base = idx * self.h;
        for at in self.queries[idx].arrivals_in(from, to, query_rng) {
            let j = match pick.as_deref_mut() {
                Some(pick) => pick(),
                None => query_rng.uniform_index(self.h as u64) as usize,
            };
            let item = self.hotspot_draw[base + j];
            self.pending[idx].push(PendingQuery { item, posed_at: at });
            stats.queries_posed += 1;
        }
    }

    /// Installs an uplink answer: cache the fresh copy under the
    /// request's server timestamp, evicting while over capacity, and
    /// (SIG/HYB) adopt tracking for the item's subsets from the last
    /// heard report.
    pub(crate) fn install_answer(&mut self, idx: usize, answer: QueryAnswer) {
        let (spec, mut view) = self.view();
        let mut client = view.client(idx);
        client.stats.evictions += client.cache.install(answer);
        if let Some(sig) = client.sig {
            kernel::on_fetch(spec, sig, answer.item);
        }
    }

    /// Records a listened-for-but-missed report (fault injection).
    pub(crate) fn miss_report(&mut self, idx: usize) {
        assert!(
            self.awake[idx],
            "a sleeping unit was not listening for the report"
        );
        self.stats[idx].reports_missed += 1;
    }

    /// Visits every cached entry as `(item, value, timestamp)` in
    /// client order, items ascending — the iteration order of the
    /// boxed-unit safety check.
    pub(crate) fn for_each_cached_entry<F: FnMut(ItemId, u64, SimTime)>(&self, mut f: F) {
        for idx in 0..self.n {
            let base = idx * self.h;
            for slot in 0..self.h {
                if self.valid[idx * self.words + slot / 64] & (1 << (slot % 64)) != 0 {
                    f(
                        self.slot_items[base + slot],
                        self.values[base + slot],
                        self.stamps[base + slot],
                    );
                }
            }
        }
    }

    /// The whole fleet as one chunk, with the shared spec beside it.
    fn view(&mut self) -> (&StaticSpec, ChunkView<'_>) {
        let view = ChunkView {
            base: 0,
            h: self.h,
            words: self.words,
            slot_items: &self.slot_items,
            awake: &self.awake,
            valid: &mut self.valid,
            values: &mut self.values,
            stamps: &mut self.stamps,
            cached: &mut self.cached,
            t_l: &mut self.t_l,
            pending: &mut self.pending,
            stats: &mut self.stats,
            sig: self.sig.as_mut().map(SigColumns::chunk),
            cap: self.cap.as_mut().map(|c| c.chunk(self.h)),
        };
        (&self.spec, view)
    }

    /// The whole-fleet report sweep: every listening client (the
    /// `heard` awake-slots, client indices `awake[slot]` ascending)
    /// applies the shared payload and answers its pending queries.
    /// Pure per-client work — no randomness, no shared mutation — so
    /// when `threads > 1` and the listening set is large enough the
    /// columns are split at client boundaries into contiguous chunks
    /// and swept by scoped workers; results are returned in ascending
    /// order either way, bit-identical at any worker count.
    pub(crate) fn sweep(
        &mut self,
        heard: &[usize],
        awake: &[usize],
        payload: &FramePayload,
        observing: bool,
        threads: usize,
        par_min: usize,
    ) -> Vec<SweepItem> {
        let (spec, mut view) = self.view();
        let report = PreparedReport::new(spec, payload);
        if threads > 1 && heard.len() >= par_min {
            let workers = threads.min(heard.len());
            let chunk_len = heard.len().div_ceil(workers);
            let mut out = Vec::with_capacity(heard.len());
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for chunk in heard.chunks(chunk_len) {
                    let last_idx = awake[*chunk.last().expect("chunks are non-empty")];
                    let mut part = view.split_front(last_idx + 1);
                    let report = &report;
                    handles.push(scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&slot| {
                                sweep_client(&mut part, report, awake[slot], slot, observing)
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                for handle in handles {
                    out.extend(handle.join().expect("columnar sweep worker panicked"));
                }
            });
            out
        } else {
            heard
                .iter()
                .map(|&slot| sweep_client(&mut view, &report, awake[slot], slot, observing))
                .collect()
        }
    }
}

/// Splits the first `n` elements off a column.
fn front<'a, T>(column: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(column).split_at_mut(n);
    *column = tail;
    head
}

/// SIG columns of one contiguous client chunk.
struct SigChunk<'a> {
    m: usize,
    tracked: &'a mut [Option<CombinedSignature>],
    tracked_count: &'a mut [usize],
    last_report: &'a mut [Arc<Vec<CombinedSignature>>],
    last_unmatched: &'a mut [u32],
}

impl<'a> SigChunk<'a> {
    /// Splits the first `take` clients off the front.
    fn split_front(&mut self, take: usize) -> Self {
        SigChunk {
            m: self.m,
            tracked: front(&mut self.tracked, take * self.m),
            tracked_count: front(&mut self.tracked_count, take),
            last_report: front(&mut self.last_report, take),
            last_unmatched: front(&mut self.last_unmatched, take),
        }
    }

    fn row(&mut self, local: usize) -> SigRow<'_> {
        SigRow {
            tracked: &mut self.tracked[local * self.m..(local + 1) * self.m],
            tracked_count: &mut self.tracked_count[local],
            last_report: &mut self.last_report[local],
            last_unmatched: &mut self.last_unmatched[local],
        }
    }
}

/// Bounded-cache columns of one contiguous client chunk.
struct CapChunk<'a> {
    spec: CapacitySpec,
    h: usize,
    last_used: &'a mut [u64],
    use_count: &'a mut [u64],
    ghost: &'a mut [u8],
    ghost_stamps: &'a mut [SimTime],
    clock: &'a mut [u64],
}

impl<'a> CapChunk<'a> {
    /// Splits the first `take` clients off the front.
    fn split_front(&mut self, take: usize) -> Self {
        let h = self.h;
        CapChunk {
            spec: self.spec,
            h,
            last_used: front(&mut self.last_used, take * h),
            use_count: front(&mut self.use_count, take * h),
            ghost: front(&mut self.ghost, take * h),
            ghost_stamps: front(&mut self.ghost_stamps, take * h),
            clock: front(&mut self.clock, take),
        }
    }

    fn row(&mut self, local: usize) -> CapRow<'_> {
        let slots = local * self.h..(local + 1) * self.h;
        CapRow {
            spec: self.spec,
            last_used: &mut self.last_used[slots.clone()],
            use_count: &mut self.use_count[slots.clone()],
            ghost: &mut self.ghost[slots.clone()],
            ghost_stamps: &mut self.ghost_stamps[slots],
            clock: &mut self.clock[local],
        }
    }
}

/// A contiguous client range of the fleet's columns, local indices
/// rebased by `base`. One chunk per sweep worker; chunks never alias.
struct ChunkView<'a> {
    base: usize,
    h: usize,
    words: usize,
    /// Shared whole, indexed by the global client index.
    slot_items: &'a [ItemId],
    /// Shared whole, indexed by the global client index.
    awake: &'a [bool],
    valid: &'a mut [u64],
    values: &'a mut [u64],
    stamps: &'a mut [SimTime],
    cached: &'a mut [u32],
    t_l: &'a mut [Option<SimTime>],
    pending: &'a mut [Vec<PendingQuery>],
    stats: &'a mut [MuStats],
    sig: Option<SigChunk<'a>>,
    cap: Option<CapChunk<'a>>,
}

impl<'a> ChunkView<'a> {
    /// Splits the clients before global index `at` off the front.
    fn split_front(&mut self, at: usize) -> Self {
        let take = at - self.base;
        let (h, words) = (self.h, self.words);
        let head = ChunkView {
            base: self.base,
            h,
            words,
            slot_items: self.slot_items,
            awake: self.awake,
            valid: front(&mut self.valid, take * words),
            values: front(&mut self.values, take * h),
            stamps: front(&mut self.stamps, take * h),
            cached: front(&mut self.cached, take),
            t_l: front(&mut self.t_l, take),
            pending: front(&mut self.pending, take),
            stats: front(&mut self.stats, take),
            sig: self.sig.as_mut().map(|s| s.split_front(take)),
            cap: self.cap.as_mut().map(|c| c.split_front(take)),
        };
        self.base = at;
        head
    }

    /// Client `idx`'s state (a global index inside this chunk).
    fn client(&mut self, idx: usize) -> Client<'_> {
        let local = idx - self.base;
        let (h, words) = (self.h, self.words);
        Client {
            cache: SlotRow {
                items: &self.slot_items[idx * h..(idx + 1) * h],
                valid: &mut self.valid[local * words..(local + 1) * words],
                values: &mut self.values[local * h..(local + 1) * h],
                stamps: &mut self.stamps[local * h..(local + 1) * h],
                cached: &mut self.cached[local],
                cap: self.cap.as_mut().map(|c| c.row(local)),
            },
            sig: self.sig.as_mut().map(|s| s.row(local)),
            t_l: &mut self.t_l[local],
            stats: &mut self.stats[local],
            pending: &mut self.pending[local],
        }
    }
}

/// One client's columns, borrowed.
struct Client<'a> {
    cache: SlotRow<'a>,
    sig: Option<SigRow<'a>>,
    t_l: &'a mut Option<SimTime>,
    stats: &'a mut MuStats,
    pending: &'a mut Vec<PendingQuery>,
}

/// One client's bounded-cache columns, borrowed.
struct CapRow<'a> {
    spec: CapacitySpec,
    last_used: &'a mut [u64],
    use_count: &'a mut [u64],
    ghost: &'a mut [u8],
    ghost_stamps: &'a mut [SimTime],
    clock: &'a mut u64,
}

/// One client's slot block: the columnar [`CacheRow`].
struct SlotRow<'a> {
    /// Slot → item, ascending.
    items: &'a [ItemId],
    valid: &'a mut [u64],
    values: &'a mut [u64],
    stamps: &'a mut [SimTime],
    cached: &'a mut u32,
    cap: Option<CapRow<'a>>,
}

fn bit_set(valid: &[u64], slot: usize) -> bool {
    valid[slot / 64] & (1 << (slot % 64)) != 0
}

impl SlotRow<'_> {
    fn slot_of(&self, item: ItemId) -> Option<usize> {
        self.items.binary_search(&item).ok()
    }

    fn drop_slot(&mut self, slot: usize) {
        self.valid[slot / 64] &= !(1 << (slot % 64));
        *self.cached -= 1;
    }

    /// `Cache::insert` over the slot block: installs the answer, then
    /// evicts per the replacement policy while over capacity. Returns
    /// the number of evictions.
    fn install(&mut self, answer: QueryAnswer) -> u64 {
        let slot = self
            .slot_of(answer.item)
            .expect("uplink answers only items the client queried, i.e. hotspot items");
        if !bit_set(self.valid, slot) {
            self.valid[slot / 64] |= 1 << (slot % 64);
            *self.cached += 1;
        }
        self.values[slot] = answer.value;
        self.stamps[slot] = answer.timestamp;
        let Some(cap) = &mut self.cap else {
            return 0;
        };
        *cap.clock += 1;
        cap.last_used[slot] = *cap.clock;
        cap.use_count[slot] = 1;
        // A fresh install clears any ghost of the item.
        cap.ghost[slot] = 0;
        let mut evicted = 0;
        while *self.cached as usize > cap.spec.cap {
            // The key ends in the item id, so the minimum is unique and
            // the slot order cannot disagree with the boxed table walk.
            let victim = (0..self.items.len())
                .filter(|&s| bit_set(self.valid, s))
                .min_by_key(|&s| {
                    let meta = EntryMeta {
                        last_used: cap.last_used[s],
                        use_count: cap.use_count[s],
                        stamp: self.stamps[s],
                    };
                    victim_key(
                        cap.spec.policy,
                        meta,
                        answer.timestamp,
                        cap.spec.window,
                        self.items[s],
                    )
                })
                .expect("cache over capacity cannot be empty");
            self.valid[victim / 64] &= !(1 << (victim % 64));
            *self.cached -= 1;
            cap.ghost[victim] = 1;
            cap.ghost_stamps[victim] = self.stamps[victim];
            evicted += 1;
        }
        evicted
    }
}

impl CacheRow for SlotRow<'_> {
    fn len(&self) -> usize {
        *self.cached as usize
    }

    fn clear(&mut self) {
        self.valid.fill(0);
        *self.cached = 0;
        if let Some(cap) = &mut self.cap {
            cap.ghost.fill(0);
        }
    }

    fn retain_restamp<F: FnMut(ItemId, SimTime) -> bool>(&mut self, t_i: SimTime, mut keep: F) {
        for slot in 0..self.items.len() {
            if !bit_set(self.valid, slot) {
                continue;
            }
            if keep(self.items[slot], self.stamps[slot]) {
                self.stamps[slot] = t_i;
            } else {
                self.drop_slot(slot);
            }
        }
    }

    fn remove(&mut self, item: ItemId) -> bool {
        match self.slot_of(item) {
            Some(slot) if bit_set(self.valid, slot) => {
                self.drop_slot(slot);
                true
            }
            _ => false,
        }
    }

    fn restamp_all(&mut self, t_i: SimTime) {
        for slot in 0..self.items.len() {
            if bit_set(self.valid, slot) {
                self.stamps[slot] = t_i;
            }
        }
    }

    fn ghosts_mark_stale<F: FnMut(ItemId, SimTime) -> bool>(&mut self, mut proven_stale: F) {
        if let Some(cap) = &mut self.cap {
            for slot in 0..self.items.len() {
                if cap.ghost[slot] == 1 && proven_stale(self.items[slot], cap.ghost_stamps[slot]) {
                    cap.ghost[slot] = 2;
                }
            }
        }
    }

    fn ghost_mark_stale_item(&mut self, item: ItemId) {
        let Some(cap) = &mut self.cap else {
            return;
        };
        if let Ok(slot) = self.items.binary_search(&item) {
            if cap.ghost[slot] != 0 {
                cap.ghost[slot] = 2;
            }
        }
    }

    fn read(&mut self, item: ItemId) -> bool {
        let slot = self.slot_of(item);
        let hit = slot.is_some_and(|slot| bit_set(self.valid, slot));
        if let Some(cap) = &mut self.cap {
            *cap.clock += 1;
            if let (true, Some(slot)) = (hit, slot) {
                cap.last_used[slot] = *cap.clock;
                cap.use_count[slot] += 1;
            }
        }
        hit
    }

    fn take_ghost(&mut self, item: ItemId) -> Option<GhostFate> {
        let cap = self.cap.as_mut()?;
        let slot = self.items.binary_search(&item).ok()?;
        let fate = match cap.ghost[slot] {
            1 => Some(GhostFate::Fresh),
            2 => Some(GhostFate::Stale),
            _ => None,
        };
        cap.ghost[slot] = 0;
        fate
    }
}

/// One client's share of the report sweep: the kernel's rule, then its
/// answer loop. Piggyback histories are ineligible for the columnar
/// fleet, so no uplink request carries one.
fn sweep_client(
    view: &mut ChunkView<'_>,
    report: &PreparedReport<'_>,
    idx: usize,
    awake_slot: usize,
    observing: bool,
) -> SweepItem {
    assert!(view.awake[idx], "a sleeping unit cannot hear a report");
    let mut client = view.client(idx);
    let pre = observing.then_some((*client.stats, *client.t_l));
    let outcome = kernel::process(report, &mut client.cache, *client.t_l, client.sig);
    let outcome = kernel::answer_pending(
        &mut client.cache,
        outcome,
        client.stats,
        client.t_l,
        client.pending,
        |_, _| None,
    );
    SweepItem {
        slot: awake_slot,
        pre,
        migrated_pre_len: None,
        outcome,
    }
}
