//! The static §3/§10 invalidation rules, each written once.
//!
//! TS (§3.1), AT (§3.2), SIG (§3.3), the §10 hybrid and group
//! extensions and the NC baseline are *static* strategies: every client
//! applies one fixed rule to the shared report, and its only protocol
//! state is its cache, `T_l` ("a variable that indicates the last time
//! it received a report") and, for the signature strategies, the
//! combined signatures it tracks. This module is the only place those
//! rules live. Two storage layouts run them:
//!
//! * the boxed [`crate::MobileUnit`]'s [`crate::Cache`], through
//!   [`crate::StaticHandler`];
//! * the columnar fleet's per-client slot block in the cell simulator.
//!
//! [`CacheRow`] hides the difference between the two. The rules sort
//! what they report, so both produce the same invalidation lists in
//! the same order.
//!
//! Safety discipline: TS and AT "will only allow false alarm errors and
//! will always correctly inform the client if his copy is invalid" (§2).
//! SIG is probabilistic: a changed item escapes only if its combined
//! signatures collide (probability ≈ 2^−g each), plus a one-interval
//! blind spot for items fetched mid-interval whose subsets were not
//! previously tracked (see [`on_fetch`]). Both are measured, not
//! assumed, by the integration tests.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use sw_capacity::GhostFate;
use sw_server::{GroupMap, HotSet, ItemId, PiggybackInfo};
use sw_signature::{CombinedSignature, SyndromeDecoder};
use sw_sim::{SimDuration, SimTime};
use sw_wireless::FramePayload;

use crate::handler::{time_from_micros, time_to_micros, ProcessOutcome};
use crate::mu::{IntervalReport, MuStats, PendingQuery};

/// The fleet-shared configuration of one static strategy: everything
/// its rule reads besides the report and the client's own state.
#[derive(Debug, Clone)]
pub enum StaticSpec {
    /// §3.1 TS: window `w = k·L`.
    Ts {
        /// The window `w`.
        window: SimDuration,
    },
    /// §3.2 AT: drop on any gap longer than `L`.
    At {
        /// The broadcast latency `L`.
        latency: SimDuration,
    },
    /// §4.2 NC: never retain anything.
    NoCache,
    /// §10 group-granular AT.
    Group {
        /// The broadcast latency `L`.
        latency: SimDuration,
        /// The shared item → group partition.
        map: GroupMap,
    },
    /// §3.3 SIG: syndrome decoding over tracked subset signatures.
    Sig {
        /// The shared decoder (family + plan).
        decoder: SyndromeDecoder,
    },
    /// §10 hybrid: hot items AT-style, cold items SIG-style.
    Hybrid {
        /// The broadcast latency `L` (hot-half gap rule).
        latency: SimDuration,
        /// The shared hot set.
        hot: HotSet,
        /// The shared cold-half decoder.
        decoder: SyndromeDecoder,
    },
}

impl StaticSpec {
    /// TS with window `w = k·L` (must match the server's
    /// [`sw_server::TsBuilder`]).
    pub fn ts(latency: SimDuration, k: u32) -> Self {
        assert!(k >= 1, "TS window multiple k must be at least 1");
        StaticSpec::Ts {
            window: latency.scaled(k as f64),
        }
    }

    /// AT for broadcast latency `L`.
    pub fn at(latency: SimDuration) -> Self {
        assert!(!latency.is_zero(), "latency must be positive");
        StaticSpec::At { latency }
    }

    /// Group reports; `map` must match the server's
    /// [`sw_server::GroupReportBuilder`].
    pub fn group(latency: SimDuration, map: GroupMap) -> Self {
        assert!(!latency.is_zero(), "latency must be positive");
        StaticSpec::Group { latency, map }
    }

    /// SIG sharing the server's decoder configuration.
    pub fn sig(decoder: SyndromeDecoder) -> Self {
        StaticSpec::Sig { decoder }
    }

    /// Hybrid reports; `hot` and `decoder` must match the server's
    /// [`sw_server::HybridSigBuilder`].
    pub fn hybrid(latency: SimDuration, hot: HotSet, decoder: SyndromeDecoder) -> Self {
        assert!(!latency.is_zero(), "latency must be positive");
        StaticSpec::Hybrid {
            latency,
            hot,
            decoder,
        }
    }

    /// Strategy name, matching the server builder.
    pub fn name(&self) -> &'static str {
        match self {
            StaticSpec::Ts { .. } => "TS",
            StaticSpec::At { .. } => "AT",
            StaticSpec::NoCache => "NC",
            StaticSpec::Group { .. } => "GR",
            StaticSpec::Sig { .. } => "SIG",
            StaticSpec::Hybrid { .. } => "HYB",
        }
    }

    /// The signature decoder, for the strategies that track signatures.
    pub fn decoder(&self) -> Option<&SyndromeDecoder> {
        match self {
            StaticSpec::Sig { decoder } | StaticSpec::Hybrid { decoder, .. } => Some(decoder),
            _ => None,
        }
    }
}

/// One client's signature tracking, owned: a boxed unit's copy of the
/// fields [`SigRow`] borrows (the columnar fleet keeps them as strided
/// columns).
#[derive(Debug, Clone)]
pub(crate) struct SigState {
    tracked: Vec<Option<CombinedSignature>>,
    pub(crate) tracked_count: usize,
    last_report: Arc<Vec<CombinedSignature>>,
    pub(crate) last_unmatched: u32,
}

impl SigState {
    /// Nothing tracked, over a plan of `m` subsets.
    pub(crate) fn new(m: usize) -> Self {
        SigState {
            tracked: vec![None; m],
            tracked_count: 0,
            last_report: Arc::new(Vec::new()),
            last_unmatched: 0,
        }
    }

    pub(crate) fn row(&mut self) -> SigRow<'_> {
        SigRow {
            tracked: &mut self.tracked,
            tracked_count: &mut self.tracked_count,
            last_report: &mut self.last_report,
            last_unmatched: &mut self.last_unmatched,
        }
    }
}

/// One client's signature tracking, borrowed.
pub struct SigRow<'a> {
    /// Tracked combined signature per subset index, dense over the
    /// plan's `m` subsets (`None` = untracked).
    pub tracked: &'a mut [Option<CombinedSignature>],
    /// Number of `Some` entries in `tracked`.
    pub tracked_count: &'a mut usize,
    /// The signatures of the last heard report: an [`Arc`] share of the
    /// broadcast payload, never a copy. Uplink fetches within the
    /// current interval adopt tracking from it (see [`on_fetch`]).
    pub last_report: &'a mut Arc<Vec<CombinedSignature>>,
    /// Unmatched-subset count from the last diagnosis (telemetry).
    pub last_unmatched: &'a mut u32,
}

/// One client's cache, as the kernel sees it. Implemented by the boxed
/// unit's [`crate::Cache`] and by the columnar fleet's slot block; it exists
/// only to hide those two storage layouts.
pub trait CacheRow {
    /// Number of cached items.
    fn len(&self) -> usize;

    /// True if nothing is cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and every ghost. After a whole-cache drop
    /// nothing would have been a hit, so no later miss is attributable
    /// to an earlier eviction.
    fn clear(&mut self);

    /// Visits every entry (in ascending item order, where the layout
    /// allows it cheaply). `keep(item, stamp)` returns true to keep the
    /// entry, restamped to `t_i`, or false to drop it.
    fn retain_restamp<F: FnMut(ItemId, SimTime) -> bool>(&mut self, t_i: SimTime, keep: F);

    /// Drops `item`; true if it was cached.
    fn remove(&mut self, item: ItemId) -> bool;

    /// Restamps every entry to `t_i`.
    fn restamp_all(&mut self, t_i: SimTime);

    /// Marks every still-fresh ghost for which `proven_stale(item,
    /// eviction_stamp)` holds as stale.
    fn ghosts_mark_stale<F: FnMut(ItemId, SimTime) -> bool>(&mut self, proven_stale: F);

    /// Marks the ghost of `item` stale, if one exists.
    fn ghost_mark_stale_item(&mut self, item: ItemId);

    /// A query read of `item`: ticks the access clock (and, on a hit,
    /// the entry's recency and use count). True on a hit.
    fn read(&mut self, item: ItemId) -> bool;

    /// Consumes the ghost of `item`, if any.
    fn take_ghost(&mut self, item: ItemId) -> Option<GhostFate>;
}

/// The AT-family gap tolerance: `L` plus a relative epsilon, so that
/// consecutive reports never trip the rule through float rounding.
fn gap_limit(latency: SimDuration) -> SimDuration {
    latency + SimDuration::from_secs(latency.as_secs() * 1e-9)
}

/// One report, parsed for a [`StaticSpec`]: `T_i` and the payload
/// fields every client reads, extracted (and, where needed, sorted)
/// once per report instead of once per client.
pub struct PreparedReport<'a> {
    t_i: SimTime,
    rule: Rule<'a>,
}

/// The rule a prepared report applies, with its parsed payload. `limit`
/// is the silence `T_i − T_l` the rule tolerates: `w` for TS, `L` plus
/// epsilon for the AT family.
enum Rule<'a> {
    Ts {
        limit: SimDuration,
        /// `[j, t_j]` entries as broadcast.
        entries: &'a [(u64, u64)],
        /// The entries ascending by item id, checked on the first
        /// client that gets past the gap rule (the builders emit them
        /// sorted; a hand-built payload is sorted once here).
        sorted: OnceLock<Cow<'a, [(u64, u64)]>>,
    },
    At {
        limit: SimDuration,
        ids: &'a [u64],
    },
    Nc,
    Group {
        limit: SimDuration,
        map: GroupMap,
        /// Changed group ids, sorted.
        changed: Vec<u64>,
    },
    Sig {
        decoder: &'a SyndromeDecoder,
        signatures: &'a Arc<Vec<CombinedSignature>>,
    },
    Hybrid {
        limit: SimDuration,
        hot: &'a HotSet,
        hot_ids: &'a [u64],
        decoder: &'a SyndromeDecoder,
        signatures: &'a Arc<Vec<CombinedSignature>>,
    },
}

impl<'a> PreparedReport<'a> {
    /// Parses `payload` for `spec`.
    ///
    /// # Panics
    /// Panics if the payload is not the report `spec`'s server builds.
    pub fn new(spec: &'a StaticSpec, payload: &'a FramePayload) -> Self {
        use FramePayload as P;
        let rule = match (spec, payload) {
            (StaticSpec::Ts { window }, P::TimestampReport { entries, .. }) => Rule::Ts {
                limit: *window,
                entries,
                sorted: OnceLock::new(),
            },
            (StaticSpec::At { latency }, P::AmnesicReport { ids, .. }) => {
                let limit = gap_limit(*latency);
                Rule::At { limit, ids }
            }
            (
                StaticSpec::NoCache,
                P::AmnesicReport { .. } | P::TimestampReport { .. } | P::SignatureReport { .. },
            ) => Rule::Nc,
            (StaticSpec::Group { latency, map }, P::AmnesicReport { ids, .. }) => {
                // The group id list is tiny and (from the builder)
                // sorted; a binary search over a sorted copy beats
                // hashing per item.
                let mut changed = ids.clone();
                changed.sort_unstable();
                let (limit, map) = (gap_limit(*latency), *map);
                Rule::Group {
                    limit,
                    map,
                    changed,
                }
            }
            (StaticSpec::Sig { decoder }, P::SignatureReport { signatures, .. }) => Rule::Sig {
                decoder,
                signatures,
            },
            (
                StaticSpec::Hybrid {
                    latency,
                    hot,
                    decoder,
                },
                P::HybridReport {
                    hot_ids,
                    signatures,
                    ..
                },
            ) => {
                let limit = gap_limit(*latency);
                Rule::Hybrid {
                    limit,
                    hot,
                    hot_ids,
                    decoder,
                    signatures,
                }
            }
            (spec, other) => {
                let name = spec.name();
                panic!("{name} handler fed a non-{name} report: {other:?}")
            }
        };
        let (P::TimestampReport {
            report_ts_micros, ..
        }
        | P::AmnesicReport {
            report_ts_micros, ..
        }
        | P::SignatureReport {
            report_ts_micros, ..
        }
        | P::HybridReport {
            report_ts_micros, ..
        }) = payload
        else {
            unreachable!("every payload a rule accepts is a report")
        };
        PreparedReport {
            t_i: time_from_micros(*report_ts_micros),
            rule,
        }
    }
}

/// Applies the report heard at `T_i` to one client: the §3/§10 rules,
/// one arm per strategy. `t_l` is the time the client last heard a
/// report (`None` if it never has); `sig` is its signature tracking
/// (required for SIG and hybrid, ignored otherwise).
pub fn process<R: CacheRow>(
    report: &PreparedReport<'_>,
    row: &mut R,
    t_l: Option<SimTime>,
    sig: Option<SigRow<'_>>,
) -> ProcessOutcome {
    let t_i = report.t_i;
    // TS, AT and group: if (T_i − T_l > limit) { drop the entire cache }.
    // A missed AT report means a whole interval of changes was never
    // heard; a TS silence longer than w outlives the report's memory.
    if let Rule::Ts { limit, .. } | Rule::At { limit, .. } | Rule::Group { limit, .. } =
        &report.rule
    {
        let gap_too_large = match t_l {
            Some(t_l) => t_i.saturating_duration_since(t_l) > *limit,
            None => !row.is_empty(), // never heard a report: nothing provable
        };
        if gap_too_large {
            row.clear();
            return ProcessOutcome {
                report_time: t_i,
                dropped_all: true,
                invalidated: Vec::new(),
                revalidated: 0,
            };
        }
    }
    let mut invalidated = Vec::new();
    match &report.rule {
        Rule::Ts {
            entries, sorted, ..
        } => {
            let entries = sorted.get_or_init(|| {
                if entries.windows(2).all(|w| w[0].0 < w[1].0) {
                    Cow::Borrowed(entries)
                } else {
                    let mut v = entries.to_vec();
                    v.sort_unstable_by_key(|&(item, _)| item);
                    Cow::Owned(v)
                }
            });
            let changed_at = |item: ItemId| {
                entries
                    .binary_search_by_key(&item, |&(reported_item, _)| reported_item)
                    .ok()
                    .map(|ix| entries[ix].1)
            };
            // for every item j in the MU cache:
            //   if [j, t_j] in U_i { if t_cache < t_j drop else t_cache := T_i }
            //   (not mentioned ⇒ unchanged within w ⇒ t_cache := T_i)
            row.retain_restamp(t_i, |item, stamp| match changed_at(item) {
                Some(t_j) if time_to_micros(stamp) < t_j => {
                    invalidated.push(item);
                    false
                }
                _ => true,
            });
            invalidated.sort_unstable();
            // Ghost retire: a report entry [j, t_j] newer than an
            // evicted copy's stamp proves that copy would have been
            // dropped anyway, so the eviction cost nothing. Sound
            // because any update inside the window w appears in the
            // report.
            row.ghosts_mark_stale(|item, stamp| {
                changed_at(item).is_some_and(|t_j| time_to_micros(stamp) < t_j)
            });
        }
        Rule::At { ids, .. } => {
            for &item in *ids {
                if row.remove(item) {
                    invalidated.push(item);
                }
                // A reported id changed this interval, so any evicted
                // copy of it is provably stale: the eviction cost
                // nothing.
                row.ghost_mark_stale_item(item);
            }
            // Surviving entries are verified as of T_i.
            row.restamp_all(t_i);
        }
        Rule::Nc => row.clear(),
        Rule::Group { map, changed, .. } => {
            // AT lifted to groups: a listed group drops every cached
            // member (group-level false alarms: safe, coarse).
            row.retain_restamp(t_i, |item, _| {
                let listed = changed.binary_search(&map.group_of(item)).is_ok();
                if listed {
                    invalidated.push(item);
                }
                !listed
            });
            invalidated.sort_unstable();
        }
        Rule::Sig {
            decoder,
            signatures,
        } => {
            let sig = sig.expect("SIG clients track signatures");
            diagnose(
                row,
                sig,
                decoder,
                signatures,
                t_i,
                |_| true,
                &mut invalidated,
            );
        }
        Rule::Hybrid {
            limit,
            hot,
            hot_ids,
            decoder,
            signatures,
        } => {
            // Hot half: AT semantics, scoped to hot items only. The
            // amnesic id list cannot be reconstructed after a nap.
            let missed_report = match t_l {
                Some(t_l) => t_i.saturating_duration_since(t_l) > *limit,
                None => true,
            };
            if missed_report {
                row.retain_restamp(t_i, |item, _| {
                    let drop = hot.contains(item);
                    if drop {
                        invalidated.push(item);
                    }
                    !drop
                });
                invalidated.sort_unstable();
            } else {
                for &item in *hot_ids {
                    if row.remove(item) {
                        invalidated.push(item);
                    }
                }
            }
            // Cold half: SIG semantics over the remaining cached items,
            // nap-proof.
            let sig = sig.expect("hybrid clients track cold signatures");
            let cold = |item: ItemId| !hot.contains(item);
            diagnose(row, sig, decoder, signatures, t_i, cold, &mut invalidated);
        }
    }
    ProcessOutcome {
        report_time: t_i,
        dropped_all: false,
        invalidated,
        revalidated: row.len(),
    }
}

/// The §3.3 signature rule over the cached items `tracks` selects.
///
/// Syndrome-decodes them: subsets whose tracked signature differs from
/// the broadcast are unmatched, and items in more than the plan's
/// threshold of unmatched subsets are dropped (appended to
/// `invalidated`, ascending). Tracking is then re-scoped to the
/// surviving selected items and adopts the broadcast signatures ("the
/// combined uncached signatures are considered equal to the ones that
/// are being broadcast"). Every survivor is restamped to `T_i`: valid
/// with probability `P_nf`.
fn diagnose<R: CacheRow>(
    row: &mut R,
    sig: SigRow<'_>,
    decoder: &SyndromeDecoder,
    signatures: &Arc<Vec<CombinedSignature>>,
    t_i: SimTime,
    tracks: impl Fn(ItemId) -> bool,
    invalidated: &mut Vec<ItemId>,
) {
    let mut items = Vec::with_capacity(row.len());
    row.retain_restamp(t_i, |item, _| {
        if tracks(item) {
            items.push(item);
        }
        true
    });
    items.sort_unstable();
    let tracked = &*sig.tracked;
    let mut diagnosis = decoder.diagnose(&items, |j| tracked[j as usize], signatures);
    *sig.last_unmatched = diagnosis.unmatched_subsets;
    sig.tracked.fill(None);
    *sig.tracked_count = 0;
    // `diagnosis.invalidated` follows `items`, so it is ascending.
    row.retain_restamp(t_i, |item, _| {
        if !tracks(item) {
            return true;
        }
        if diagnosis.invalidated.binary_search(&item).is_ok() {
            return false;
        }
        for j in decoder.family().subsets_of(item) {
            let slot = &mut sig.tracked[j as usize];
            if slot.is_none() {
                *sig.tracked_count += 1;
            }
            *slot = Some(signatures[j as usize]);
        }
        true
    });
    *sig.last_report = Arc::clone(signatures);
    invalidated.append(&mut diagnosis.invalidated);
}

/// Observes an uplink fetch installing `item`, after the current
/// interval's report was processed: SIG (and the hybrid's cold half)
/// start tracking the item's subsets *from the just-heard report*. The
/// fetched value is current as of `T_i`, exactly the state the report's
/// signatures describe.
///
/// **Blind spot (documented deviation):** a subset of the item not
/// already tracked is adopted from the last report, so it cannot
/// witness an update that lands between that report and the fetch. The
/// stale window is at most one interval and occurs with probability
/// ≤ 1 − e^(−μL) per fetch; the integration suite measures it. TS/AT
/// have no such window.
pub fn on_fetch(spec: &StaticSpec, sig: SigRow<'_>, item: ItemId) {
    let decoder = match spec {
        StaticSpec::Sig { decoder } => decoder,
        StaticSpec::Hybrid { hot, decoder, .. } if !hot.contains(item) => decoder,
        _ => return,
    };
    let last = &**sig.last_report;
    if last.is_empty() {
        return; // fetched before any report was heard
    }
    for j in decoder.family().subsets_of(item) {
        let slot = &mut sig.tracked[j as usize];
        if slot.is_none() {
            *slot = Some(last[j as usize]);
            *sig.tracked_count += 1;
        }
    }
}

/// Answers the client's pending queries `Q_i` once its report is
/// processed (Figure 2): latency accounting for every pending query,
/// then one hit-or-miss event per distinct pending item, with misses
/// classified against the ghost list and turned into deduplicated
/// uplink requests. `T_l` advances to `T_i`.
///
/// `piggyback(item, hit)` is the unit's hit-history hook: it hears
/// every hit, and on a miss returns the history the uplink request
/// carries (adaptive Method 1, §8.1). Clients without histories pass
/// `|_, _| None`.
pub fn answer_pending<R: CacheRow>(
    row: &mut R,
    outcome: ProcessOutcome,
    stats: &mut MuStats,
    t_l: &mut Option<SimTime>,
    pending: &mut Vec<PendingQuery>,
    mut piggyback: impl FnMut(ItemId, bool) -> Option<PiggybackInfo>,
) -> IntervalReport {
    let t_i = outcome.report_time;
    for q in pending.iter() {
        let lat = t_i.saturating_duration_since(q.posed_at).as_secs();
        stats.latency_sum_secs += lat;
        if lat > stats.latency_max_secs {
            stats.latency_max_secs = lat;
        }
    }
    *t_l = Some(t_i);
    if outcome.dropped_all {
        stats.cache_drops += 1;
    }
    stats.items_invalidated += outcome.invalidated.len() as u64;
    let mut seen: Vec<ItemId> = pending.iter().map(|q| q.item).collect();
    seen.sort_unstable();
    seen.dedup();
    let mut uplink = Vec::new();
    for item in seen {
        if row.read(item) {
            stats.hit_events += 1;
            piggyback(item, true);
        } else {
            stats.miss_events += 1;
            // A requery of an evicted copy: a fresh ghost means the
            // capacity bound caused this miss.
            match row.take_ghost(item) {
                Some(GhostFate::Fresh) => {
                    stats.capacity_misses += 1;
                    stats.evicted_then_requeried += 1;
                }
                Some(GhostFate::Stale) => stats.evicted_then_requeried += 1,
                None => {}
            }
            uplink.push((item, piggyback(item, false)));
        }
    }
    pending.clear();
    IntervalReport {
        awake: true,
        outcome: Some(outcome),
        uplink_requests: uplink,
    }
}
