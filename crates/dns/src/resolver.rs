//! A caching recursive resolver.
//!
//! This is the event-level model behind the paper's *local* perspective:
//! the ISI resolver traces (root cache miss rate ≈ 0.5%), the two-author
//! BIND experiments (≈ 1.5%), the latency CDFs of Appendix D, and the
//! redundant-query pathology of Appendix E / Table 5.
//!
//! The resolver:
//!
//! * keeps a TTL-respecting cache of TLD delegation records (the 2-day
//!   TTLs are why root latency "hardly matters"),
//! * prefers low-latency root letters but keeps querying the others
//!   (§3: "recursives can preferentially query low latency root
//!   servers", after Müller et al.),
//! * when BIND-like and an authoritative query times out, re-queries the
//!   *roots* for AAAA records of the zone's nameservers that were not in
//!   the TLD referral's Additional section — Appendix E's bug, emitted
//!   in parallel with the retry so it adds root load but not user
//!   latency.

use crate::letters::Letter;
use crate::query::{QueryClass, QueryName, QueryType};
use crate::zone::{RootZone, TLD_TTL_MS};
use netsim::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Negative-cache TTL for NXDOMAIN answers (SOA-minimum style), ms.
pub(crate) const NEGATIVE_TTL_MS: f64 = 900.0 * 1000.0;

/// Per-letter RTTs and downstream latencies as this resolver sees them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpstreamRtts {
    /// RTT to each root letter, ms (all 13 present).
    pub root_rtt_ms: Vec<(Letter, f64)>,
    /// Flat RTT to TLD authoritative servers, ms (used when no per-TLD
    /// vector is set).
    pub tld_rtt_ms: f64,
    /// RTT to second-level authoritative servers, ms.
    pub auth_rtt_ms: f64,
    /// Per-TLD RTTs (indexed like the zone's TLD list) from the TLD
    /// anycast platforms of [`crate::hierarchy`]; overrides `tld_rtt_ms`
    /// when present.
    pub per_tld_rtt_ms: Option<Vec<f64>>,
}

impl UpstreamRtts {
    /// Uniform RTTs for tests.
    pub fn uniform(root_ms: f64, tld_ms: f64, auth_ms: f64) -> Self {
        Self {
            root_rtt_ms: Letter::ALL.iter().map(|l| (*l, root_ms)).collect(),
            tld_rtt_ms: tld_ms,
            auth_rtt_ms: auth_ms,
            per_tld_rtt_ms: None,
        }
    }

    /// RTT toward the authoritative servers of TLD `tld_idx`.
    pub(crate) fn tld_rtt(&self, tld_idx: usize) -> f64 {
        match &self.per_tld_rtt_ms {
            Some(v) if tld_idx < v.len() && v[tld_idx].is_finite() => v[tld_idx],
            _ => self.tld_rtt_ms,
        }
    }

    fn rtt(&self, letter: Letter) -> f64 {
        self.root_rtt_ms
            .iter()
            .find(|(l, _)| *l == letter)
            .map(|(_, r)| *r)
            .expect("all letters have RTTs")
    }
}

/// Resolver behaviour knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolverConfig {
    /// Whether the resolver exhibits the Appendix-E redundant-query bug
    /// (true for the BIND 9.11–9.16 range the paper tested).
    pub bind_redundant_query_bug: bool,
    /// Probability an authoritative (SLD) query times out, triggering a
    /// retry — and, with the bug, redundant root queries.
    pub auth_timeout_prob: f64,
    /// Fraction of root queries spread over non-best letters (the rest go
    /// to the lowest-RTT letter). Müller et al. observed recursives query
    /// all letters while favoring fast ones.
    pub letter_exploration: f64,
    /// Timeout before retrying a dead authoritative server, ms.
    pub auth_timeout_ms: f64,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        Self {
            bind_redundant_query_bug: true,
            auth_timeout_prob: 0.06,
            letter_exploration: 0.6,
            auth_timeout_ms: 800.0,
        }
    }
}

/// One upstream query the resolver emitted while serving users.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResolverEvent {
    /// A query to a root letter.
    RootQuery {
        /// When it was sent.
        t: SimTime,
        /// The letter chosen.
        letter: Letter,
        /// Query type.
        qtype: QueryType,
        /// Whether the user response waited on this query.
        awaited: bool,
        /// Whether the same record was fetched less than one TTL ago
        /// (Appendix E's definition of *redundant*).
        redundant: bool,
    },
    /// A query to a TLD authoritative server.
    TldQuery {
        /// When it was sent.
        t: SimTime,
        /// The round trip it cost, ms.
        rtt_ms: f64,
    },
    /// A query to a second-level authoritative server.
    AuthQuery {
        /// When it was sent.
        t: SimTime,
        /// Whether it timed out.
        timed_out: bool,
    },
}

/// Outcome of one user query.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// Total latency the user waited, ms.
    pub user_latency_ms: f64,
    /// Portion of the wait attributable to root queries, ms.
    pub root_wait_ms: f64,
    /// Whether the entire answer came from cache.
    pub cache_hit: bool,
    /// Upstream queries emitted.
    pub events: Vec<ResolverEvent>,
}

/// Aggregate outcome of replaying one query stream through a resolver —
/// the per-shard unit of the deterministic parallel fig12/fig13
/// campaign. Shards merge by concatenating the per-query series in
/// shard order and summing the counters.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// User latency of each query, ms, in stream order.
    pub latencies: Vec<f64>,
    /// Root wait of each query, ms, in stream order.
    pub root_waits: Vec<f64>,
    /// User queries served.
    pub user_queries: u64,
    /// Awaited root queries emitted (the §4.3 miss-rate numerator).
    pub awaited_root_queries: u64,
    /// All root query events emitted, awaited or background.
    pub root_queries: u64,
    /// Root query events flagged redundant (Appendix E accounting).
    pub redundant_root_queries: u64,
}

impl CampaignStats {
    /// Merges shards in order: each series is their concatenation, in an
    /// exactly sized buffer, and each counter their sum. Series merge one
    /// at a time, and each shard's buffer is freed once copied, so at
    /// most one series is held twice.
    pub fn merge(mut shards: Vec<CampaignStats>) -> CampaignStats {
        fn concat(
            shards: &mut [CampaignStats],
            series: fn(&mut CampaignStats) -> &mut Vec<f64>,
        ) -> Vec<f64> {
            let len = shards.iter_mut().map(|s| series(s).len()).sum();
            let mut merged = Vec::with_capacity(len);
            for shard in shards {
                merged.extend_from_slice(&std::mem::take(series(shard)));
            }
            merged
        }
        let latencies = concat(&mut shards, |s| &mut s.latencies);
        let root_waits = concat(&mut shards, |s| &mut s.root_waits);
        let mut merged = CampaignStats { latencies, root_waits, ..CampaignStats::default() };
        for shard in &shards {
            merged.user_queries += shard.user_queries;
            merged.awaited_root_queries += shard.awaited_root_queries;
            merged.root_queries += shard.root_queries;
            merged.redundant_root_queries += shard.redundant_root_queries;
        }
        merged
    }

    /// Root cache miss rate: awaited root queries / user queries.
    pub fn miss_rate(&self) -> f64 {
        if self.user_queries == 0 {
            return 0.0;
        }
        self.awaited_root_queries as f64 / self.user_queries as f64
    }

    /// Share of root query events that were redundant (Appendix E).
    pub fn redundancy_share(&self) -> f64 {
        if self.root_queries == 0 {
            return 0.0;
        }
        self.redundant_root_queries as f64 / self.root_queries as f64
    }
}

/// Long-run share of root queries each letter receives from a resolver
/// with the given per-letter RTTs: probability `1 - exploration` goes to
/// the lowest-RTT letter, the rest spreads inverse-RTT-weighted across
/// all letters. This is the closed form of the event-level policy in
/// [`RecursiveResolver`], used by the rate-level DITL generator.
pub fn letter_weights(rtts: &[(Letter, f64)], exploration: f64) -> Vec<(Letter, f64)> {
    assert!(!rtts.is_empty(), "no letters");
    let (best, inv, total) = letter_policy(rtts);
    rtts.iter()
        .zip(&inv)
        .map(|((l, _), w)| {
            let exploit = if *l == best { 1.0 - exploration } else { 0.0 };
            (*l, exploit + exploration * w / total)
        })
        .collect()
}

/// The letter policy's inputs: the lowest-RTT letter, each letter's
/// inverse-RTT exploration weight (in `rtts` order), and their sum.
fn letter_policy(rtts: &[(Letter, f64)]) -> (Letter, Vec<f64>, f64) {
    let best = rtts
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("letters non-empty")
        .0;
    let inv: Vec<f64> = rtts.iter().map(|(_, r)| 1.0 / (r + 5.0)).collect();
    let total = inv.iter().sum();
    (best, inv, total)
}

/// Long-run *root-visible* query rate of a user whose `queries_per_day`
/// DNS demand arrives through a caching recursive, in queries per day:
/// the closed form of the TTL amortization the event-level
/// [`RecursiveResolver`] exhibits, used by the streaming replay
/// generator (`anycast-replay`) the same way [`letter_weights`] is used
/// by the rate-level DITL generator.
///
/// `uncacheable_share` of the demand (Chromium-style random-label
/// probes; see `workload`'s DITL mix) can never hit the positive cache
/// and always reaches a root. The cacheable remainder amortizes over
/// the 2-day TLD delegation TTL ([`TLD_TTL_MS`]) and pays only the
/// long-run miss rate `cacheable_miss_rate` (the paper observes
/// ≈0.5–1.5% at the roots it measures; the resolver model reproduces
/// that band).
///
/// # Panics
///
/// Panics when either share is outside `[0, 1]` or the demand is
/// negative.
pub fn amortized_root_rate(
    queries_per_day: f64,
    uncacheable_share: f64,
    cacheable_miss_rate: f64,
) -> f64 {
    assert!(queries_per_day >= 0.0, "negative query demand {queries_per_day}");
    assert!(
        (0.0..=1.0).contains(&uncacheable_share),
        "uncacheable share must be a fraction, got {uncacheable_share}"
    );
    assert!(
        (0.0..=1.0).contains(&cacheable_miss_rate),
        "miss rate must be a fraction, got {cacheable_miss_rate}"
    );
    queries_per_day * (uncacheable_share + (1.0 - uncacheable_share) * cacheable_miss_rate)
}

/// A multiplicative (FxHash-style) hasher for the resolver's caches:
/// fixed, so deterministic, and several times cheaper than SipHash on
/// short names and small integer keys. Nothing iterates those caches,
/// so their hasher cannot reach any output; it only decides where
/// entries sit. The keys are names and indices the simulation built,
/// not outside input, so SipHash's resistance to crafted collisions
/// buys nothing here.
#[derive(Debug, Default)]
struct CacheHasher(u64);

impl CacheHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for CacheHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail));
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A resolver cache, hashed with [`CacheHasher`].
type CacheMap<K, V> = HashMap<K, V, BuildHasherDefault<CacheHasher>>;

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    expires: SimTime,
    /// Last time the record was *fetched* (for redundancy accounting).
    fetched: SimTime,
}

/// The resolver.
#[derive(Debug)]
pub struct RecursiveResolver {
    config: ResolverConfig,
    rtts: UpstreamRtts,
    /// Positive cache: (tld index, qtype) → entry.
    cache: CacheMap<(usize, QueryType), CacheEntry>,
    /// AAAA cache for TLD-zone *nameserver* names: (tld, ns index).
    ns_aaaa_cache: CacheMap<(usize, u8), CacheEntry>,
    /// When each nameserver AAAA was last *fetched* from the roots —
    /// empty answers are uncacheable, so this only feeds the Appendix E
    /// redundancy accounting.
    ns_fetch_log: CacheMap<(usize, u8), SimTime>,
    /// Negative cache for junk suffixes.
    negative: CacheMap<String, CacheEntry>,
    /// Full-answer cache (fqdn → expiry): what makes "roughly half of
    /// queries ... (probably) cached" with sub-millisecond latency in
    /// Appendix D's Fig. 12.
    answers: CacheMap<String, CacheEntry>,
    /// Stats: user queries served.
    user_queries: u64,
    /// Stats: awaited root queries emitted.
    awaited_root_queries: u64,
    /// [`letter_policy`] of the root RTTs, fixed at construction.
    best_letter: Letter,
    inv_rtts: Vec<f64>,
    inv_rtt_total: f64,
    rng: StdRng,
}

impl RecursiveResolver {
    /// A fresh (cold-cache) resolver.
    pub fn new(config: ResolverConfig, rtts: UpstreamRtts, rng: StdRng) -> Self {
        let (best_letter, inv_rtts, inv_rtt_total) = letter_policy(&rtts.root_rtt_ms);
        Self {
            config,
            rtts,
            cache: CacheMap::default(),
            ns_aaaa_cache: CacheMap::default(),
            ns_fetch_log: CacheMap::default(),
            negative: CacheMap::default(),
            answers: CacheMap::default(),
            user_queries: 0,
            awaited_root_queries: 0,
            best_letter,
            inv_rtts,
            inv_rtt_total,
            rng,
        }
    }

    /// Root cache miss rate so far: awaited root queries / user queries
    /// (the §4.3 metric; ISI's was ~0.5%, the authors' local ones ~1.5%).
    pub fn root_cache_miss_rate(&self) -> f64 {
        if self.user_queries == 0 {
            return 0.0;
        }
        self.awaited_root_queries as f64 / self.user_queries as f64
    }

    /// Number of user queries served.
    pub fn user_query_count(&self) -> u64 {
        self.user_queries
    }

    /// Replays a time-ordered query stream and aggregates campaign
    /// statistics. Counters cover only this call (deltas against the
    /// resolver's lifetime counters), so a shard built on a fresh
    /// resolver reports exactly its own stream.
    ///
    /// The series are sized from `events`' size hint when it is exact,
    /// so a slice-backed stream leaves no spare capacity.
    ///
    /// Observability: this is the per-shard hot loop of the fig12/fig13
    /// campaigns, so it only counts locally and publishes one
    /// [`obs::MetricSheet`] at the end — `resolver.user_queries`,
    /// `resolver.cache_hits`, `resolver.root_queries`,
    /// `resolver.redundant_root_queries`, and the
    /// `resolver.user_latency_ms` / `resolver.root_wait_ms` histograms
    /// (the latter of the nonzero waits only).
    pub fn drive<'q>(
        &mut self,
        events: impl IntoIterator<Item = (SimTime, &'q QueryName)>,
        zone: &RootZone,
    ) -> CampaignStats {
        let users_before = self.user_queries;
        let awaited_before = self.awaited_root_queries;
        let events = events.into_iter();
        let exact = match events.size_hint() {
            (lo, Some(hi)) if lo == hi => lo,
            _ => 0,
        };
        let mut stats = CampaignStats {
            latencies: Vec::with_capacity(exact),
            root_waits: Vec::with_capacity(exact),
            ..CampaignStats::default()
        };
        let mut cache_hits = 0;
        let mut upstream = Vec::new();
        for (t, q) in events {
            upstream.clear();
            let (latency, root_wait, cache_hit) = self.resolve_into(t, q, zone, &mut upstream);
            stats.latencies.push(latency);
            stats.root_waits.push(root_wait);
            cache_hits += u64::from(cache_hit);
            for ev in &upstream {
                if let ResolverEvent::RootQuery { redundant, .. } = ev {
                    stats.root_queries += 1;
                    if *redundant {
                        stats.redundant_root_queries += 1;
                    }
                }
            }
        }
        stats.user_queries = self.user_queries - users_before;
        stats.awaited_root_queries = self.awaited_root_queries - awaited_before;
        let mut sheet = obs::MetricSheet::new();
        sheet.record_all("resolver.user_latency_ms", stats.latencies.iter().copied());
        sheet.record_all(
            "resolver.root_wait_ms",
            stats.root_waits.iter().copied().filter(|w| *w > 0.0),
        );
        if cache_hits > 0 {
            sheet.counter_add("resolver.cache_hits", cache_hits);
        }
        sheet.counter_add("resolver.user_queries", stats.user_queries);
        sheet.counter_add("resolver.awaited_root_queries", stats.awaited_root_queries);
        sheet.counter_add("resolver.root_queries", stats.root_queries);
        sheet.counter_add("resolver.redundant_root_queries", stats.redundant_root_queries);
        sheet.flush();
        stats
    }

    /// One jittered RTT sample around a base value (network latencies
    /// are never exactly constant; Appendix D's CDFs are smooth).
    fn jittered(&mut self, base_ms: f64) -> f64 {
        let u: f64 = self.rng.gen_range(-1.0..1.0f64);
        (base_ms * (1.0 + 0.25 * u)).max(0.05)
    }

    /// Picks a root letter: best-RTT with probability
    /// `1 - letter_exploration`, otherwise inverse-RTT-weighted across
    /// all letters.
    fn pick_letter(&mut self) -> Letter {
        if !self.rng.gen_bool(self.config.letter_exploration) {
            return self.best_letter;
        }
        let mut x = self.rng.gen_range(0.0..self.inv_rtt_total);
        for ((l, _), w) in self.rtts.root_rtt_ms.iter().zip(&self.inv_rtts) {
            x -= w;
            if x <= 0.0 {
                return *l;
            }
        }
        self.best_letter
    }

    /// Resolves one user query arriving at `t` for `q` under a TLD
    /// resolved against `zone`.
    pub fn resolve(&mut self, t: SimTime, q: &QueryName, zone: &RootZone) -> Resolution {
        let mut events = Vec::new();
        let (user_latency_ms, root_wait_ms, cache_hit) =
            self.resolve_into(t, q, zone, &mut events);
        Resolution { user_latency_ms, root_wait_ms, cache_hit, events }
    }

    /// The body of [`Self::resolve`]: appends the upstream queries to
    /// `events` and returns `(user latency ms, root wait ms, cache hit)`,
    /// so a replay can reuse one event buffer across queries.
    fn resolve_into(
        &mut self,
        t: SimTime,
        q: &QueryName,
        zone: &RootZone,
        events: &mut Vec<ResolverEvent>,
    ) -> (f64, f64, bool) {
        self.user_queries += 1;
        let mut latency = 0.0;
        let mut root_wait = 0.0;
        let mut cache_hit = true;

        match q.class {
            QueryClass::ValidTld => {
                // 0. Full-answer cache: a repeat lookup of a cached name is
                // answered locally in sub-millisecond time.
                if let Some(e) = self.answers.get(&q.fqdn) {
                    if e.expires >= t {
                        return (0.1, 0.0, true);
                    }
                }
                let tld_idx = zone
                    .find(&q.tld)
                    .unwrap_or_else(|| panic!("ValidTld query for unknown TLD {}", q.tld));
                let tld = zone.tld(tld_idx);
                // Past the answer cache: this resolution hits the network
                // even when the TLD delegation is cached.
                cache_hit = false;

                // 1. TLD delegation from cache or the roots.
                let key = (tld_idx, QueryType::Ns);
                let needs_root = match self.cache.get(&key) {
                    Some(e) => e.expires < t,
                    None => true,
                };
                if needs_root {
                    let letter = self.pick_letter();
                    let rtt = self.jittered(self.rtts.rtt(letter));
                    let redundant = self
                        .cache
                        .get(&key)
                        .map(|e| t.since_ms(e.fetched) < TLD_TTL_MS)
                        .unwrap_or(false);
                    events.push(ResolverEvent::RootQuery {
                        t: t.plus_ms(latency),
                        letter,
                        qtype: QueryType::Ns,
                        awaited: true,
                        redundant,
                    });
                    self.awaited_root_queries += 1;
                    latency += rtt;
                    root_wait += rtt;
                    let entry =
                        CacheEntry { expires: t.plus_ms(TLD_TTL_MS), fetched: t };
                    self.cache.insert(key, entry);
                    // Referral glue: A records for all NSes; AAAA only when
                    // the TLD's responses carry full AAAA glue.
                    for ns in 0..tld.nameservers {
                        if tld.full_aaaa_glue {
                            self.ns_aaaa_cache.insert((tld_idx, ns), entry);
                        }
                    }
                }

                // 2. Query the TLD server for the SLD delegation. (SLD
                // record caching is below the granularity this model
                // needs; the paper's metric only cares about root waits.)
                let tld_rtt = self.jittered(self.rtts.tld_rtt(tld_idx));
                events.push(ResolverEvent::TldQuery { t: t.plus_ms(latency), rtt_ms: tld_rtt });
                latency += tld_rtt;

                // 3. Query the SLD authoritative server; maybe time out.
                let timed_out = self.rng.gen_bool(self.config.auth_timeout_prob);
                events.push(ResolverEvent::AuthQuery { t: t.plus_ms(latency), timed_out });
                if timed_out {
                    latency += self.config.auth_timeout_ms;
                    // Retry against another NS succeeds.
                    events.push(ResolverEvent::AuthQuery {
                        t: t.plus_ms(latency),
                        timed_out: false,
                    });
                    latency += self.jittered(self.rtts.auth_rtt_ms);
                    // Appendix E: BIND now looks up AAAA records for the
                    // zone's nameservers. Those present as glue are in
                    // cache; the rest go to the ROOTS, in parallel (no
                    // user wait). Because most of these nameservers have
                    // no AAAA record at all, the (empty) answers are not
                    // cached — so *every* timeout re-emits them, and all
                    // but the first fetch within a TTL are redundant.
                    if self.config.bind_redundant_query_bug {
                        let now = t.plus_ms(latency);
                        for ns in 0..tld.nameservers {
                            let k = (tld_idx, ns);
                            // Glue-cached AAAA records don't re-query.
                            if self
                                .ns_aaaa_cache
                                .get(&k)
                                .map(|e| e.expires >= now)
                                .unwrap_or(false)
                            {
                                continue;
                            }
                            let redundant = self
                                .ns_fetch_log
                                .get(&k)
                                .map(|f| now.since_ms(*f) < TLD_TTL_MS)
                                .unwrap_or(false);
                            let letter = self.pick_letter();
                            events.push(ResolverEvent::RootQuery {
                                t: now,
                                letter,
                                qtype: QueryType::Aaaa,
                                awaited: false,
                                redundant,
                            });
                            self.ns_fetch_log.insert(k, now);
                        }
                    }
                } else {
                    latency += self.jittered(self.rtts.auth_rtt_ms);
                }
                // Cache the final answer with a host-record TTL
                // (log-uniform over 1 min – 6 h; far below TLD TTLs).
                let ttl_ms = 60_000.0 * (360.0f64).powf(self.rng.gen::<f64>());
                let now = t.plus_ms(latency);
                let entry = CacheEntry { expires: now.plus_ms(ttl_ms), fetched: now };
                // A refresh overwrites in place; only a new name is cloned.
                match self.answers.get_mut(&q.fqdn) {
                    Some(e) => *e = entry,
                    None => {
                        self.answers.insert(q.fqdn.clone(), entry);
                    }
                }
            }
            QueryClass::ChromiumProbe => {
                // Random label: never cached, always one root round trip,
                // NXDOMAIN. The user (browser) does not block on it, but
                // the resolver still waits for the answer internally.
                cache_hit = false;
                let letter = self.pick_letter();
                let rtt = self.rtts.rtt(letter);
                events.push(ResolverEvent::RootQuery {
                    t,
                    letter,
                    qtype: QueryType::A,
                    awaited: true,
                    redundant: false,
                });
                self.awaited_root_queries += 1;
                latency += rtt;
            }
            QueryClass::JunkSuffix | QueryClass::Typo => {
                // Negative-cacheable NXDOMAIN.
                let needs_root = match self.negative.get(&q.tld) {
                    Some(e) => e.expires < t,
                    None => true,
                };
                if needs_root {
                    cache_hit = false;
                    let letter = self.pick_letter();
                    let rtt = self.rtts.rtt(letter);
                    events.push(ResolverEvent::RootQuery {
                        t,
                        letter,
                        qtype: QueryType::A,
                        awaited: true,
                        redundant: false,
                    });
                    self.awaited_root_queries += 1;
                    latency += rtt;
                    self.negative.insert(
                        q.tld.clone(),
                        CacheEntry { expires: t.plus_ms(NEGATIVE_TTL_MS), fetched: t },
                    );
                }
            }
            QueryClass::Ptr => {
                // in-addr.arpa delegations are effectively always cached;
                // the reverse zone walk goes to arpa servers, not roots.
                events.push(ResolverEvent::AuthQuery { t, timed_out: false });
                latency += self.rtts.auth_rtt_ms;
                cache_hit = false;
            }
        }

        (latency, root_wait, cache_hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mk(config: ResolverConfig) -> (RecursiveResolver, RootZone) {
        let zone = RootZone::generate(1, 50);
        let rtts = UpstreamRtts::uniform(80.0, 20.0, 30.0);
        (RecursiveResolver::new(config, rtts, StdRng::seed_from_u64(9)), zone)
    }

    fn no_timeout() -> ResolverConfig {
        ResolverConfig { auth_timeout_prob: 0.0, ..Default::default() }
    }

    #[test]
    fn first_query_misses_then_hits_for_two_days() {
        let (mut r, zone) = mk(no_timeout());
        let q = QueryName::valid_host("www.example", "com");
        let first = r.resolve(SimTime(0.0), &q, &zone);
        assert!(first.root_wait_ms > 0.0);
        // One hour later: cached.
        let later = r.resolve(SimTime::from_hours(1.0), &q, &zone);
        assert_eq!(later.root_wait_ms, 0.0);
        assert!(later.user_latency_ms < first.user_latency_ms);
        // Three days later: expired.
        let expired = r.resolve(SimTime::from_hours(72.0), &q, &zone);
        assert!(expired.root_wait_ms > 0.0);
    }

    #[test]
    fn cache_miss_rate_falls_with_repetition() {
        let (mut r, zone) = mk(no_timeout());
        for i in 0..1000u32 {
            let t = SimTime::from_secs(i as f64);
            r.resolve(t, &QueryName::valid_host("www.example", "com"), &zone);
        }
        assert!(r.root_cache_miss_rate() < 0.01, "{}", r.root_cache_miss_rate());
    }

    #[test]
    fn timeout_with_bug_emits_redundant_root_queries() {
        let cfg = ResolverConfig {
            auth_timeout_prob: 1.0,
            bind_redundant_query_bug: true,
            ..Default::default()
        };
        let (mut r, zone) = mk(cfg);
        // The pathology needs a TLD whose referrals *lack* full AAAA
        // glue (glue-cached records never re-query the roots); which
        // TLDs those are depends on the zone seed, so pick one.
        let tld = zone
            .tlds()
            .iter()
            .find(|t| !t.full_aaaa_glue)
            .expect("zone has a glue-incomplete TLD")
            .name
            .clone();
        // First timeout: the AAAA fetches are fresh (not yet redundant).
        let first = r.resolve(SimTime(0.0), &QueryName::valid_host("a", &tld), &zone);
        let fresh = first
            .events
            .iter()
            .filter(|e| {
                matches!(e, ResolverEvent::RootQuery { awaited: false, qtype: QueryType::Aaaa, .. })
            })
            .count();
        assert!(fresh > 0, "bug must emit AAAA root queries");
        // The parallel queries add no user latency beyond timeout + retry.
        assert!(first.user_latency_ms < 800.0 + (80.0 + 30.0 + 20.0 + 80.0) * 1.3 + 1.0);
        // Second timeout within the TTL: the empty answers were never
        // cacheable, so the same fetches repeat — now *redundant*.
        let second = r.resolve(SimTime::from_hours(1.0), &QueryName::valid_host("b", &tld), &zone);
        let redundant = second
            .events
            .iter()
            .filter(|e| {
                matches!(e, ResolverEvent::RootQuery { redundant: true, awaited: false, qtype: QueryType::Aaaa, .. })
            })
            .count();
        assert!(redundant > 0, "repeat fetches within a TTL are redundant");
    }

    #[test]
    fn timeout_without_bug_emits_no_redundant_queries() {
        let cfg = ResolverConfig {
            auth_timeout_prob: 1.0,
            bind_redundant_query_bug: false,
            ..Default::default()
        };
        let (mut r, zone) = mk(cfg);
        let res = r.resolve(SimTime(0.0), &QueryName::valid_host("www.example", "com"), &zone);
        assert!(res.events.iter().all(|e| !matches!(
            e,
            ResolverEvent::RootQuery { redundant: true, .. }
        )));
    }

    #[test]
    fn chromium_probes_always_reach_a_root() {
        let (mut r, zone) = mk(no_timeout());
        for i in 0..10 {
            let q = QueryName::chromium_probe(format!("qzkx{i}"));
            let res = r.resolve(SimTime::from_secs(i as f64), &q, &zone);
            assert_eq!(
                res.events
                    .iter()
                    .filter(|e| matches!(e, ResolverEvent::RootQuery { .. }))
                    .count(),
                1
            );
        }
    }

    #[test]
    fn junk_suffixes_are_negatively_cached() {
        let (mut r, zone) = mk(no_timeout());
        let q = QueryName::junk("local");
        let first = r.resolve(SimTime(0.0), &q, &zone);
        assert_eq!(first.events.len(), 1);
        let second = r.resolve(SimTime::from_secs(60.0), &q, &zone);
        assert!(second.events.is_empty(), "negative cache must hold");
        let third = r.resolve(SimTime::from_secs(1000.0), &q, &zone);
        assert_eq!(third.events.len(), 1, "negative TTL expired");
    }

    #[test]
    fn ptr_queries_never_reach_roots() {
        let (mut r, zone) = mk(no_timeout());
        let res = r.resolve(SimTime(0.0), &QueryName::ptr(), &zone);
        assert!(res
            .events
            .iter()
            .all(|e| !matches!(e, ResolverEvent::RootQuery { .. })));
    }

    #[test]
    fn letter_preference_favors_fastest() {
        let mut rtts = UpstreamRtts::uniform(100.0, 20.0, 30.0);
        rtts.root_rtt_ms[5].1 = 5.0; // F root is fast
        let zone = RootZone::generate(1, 50);
        let mut r = RecursiveResolver::new(
            ResolverConfig { auth_timeout_prob: 0.0, ..Default::default() },
            rtts,
            StdRng::seed_from_u64(4),
        );
        let mut counts: HashMap<Letter, u32> = HashMap::new();
        // Distinct junk labels force a root query each time.
        for i in 0..2000u32 {
            let q = QueryName::junk(format!("x{i}"));
            let res = r.resolve(SimTime::from_secs(i as f64), &q, &zone);
            for e in res.events {
                if let ResolverEvent::RootQuery { letter, .. } = e {
                    *counts.entry(letter).or_default() += 1;
                }
            }
        }
        let f = counts[&Letter::F] as f64 / 2000.0;
        assert!(f > 0.5, "fastest letter should dominate, got {f}");
        // But exploration still touches most letters.
        assert!(counts.len() >= 10, "only {} letters queried", counts.len());
    }

    /// The letter pick before the table: best letter, weights and total
    /// recomputed per call.
    fn reference_pick_letter(rtts: &[(Letter, f64)], exploration: f64, rng: &mut StdRng) -> Letter {
        let best = rtts
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("letters non-empty")
            .0;
        if !rng.gen_bool(exploration) {
            return best;
        }
        let weights: Vec<f64> = rtts.iter().map(|(_, r)| 1.0 / (r + 5.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen_range(0.0..total);
        for ((l, _), w) in rtts.iter().zip(&weights) {
            x -= w;
            if x <= 0.0 {
                return *l;
            }
        }
        best
    }

    #[test]
    fn table_letter_pick_matches_the_per_call_loop() {
        let mut tied = UpstreamRtts::uniform(40.0, 1.0, 1.0);
        tied.root_rtt_ms[7].1 = 12.0;
        tied.root_rtt_ms[3].1 = 12.0;
        let mut spread = UpstreamRtts::uniform(0.0, 1.0, 1.0);
        for (i, (_, r)) in spread.root_rtt_ms.iter_mut().enumerate() {
            *r = 290.0 - 23.0 * i as f64;
        }
        for (rtts, exploration) in [(tied, 0.6), (spread, 0.3)] {
            let config = ResolverConfig { letter_exploration: exploration, ..Default::default() };
            let mut r = RecursiveResolver::new(config, rtts.clone(), StdRng::seed_from_u64(5));
            let mut reference = r.rng.clone();
            for draw in 0..10_000 {
                let want = reference_pick_letter(&rtts.root_rtt_ms, exploration, &mut reference);
                assert_eq!(r.pick_letter(), want, "draw {draw}");
            }
        }
    }

    #[test]
    fn refreshed_answer_replaces_the_expired_entry() {
        let (mut r, zone) = mk(no_timeout());
        let q = QueryName::valid_host("www.a", "com");
        r.resolve(SimTime(0.0), &q, &zone);
        // Past the longest answer TTL (6 h), inside the TLD TTL.
        let refresh = r.resolve(SimTime::from_hours(7.0), &q, &zone);
        assert!(!refresh.cache_hit);
        let again = r.resolve(SimTime::from_hours(7.0).plus_ms(1.0), &q, &zone);
        assert!(again.cache_hit, "the refresh must extend the cached answer");
    }

    #[test]
    fn miss_rate_statistics_track_user_queries() {
        let (mut r, zone) = mk(no_timeout());
        r.resolve(SimTime(0.0), &QueryName::valid_host("www.example", "com"), &zone);
        r.resolve(SimTime(1.0), &QueryName::valid_host("www.example", "com"), &zone);
        assert_eq!(r.user_query_count(), 2);
        assert!((r.root_cache_miss_rate() - 0.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod weight_tests {
    use super::*;

    #[test]
    fn letter_weights_sum_to_one() {
        let rtts = UpstreamRtts::uniform(50.0, 1.0, 1.0).root_rtt_ms;
        let w = letter_weights(&rtts, 0.45);
        let total: f64 = w.iter().map(|(_, x)| x).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fastest_letter_dominates() {
        let mut rtts = UpstreamRtts::uniform(100.0, 1.0, 1.0).root_rtt_ms;
        rtts[2].1 = 4.0; // C fast
        let w = letter_weights(&rtts, 0.45);
        let c = w.iter().find(|(l, _)| *l == Letter::C).expect("c").1;
        assert!(c > 0.55, "{c}");
        for (l, x) in &w {
            if *l != Letter::C {
                assert!(*x < c);
                assert!(*x > 0.0, "every letter gets some queries");
            }
        }
    }

    #[test]
    fn zero_exploration_is_winner_take_all() {
        let mut rtts = UpstreamRtts::uniform(100.0, 1.0, 1.0).root_rtt_ms;
        rtts[0].1 = 1.0;
        let w = letter_weights(&rtts, 0.0);
        assert!((w[0].1 - 1.0).abs() < 1e-9);
        assert!(w[1..].iter().all(|(_, x)| *x == 0.0));
    }
}
