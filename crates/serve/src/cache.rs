//! Version-keyed LRU cache of SGT translations with per-window delta reuse.
//!
//! The paper's Fig. 7(b) amortization argument — Algorithm 1 runs once per
//! graph and its cost is spread over every later kernel invocation — is the
//! economics this cache implements for a serving session: the first batch
//! against a graph pays the translation, every later batch skips it. The key
//! is [`version_key`]: the typed [`GraphVersion`] composed from the graph's
//! node count and its per-window CSR fingerprints at `TC_BLK_H` rows
//! ([`GraphVersion::from_windows`]). Structurally identical graphs share
//! one entry and a mutated graph can never alias a stale translation, and a
//! server that keeps the window fingerprints of each graph current
//! recomposes the key of a mutated graph without reading the CSR again.
//!
//! Mutation does not throw the whole entry away. Each resident translation
//! carries the per-window CSR fingerprints it was built from; when a lookup
//! misses, the cache searches for a *predecessor* — a resident entry for a
//! same-shaped graph sharing most window fingerprints — and, when one
//! exists, builds the new translation from it, re-running Algorithm 1 only
//! on the windows whose fingerprints moved ([`TranslatedGraph::spliced`]).
//! Every untouched window is spliced verbatim, which is what keeps a small
//! edit's cost proportional to the edit rather than to the graph.

use std::sync::Arc;

use tcg_graph::{CsrGraph, GraphVersion};
use tcg_sgt::{Sgt, TranslatedGraph, TC_BLK_H};

/// One cached translation plus the modeled cost of having produced it.
#[derive(Debug, Clone)]
pub struct CachedTranslation {
    /// The SGT output, shared with every batch dispatched against it.
    pub translation: Arc<TranslatedGraph>,
    /// Modeled Algorithm 1 cost in milliseconds (what a hit saves).
    pub sgt_ms: f64,
    /// Content checksum recorded at insertion; a resident translation whose
    /// recomputed checksum disagrees has been poisoned and is quarantined.
    pub checksum: u64,
    /// Per-window CSR fingerprints (at `TC_BLK_H` rows) of the graph this
    /// translation was built from — the delta-matching signature. Empty for
    /// entries inserted without graph context, which are then never used as
    /// delta predecessors.
    pub window_fps: Vec<u64>,
    /// Node count of the source graph (delta predecessors must match).
    pub num_nodes: usize,
}

impl CachedTranslation {
    /// Wraps a translation, recording its integrity checksum. The entry
    /// carries no window fingerprints, so it participates in exact-match
    /// lookups only; entries the cache translates itself record their
    /// graph's fingerprints and become delta predecessor candidates.
    pub fn new(translation: Arc<TranslatedGraph>, sgt_ms: f64) -> Self {
        let checksum = translation.checksum();
        CachedTranslation {
            translation,
            sgt_ms,
            checksum,
            window_fps: Vec::new(),
            num_nodes: 0,
        }
    }

    /// Wraps a translation together with `window_fps`, the per-window
    /// fingerprints of `csr`, the graph it was built from, enabling delta
    /// reuse after mutations.
    fn with_window_fps(
        csr: &CsrGraph,
        translation: Arc<TranslatedGraph>,
        sgt_ms: f64,
        window_fps: Vec<u64>,
    ) -> Self {
        let checksum = translation.checksum();
        CachedTranslation {
            translation,
            sgt_ms,
            checksum,
            window_fps,
            num_nodes: csr.num_nodes(),
        }
    }
}

/// Amortization accounting mirroring Fig. 7(b), exported in serve reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups that found a resident translation.
    pub hits: u64,
    /// Lookups that ran Algorithm 1 (fully or as a delta).
    pub misses: u64,
    /// Entries pushed out by capacity pressure.
    pub evictions: u64,
    /// Translation milliseconds actually paid (on misses).
    pub translation_ms_paid: f64,
    /// Translation milliseconds avoided (on hits and delta reuse).
    pub translation_ms_saved: f64,
    /// Cache hits whose resident translation failed its integrity check.
    pub poison_detected: u64,
    /// Poisoned entries that were quarantined and transparently
    /// retranslated (the `cache_poison_recovered` metric).
    pub poison_recovered: u64,
    /// Windows served from a resident translation (exact hits count every
    /// window; delta resolutions count the spliced ones).
    pub window_hits: u64,
    /// Windows that had to re-run Algorithm 1 (full misses count every
    /// window; delta resolutions count only the touched ones).
    pub window_misses: u64,
    /// Misses resolved by retranslating only stale windows of a resident
    /// predecessor instead of running Algorithm 1 from scratch.
    pub delta_translations: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How [`TranslationCache::get_or_translate`] satisfied a lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolutionKind {
    /// The exact graph version was resident; nothing was translated.
    Hit,
    /// Algorithm 1 ran from scratch.
    Full,
    /// A resident predecessor was spliced: only `touched` windows re-ran
    /// Algorithm 1, `preserved` windows were reused verbatim.
    Delta {
        /// Window indices retranslated (sorted ascending).
        touched: Vec<usize>,
        /// Windows spliced unchanged from the predecessor.
        preserved: usize,
    },
}

/// Outcome of resolving a translation through the cache.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// The translation to dispatch against.
    pub translation: Arc<TranslatedGraph>,
    /// Modeled milliseconds paid on this resolution (0 for a hit).
    pub paid_ms: f64,
    /// Hit / full / delta classification.
    pub kind: ResolutionKind,
}

impl Resolution {
    /// Whether this resolution was a zero-cost exact hit.
    pub fn hit(&self) -> bool {
        matches!(self.kind, ResolutionKind::Hit)
    }
}

/// A bounded LRU of translations keyed by [`GraphVersion`].
///
/// Backed by a `Vec` ordered least- to most-recently used; sessions hold a
/// handful of graphs, so linear scans beat hash-map overhead and keep
/// iteration order (and therefore eviction order) trivially deterministic.
#[derive(Debug, Default)]
pub struct TranslationCache {
    capacity: usize,
    entries: Vec<(GraphVersion, CachedTranslation)>,
    stats: CacheStats,
    /// Every `n`th verified hit additionally runs the full `O(E)`
    /// [`TranslatedGraph::validate`] pass (0 = checksum-only).
    spot_check_every: u64,
    /// Hits observed through [`TranslationCache::get_or_translate`], for
    /// the spot-check sampler.
    hit_seq: u64,
    /// Versions whose resident translation was found poisoned.
    quarantined: Vec<GraphVersion>,
    /// Whether misses may be resolved by window-delta splicing from a
    /// resident predecessor (the default; disable for full-retranslate
    /// baselines).
    delta_enabled: bool,
}

impl TranslationCache {
    /// A cache holding at most `capacity` translations. Zero capacity
    /// disables caching entirely: every lookup misses and nothing is
    /// retained — the uncached baseline configuration.
    pub fn new(capacity: usize) -> Self {
        TranslationCache {
            capacity,
            entries: Vec::new(),
            stats: CacheStats::default(),
            spot_check_every: 0,
            hit_seq: 0,
            quarantined: Vec::new(),
            delta_enabled: true,
        }
    }

    /// Sets the spot-check sampling knob: every `n`th cache hit resolved
    /// through [`TranslationCache::get_or_translate`] runs the full
    /// [`TranslatedGraph::validate`] pass on top of the always-on checksum
    /// verification. `0` (the default) disables the full pass.
    pub fn set_spot_check_every(&mut self, n: u64) {
        self.spot_check_every = n;
    }

    /// Enables or disables delta resolution of misses (enabled by default).
    /// With it off, every miss runs Algorithm 1 from scratch — the
    /// full-retranslate baseline `bench_churn` compares against.
    pub fn set_delta_enabled(&mut self, enabled: bool) {
        self.delta_enabled = enabled;
    }

    /// Versions quarantined after failing integrity verification, in
    /// detection order.
    pub fn quarantined(&self) -> &[GraphVersion] {
        &self.quarantined
    }

    /// Chaos hook: mutates the resident translation under `version` in
    /// place (the recorded checksum is deliberately left stale, exactly
    /// like a bit flip landing in cached memory). Returns whether an entry
    /// was resident to poison.
    pub fn corrupt_resident(
        &mut self,
        version: GraphVersion,
        f: impl FnOnce(&mut TranslatedGraph),
    ) -> bool {
        match self.entries.iter_mut().find(|(fp, _)| *fp == version) {
            Some((_, cached)) => {
                f(Arc::make_mut(&mut cached.translation));
                true
            }
            None => false,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Amortization counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident versions, least- to most-recently used.
    pub fn resident(&self) -> Vec<GraphVersion> {
        self.entries.iter().map(|(fp, _)| *fp).collect()
    }

    /// Looks up `version`, counting a hit (and refreshing recency) or a
    /// miss. On a hit the saved translation milliseconds accrue to
    /// [`CacheStats::translation_ms_saved`].
    pub fn lookup(&mut self, version: GraphVersion) -> Option<CachedTranslation> {
        match self.entries.iter().position(|(fp, _)| *fp == version) {
            Some(pos) => {
                let entry = self.entries.remove(pos);
                let cached = entry.1.clone();
                self.entries.push(entry);
                self.stats.hits += 1;
                self.stats.translation_ms_saved += cached.sgt_ms;
                Some(cached)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records the translation a miss just paid for and inserts it as the
    /// most-recently-used entry, evicting the least-recently-used one on
    /// overflow. With zero capacity the cost is still accounted but nothing
    /// is retained.
    pub fn insert(&mut self, version: GraphVersion, cached: CachedTranslation) {
        self.stats.translation_ms_paid += cached.sgt_ms;
        self.insert_entry(version, cached);
    }

    /// Retention-only insert: recency refresh, dedup, eviction — no cost
    /// accounting (delta resolutions account their own, cheaper, cost).
    fn insert_entry(&mut self, version: GraphVersion, cached: CachedTranslation) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(fp, _)| *fp == version) {
            self.entries.remove(pos);
        }
        self.entries.push((version, cached));
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
    }

    /// Finds the resident entry sharing the most window fingerprints with
    /// `new_fps` (same node count required), quarantining any candidate
    /// whose resident translation fails its checksum. Returns the index
    /// into `entries`.
    fn best_predecessor(&mut self, new_fps: &[u64], num_nodes: usize) -> Option<usize> {
        if new_fps.is_empty() {
            return None;
        }
        loop {
            let mut best: Option<(usize, usize)> = None;
            for (i, (_, cached)) in self.entries.iter().enumerate() {
                if cached.num_nodes != num_nodes || cached.window_fps.len() != new_fps.len() {
                    continue;
                }
                let matching = cached
                    .window_fps
                    .iter()
                    .zip(new_fps)
                    .filter(|(a, b)| a == b)
                    .count();
                // `>=` so the most-recently-used candidate wins ties.
                if matching > 0 && best.is_none_or(|(_, m)| matching >= m) {
                    best = Some((i, matching));
                }
            }
            let (pos, _) = best?;
            let cached = &self.entries[pos].1;
            if cached.translation.checksum() == cached.checksum {
                return Some(pos);
            }
            // A corrupt predecessor must never seed a delta; quarantine it
            // exactly like a poisoned hit and rescan.
            self.stats.poison_detected += 1;
            let (fp, _) = self.entries.remove(pos);
            self.quarantined.push(fp);
        }
    }

    /// Resolves `csr`'s translation through the cache.
    ///
    /// Three outcomes, reported in [`Resolution::kind`]:
    ///
    /// - **Hit** — the exact [`GraphVersion`] is resident; returned with
    ///   zero paid milliseconds.
    /// - **Delta** — a resident predecessor shares most per-window
    ///   fingerprints; the new translation splices its windows and re-runs
    ///   Algorithm 1 on the stale ones only ([`TranslatedGraph::spliced`]). The
    ///   paid cost is the (much cheaper) delta model, and every spliced
    ///   window counts as a [`CacheStats::window_hits`].
    /// - **Full** — Algorithm 1 runs from scratch.
    ///
    /// Every hit verifies the resident translation's content checksum (and,
    /// every `spot_check_every`th hit, the full
    /// [`TranslatedGraph::validate`] pass). A poisoned entry is quarantined:
    /// its version is recorded, the entry is dropped, and the graph is
    /// transparently retranslated and re-cached — accounted as a miss plus
    /// a `poison_recovered` event, never served.
    ///
    /// This is the single chokepoint through which serving resolves
    /// translations — the differential oracle exercises exactly this path as
    /// its "cached-translation" backend.
    pub fn get_or_translate(&mut self, csr: &CsrGraph) -> Resolution {
        let window_fps = csr.window_fingerprints(TC_BLK_H);
        let key = GraphVersion::from_windows(csr.num_nodes(), &window_fps);
        self.get_or_translate_version(csr, key, &window_fps)
    }

    /// [`TranslationCache::get_or_translate`] for a caller that already
    /// knows `csr`'s window fingerprints
    /// (`csr.window_fingerprints(TC_BLK_H)`) and its key, composed from
    /// them ([`version_key`]): a server hashes each graph's windows once,
    /// then rehashes only the windows a mutation touched.
    ///
    /// Under `TCG_VERIFY=1` a hit also checks that the entry was built from
    /// a graph with the same window fingerprints, where it recorded them.
    pub(crate) fn get_or_translate_version(
        &mut self,
        csr: &CsrGraph,
        fp: GraphVersion,
        window_fps: &[u64],
    ) -> Resolution {
        debug_assert_eq!(
            window_fps,
            csr.window_fingerprints(TC_BLK_H),
            "window fingerprints of another graph"
        );
        debug_assert_eq!(
            fp,
            GraphVersion::from_windows(csr.num_nodes(), window_fps),
            "key of another graph"
        );
        let mut recovered_poison = false;
        if let Some(pos) = self.entries.iter().position(|(f, _)| *f == fp) {
            self.hit_seq += 1;
            let cached = &self.entries[pos].1;
            if tcg_fault::verify_requested() && !cached.window_fps.is_empty() {
                assert_eq!(
                    cached.window_fps, window_fps,
                    "cache hit on {fp} built from another graph"
                );
            }
            let clean = cached.translation.checksum() == cached.checksum
                && (self.spot_check_every == 0
                    || !self.hit_seq.is_multiple_of(self.spot_check_every)
                    || cached.translation.validate(csr).is_ok());
            if clean {
                // Identical accounting to `lookup`: refresh recency, count
                // the hit, accrue the saved translation milliseconds.
                let entry = self.entries.remove(pos);
                let translation = Arc::clone(&entry.1.translation);
                self.stats.hits += 1;
                self.stats.window_hits += entry.1.window_fps.len() as u64;
                self.stats.translation_ms_saved += entry.1.sgt_ms;
                self.entries.push(entry);
                return Resolution {
                    translation,
                    paid_ms: 0.0,
                    kind: ResolutionKind::Hit,
                };
            }
            // Poisoned: quarantine the version and fall through to the
            // miss path, which retranslates and re-caches a clean entry.
            self.stats.poison_detected += 1;
            self.quarantined.push(fp);
            self.entries.remove(pos);
            recovered_poison = true;
        }
        self.stats.misses += 1;
        let full_ms = tcg_sgt::overhead::model_ms(csr);

        // Delta path: splice from the closest resident predecessor. The new
        // entry keeps the window fingerprints.
        if self.delta_enabled {
            if let Some(pos) = self.best_predecessor(window_fps, csr.num_nodes()) {
                let cached = &self.entries[pos].1;
                let touched: Vec<usize> = window_fps
                    .iter()
                    .zip(&cached.window_fps)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(i, _)| i)
                    .collect();
                if let Ok(t) = cached.translation.spliced(csr, &touched) {
                    let preserved = window_fps.len() - touched.len();
                    let retranslated_edges: usize =
                        touched.iter().map(|&w| window_edge_count(csr, w)).sum();
                    let paid =
                        tcg_sgt::overhead::model_delta_ms(csr, touched.len(), retranslated_edges);
                    let translation = Arc::new(t);
                    self.stats.delta_translations += 1;
                    self.stats.window_hits += preserved as u64;
                    self.stats.window_misses += touched.len() as u64;
                    self.stats.translation_ms_paid += paid;
                    self.stats.translation_ms_saved += (full_ms - paid).max(0.0);
                    // A future hit on this entry saves a *full* translation.
                    let cached = CachedTranslation::with_window_fps(
                        csr,
                        Arc::clone(&translation),
                        full_ms,
                        window_fps.to_vec(),
                    );
                    self.insert_entry(fp, cached);
                    if recovered_poison {
                        self.stats.poison_recovered += 1;
                    }
                    return Resolution {
                        translation,
                        paid_ms: paid,
                        kind: ResolutionKind::Delta { touched, preserved },
                    };
                }
            }
        }

        let translation = Arc::new(
            Sgt::builder()
                .translate(csr)
                .expect("default SGT geometry is valid"),
        );
        self.stats.window_misses += csr.num_nodes().div_ceil(TC_BLK_H) as u64;
        self.insert(
            fp,
            CachedTranslation::with_window_fps(
                csr,
                Arc::clone(&translation),
                full_ms,
                window_fps.to_vec(),
            ),
        );
        if recovered_poison {
            self.stats.poison_recovered += 1;
        }
        Resolution {
            translation,
            paid_ms: full_ms,
            kind: ResolutionKind::Full,
        }
    }
}

/// The key [`TranslationCache`] files `csr`'s translation under:
/// [`GraphVersion::from_windows`] over `csr`'s node count and its window
/// fingerprints at `TC_BLK_H` rows. `O(E)`, like
/// [`CsrGraph::fingerprint`], but a caller that keeps the window
/// fingerprints current recomposes it in `O(windows)`.
pub fn version_key(csr: &CsrGraph) -> GraphVersion {
    GraphVersion::from_windows(csr.num_nodes(), &csr.window_fingerprints(TC_BLK_H))
}

/// Edges whose source row lies in window `w` (at `TC_BLK_H` rows).
fn window_edge_count(csr: &CsrGraph, w: usize) -> usize {
    let lo = w * TC_BLK_H;
    let hi = ((w + 1) * TC_BLK_H).min(csr.num_nodes());
    (lo..hi).map(|v| csr.neighbors(v).len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_graph::gen;
    use tcg_sgt::EdgeDelta;

    fn ver(raw: u64) -> GraphVersion {
        GraphVersion::from_u64(raw)
    }

    fn entry(ms: f64) -> CachedTranslation {
        let g = tcg_graph::CsrGraph::from_raw(2, vec![0, 1, 2], vec![1, 0]).unwrap();
        CachedTranslation::new(Arc::new(Sgt::builder().translate(&g).unwrap()), ms)
    }

    #[test]
    fn hit_refreshes_recency_and_accrues_savings() {
        let mut c = TranslationCache::new(2);
        assert!(c.lookup(ver(1)).is_none());
        c.insert(ver(1), entry(5.0));
        assert!(c.lookup(ver(2)).is_none());
        c.insert(ver(2), entry(7.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.lookup(ver(1)).is_some());
        c.insert(ver(3), entry(1.0));
        assert_eq!(c.resident(), vec![ver(1), ver(3)]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 1));
        assert_eq!(s.translation_ms_paid, 13.0);
        assert_eq!(s.translation_ms_saved, 5.0);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn poisoned_hit_is_quarantined_and_retranslated() {
        let g = tcg_graph::CsrGraph::from_raw(2, vec![0, 1, 2], vec![1, 0]).unwrap();
        let fp = version_key(&g);
        let mut c = TranslationCache::new(2);
        assert!(!c.get_or_translate(&g).hit());
        assert!(c.corrupt_resident(fp, |t| t.edge_to_col[0] ^= 1));
        // The poisoned hit is detected, quarantined, and recovered as a
        // transparent retranslation.
        let r = c.get_or_translate(&g);
        assert!(!r.hit(), "poisoned entry must not be served as a hit");
        assert!(r.paid_ms > 0.0, "recovery pays the translation again");
        assert!(
            r.translation.validate(&g).is_ok(),
            "recovered translation is clean"
        );
        let s = c.stats();
        assert_eq!((s.poison_detected, s.poison_recovered), (1, 1));
        assert_eq!(c.quarantined(), &[fp]);
        // The re-cached entry is clean: the next access is a normal hit.
        let r = c.get_or_translate(&g);
        assert!(r.hit());
        assert_eq!(r.paid_ms, 0.0);
    }

    #[test]
    fn spot_check_catches_semantic_corruption() {
        // A corruption that keeps the checksum in sync (re-wrapping through
        // `CachedTranslation::new`) is only caught by the sampled full
        // validate pass.
        let g = tcg_graph::CsrGraph::from_raw(2, vec![0, 1, 2], vec![1, 0]).unwrap();
        let fp = version_key(&g);
        let mut c = TranslationCache::new(2);
        c.set_spot_check_every(1);
        assert!(!c.get_or_translate(&g).hit());
        let mut t = Sgt::builder().translate(&g).unwrap();
        t.edge_to_col[0] = 7; // out of range → validate() fails
        c.insert(fp, CachedTranslation::new(Arc::new(t), 1.0));
        assert!(
            !c.get_or_translate(&g).hit(),
            "spot check must catch the bad translation"
        );
        assert_eq!(c.stats().poison_detected, 1);
    }

    #[test]
    fn zero_capacity_disables_retention_but_counts_costs() {
        let mut c = TranslationCache::new(0);
        assert!(c.lookup(ver(9)).is_none());
        c.insert(ver(9), entry(4.0));
        assert!(c.lookup(ver(9)).is_none());
        assert!(c.is_empty());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(s.translation_ms_paid, 4.0);
    }

    #[test]
    fn mutation_resolves_as_delta_preserving_untouched_windows() {
        let g = gen::rmat_default(512, 4_000, 7).unwrap();
        let mut c = TranslationCache::new(4);
        let r0 = c.get_or_translate(&g);
        assert_eq!(r0.kind, ResolutionKind::Full);

        // Mutate one window: delete an existing edge and insert a fresh one.
        let src = 17usize;
        let old_dst = g.neighbors(src)[0];
        let new_dst = (0..512u32)
            .find(|d| !g.neighbors(src).contains(d) && *d as usize != src)
            .unwrap();
        let delta = EdgeDelta::new()
            .delete(src as u32, old_dst)
            .insert(src as u32, new_dst);
        let g2 = delta.apply_to(&g).unwrap();

        let r1 = c.get_or_translate(&g2);
        match &r1.kind {
            ResolutionKind::Delta { touched, preserved } => {
                assert_eq!(touched, &vec![17 / TC_BLK_H]);
                assert_eq!(*preserved, 512usize.div_ceil(TC_BLK_H) - 1);
            }
            other => panic!("expected delta resolution, got {other:?}"),
        }
        assert!(
            r1.paid_ms < tcg_sgt::overhead::model_ms(&g2),
            "delta must be cheaper than a full translation"
        );
        // The spliced translation is bitwise identical to from-scratch.
        let fresh = Sgt::builder().translate(&g2).unwrap();
        assert_eq!(r1.translation.checksum(), fresh.checksum());
        assert!(r1.translation.validate(&g2).is_ok());
        let s = c.stats();
        assert_eq!(s.delta_translations, 1);
        assert_eq!(s.window_misses, 512u64.div_ceil(TC_BLK_H as u64) + 1);
        assert_eq!(s.window_hits, 512u64.div_ceil(TC_BLK_H as u64) - 1);

        // Both versions now resident: flipping back is an exact hit.
        assert!(c.get_or_translate(&g).hit());
    }

    #[test]
    fn delta_disabled_falls_back_to_full_retranslation() {
        let g = gen::rmat_default(256, 2_000, 3).unwrap();
        let mut c = TranslationCache::new(4);
        c.set_delta_enabled(false);
        c.get_or_translate(&g);
        let dst = g.neighbors(5)[0];
        let g2 = EdgeDelta::new().delete(5, dst).apply_to(&g).unwrap();
        let r = c.get_or_translate(&g2);
        assert_eq!(r.kind, ResolutionKind::Full);
        assert_eq!(c.stats().delta_translations, 0);
    }

    #[test]
    fn corrupt_predecessor_is_never_spliced() {
        let g = gen::rmat_default(256, 2_000, 4).unwrap();
        let fp = version_key(&g);
        let mut c = TranslationCache::new(4);
        c.get_or_translate(&g);
        assert!(c.corrupt_resident(fp, |t| t.edge_to_col[0] ^= 1));
        let dst = g.neighbors(5)[0];
        let g2 = EdgeDelta::new().delete(5, dst).apply_to(&g).unwrap();
        let r = c.get_or_translate(&g2);
        assert_eq!(
            r.kind,
            ResolutionKind::Full,
            "poisoned entry must not seed a delta"
        );
        assert!(r.translation.validate(&g2).is_ok());
        assert_eq!(c.quarantined(), &[fp]);
        assert_eq!(c.stats().poison_detected, 1);
    }
}
