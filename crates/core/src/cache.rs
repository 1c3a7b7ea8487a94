//! Cross-run template and basis caches keyed by canonical
//! [`Fingerprint`]s — the shared state behind the obligation server
//! (`dpv-serve`) and any other long-lived process that re-verifies the same
//! models.
//!
//! Two cache kinds live here:
//!
//! * [`TemplateCache`] — `Arc`-held [`ProblemTemplate`]s keyed by their
//!   content fingerprint, with LRU eviction. A hit skips the template build
//!   (the network split, the layer copies and the root's checking encode);
//!   concurrent verification jobs share one immutable template.
//! * [`SnapshotPool`] — rolling [`BasisSnapshot`]s pooled *per template
//!   fingerprint*, so warm dual-simplex bases can flow between solves of
//!   one template. The obligation server no longer uses it: every
//!   obligation is solved from the slack basis, with warm starts only
//!   inside its own branch-and-bound tree. The pool stays until
//!   perfbench's single-thread replay, which still mirrors it, moves off
//!   it.
//!
//! Both caches are `Send + Sync` (a `Mutex` around plain maps — lock hold
//! times are a few pointer moves, never a solve) and deliberately
//! verdict-neutral: any entry can be evicted at any time without changing
//! what a verification returns, only what it costs. Both count hits,
//! misses and evictions into a [`Counters`] store; the obligation server
//! hands the template cache its own store
//! ([`TemplateCache::with_counters`]) and builds its statistics from it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dpv_lp::BasisSnapshot;
use dpv_trace::{CounterId, Counters};

use crate::fingerprint::Fingerprint;
use crate::verify::ProblemTemplate;
use crate::{CoreError, StartRegion, VerificationProblem};

/// Counters describing a [`TemplateCache`]'s effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build (and then inserted) a template.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in permille (0 when nothing was looked up).
    pub fn hit_rate_permille(&self) -> u64 {
        let total = self.hits + self.misses;
        (self.hits * 1000).checked_div(total).unwrap_or(0)
    }
}

/// An LRU cache of `Arc`-held [`ProblemTemplate`]s keyed by their canonical
/// content [`Fingerprint`].
///
/// **Key scheme.** The key is [`Fingerprint::of_template`] over the
/// template's defining `(tail, characterizer, risk, root region)` tuple —
/// computed via [`VerificationProblem::template_fingerprint`] *before*
/// building, so lookups are cheap. Identical tuples submitted by different
/// requests (or different threads) resolve to one shared template.
///
/// **Eviction.** Least-recently-used beyond `capacity`: every hit refreshes
/// an entry's recency; inserting beyond capacity drops the stalest entry.
/// Because templates are handed out as `Arc`s, eviction never invalidates a
/// template a worker is still solving with.
#[derive(Debug)]
pub struct TemplateCache {
    capacity: usize,
    inner: Mutex<TemplateCacheInner>,
    counters: Arc<Counters>,
}

#[derive(Debug, Default)]
struct TemplateCacheInner {
    map: HashMap<Fingerprint, Arc<ProblemTemplate>>,
    /// Recency order, least-recently-used first.
    order: Vec<Fingerprint>,
}

impl TemplateCacheInner {
    fn touch(&mut self, fp: Fingerprint) {
        if let Some(pos) = self.order.iter().position(|&f| f == fp) {
            self.order.remove(pos);
        }
        self.order.push(fp);
    }
}

impl TemplateCache {
    /// Creates a cache holding at most `capacity` templates (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self::with_counters(capacity, Arc::default())
    }

    /// [`TemplateCache::new`] counting hits, misses and evictions into
    /// `counters`.
    pub fn with_counters(capacity: usize, counters: Arc<Counters>) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(TemplateCacheInner::default()),
            counters,
        }
    }

    /// Returns the cached template for `problem` over `root`, building and
    /// inserting it on a miss. The build happens *outside* the cache lock,
    /// so a slow encoding never blocks concurrent hits; when two threads
    /// race to build the same template, the first insert wins and the loser
    /// adopts it (both count one miss — both paid a build).
    ///
    /// # Errors
    /// Propagates encoding errors from
    /// [`VerificationProblem::encoding_template`].
    pub fn get_or_build(
        &self,
        problem: &VerificationProblem,
        root: &StartRegion,
    ) -> Result<Arc<ProblemTemplate>, CoreError> {
        let fp = problem.template_fingerprint(root)?;
        {
            let mut inner = self.inner.lock().expect("template cache poisoned");
            if let Some(template) = inner.map.get(&fp).cloned() {
                inner.touch(fp);
                drop(inner);
                self.counters.add(CounterId::TemplateHits, 1);
                return Ok(template);
            }
        }
        self.counters.add(CounterId::TemplateMisses, 1);
        let built = Arc::new(problem.encoding_template(root)?);
        debug_assert_eq!(built.fingerprint(), fp, "fingerprint must be content-true");
        let mut inner = self.inner.lock().expect("template cache poisoned");
        let template = inner.map.entry(fp).or_insert_with(|| built).clone();
        inner.touch(fp);
        let mut evicted = 0;
        while inner.map.len() > self.capacity {
            let stale = inner.order.remove(0);
            inner.map.remove(&stale);
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.counters.add(CounterId::TemplateEvictions, evicted);
        }
        Ok(template)
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.get(CounterId::TemplateHits),
            misses: self.counters.get(CounterId::TemplateMisses),
            evictions: self.counters.get(CounterId::TemplateEvictions),
            entries: self
                .inner
                .lock()
                .expect("template cache poisoned")
                .map
                .len(),
        }
    }
}

/// Counters describing a [`SnapshotPool`]'s effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotPoolStats {
    /// Check-outs that returned a pooled basis.
    pub hits: u64,
    /// Check-outs that found the template's pool empty.
    pub misses: u64,
    /// Snapshots dropped because a template's pool was full.
    pub discarded: u64,
    /// Templates with a pool currently resident.
    pub keys: usize,
}

impl SnapshotPoolStats {
    /// Hit rate in permille (0 when nothing was checked out).
    pub fn hit_rate_permille(&self) -> u64 {
        let total = self.hits + self.misses;
        (self.hits * 1000).checked_div(total).unwrap_or(0)
    }
}

/// A pool of warm [`BasisSnapshot`]s segregated by template
/// [`Fingerprint`].
///
/// A caller checks a basis out before solving an obligation
/// ([`SnapshotPool::check_out`]), seeds the backend with it
/// ([`crate::VerificationProblem::solve_with_template`] with a seed in its
/// [`crate::SolveOptions`]), and checks the refreshed basis back in
/// afterwards, so warm starts chain across obligations of one template.
///
/// The obligation server no longer uses the pool: a seeded solve's witness
/// depends on which basis it drew, so the server solves every obligation
/// from the slack basis instead. The pool stays until perfbench's
/// single-thread replay, which still mirrors the old server path and names
/// the pool, moves off it with the benchmark change of ROADMAP item 8.
///
/// **Guard.** Check-out is keyed strictly by template fingerprint: a basis
/// deposited under template A is unreachable from template B even when the
/// two LPs share every structural count (the stale-snapshot scenario the
/// cache-soundness tests pin down). The LP layer's per-solve validation
/// remains the soundness backstop — a wrong basis degrades to a cold solve,
/// never to a wrong verdict — but the pool keying is what keeps the *hit
/// rate* honest across templates.
///
/// **Capacity.** Each template keeps at most `per_key` bases (surplus
/// check-ins are dropped); `per_key == 0` disables pooling entirely.
#[derive(Debug)]
pub struct SnapshotPool {
    per_key: usize,
    pools: Mutex<HashMap<Fingerprint, Vec<BasisSnapshot>>>,
    counters: Counters,
}

impl SnapshotPool {
    /// Creates a pool keeping at most `per_key` bases per template.
    pub fn new(per_key: usize) -> Self {
        Self {
            per_key,
            pools: Mutex::default(),
            counters: Counters::default(),
        }
    }

    /// Takes a warm basis for the template `fp`, if one is pooled.
    pub fn check_out(&self, fp: Fingerprint) -> Option<BasisSnapshot> {
        let snapshot = self
            .pools
            .lock()
            .expect("snapshot pool poisoned")
            .get_mut(&fp)
            .and_then(Vec::pop);
        let id = match snapshot {
            Some(_) => CounterId::SnapshotHits,
            None => CounterId::SnapshotMisses,
        };
        self.counters.add(id, 1);
        snapshot
    }

    /// Returns a refreshed basis to the template `fp`'s pool; dropped when
    /// the pool is full (or pooling is disabled).
    pub fn check_in(&self, fp: Fingerprint, snapshot: BasisSnapshot) {
        let mut pools = self.pools.lock().expect("snapshot pool poisoned");
        let pool = pools.entry(fp).or_default();
        if pool.len() < self.per_key {
            pool.push(snapshot);
        } else {
            drop(pools);
            self.counters.add(CounterId::SnapshotDiscards, 1);
        }
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> SnapshotPoolStats {
        SnapshotPoolStats {
            hits: self.counters.get(CounterId::SnapshotHits),
            misses: self.counters.get(CounterId::SnapshotMisses),
            discarded: self.counters.get(CounterId::SnapshotDiscards),
            keys: self.pools.lock().expect("snapshot pool poisoned").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Characterizer, CharacterizerConfig, InputProperty, RiskCondition, SolveOptions, Verdict,
        VerificationProblem,
    };
    use dpv_absint::BoxDomain;
    use dpv_lp::default_backend;
    use dpv_nn::{Activation, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A small trained-ish verification problem over a fixed seed.
    fn problem(threshold: f64) -> VerificationProblem {
        let mut rng = StdRng::seed_from_u64(41);
        let perception = NetworkBuilder::new(3)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build();
        let cut = 2;
        let examples: Vec<(dpv_tensor::Vector, bool)> = (0..60)
            .map(|i| {
                let v: dpv_tensor::Vector = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
                (v, i % 2 == 0)
            })
            .collect();
        let characterizer = Characterizer::train(
            InputProperty::new("p", "test property"),
            &perception,
            cut,
            &examples,
            &CharacterizerConfig::small(),
            &mut rng,
        )
        .expect("characterizer trains");
        VerificationProblem::new(
            perception,
            cut,
            characterizer,
            RiskCondition::new("r").output_ge(0, threshold),
        )
        .expect("problem assembles")
    }

    fn region(lo: f64, hi: f64) -> StartRegion {
        StartRegion::Box(BoxDomain::uniform(4, lo, hi))
    }

    #[test]
    fn identical_tuples_share_one_template() {
        let cache = TemplateCache::new(4);
        let p = problem(10.0);
        let a = cache.get_or_build(&p, &region(-1.0, 1.0)).unwrap();
        let b = cache.get_or_build(&p, &region(-1.0, 1.0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate_permille(), 500);
    }

    #[test]
    fn distinct_risks_get_distinct_templates() {
        let cache = TemplateCache::new(4);
        let a = cache
            .get_or_build(&problem(10.0), &region(-1.0, 1.0))
            .unwrap();
        let b = cache
            .get_or_build(&problem(0.0), &region(-1.0, 1.0))
            .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_the_stalest_template() {
        let cache = TemplateCache::new(2);
        let p = problem(10.0);
        let r1 = region(-1.0, 1.0);
        let r2 = region(-0.5, 0.5);
        let r3 = region(-0.25, 0.25);
        let t1 = cache.get_or_build(&p, &r1).unwrap();
        let _t2 = cache.get_or_build(&p, &r2).unwrap();
        // Touch t1 so r2 is now the LRU entry, then overflow.
        let _ = cache.get_or_build(&p, &r1).unwrap();
        let _t3 = cache.get_or_build(&p, &r3).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 3));
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // t1 was touched, so it is still cached: a hit on the same template.
        let again = cache.get_or_build(&p, &r1).unwrap();
        assert!(Arc::ptr_eq(&again, &t1));
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 3));
        // r2 was the LRU entry: it is built again, which evicts r3.
        let _ = cache.get_or_build(&p, &r2).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 4));
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
    }

    /// A basis from a small always-feasible LP; the pool treats snapshots
    /// as opaque, so any basis exercises its keying and capacity logic.
    fn any_basis() -> BasisSnapshot {
        let mut lp = dpv_lp::LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], dpv_lp::ConstraintOp::Le, 1.0);
        let (_, snap) = lp.solve_with_snapshot();
        snap.expect("optimal solve yields a basis")
    }

    #[test]
    fn snapshot_pool_segregates_templates() {
        // Deposit a basis under template A; template B must miss even
        // though the two MILPs share every structural count (the risks
        // differ only in a threshold — exactly the pair the LP layer's own
        // structure fingerprint cannot tell apart on feasibility problems).
        let pool = SnapshotPool::new(2);
        let root = region(-1.0, 1.0);
        let fp_a = problem(10.0).template_fingerprint(&root).unwrap();
        let fp_b = problem(11.0).template_fingerprint(&root).unwrap();
        assert_ne!(fp_a, fp_b);

        pool.check_in(fp_a, any_basis());
        assert!(pool.check_out(fp_b).is_none(), "foreign template must miss");
        assert!(pool.check_out(fp_a).is_some());
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate_permille(), 500);
    }

    #[test]
    fn pool_capacity_bounds_each_template() {
        let pool = SnapshotPool::new(1);
        let p = problem(10.0);
        let root = region(-1.0, 1.0);
        let fp = p.template_fingerprint(&root).unwrap();
        pool.check_in(fp, any_basis());
        pool.check_in(fp, any_basis());
        assert_eq!(pool.stats().discarded, 1);
        let disabled = SnapshotPool::new(0);
        disabled.check_in(fp, any_basis());
        assert!(
            disabled.check_out(fp).is_none(),
            "per_key=0 disables pooling"
        );
    }

    #[test]
    fn seeded_and_unseeded_template_solves_agree() {
        // The cache layer must be verdict-neutral: solving the same
        // obligation with and without a pooled seed returns equal statuses.
        let p = problem(10.0);
        let root = region(-1.0, 1.0);
        let template = p.encoding_template(&root).unwrap();
        let backend = default_backend();

        let mut seed = None;
        let (first, _) = p
            .solve_with_template(
                &template,
                &root,
                &mut SolveOptions::new().seed(&mut seed).backend(&backend),
            )
            .unwrap();
        let (seeded, _) = p
            .solve_with_template(
                &template,
                &root,
                &mut SolveOptions::new().seed(&mut seed).backend(&backend),
            )
            .unwrap();
        let (unseeded, _) = p
            .solve_with_template(&template, &root, &mut SolveOptions::new().backend(&backend))
            .unwrap();
        assert_eq!(
            std::mem::discriminant(&seeded),
            std::mem::discriminant(&unseeded)
        );
        assert_eq!(
            std::mem::discriminant(&first),
            std::mem::discriminant(&seeded)
        );
        assert!(matches!(first, Verdict::Safe | Verdict::Unsafe(_)));
    }
}
