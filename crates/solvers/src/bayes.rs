//! Bayesian-optimization solver: GP surrogate + expected improvement.
//!
//! Mirrors the paper's scikit-learn-based method (§2.5): a Gaussian-process
//! surrogate over the unit box, with candidates ranked by expected
//! improvement. Batches are diversified with a minimum-distance constraint
//! (a cheap stand-in for constant-liar q-EI).
//!
//! Two implementations of the same math live here, selected by
//! [`BayesSolver::incremental`]:
//!
//! * the **incremental** default keeps one surrogate per `fit_auto`
//!   lengthscale alive across proposals, appends new observations with the
//!   O(n²) [`Gp::extend`], and scores the candidate pool through
//!   [`Gp::ei_batch`] over reusable flat buffers — this is the campaign
//!   hot path;
//! * the **from-scratch** baseline refits via [`Gp::fit_auto`] every call
//!   and scores candidates one `Vec` at a time — the pre-optimization code,
//!   kept because the equivalence tests compare the two.
//!
//! Both paths consume the RNG identically and produce bit-identical
//! proposals; the determinism suite enforces this.

use crate::gp::{EiScratch, Gp, RbfKernel, FIT_AUTO_LENGTHSCALES};
use crate::linalg::dist;
use crate::reference::RefGp;
use crate::sampling::latin_hypercube;
use crate::solver::{best_observation, sanitize, ColorSolver, Observation};
use rand::rngs::StdRng;
use rand::Rng;
use sdl_color::Rgb8;

/// One surrogate per candidate lengthscale, grown incrementally alongside
/// the fit window. A `None` entry is a lengthscale whose Cholesky failed;
/// a from-scratch fit of a superset of the same points fails at the same
/// leading row, so dead entries stay dead until the window itself changes.
#[derive(Debug, Clone, Default)]
struct SurrogateCache {
    /// History index of the first window point the cache was built on.
    start: usize,
    /// Window points consumed so far.
    n: usize,
    /// The ratios consumed, flat row-major (for cache validation).
    xs: Vec<f64>,
    /// The scores consumed (for cache validation).
    ys: Vec<f64>,
    /// One model per [`FIT_AUTO_LENGTHSCALES`] entry.
    gps: Vec<Option<Gp>>,
}

/// GP-EI color solver.
#[derive(Debug, Clone)]
pub struct BayesSolver {
    dims: usize,
    /// Observations required before the surrogate takes over from LHS.
    pub init_samples: usize,
    /// Random candidates scored per proposal round.
    pub candidates: usize,
    /// Local perturbations of the incumbent added to the candidate pool.
    pub local_candidates: usize,
    /// Minimum pairwise distance inside one proposed batch.
    pub batch_min_dist: f64,
    /// Cap on history length used for the fit (GP is O(n³)).
    pub max_fit_points: usize,
    /// Use the incremental surrogate + batched-EI hot path (default). Set
    /// to `false` to run the from-scratch reference path; results are
    /// bit-identical either way.
    pub incremental: bool,
    fallbacks: u64,
    cache: SurrogateCache,
    pool: Vec<f64>,
    ei: Vec<f64>,
    order: Vec<usize>,
    ei_scratch: EiScratch,
}

impl BayesSolver {
    /// Default-configured solver for `dims` dyes.
    pub fn new(dims: usize) -> BayesSolver {
        BayesSolver {
            dims,
            init_samples: 2 * dims,
            candidates: 512,
            local_candidates: 128,
            batch_min_dist: 0.05,
            max_fit_points: 160,
            incremental: true,
            fallbacks: 0,
            cache: SurrogateCache::default(),
            pool: Vec::new(),
            ei: Vec::new(),
            order: Vec::new(),
            ei_scratch: EiScratch::default(),
        }
    }

    /// Times a degenerate surrogate fit forced a random-candidate fallback.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Fill `self.pool` with the candidate pool, flat row-major. Draws from
    /// the RNG in exactly the order the original `Vec<Vec<f64>>` pool did:
    /// all uniform candidates first, then the incumbent perturbations.
    fn fill_candidate_pool(&mut self, incumbent: &[f64], rng: &mut StdRng) -> usize {
        let m = self.candidates + self.local_candidates;
        self.pool.clear();
        self.pool.reserve(m * self.dims);
        for _ in 0..self.candidates {
            for _ in 0..self.dims {
                self.pool.push(rng.gen::<f64>());
            }
        }
        for i in 0..self.local_candidates {
            // Shrinking shells around the incumbent.
            let radius = 0.02 + 0.2 * (i as f64 / self.local_candidates.max(1) as f64);
            let at = self.pool.len();
            for x in incumbent {
                self.pool.push(x + rng.gen_range(-radius..=radius));
            }
            sanitize(&mut self.pool[at..]);
        }
        m
    }

    /// The reference candidate pool (from-scratch path).
    fn candidate_pool(&self, incumbent: &[f64], rng: &mut StdRng) -> Vec<Vec<f64>> {
        let mut pool = Vec::with_capacity(self.candidates + self.local_candidates);
        for _ in 0..self.candidates {
            pool.push((0..self.dims).map(|_| rng.gen::<f64>()).collect());
        }
        for i in 0..self.local_candidates {
            let radius = 0.02 + 0.2 * (i as f64 / self.local_candidates.max(1) as f64);
            let mut p: Vec<f64> =
                incumbent.iter().map(|x| x + rng.gen_range(-radius..=radius)).collect();
            sanitize(&mut p);
            pool.push(p);
        }
        pool
    }

    /// Random fallback batch (degenerate fit). Same RNG order in both paths.
    fn random_batch(&mut self, batch: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        self.fallbacks += 1;
        (0..batch).map(|_| (0..self.dims).map(|_| rng.gen::<f64>()).collect()).collect()
    }

    /// True when the cache was built on a prefix of this window.
    fn cache_matches(&self, start: usize, window: &[Observation]) -> bool {
        if self.cache.gps.is_empty() || self.cache.start != start || self.cache.n > window.len() {
            return false;
        }
        for (i, o) in window[..self.cache.n].iter().enumerate() {
            if o.ratios.len() != self.dims
                || self.cache.ys[i] != o.score
                || self.cache.xs[i * self.dims..(i + 1) * self.dims] != o.ratios[..]
            {
                return false;
            }
        }
        true
    }

    /// Bring the per-lengthscale surrogates up to date with the fit window,
    /// extending incrementally when the window only grew and refitting from
    /// scratch when it slid or the history was rewritten. Returns the index
    /// of the evidence-maximizing live surrogate (the same selection
    /// `Gp::fit_auto` makes), or `None` when every lengthscale is
    /// degenerate.
    fn refresh_surrogates(&mut self, start: usize, window: &[Observation]) -> Option<usize> {
        if !self.cache_matches(start, window) {
            self.cache = SurrogateCache {
                start,
                n: 0,
                xs: Vec::with_capacity(window.len() * self.dims),
                ys: Vec::with_capacity(window.len()),
                gps: vec![None; FIT_AUTO_LENGTHSCALES.len()],
            };
            let xs: Vec<Vec<f64>> = window.iter().map(|o| o.ratios.clone()).collect();
            let ys: Vec<f64> = window.iter().map(|o| o.score).collect();
            for (slot, &l) in self.cache.gps.iter_mut().zip(&FIT_AUTO_LENGTHSCALES) {
                let k = RbfKernel { lengthscale: l, ..RbfKernel::default() };
                *slot = Gp::fit(&xs, &ys, k).ok();
            }
        } else {
            let fresh = &window[self.cache.n..];
            for slot in &mut self.cache.gps {
                if let Some(gp) = slot {
                    let points = fresh.iter().map(|o| (o.ratios.as_slice(), o.score));
                    if gp.extend_many(points).is_err() {
                        *slot = None;
                    }
                }
            }
        }
        self.cache.n = window.len();
        self.cache.xs.clear();
        self.cache.ys.clear();
        for o in window {
            self.cache.xs.extend_from_slice(&o.ratios);
            self.cache.ys.push(o.score);
        }

        // Evidence-maximizing lengthscale, first-wins on ties — the exact
        // selection rule of Gp::fit_auto.
        let mut best: Option<usize> = None;
        for (i, slot) in self.cache.gps.iter().enumerate() {
            if let Some(gp) = slot {
                if best.is_none_or(|b| {
                    gp.log_marginal_likelihood()
                        > self.cache.gps[b].as_ref().expect("live").log_marginal_likelihood()
                }) {
                    best = Some(i);
                }
            }
        }
        best
    }

    /// Greedy diverse batch from EI-ranked flat candidates, plus random
    /// fill and sanitation — the shared tail of both propose paths.
    fn select_batch(&mut self, m: usize, batch: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        self.order.clear();
        self.order.extend(0..m);
        let ei = &self.ei;
        // Stable sort: candidates with equal EI keep pool order, exactly as
        // the reference path's stable sort over (score, point) pairs.
        self.order.sort_by(|&a, &b| ei[b].total_cmp(&ei[a]));

        let mut out: Vec<Vec<f64>> = Vec::with_capacity(batch);
        for &c in &self.order {
            if out.len() == batch {
                break;
            }
            let p = &self.pool[c * self.dims..(c + 1) * self.dims];
            if out.iter().all(|q| dist(q, p) >= self.batch_min_dist) {
                out.push(p.to_vec());
            }
        }
        while out.len() < batch {
            out.push((0..self.dims).map(|_| rng.gen::<f64>()).collect());
        }
        for p in &mut out {
            sanitize(p);
        }
        out
    }

    /// The pre-optimization propose body: from-scratch `fit_auto` and
    /// one-candidate-at-a-time EI over freshly allocated `Vec`s.
    fn propose_from_scratch(
        &mut self,
        window: &[Observation],
        incumbent: &[f64],
        batch: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<f64>> {
        let xs: Vec<Vec<f64>> = window.iter().map(|o| o.ratios.clone()).collect();
        let ys: Vec<f64> = window.iter().map(|o| o.score).collect();
        let gp = match RefGp::fit_auto(&xs, &ys) {
            Ok(gp) => gp,
            Err(_) => return self.random_batch(batch, rng),
        };
        let best_y = ys.iter().cloned().fold(f64::INFINITY, f64::min);

        let mut scored: Vec<(f64, Vec<f64>)> = self
            .candidate_pool(incumbent, rng)
            .into_iter()
            .map(|p| (gp.expected_improvement(&p, best_y), p))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));

        // Greedy batch with diversity.
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(batch);
        for (_, p) in &scored {
            if out.len() == batch {
                break;
            }
            if out.iter().all(|q| dist(q, p) >= self.batch_min_dist) {
                out.push(p.clone());
            }
        }
        // Fill any shortfall with random points.
        while out.len() < batch {
            out.push((0..self.dims).map(|_| rng.gen::<f64>()).collect());
        }
        for p in &mut out {
            sanitize(p);
        }
        out
    }
}

impl ColorSolver for BayesSolver {
    fn name(&self) -> &'static str {
        "bayesian"
    }

    fn degenerate_fallbacks(&self) -> u64 {
        self.fallbacks
    }

    fn propose(
        &mut self,
        _target: Rgb8,
        history: &[Observation],
        batch: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<f64>> {
        assert!(batch > 0);
        if history.len() < self.init_samples {
            return latin_hypercube(self.dims, batch, rng);
        }
        // Both paths must fail identically on malformed input, so check
        // arity up front instead of letting the incremental path trip an
        // internal assertion the reference path would sail past.
        assert!(
            history.iter().all(|o| o.ratios.len() == self.dims),
            "history observations must have {} ratios",
            self.dims
        );

        // Fit on the most recent window (plus the incumbent is inside it in
        // practice; scores are noisy so recency is a feature, not a bug).
        let start = history.len().saturating_sub(self.max_fit_points);
        let window = &history[start..];
        let incumbent = best_observation(history).expect("non-empty").ratios.clone();

        if !self.incremental {
            return self.propose_from_scratch(window, &incumbent, batch, rng);
        }

        let Some(best_gp) = self.refresh_surrogates(start, window) else {
            // Degenerate fit (e.g. non-finite points): fall back to random.
            return self.random_batch(batch, rng);
        };
        let best_y = window.iter().map(|o| o.score).fold(f64::INFINITY, f64::min);

        let m = self.fill_candidate_pool(&incumbent, rng);
        let gp = self.cache.gps[best_gp].as_ref().expect("live surrogate");
        gp.ei_batch(&self.pool, m, best_y, &mut self.ei_scratch, &mut self.ei);
        self.select_batch(m, batch, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn obs(ratios: Vec<f64>, score: f64) -> Observation {
        Observation { ratios, measured: Rgb8::new(0, 0, 0), score }
    }

    #[test]
    fn warms_up_with_latin_hypercube() {
        let mut s = BayesSolver::new(4);
        let props = s.propose(Rgb8::PAPER_TARGET, &[], 4, &mut StdRng::seed_from_u64(1));
        assert_eq!(props.len(), 4);
        for p in &props {
            assert_eq!(p.len(), 4);
        }
    }

    #[test]
    fn warmup_batch_of_one_returns_exactly_one_point() {
        // Regression: the warm-up used to over-sample via batch.max(1) and
        // truncate; it must hand back exactly the requested batch.
        for batch in [1usize, 2, 7] {
            let mut s = BayesSolver::new(3);
            let props = s.propose(Rgb8::PAPER_TARGET, &[], batch, &mut StdRng::seed_from_u64(9));
            assert_eq!(props.len(), batch);
            for p in &props {
                assert_eq!(p.len(), 3);
                assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
            }
        }
    }

    #[test]
    fn batch_respects_diversity() {
        let mut s = BayesSolver::new(2);
        s.init_samples = 4;
        let history: Vec<Observation> = (0..12)
            .map(|i| {
                let x = (i % 4) as f64 / 3.0;
                let y = (i / 4) as f64 / 2.0;
                obs(vec![x, y], ((x - 0.3).powi(2) + (y - 0.6).powi(2)) * 100.0)
            })
            .collect();
        let props = s.propose(Rgb8::PAPER_TARGET, &history, 6, &mut StdRng::seed_from_u64(2));
        assert_eq!(props.len(), 6);
        for i in 0..props.len() {
            for j in i + 1..props.len() {
                assert!(
                    dist(&props[i], &props[j]) >= s.batch_min_dist * 0.99,
                    "batch points too close: {:?} vs {:?}",
                    props[i],
                    props[j]
                );
            }
        }
    }

    #[test]
    fn converges_on_a_synthetic_objective() {
        let hidden = [0.18, 0.16, 0.16, 0.62];
        let mut s = BayesSolver::new(4);
        let mut history: Vec<Observation> = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let batch = s.propose(Rgb8::PAPER_TARGET, &history, 4, &mut rng);
            for p in batch {
                let score: f64 =
                    p.iter().zip(&hidden).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
                        * 100.0;
                history.push(obs(p, score));
            }
        }
        let best = best_observation(&history).unwrap().score;
        assert!(best < 10.0, "BO failed to converge: best {best}");
    }

    #[test]
    fn duplicate_history_does_not_crash() {
        let mut s = BayesSolver::new(3);
        s.init_samples = 2;
        let history = vec![obs(vec![0.5, 0.5, 0.5], 10.0); 8];
        let props = s.propose(Rgb8::PAPER_TARGET, &history, 3, &mut StdRng::seed_from_u64(4));
        assert_eq!(props.len(), 3);
        // Duplicate points are *not* degenerate for this kernel (the noise
        // term keeps K positive definite), so no fallback is recorded…
        assert_eq!(s.fallbacks(), 0);
    }

    #[test]
    fn degenerate_fit_falls_back_and_is_counted() {
        // …but non-finite history poisons every lengthscale's Cholesky, and
        // each such propose must fall back to random candidates and count it.
        let mut s = BayesSolver::new(3);
        s.init_samples = 2;
        let mut history = vec![obs(vec![0.5, 0.5, 0.5], 10.0); 4];
        history.push(obs(vec![f64::NAN, 0.5, 0.5], 11.0));
        let mut rng = StdRng::seed_from_u64(5);
        let props = s.propose(Rgb8::PAPER_TARGET, &history, 3, &mut rng);
        assert_eq!(props.len(), 3);
        assert_eq!(s.fallbacks(), 1);
        assert_eq!(s.degenerate_fallbacks(), 1);
        let props = s.propose(Rgb8::PAPER_TARGET, &history, 2, &mut rng);
        assert_eq!(props.len(), 2);
        assert_eq!(s.fallbacks(), 2);
        // The from-scratch path counts identically.
        let mut s = BayesSolver::new(3);
        s.init_samples = 2;
        s.incremental = false;
        s.propose(Rgb8::PAPER_TARGET, &history, 3, &mut StdRng::seed_from_u64(5));
        assert_eq!(s.degenerate_fallbacks(), 1);
    }

    #[test]
    fn incremental_and_from_scratch_paths_agree_bitwise() {
        // Grow a history across many proposes (crossing the sliding-window
        // boundary) and check the hot path reproduces the reference path's
        // proposals exactly, call by call.
        let hidden = [0.3, 0.6, 0.2];
        let mut fast = BayesSolver::new(3);
        fast.max_fit_points = 24;
        let mut slow = fast.clone();
        slow.incremental = false;
        let mut history: Vec<Observation> = Vec::new();
        let mut rng_fast = StdRng::seed_from_u64(11);
        let mut rng_slow = StdRng::seed_from_u64(11);
        for round in 0..12 {
            let a = fast.propose(Rgb8::PAPER_TARGET, &history, 3, &mut rng_fast);
            let b = slow.propose(Rgb8::PAPER_TARGET, &history, 3, &mut rng_slow);
            assert_eq!(a, b, "round {round} diverged");
            assert_eq!(rng_fast, rng_slow, "round {round}: RNG streams diverged");
            for p in a {
                let score: f64 =
                    p.iter().zip(&hidden).map(|(x, h)| (x - h) * (x - h)).sum::<f64>().sqrt();
                history.push(obs(p, score * 100.0));
            }
        }
        assert!(history.len() > fast.max_fit_points, "window must have slid");
    }

    #[test]
    fn cache_survives_history_rewrites() {
        // Feeding a *different* history (same length) must not reuse stale
        // surrogates: the proposals must match a fresh solver's.
        let mk_history = |offset: f64| -> Vec<Observation> {
            (0..10)
                .map(|i| {
                    let x = (i as f64 / 9.0 + offset).fract();
                    obs(vec![x, 1.0 - x], (x - 0.4).abs() * 50.0)
                })
                .collect()
        };
        let mut warm = BayesSolver::new(2);
        warm.init_samples = 4;
        let _ =
            warm.propose(Rgb8::PAPER_TARGET, &mk_history(0.0), 2, &mut StdRng::seed_from_u64(3));
        let rewritten = mk_history(0.31);
        let warm_props =
            warm.propose(Rgb8::PAPER_TARGET, &rewritten, 2, &mut StdRng::seed_from_u64(4));
        let mut cold = BayesSolver::new(2);
        cold.init_samples = 4;
        let cold_props =
            cold.propose(Rgb8::PAPER_TARGET, &rewritten, 2, &mut StdRng::seed_from_u64(4));
        assert_eq!(warm_props, cold_props);
    }
}
