//! Aggregation functions and proximity weighting (paper Sec. 2, Eq. 1–2).
//!
//! The aggregate score of a combination `τ = τ_1 × … × τ_n` is
//!
//! ```text
//! S(τ) = f(S(τ_1), …, S(τ_n)),
//! S(τ_i) = g_i(σ(τ_i), δ(x(τ_i), q), δ(x(τ_i), μ(τ)))
//! ```
//!
//! with `f` monotone non-decreasing and `g_i` non-decreasing in the score and
//! non-increasing in both distances. [`ScoringFunction`] captures this
//! contract; [`EuclideanLogScore`] is the paper's reference instantiation
//! (Eq. 2) and the one for which the tight bound admits an efficient
//! reduction; [`CosineSimilarityScore`] is the future-work extension sketched
//! in the paper's conclusion (usable with the corner bound and the exhaustive
//! baseline).

use prj_geometry::{mean_centroid, CosineDistance, Euclidean, Metric, Vector};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The `(w_s, w_q, w_μ)` weights of the Euclidean-log aggregation (Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Weight of the (log-)score term.
    pub w_s: f64,
    /// Weight of the squared distance from the query.
    pub w_q: f64,
    /// Weight of the squared distance from the combination centroid.
    pub w_mu: f64,
}

impl Weights {
    /// Creates a weight triple.
    ///
    /// # Panics
    /// Panics if any weight is negative or `w_q` is zero (the tight-bound
    /// reduction requires a strictly positive pull towards the query to keep
    /// the Hessian positive definite).
    pub fn new(w_s: f64, w_q: f64, w_mu: f64) -> Weights {
        assert!(w_s >= 0.0 && w_q > 0.0 && w_mu >= 0.0, "invalid weights");
        Weights { w_s, w_q, w_mu }
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights {
            w_s: 1.0,
            w_q: 1.0,
            w_mu: 1.0,
        }
    }
}

/// A member of a (possibly hypothetical) combination: a location plus a score.
///
/// Bounds evaluate the aggregation function at locations that do not
/// correspond to any concrete tuple (the optimal positions of unseen tuples),
/// hence the scoring API works on `(vector, score)` pairs rather than
/// [`prj_access::Tuple`]s.
pub type Member<'a> = (&'a Vector, f64);

/// The aggregation function of a proximity rank join problem.
pub trait ScoringFunction: Send + Sync {
    /// The proximity weighting function `g` applied to one member:
    /// non-decreasing in `sigma`, non-increasing in `dist_to_query` and
    /// `dist_to_centroid`.
    fn proximity_weighted_score(
        &self,
        sigma: f64,
        dist_to_query: f64,
        dist_to_centroid: f64,
    ) -> f64;

    /// The monotone aggregation `f` over the per-member scores. The default
    /// is the sum, as in Eq. 2.
    fn aggregate(&self, parts: &[f64]) -> f64 {
        parts.iter().sum()
    }

    /// The distance `δ` used for proximity. Defaults to Euclidean.
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        Euclidean.distance(a, b)
    }

    /// The combination centroid `μ(τ)`. Defaults to the arithmetic mean,
    /// which is the minimiser of the sum of squared Euclidean distances and
    /// therefore the right choice for Eq. 2.
    fn centroid(&self, points: &[&Vector]) -> Vector {
        mean_centroid(points)
    }

    /// Scores a full (possibly hypothetical) combination given its members.
    fn score_members(&self, members: &[Member<'_>], query: &Vector) -> f64 {
        assert!(!members.is_empty(), "cannot score an empty combination");
        let points: Vec<&Vector> = members.iter().map(|(v, _)| *v).collect();
        let mu = self.centroid(&points);
        let parts: Vec<f64> = members
            .iter()
            .map(|(v, sigma)| {
                self.proximity_weighted_score(
                    *sigma,
                    self.distance(v, query),
                    self.distance(v, &mu),
                )
            })
            .collect();
        self.aggregate(&parts)
    }

    /// When the function has the Euclidean-log form of Eq. 2, returns its
    /// weights, enabling the tight-bound reduction of Sec. 3.2.1 (collinearity
    /// theorem + 1-D QP). Returns `None` otherwise, in which case only the
    /// corner bound and the exhaustive baseline are available.
    ///
    /// `Some` also promises, bit for bit, the form the operator's solo-bound
    /// pruning relies on: [`score_members`](Self::score_members) is
    /// `Σᵢ g(σᵢ, ‖xᵢ − q‖, ‖xᵢ − μ‖)`, summed in member order, with
    /// `g =` [`proximity_weighted_score`](Self::proximity_weighted_score)
    /// and `‖xᵢ − q‖` the same bits as [`distance`](Self::distance)`(xᵢ, q)`;
    /// and, for every finite `e ≥ 0`, `g(σ, d, e) ≤ g(σ, d, 0)`, where a NaN
    /// on the left is allowed only with `+∞` or NaN on the right. A scoring
    /// that cannot keep that promise returns `None` and is not pruned.
    fn euclidean_weights(&self) -> Option<Weights> {
        None
    }

    /// A short name for reports.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// A scoring function that can be served and memoised by a query engine.
///
/// `ScoringSpec` extends [`ScoringFunction`] with the one obligation a
/// result cache needs: a *fingerprint* of the scoring parameters. A cached
/// top-k result may only be replayed for a later query when every input that
/// determines the output matches, and the scoring function is one of those
/// inputs; folding the fingerprint into the trait makes new scoring
/// functions cache-safe by construction — they cannot be registered with an
/// engine without saying how they key the cache.
///
/// Implementations are used as trait objects (`Arc<dyn ScoringSpec>`), so
/// the engine can dispatch over scorings registered at runtime.
pub trait ScoringSpec: ScoringFunction + std::fmt::Debug {
    /// A 64-bit digest of everything that affects scores: the scoring
    /// family *and* its parameters.
    ///
    /// The digest must change whenever the function would score some
    /// combination differently; collisions across *different* scoring
    /// families are avoided by hashing a unique family name alongside the
    /// parameters (see [`fingerprint`] for the canonical helper).
    fn cache_fingerprint(&self) -> u64;
}

/// Canonical fingerprint helper: hashes a unique scoring-family `name`
/// together with the parameter list. Collisions across families are avoided
/// by the name; collisions within a family by the bit patterns of the
/// parameters.
pub fn fingerprint(name: &str, params: &[f64]) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    for p in params {
        p.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Forwarding impl so shared trait objects (`Arc<dyn ScoringSpec>`, or any
/// `Arc<S>`) can be used wherever a `ScoringFunction` is expected — in
/// particular as the `S` of a [`crate::Problem`]. Every method forwards,
/// including the defaulted ones, so implementations that override
/// `aggregate`, `distance` or `centroid` keep their behaviour behind the
/// `Arc`.
impl<T: ScoringFunction + ?Sized> ScoringFunction for Arc<T> {
    fn proximity_weighted_score(
        &self,
        sigma: f64,
        dist_to_query: f64,
        dist_to_centroid: f64,
    ) -> f64 {
        (**self).proximity_weighted_score(sigma, dist_to_query, dist_to_centroid)
    }

    fn aggregate(&self, parts: &[f64]) -> f64 {
        (**self).aggregate(parts)
    }

    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        (**self).distance(a, b)
    }

    fn centroid(&self, points: &[&Vector]) -> Vector {
        (**self).centroid(points)
    }

    fn score_members(&self, members: &[Member<'_>], query: &Vector) -> f64 {
        (**self).score_members(members, query)
    }

    fn euclidean_weights(&self) -> Option<Weights> {
        (**self).euclidean_weights()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The paper's reference aggregation function (Eq. 2):
///
/// ```text
/// S(τ) = Σ_i  w_s·ln σ(τ_i) − w_q·‖x(τ_i) − q‖² − w_μ·‖x(τ_i) − μ(τ)‖²
/// ```
///
/// Scores must be strictly positive (they are in `(0, 1]` in the paper, which
/// makes `S(τ) ∈ (−∞, 0]`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EuclideanLogScore {
    weights: Weights,
}

impl EuclideanLogScore {
    /// Creates the scoring function with weights `(w_s, w_q, w_μ)`.
    pub fn new(w_s: f64, w_q: f64, w_mu: f64) -> Self {
        EuclideanLogScore {
            weights: Weights::new(w_s, w_q, w_mu),
        }
    }

    /// Creates the scoring function from a [`Weights`] triple.
    pub fn from_weights(weights: Weights) -> Self {
        EuclideanLogScore { weights }
    }

    /// The weight triple.
    pub fn weights(&self) -> Weights {
        self.weights
    }
}

impl ScoringFunction for EuclideanLogScore {
    fn proximity_weighted_score(
        &self,
        sigma: f64,
        dist_to_query: f64,
        dist_to_centroid: f64,
    ) -> f64 {
        debug_assert!(sigma > 0.0, "Eq. 2 requires strictly positive scores");
        self.weights.w_s * sigma.ln()
            - self.weights.w_q * dist_to_query * dist_to_query
            - self.weights.w_mu * dist_to_centroid * dist_to_centroid
    }

    /// The trait default without its three allocations (the point list, the
    /// centroid and the parts): every centroid coordinate is re-accumulated
    /// where it is needed. The floating-point operations and their order are
    /// the default's — centroid sums from `0.0` in member order scaled by
    /// `1/len`, distances as `sqrt(Σ d²)` squared again, parts summed in
    /// member order — so the result has the same bits.
    fn score_members(&self, members: &[Member<'_>], query: &Vector) -> f64 {
        assert!(!members.is_empty(), "cannot score an empty combination");
        let inv_len = 1.0 / members.len() as f64;
        let centroid = |k: usize| members.iter().fold(0.0, |acc, (p, _)| acc + p[k]) * inv_len;
        members
            .iter()
            .map(|(v, sigma)| {
                let dist_to_query = v.distance(query);
                let dist_to_centroid = v
                    .iter()
                    .enumerate()
                    .map(|(k, a)| {
                        let d = a - centroid(k);
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt();
                self.proximity_weighted_score(*sigma, dist_to_query, dist_to_centroid)
            })
            .sum()
    }

    fn euclidean_weights(&self) -> Option<Weights> {
        Some(self.weights)
    }

    fn name(&self) -> &'static str {
        "euclidean-log"
    }
}

impl ScoringSpec for EuclideanLogScore {
    fn cache_fingerprint(&self) -> u64 {
        let w = self.weights;
        fingerprint(ScoringFunction::name(self), &[w.w_s, w.w_q, w.w_mu])
    }
}

/// A cosine-similarity-based aggregation: the proximity of a member to the
/// query and to the centroid is measured by cosine distance instead of
/// Euclidean distance,
///
/// ```text
/// S(τ) = Σ_i  w_s·σ(τ_i) − w_q·cosdist(x(τ_i), q) − w_μ·cosdist(x(τ_i), μ(τ))
/// ```
///
/// This is the extension announced in the paper's conclusion ("we also intend
/// to specialize the tight bounding scheme to the case of proximity based on
/// cosine similarity"). No tight-bound reduction is provided, so it can be
/// used with the corner-bound algorithms (CBRR/CBPA) and the exhaustive
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineSimilarityScore {
    /// Weight of the (linear) score term.
    pub w_s: f64,
    /// Weight of the cosine distance from the query.
    pub w_q: f64,
    /// Weight of the cosine distance from the centroid.
    pub w_mu: f64,
}

impl CosineSimilarityScore {
    /// Creates the scoring function.
    pub fn new(w_s: f64, w_q: f64, w_mu: f64) -> Self {
        CosineSimilarityScore { w_s, w_q, w_mu }
    }
}

impl Default for CosineSimilarityScore {
    fn default() -> Self {
        CosineSimilarityScore::new(1.0, 1.0, 1.0)
    }
}

impl ScoringFunction for CosineSimilarityScore {
    fn proximity_weighted_score(
        &self,
        sigma: f64,
        dist_to_query: f64,
        dist_to_centroid: f64,
    ) -> f64 {
        self.w_s * sigma - self.w_q * dist_to_query - self.w_mu * dist_to_centroid
    }

    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        CosineDistance.distance(a, b)
    }

    fn name(&self) -> &'static str {
        "cosine-similarity"
    }
}

impl ScoringSpec for CosineSimilarityScore {
    fn cache_fingerprint(&self) -> u64 {
        fingerprint(
            ScoringFunction::name(self),
            &[self.w_s, self.w_q, self.w_mu],
        )
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity, clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn v(x: &[f64]) -> Vector {
        Vector::from(x)
    }

    /// Table 1 of the paper: three relations, two tuples each, and the eight
    /// combinations with their aggregate scores under Eq. 2 with
    /// w_s = w_q = w_μ = 1 and q = 0.
    fn table1() -> (Vec<(Vector, f64)>, Vec<(Vector, f64)>, Vec<(Vector, f64)>) {
        let r1 = vec![(v(&[0.0, -0.5]), 0.5), (v(&[0.0, 1.0]), 1.0)];
        let r2 = vec![(v(&[1.0, 1.0]), 1.0), (v(&[-2.0, 2.0]), 0.8)];
        let r3 = vec![(v(&[-1.0, 1.0]), 1.0), (v(&[-2.0, -2.0]), 0.4)];
        (r1, r2, r3)
    }

    fn score_combo(s: &EuclideanLogScore, members: &[(&Vector, f64)]) -> f64 {
        s.score_members(members, &v(&[0.0, 0.0]))
    }

    #[test]
    fn table1_top_combination_scores() {
        let s = EuclideanLogScore::new(1.0, 1.0, 1.0);
        let (r1, r2, r3) = table1();
        // τ1^(2) × τ2^(1) × τ3^(1) -> -7.0
        let top = score_combo(
            &s,
            &[
                (&r1[1].0, r1[1].1),
                (&r2[0].0, r2[0].1),
                (&r3[0].0, r3[0].1),
            ],
        );
        assert!((top - (-7.0)).abs() < 0.05, "expected -7.0, got {top}");
        // τ1^(1) × τ2^(1) × τ3^(1) -> -8.4
        let second = score_combo(
            &s,
            &[
                (&r1[0].0, r1[0].1),
                (&r2[0].0, r2[0].1),
                (&r3[0].0, r3[0].1),
            ],
        );
        assert!(
            (second - (-8.4)).abs() < 0.05,
            "expected -8.4, got {second}"
        );
        // τ1^(2) × τ2^(2) × τ3^(2) -> -29.5 (worst)
        let worst = score_combo(
            &s,
            &[
                (&r1[1].0, r1[1].1),
                (&r2[1].0, r2[1].1),
                (&r3[1].0, r3[1].1),
            ],
        );
        assert!(
            (worst - (-29.5)).abs() < 0.05,
            "expected -29.5, got {worst}"
        );
    }

    #[test]
    fn table1_full_ranking_matches_paper() {
        let s = EuclideanLogScore::new(1.0, 1.0, 1.0);
        let (r1, r2, r3) = table1();
        // Paper's ranking of the 8 combinations by (i1, i2, i3) indices, best first.
        let expected_order = [
            (1, 0, 0),
            (0, 0, 0),
            (1, 1, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
        ];
        let mut scored: Vec<((usize, usize, usize), f64)> = Vec::new();
        for i1 in 0..2 {
            for i2 in 0..2 {
                for i3 in 0..2 {
                    let sc = score_combo(
                        &s,
                        &[
                            (&r1[i1].0, r1[i1].1),
                            (&r2[i2].0, r2[i2].1),
                            (&r3[i3].0, r3[i3].1),
                        ],
                    );
                    scored.push(((i1, i2, i3), sc));
                }
            }
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let order: Vec<(usize, usize, usize)> = scored.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, expected_order);
    }

    #[test]
    fn monotonicity_of_g() {
        let s = EuclideanLogScore::default();
        // non-decreasing in sigma
        assert!(
            s.proximity_weighted_score(0.9, 1.0, 1.0) > s.proximity_weighted_score(0.5, 1.0, 1.0)
        );
        // non-increasing in distance from query
        assert!(
            s.proximity_weighted_score(0.5, 2.0, 1.0) < s.proximity_weighted_score(0.5, 1.0, 1.0)
        );
        // non-increasing in distance from centroid
        assert!(
            s.proximity_weighted_score(0.5, 1.0, 2.0) < s.proximity_weighted_score(0.5, 1.0, 1.0)
        );
    }

    #[test]
    fn weights_are_exposed_for_reduction() {
        let s = EuclideanLogScore::new(2.0, 3.0, 0.5);
        let w = s.euclidean_weights().unwrap();
        assert_eq!(w.w_s, 2.0);
        assert_eq!(w.w_q, 3.0);
        assert_eq!(w.w_mu, 0.5);
        assert_eq!(s.name(), "euclidean-log");
        let c = CosineSimilarityScore::default();
        assert!(c.euclidean_weights().is_none());
        assert_eq!(c.name(), "cosine-similarity");
    }

    #[test]
    fn single_member_combination_has_zero_centroid_distance() {
        let s = EuclideanLogScore::new(1.0, 1.0, 1.0);
        let x = v(&[0.0, 2.0]);
        // centroid == the single member, so only the score and query terms remain.
        let score = s.score_members(&[(&x, 1.0)], &v(&[0.0, 0.0]));
        assert!((score - (0.0 - 4.0 - 0.0)).abs() < 1e-12);
    }

    #[test]
    fn cosine_score_prefers_aligned_vectors() {
        let s = CosineSimilarityScore::default();
        let q = v(&[1.0, 0.0]);
        let aligned = v(&[2.0, 0.1]);
        let orthogonal = v(&[0.0, 3.0]);
        let a = s.score_members(&[(&aligned, 0.5)], &q);
        let b = s.score_members(&[(&orthogonal, 0.5)], &q);
        assert!(a > b);
    }

    #[test]
    fn default_weights_are_all_one() {
        let w = Weights::default();
        assert_eq!((w.w_s, w.w_q, w.w_mu), (1.0, 1.0, 1.0));
    }

    #[test]
    #[should_panic]
    fn zero_query_weight_is_rejected() {
        let _ = Weights::new(1.0, 0.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn empty_combination_panics() {
        let s = EuclideanLogScore::default();
        let _ = s.score_members(&[], &v(&[0.0]));
    }

    #[test]
    fn fingerprints_separate_families_and_parameters() {
        let a = EuclideanLogScore::new(1.0, 1.0, 1.0);
        let b = EuclideanLogScore::new(2.0, 1.0, 1.0);
        let c = CosineSimilarityScore::new(1.0, 1.0, 1.0);
        assert_eq!(a.cache_fingerprint(), a.cache_fingerprint());
        assert_ne!(a.cache_fingerprint(), b.cache_fingerprint());
        assert_ne!(
            a.cache_fingerprint(),
            c.cache_fingerprint(),
            "same parameters, different families must not collide"
        );
        assert_eq!(fingerprint("x", &[1.0, 2.0]), fingerprint("x", &[1.0, 2.0]));
        assert_ne!(fingerprint("x", &[1.0, 2.0]), fingerprint("y", &[1.0, 2.0]));
    }

    #[test]
    fn arc_trait_objects_forward_every_method() {
        let concrete = CosineSimilarityScore::new(1.0, 2.0, 0.5);
        let shared: std::sync::Arc<dyn ScoringSpec> = std::sync::Arc::new(concrete);
        let q = v(&[1.0, 0.0]);
        let x = v(&[0.0, 1.0]);
        // `distance` is overridden to cosine distance; the Arc must forward
        // to the override, not the Euclidean default.
        assert!((shared.distance(&q, &x) - concrete.distance(&q, &x)).abs() < 1e-12);
        assert_eq!(shared.name(), "cosine-similarity");
        assert!(shared.euclidean_weights().is_none());
        assert_eq!(shared.cache_fingerprint(), concrete.cache_fingerprint());
        let members = [(&x, 0.5)];
        assert!(
            (shared.score_members(&members, &q) - concrete.score_members(&members, &q)).abs()
                < 1e-12
        );
    }
}
