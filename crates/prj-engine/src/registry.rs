//! The scoring registry: runtime-extensible dispatch over scoring families.
//!
//! The engine used to hard-code its scoring dispatch to the two functions
//! shipped by `prj-core`; this registry replaces that closed set. A scoring
//! *family* is registered under a wire-safe name together with a factory
//! closure that turns a parameter list into a shared
//! [`prj_core::ScoringSpec`] trait object. Because [`ScoringSpec`] folds the
//! cache fingerprint into the trait, anything registrable here is
//! cache-safe by construction — the engine can memoise results for scorings
//! it has never heard of at compile time.
//!
//! The two paper scorings are pre-registered:
//!
//! | name | parameters |
//! |---|---|
//! | `euclidean-log` | `[]` (unit weights) or `[w_s, w_q, w_μ]` |
//! | `cosine-similarity` | `[]` (unit weights) or `[w_s, w_q, w_μ]` |

use crate::engine::EngineError;
use prj_core::{CosineSimilarityScore, EuclideanLogScore, ScoringSpec, Weights};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A factory turning a parameter list into a scoring instance, or a
/// human-readable rejection (surfaced as
/// [`EngineError::InvalidScoringParams`]).
pub type ScoringFactory = Arc<dyn Fn(&[f64]) -> Result<Arc<dyn ScoringSpec>, String> + Send + Sync>;

/// A concurrent name → factory registry of scoring families.
pub struct ScoringRegistry {
    factories: RwLock<HashMap<String, ScoringFactory>>,
    /// Bumped whenever an existing family is *replaced*. The engine folds
    /// this into every cache key, so results computed by a family's old
    /// implementation can never be replayed as the new one's (the
    /// fingerprint alone hashes only name + parameters, which a
    /// replacement typically keeps).
    generation: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for ScoringRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoringRegistry")
            .field("names", &self.names())
            .finish()
    }
}

fn weights_from(params: &[f64]) -> Result<Weights, String> {
    match params {
        [] => Ok(Weights::default()),
        [w_s, w_q, w_mu] => {
            // The comparisons are written so that NaN fails them too (a
            // NaN weight would otherwise slip through `< 0.0` checks and
            // poison every score with NaN).
            if !(*w_s >= 0.0 && *w_q > 0.0 && *w_mu >= 0.0)
                || w_s.is_infinite()
                || w_q.is_infinite()
                || w_mu.is_infinite()
            {
                return Err(format!(
                    "weights must be finite and satisfy w_s >= 0, w_q > 0, w_mu >= 0; \
                     got [{w_s}, {w_q}, {w_mu}]"
                ));
            }
            Ok(Weights {
                w_s: *w_s,
                w_q: *w_q,
                w_mu: *w_mu,
            })
        }
        other => Err(format!(
            "expected no parameters or [w_s, w_q, w_mu], got {} parameters",
            other.len()
        )),
    }
}

impl ScoringRegistry {
    /// An empty registry (no names resolvable).
    pub fn empty() -> Self {
        ScoringRegistry {
            factories: RwLock::new(HashMap::new()),
            generation: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// A registry with the two paper scorings pre-registered.
    pub fn with_builtins() -> Self {
        let registry = ScoringRegistry::empty();
        registry.register("euclidean-log", |params| {
            Ok(Arc::new(EuclideanLogScore::from_weights(weights_from(params)?)) as _)
        });
        registry.register("cosine-similarity", |params| {
            let w = weights_from(params)?;
            Ok(Arc::new(CosineSimilarityScore::new(w.w_s, w.w_q, w.w_mu)) as _)
        });
        registry
    }

    /// Registers (or replaces) a scoring family under `name`. Callable at
    /// any time, including while the engine is serving queries; replacing
    /// an existing family bumps the registry generation, invalidating
    /// cached results computed under the old implementation.
    pub fn register(
        &self,
        name: impl Into<String>,
        factory: impl Fn(&[f64]) -> Result<Arc<dyn ScoringSpec>, String> + Send + Sync + 'static,
    ) {
        let mut factories = self.factories.write().expect("registry lock");
        let replaced = factories.insert(name.into(), Arc::new(factory)).is_some();
        if replaced {
            // Under the write lock, so a concurrent key derivation cannot
            // pair the new factory with the old generation.
            self.generation
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// The replacement generation (see [`ScoringRegistry::register`]);
    /// folded into engine cache keys.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Resolves `name` with `params` into a scoring instance.
    ///
    /// Once any family has ever been replaced, resolved instances carry the
    /// registry generation folded into their cache fingerprint, so results
    /// memoised under a family's old implementation can never be replayed
    /// as the new one's. The factory and the generation are read under one
    /// lock, so a concurrent replacement cannot pair an old factory with a
    /// new generation (or vice versa).
    ///
    /// # Errors
    /// [`EngineError::UnknownScoring`] for unregistered names,
    /// [`EngineError::InvalidScoringParams`] when the factory rejects the
    /// parameters.
    pub fn resolve(&self, name: &str, params: &[f64]) -> Result<Arc<dyn ScoringSpec>, EngineError> {
        let (factory, generation) = {
            let factories = self.factories.read().expect("registry lock");
            let factory = factories
                .get(name)
                .cloned()
                .ok_or_else(|| EngineError::UnknownScoring(name.to_string()))?;
            (
                factory,
                self.generation.load(std::sync::atomic::Ordering::SeqCst),
            )
        };
        let scoring = factory(params).map_err(|reason| EngineError::InvalidScoringParams {
            name: name.to_string(),
            reason,
        })?;
        if generation == 0 {
            // Fast path: no family was ever replaced, the plain fingerprint
            // is already unambiguous.
            return Ok(scoring);
        }
        Ok(Arc::new(GenerationTagged {
            inner: scoring,
            generation,
        }))
    }

    /// The registered family names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .factories
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

impl Default for ScoringRegistry {
    fn default() -> Self {
        ScoringRegistry::with_builtins()
    }
}

/// A resolved scoring instance tagged with the registry generation it was
/// resolved under: behaves exactly like the inner scoring, but its cache
/// fingerprint additionally hashes the generation (see
/// [`ScoringRegistry::resolve`]).
#[derive(Debug)]
struct GenerationTagged {
    inner: Arc<dyn ScoringSpec>,
    generation: u64,
}

impl prj_core::ScoringFunction for GenerationTagged {
    fn proximity_weighted_score(&self, sigma: f64, dq: f64, dmu: f64) -> f64 {
        self.inner.proximity_weighted_score(sigma, dq, dmu)
    }

    fn aggregate(&self, parts: &[f64]) -> f64 {
        self.inner.aggregate(parts)
    }

    fn distance(&self, a: &prj_geometry::Vector, b: &prj_geometry::Vector) -> f64 {
        self.inner.distance(a, b)
    }

    fn centroid(&self, points: &[&prj_geometry::Vector]) -> prj_geometry::Vector {
        self.inner.centroid(points)
    }

    fn score_members(
        &self,
        members: &[prj_core::scoring::Member<'_>],
        query: &prj_geometry::Vector,
    ) -> f64 {
        self.inner.score_members(members, query)
    }

    fn euclidean_weights(&self) -> Option<Weights> {
        self.inner.euclidean_weights()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl ScoringSpec for GenerationTagged {
    fn cache_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.inner.cache_fingerprint().hash(&mut h);
        self.generation.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prj_core::ScoringFunction;

    #[test]
    fn builtins_resolve_with_and_without_parameters() {
        let registry = ScoringRegistry::with_builtins();
        assert_eq!(registry.names(), vec!["cosine-similarity", "euclidean-log"]);
        let default = registry.resolve("euclidean-log", &[]).unwrap();
        assert_eq!(default.name(), "euclidean-log");
        assert_eq!(default.euclidean_weights().unwrap().w_s, 1.0);
        let weighted = registry.resolve("euclidean-log", &[2.0, 3.0, 0.5]).unwrap();
        assert_eq!(weighted.euclidean_weights().unwrap().w_q, 3.0);
        assert_ne!(
            default.cache_fingerprint(),
            weighted.cache_fingerprint(),
            "parameters must key the cache"
        );
        let cosine = registry.resolve("cosine-similarity", &[]).unwrap();
        assert!(cosine.euclidean_weights().is_none());
    }

    #[test]
    fn unknown_names_and_bad_parameters_are_typed_errors() {
        let registry = ScoringRegistry::with_builtins();
        match registry.resolve("mystery", &[]) {
            Err(EngineError::UnknownScoring(name)) => assert_eq!(name, "mystery"),
            other => panic!("expected UnknownScoring, got {other:?}"),
        }
        match registry.resolve("euclidean-log", &[1.0]) {
            Err(EngineError::InvalidScoringParams { name, .. }) => {
                assert_eq!(name, "euclidean-log")
            }
            other => panic!("expected InvalidScoringParams, got {other:?}"),
        }
        // w_q = 0 violates the tight-bound reduction's requirement.
        assert!(registry.resolve("euclidean-log", &[1.0, 0.0, 1.0]).is_err());
        // Non-finite weights would poison every score with NaN.
        assert!(registry
            .resolve("euclidean-log", &[f64::NAN, 1.0, 1.0])
            .is_err());
        assert!(registry
            .resolve("cosine-similarity", &[1.0, f64::INFINITY, 1.0])
            .is_err());
        assert!(registry
            .resolve("euclidean-log", &[1.0, f64::NAN, 1.0])
            .is_err());
    }

    #[test]
    fn replacing_a_family_changes_resolved_fingerprints() {
        let registry = ScoringRegistry::with_builtins();
        let before = registry.resolve("euclidean-log", &[]).unwrap();
        assert_eq!(registry.generation(), 0);
        // New names do not bump the generation (they cannot collide with
        // anything already cached)...
        registry.register("fresh", |_| Ok(Arc::new(EuclideanLogScore::default()) as _));
        assert_eq!(registry.generation(), 0);
        // ...but replacing an existing family does, and instances resolved
        // afterwards must not share cache fingerprints with pre-replacement
        // ones even when the new implementation reports the same
        // name/parameter fingerprint.
        registry.register("euclidean-log", |_| {
            Ok(Arc::new(EuclideanLogScore::default()) as _)
        });
        assert_eq!(registry.generation(), 1);
        let after = registry.resolve("euclidean-log", &[]).unwrap();
        assert_ne!(before.cache_fingerprint(), after.cache_fingerprint());
        // The tagged instance still behaves like the inner scoring.
        assert_eq!(after.name(), "euclidean-log");
        assert!(after.euclidean_weights().is_some());
        // Two post-replacement resolutions agree (caching still works).
        let again = registry.resolve("euclidean-log", &[]).unwrap();
        assert_eq!(after.cache_fingerprint(), again.cache_fingerprint());
    }

    #[test]
    fn runtime_registration_extends_the_open_set() {
        let registry = ScoringRegistry::with_builtins();
        registry.register("doubled-euclidean-log", |params| {
            let w = weights_from(params)?;
            Ok(Arc::new(EuclideanLogScore::new(
                2.0 * w.w_s,
                2.0 * w.w_q,
                2.0 * w.w_mu,
            )) as _)
        });
        let s = registry.resolve("doubled-euclidean-log", &[]).unwrap();
        assert_eq!(s.euclidean_weights().unwrap().w_s, 2.0);
        assert_eq!(registry.names().len(), 3);
    }

    /// `EuclideanLogScore` behind a wrapper that forgot to forward
    /// `euclidean_weights`, the solo bound's opt-in.
    #[derive(Debug)]
    struct Forgetful(EuclideanLogScore);

    impl ScoringFunction for Forgetful {
        fn proximity_weighted_score(&self, sigma: f64, dq: f64, dmu: f64) -> f64 {
            self.0.proximity_weighted_score(sigma, dq, dmu)
        }

        fn score_members(
            &self,
            members: &[prj_core::scoring::Member<'_>],
            query: &prj_geometry::Vector,
        ) -> f64 {
            self.0.score_members(members, query)
        }
    }

    /// Runs CBPA at k = 8 over two fixed 200-tuple relations and returns the
    /// rows (ids and score bits) and the number of combinations scored.
    fn scored<S: ScoringFunction>(scoring: S) -> (Vec<(Vec<prj_core::TupleId>, u64)>, usize) {
        let relation = |rel: usize| -> Vec<prj_core::Tuple> {
            (0..200)
                .map(|i| {
                    let x = ((i * 37 + rel * 13) % 101) as f64 / 20.0 - 2.5;
                    let y = ((i * 53 + rel * 29) % 97) as f64 / 20.0 - 2.5;
                    let score = ((i * 17 + rel * 7) % 23) as f64 / 23.0 + 0.05;
                    prj_core::Tuple::new(
                        prj_core::TupleId::new(rel, i),
                        prj_geometry::Vector::from([x, y]),
                        score,
                    )
                })
                .collect()
        };
        let mut problem =
            prj_core::ProblemBuilder::new(prj_geometry::Vector::from([0.3, -0.2]), scoring)
                .k(8)
                .relation_from_tuples(relation(0))
                .relation_from_tuples(relation(1))
                .build()
                .unwrap();
        let result = prj_core::Algorithm::Cbpa.run(&mut problem).unwrap();
        let rows = result
            .combinations
            .iter()
            .map(|c| (c.ids(), c.score.to_bits()))
            .collect();
        (rows, result.metrics.combinations_formed)
    }

    /// The served path reaches the operator through `Arc` and the
    /// registry's `GenerationTagged` wrapper. Both must forward the solo
    /// bound's opt-in (`euclidean_weights`), or the served operator silently
    /// scores every combination again.
    #[test]
    fn served_scorings_prune_like_the_bare_scoring() {
        let (rows, bare) = scored(EuclideanLogScore::default());
        let registry = ScoringRegistry::with_builtins();
        let resolved = registry.resolve("euclidean-log", &[]).unwrap();
        assert_eq!(scored(resolved), (rows.clone(), bare), "registry-resolved");
        let shared: Arc<dyn ScoringSpec> = Arc::new(EuclideanLogScore::default());
        assert_eq!(
            scored(shared),
            (rows.clone(), bare),
            "bare Arc<dyn ScoringSpec>"
        );
        // A wrapper that drops the opt-in returns the same rows but scores
        // more, so a lost forward fails the comparisons above.
        let (forgetful_rows, forgetful) = scored(Forgetful(EuclideanLogScore::default()));
        assert_eq!(forgetful_rows, rows);
        assert!(
            forgetful > bare,
            "{forgetful} vs {bare} combinations scored"
        );
    }
}
