//! Seeded inputs: the two relations, the workloads, and each workload's op
//! sequence. The engine only ever sees what these functions generate.

use prj_api::TupleData;

/// Tuples per relation.
pub const TUPLES: usize = 100_000;
/// Results requested by every query.
pub const K: usize = 8;
/// Half the side of the square positions are drawn from. The square grows
/// with `TUPLES` so the density stays at 400 tuples per `[-3, 3]²`, which
/// keeps per-query work at small-relation levels while set-up takes long
/// enough (hundreds of ms) to time steadily.
pub fn half_side() -> f64 {
    3.0 * (TUPLES as f64 / 400.0).sqrt()
}

/// What a workload's ops do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-only `TopK` at a fresh point per op: no cache can hit.
    TopK,
    /// `TopK` over a small hot set interleaved with small appends.
    Ingest,
    /// Targeted appends under a population of standing queries.
    Notify,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub shards: usize,
    /// Delta-lane threshold (0 = the shipped default: lane off).
    pub delta_threshold: usize,
    /// Ops run before the timed phase starts: enough to fill the engine's
    /// 4096-span trace ring, since its background drain copies the whole
    /// ring once per query and so costs more per query until the ring is
    /// full.
    pub warmup: usize,
    /// Ops replayed per entry point by the traced run.
    pub traced: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "topk-s1",
        kind: Kind::TopK,
        shards: 1,
        delta_threshold: 0,
        warmup: 1500,
        traced: 600,
    },
    Workload {
        name: "topk-s4",
        kind: Kind::TopK,
        shards: 4,
        delta_threshold: 0,
        warmup: 700,
        traced: 150,
    },
    // Unsharded: at S=4 (and S=2) the unit fan-out threads and the
    // compactor share two vCPUs, and ten seeded runs spread over 0.3-0.5 of
    // their median; at S=1 under 0.12. The delta lane is on, but the
    // benchmark folds the deltas itself at seeded points (see
    // `WRITES_PER_FOLD`).
    Workload {
        name: "ingest-mixed",
        kind: Kind::Ingest,
        shards: 1,
        delta_threshold: 256,
        // Three whole write-fold cycles, so timing starts on a fold.
        warmup: 3 * (READS_PER_WRITE + 1) * WRITES_PER_FOLD,
        // One whole cycle, so the traced ops include a fold.
        traced: (READS_PER_WRITE + 1) * WRITES_PER_FOLD,
    },
    Workload {
        name: "notify-fanout",
        kind: Kind::Notify,
        shards: 1,
        delta_threshold: 0,
        warmup: 48,
        traced: 48,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Standing queries registered by `notify-fanout`. Every append re-runs
/// each of them (~1 ms apiece at S=1) after its own copy-on-write publish
/// (~50 ms at 100k tuples), so an op costs about 0.1 s.
pub const SUBSCRIPTIONS: usize = 32;
/// `ingest-mixed`: one write of `APPEND_BATCH` tuples per `READS_PER_WRITE`
/// reads over `HOT_POINTS` points. Every write invalidates every cached
/// answer, so about a fifth of the reads hit the result cache, well away
/// from half. A write's tuples share one unit grid cell, so it touches
/// one shard.
const HOT_POINTS: usize = 64;
const READS_PER_WRITE: usize = 32;
const APPEND_BATCH: usize = 8;
/// `ingest-mixed` folds every delta into its base (one synchronous
/// compactor pass, `Compactor::step`) after every `WRITES_PER_FOLD`th
/// write, and the background compactor stays paused. Left to itself the
/// compactor passes on a wall-clock tick and folds about once per four
/// writes here, each fold ~0.1 s of CPU at 100k tuples beside the client,
/// the server and the trace drain on two vCPUs; where those folds landed
/// changed from run to run, and so did every timing (ten seeds spread
/// over 0.23-0.33 of their median). Folding on the op sequence does the
/// same work per write (two relations, so two folds per pass) at the same
/// delta backlog (at most 64 tuples), at the same point of every run.
pub const WRITES_PER_FOLD: usize = 8;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn point(&mut self, half: f64) -> [f64; 2] {
        [self.range(-half, half), self.range(-half, half)]
    }
}

const DATA_SEED: u64 = 0x5EED;
const DATA: u64 = 1;
const OPS: u64 = 2;
const SUBS: u64 = 3;
/// Stream of the output check's reservoir sampling.
pub const RESERVOIR: u64 = 4;
const HOT: u64 = 5;

/// The two relations `R1`, `R2`: uniform positions, scores in `(0, 1]`.
/// They come from a fixed seed, not the run's: the planner picks per-shard
/// algorithms and driving relations from the data's statistics, and at S=4
/// two data seeds can differ by 20% in per-query cost through those picks
/// alone. The run's seed varies the op sequence.
pub fn relations() -> [Vec<TupleData>; 2] {
    let mut rng = Rng::new(DATA_SEED, DATA);
    let half = half_side();
    let mut relation = || -> Vec<TupleData> {
        (0..TUPLES)
            .map(|_| TupleData::new(rng.point(half).to_vec(), rng.range(0.0, 1.0) + 1e-3))
            .collect()
    };
    [relation(), relation()]
}

/// Query points of the standing queries, kept away from the border. Like
/// the relations and the hot set they are fixed, so every seed re-runs the
/// same standing queries.
pub fn subscription_points() -> Vec<[f64; 2]> {
    let mut rng = Rng::new(DATA_SEED, SUBS);
    (0..SUBSCRIPTIONS)
        .map(|_| rng.point(half_side() - 3.0))
        .collect()
}

/// One request of a workload's sequence.
#[derive(Debug, Clone)]
pub enum Op {
    TopK([f64; 2]),
    /// Append a batch; with `fold`, then fold every delta into its base.
    Append {
        relation: usize,
        tuples: Vec<TupleData>,
        fold: bool,
    },
    /// Append one tuple to `R1` exactly at standing query `sub`'s point,
    /// scoring above every earlier one, so it must enter that top-K.
    Targeted {
        sub: usize,
        score: f64,
    },
}

/// Whether a block of the timed phase may end after `op`: for
/// `ingest-mixed` only after a fold, so each block does the same share of
/// folding; for the other workloads after any op.
pub fn ends_cycle(workload: &Workload, op: &Op) -> bool {
    workload.kind != Kind::Ingest || matches!(op, Op::Append { fold: true, .. })
}

/// The seeded op sequence of a workload: the same seed yields the same
/// ops, op for op. The first `warmup` ops are run untimed.
pub struct Ops {
    kind: Kind,
    rng: Rng,
    hot: Vec<[f64; 2]>,
    order: Vec<usize>,
    index: usize,
}

impl Ops {
    pub fn new(workload: &Workload, seed: u64) -> Ops {
        let mut fixed = Rng::new(DATA_SEED, HOT);
        let hot = (0..HOT_POINTS).map(|_| fixed.point(2.0)).collect();
        let mut rng = Rng::new(seed, OPS);
        let mut order: Vec<usize> = (0..SUBSCRIPTIONS).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Ops {
            kind: workload.kind,
            rng,
            hot,
            order,
            index: 0,
        }
    }
}

impl Iterator for Ops {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let i = self.index;
        self.index += 1;
        Some(match self.kind {
            Kind::TopK => Op::TopK(self.rng.point(half_side() - 3.0)),
            Kind::Ingest if i % (READS_PER_WRITE + 1) == READS_PER_WRITE => {
                let cell = self.rng.point(half_side()).map(f64::floor);
                let write = i / (READS_PER_WRITE + 1);
                Op::Append {
                    relation: write % 2,
                    fold: write % WRITES_PER_FOLD == WRITES_PER_FOLD - 1,
                    tuples: (0..APPEND_BATCH)
                        .map(|_| {
                            let at = [
                                cell[0] + self.rng.range(0.0, 1.0),
                                cell[1] + self.rng.range(0.0, 1.0),
                            ];
                            TupleData::new(at.to_vec(), self.rng.range(0.0, 1.0) + 1e-3)
                        })
                        .collect(),
                }
            }
            Kind::Ingest => Op::TopK(self.hot[self.rng.below(HOT_POINTS)]),
            Kind::Notify => Op::Targeted {
                sub: self.order[i % SUBSCRIPTIONS],
                score: 2.0 + i as f64 * 1e-3,
            },
        })
    }
}
