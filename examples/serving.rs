//! Serving demo: the paper's Table 1 relations behind the `prj-engine`
//! subsystem, taking concurrent top-k traffic.
//!
//! The three tiny relations of Example 3.1 are registered once in the
//! engine's catalog (R-tree + score-sorted array + statistics built at
//! registration); 128 top-k queries are then submitted concurrently to the
//! executor (at most `threads` run at once), followed by an identical
//! second wave that is served from the LRU result cache. One query is
//! also consumed through the streaming API to show the incremental pulling
//! model.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use proximity_rank_join::engine::{EngineBuilder, QuerySpec};
use proximity_rank_join::prelude::*;

fn main() {
    // The paper's Table 1 (Example 3.1): three relations, two tuples each.
    let mk = |rel: usize, rows: &[([f64; 2], f64)]| -> Vec<Tuple> {
        rows.iter()
            .enumerate()
            .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
            .collect()
    };
    // At least four run permits so runs overlap even on small machines.
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .max(4);
    let engine: Engine = EngineBuilder::default()
        .threads(threads)
        .cache_capacity(256)
        .build();
    let r1 = engine.register("R1", mk(0, &[([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]));
    let r2 = engine.register("R2", mk(1, &[([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]));
    let r3 = engine.register("R3", mk(2, &[([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]));
    let ids = vec![r1, r2, r3];
    println!(
        "catalog: {} relations registered; executor: {} run permits",
        engine.catalog().len(),
        engine.threads()
    );

    // 128 distinct queries: an 8x16 grid of query points, k cycling 1..=4.
    let specs: Vec<QuerySpec> = (0..128)
        .map(|i| {
            let x = (i % 8) as f64 / 4.0 - 1.0;
            let y = (i / 8) as f64 / 8.0 - 1.0;
            QuerySpec::top_k(ids.clone(), Vector::from([x, y]), 1 + i % 4)
        })
        .collect();

    // Wave 1: all 128 in flight at once (cold).
    let started = std::time::Instant::now();
    let tickets: Vec<_> = specs.iter().cloned().map(|s| engine.submit(s)).collect();
    let results: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("query result"))
        .collect();
    let cold_wall = started.elapsed();
    assert!(results.iter().all(|r| !r.from_cache));
    println!(
        "wave 1 (cold): {} concurrent queries in {:.2?} ({:.0} q/s)",
        results.len(),
        cold_wall,
        results.len() as f64 / cold_wall.as_secs_f64()
    );

    // Wave 2: the same 128 queries again — pure cache traffic.
    let started = std::time::Instant::now();
    let tickets: Vec<_> = specs.iter().cloned().map(|s| engine.submit(s)).collect();
    let warm: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("query result"))
        .collect();
    let warm_wall = started.elapsed();
    assert!(warm.iter().all(|r| r.from_cache));
    println!(
        "wave 2 (warm): {} cache hits in {:.2?} ({:.0} q/s)",
        warm.len(),
        warm_wall,
        warm.len() as f64 / warm_wall.as_secs_f64()
    );

    // The canonical query of Example 3.1, streamed incrementally.
    let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 8);
    let mut stream = engine.stream(spec).expect("stream");
    println!(
        "\nstreaming q=(0,0) top-8 under plan: {}",
        stream.plan.rationale
    );
    let mut rank = 0;
    while let Some(combo) = stream.next_result() {
        rank += 1;
        let indices: Vec<usize> = combo.tuples.iter().map(|t| t.id.index + 1).collect();
        println!("  #{rank}: score {:+.3}  members τ{indices:?}", combo.score);
    }

    let stats = engine.stats();
    let cache = engine.cache_metrics();
    println!("\nengine statistics");
    println!("  queries served     : {}", stats.queries);
    println!(
        "  executed / cached  : {} / {}",
        stats.executed, stats.cache_hits
    );
    println!(
        "  cache hit rate     : {:.1}%",
        100.0 * stats.cache_hit_rate()
    );
    println!("  cache entries      : {}", cache.entries);
    println!("  mean latency       : {:.2?}", stats.mean_latency);
    println!(
        "  p50 / p95 latency  : {:.2?} / {:.2?}",
        stats.p50_latency, stats.p95_latency
    );
    println!("  max latency        : {:.2?}", stats.max_latency);
    println!("  total sumDepths    : {}", stats.total_sum_depths);
    println!("  bound evaluations  : {}", stats.total_bound_updates);

    // Sanity: Example 3.1's certified top-1 must appear among the results.
    let canonical = results
        .iter()
        .zip(&specs)
        .find(|(_, s)| s.query.as_slice() == [0.0, -0.75] || s.query.as_slice() == [0.0, 0.0]);
    if let Some((r, _)) = canonical {
        println!(
            "\nsample result: top score {:+.3} via {}",
            r.combinations()[0].score,
            r.plan().algorithm
        );
    }
}
