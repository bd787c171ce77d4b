//! Property and robustness tests for the `prj/2` wire codec.
//!
//! Three families of guarantees:
//!
//! * **Round trips** — randomly generated requests and responses survive
//!   encode ∘ decode bit-for-bit (floats use shortest-round-trip
//!   formatting, so `to_bits` equality holds).
//! * **Hostility** — malformed frames, random garbage, and truncation at
//!   every byte boundary produce a typed [`ApiError`] or a clean decode,
//!   never a panic. (Truncation can legitimately yield a *valid shorter*
//!   message — e.g. cutting trailing tuples — so the contract is
//!   "no panic, typed error on reject", not "always reject".)
//! * **Scale** — huge payloads (tens of thousands of tuples on one line)
//!   round-trip without recursion or quadratic blowup.

use prj_access::AccessKind;
use prj_api::wire::{decode_request, decode_response, encode_request, encode_response};
use prj_api::{
    ApiError, ErrorKind, QueryRequest, RelationRef, Request, Response, ResultRow, ScoringSelector,
    StatsReport, TupleData,
};
use prj_core::Algorithm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A wire-safe identifier derived from random bits.
fn ident(seed: u64, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
    let mut rng = StdRng::seed_from_u64(seed);
    // Never start with '#' (not in the alphabet) and never be empty.
    (0..len.max(1))
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())] as char)
        .collect()
}

fn random_request(seed: u64) -> Request {
    let mut rng = StdRng::seed_from_u64(seed);
    let coords = |rng: &mut StdRng| -> Vec<f64> {
        (0..rng.random_range(1..4usize))
            .map(|_| rng.random_range(-1e3..1e3))
            .collect()
    };
    let tuples = |rng: &mut StdRng| -> Vec<TupleData> {
        (0..rng.random_range(0..6usize))
            .map(|_| {
                let c = coords(rng);
                TupleData::new(c, rng.random_range(0.001..10.0))
            })
            .collect()
    };
    let relation_ref = |rng: &mut StdRng| -> RelationRef {
        if rng.random_range(0..2u32) == 0 {
            RelationRef::Id(rng.random_range(0..1000usize))
        } else {
            RelationRef::Name(ident(rng.random_range(0..u64::MAX), 6))
        }
    };
    let query = |rng: &mut StdRng| -> QueryRequest {
        let mut q = QueryRequest::new(
            (0..rng.random_range(1..4usize))
                .map(|_| relation_ref(rng))
                .collect(),
            coords(rng),
        );
        if rng.random_range(0..2u32) == 0 {
            q = q.k(rng.random_range(1..100usize));
        }
        if rng.random_range(0..2u32) == 0 {
            q = q.scoring(ScoringSelector::with_params(
                ident(rng.random_range(0..u64::MAX), 8),
                (0..rng.random_range(0..4usize))
                    .map(|_| rng.random_range(0.01..5.0))
                    .collect::<Vec<f64>>(),
            ));
        }
        if rng.random_range(0..2u32) == 0 {
            q = q.access(if rng.random_range(0..2u32) == 0 {
                AccessKind::Distance
            } else {
                AccessKind::Score
            });
        }
        if rng.random_range(0..2u32) == 0 {
            q = q.algorithm(
                [
                    Algorithm::Cbrr,
                    Algorithm::Cbpa,
                    Algorithm::Tbrr,
                    Algorithm::Tbpa,
                ][rng.random_range(0..4usize)],
            );
        }
        q
    };
    match rng.random_range(0..6u32) {
        0 => Request::RegisterRelation {
            name: ident(rng.random_range(0..u64::MAX), 9),
            tuples: tuples(&mut rng),
        },
        1 => Request::AppendTuples {
            relation: relation_ref(&mut rng),
            tuples: tuples(&mut rng),
        },
        2 => Request::DropRelation {
            relation: relation_ref(&mut rng),
        },
        3 => Request::TopK(query(&mut rng)),
        4 => Request::Stream(query(&mut rng)),
        _ => Request::Stats,
    }
}

fn random_response(seed: u64) -> Response {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = |rng: &mut StdRng| -> Vec<ResultRow> {
        (0..rng.random_range(0..6usize))
            .map(|_| ResultRow {
                score: rng.random_range(-1e6..1e6),
                tuples: (0..rng.random_range(1..4usize))
                    .map(|_| (rng.random_range(0..9usize), rng.random_range(0..9999usize)))
                    .collect(),
            })
            .collect()
    };
    match rng.random_range(0..8u32) {
        0 => Response::Registered {
            id: rng.random_range(0..100usize),
            name: ident(rng.random_range(0..u64::MAX), 7),
            epoch: 0,
            cardinality: rng.random_range(0..10000usize),
        },
        1 => Response::Appended {
            id: rng.random_range(0..100usize),
            epoch: rng.random_range(1..1000u64),
            cardinality: rng.random_range(0..10000usize),
        },
        2 => Response::Dropped {
            id: rng.random_range(0..100usize),
            epoch: rng.random_range(1..1000u64),
        },
        3 => Response::Results {
            rows: rows(&mut rng),
            from_cache: rng.random_range(0..2u32) == 0,
            algorithm: ["CBRR", "CBPA", "TBRR", "TBPA"][rng.random_range(0..4usize)].to_string(),
        },
        4 => Response::StreamItem(ResultRow {
            score: rng.random_range(-1e6..1e6),
            tuples: vec![(0, rng.random_range(0..100usize))],
        }),
        5 => Response::StreamEnd {
            count: rng.random_range(0..1000usize),
        },
        6 => {
            let shards = rng.random_range(1..8usize);
            let executed = rng.random_range(0..2u32);
            Response::Stats(StatsReport {
                queries: rng.random_range(0..1_000_000u64),
                cache_hits: rng.random_range(0..1000u64),
                executed: rng.random_range(0..1000u64),
                relations: rng.random_range(0..50usize),
                cache_entries: rng.random_range(0..100usize),
                cache_invalidations: rng.random_range(0..100u64),
                total_sum_depths: rng.random_range(0..1_000_000u64),
                shards,
                shard_depths: if executed == 0 {
                    Vec::new()
                } else {
                    (0..shards)
                        .map(|_| rng.random_range(0..10_000u64))
                        .collect()
                },
                shard_micros: if executed == 0 {
                    Vec::new()
                } else {
                    (0..shards)
                        .map(|_| rng.random_range(0..10_000u64))
                        .collect()
                },
                // Worker-side lanes are a cluster-only addition; exercised
                // both absent (single-node) and present.
                worker_shard_depths: if executed == 0 {
                    Vec::new()
                } else {
                    (0..shards)
                        .map(|_| rng.random_range(0..10_000u64))
                        .collect()
                },
                worker_shard_micros: if executed == 0 {
                    Vec::new()
                } else {
                    (0..shards)
                        .map(|_| rng.random_range(0..10_000u64))
                        .collect()
                },
            })
        }
        _ => Response::Error(ApiError::new(
            [
                ErrorKind::Malformed,
                ErrorKind::Version,
                ErrorKind::UnknownRelation,
                ErrorKind::RelationDropped,
                ErrorKind::UnknownScoring,
                ErrorKind::InvalidParams,
                ErrorKind::InvalidQuery,
                ErrorKind::Operator,
                ErrorKind::Internal,
            ][rng.random_range(0..9usize)],
            format!("err {} = {}", ident(seed, 5), rng.random_range(0..100u32)),
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode ∘ decode is the identity on random requests.
    #[test]
    fn random_requests_round_trip(seed in 0u64..u64::MAX) {
        let request = random_request(seed);
        let line = encode_request(&request).expect("wire-safe by construction");
        prop_assert!(line.starts_with("prj/2 "));
        prop_assert!(!line.contains('\n'), "one frame per line");
        let decoded = decode_request(&line).expect("own encoding must decode");
        prop_assert_eq!(decoded, request, "line: {}", line);
    }

    /// encode ∘ decode is the identity on random responses.
    #[test]
    fn random_responses_round_trip(seed in 0u64..u64::MAX) {
        let response = random_response(seed);
        let line = encode_response(&response);
        prop_assert!(!line.contains('\n'));
        let decoded = decode_response(&line).expect("own encoding must decode");
        prop_assert_eq!(decoded, response, "line: {}", line);
    }

    /// Truncating a valid frame at *any* byte boundary never panics: the
    /// decoder returns a typed error or (when the cut lands between
    /// self-contained fields) a valid shorter message.
    #[test]
    fn truncation_mid_frame_is_typed_never_a_panic(seed in 0u64..u64::MAX, cut in 0usize..200) {
        let line = encode_request(&random_request(seed)).unwrap();
        let cut = cut.min(line.len());
        // Respect UTF-8 boundaries (the codec is ASCII, so this is a no-op,
        // but keeps the test honest if the grammar ever grows).
        let mut cut = cut;
        while !line.is_char_boundary(cut) { cut -= 1; }
        let _ = decode_request(&line[..cut]); // must not panic
        let line = encode_response(&random_response(seed));
        let cut = cut.min(line.len());
        let _ = decode_response(&line[..cut]); // must not panic
    }

    /// Random ASCII garbage is rejected with a typed error (or, with
    /// vanishing probability, parses) — never a panic.
    #[test]
    fn garbage_never_panics(seed in 0u64..u64::MAX, len in 0usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let garbage: String = (0..len)
            .map(|_| rng.random_range(0x20u32..0x7f) as u8 as char)
            .collect();
        let _ = decode_request(&garbage);
        let _ = decode_response(&garbage);
        // Prefixing the version magic exercises the field parsers instead
        // of the version check.
        let versioned = format!("prj/2 {garbage}");
        if let Err(e) = decode_request(&versioned) {
            prop_assert_eq!(e.kind, ErrorKind::Malformed);
        }
        if let Err(e) = decode_response(&versioned) {
            prop_assert_eq!(e.kind, ErrorKind::Malformed);
        }
    }
}

/// A register frame carrying tens of thousands of tuples round-trips
/// unchanged — no recursion depth or quadratic parsing surprises.
#[test]
fn huge_payloads_round_trip() {
    let tuples: Vec<TupleData> = (0..30_000)
        .map(|i| {
            TupleData::new(
                vec![i as f64 * 0.25, -(i as f64) * 0.5],
                0.5 + (i % 100) as f64,
            )
        })
        .collect();
    let request = Request::RegisterRelation {
        name: "huge".to_string(),
        tuples,
    };
    let line = encode_request(&request).unwrap();
    assert!(line.len() > 300_000, "the frame really is huge");
    let decoded = decode_request(&line).unwrap();
    assert_eq!(decoded, request);

    let rows: Vec<ResultRow> = (0..10_000)
        .map(|i| ResultRow {
            score: -(i as f64),
            tuples: vec![(0, i), (1, i)],
        })
        .collect();
    let response = Response::Results {
        rows,
        from_cache: false,
        algorithm: "TBPA".to_string(),
    };
    let line = encode_response(&response);
    assert_eq!(decode_response(&line).unwrap(), response);
}

/// The canonical malformed-frame corpus returns typed errors (kind
/// `Malformed` or `Version`), never panics — including frames that are
/// *almost* valid.
#[test]
fn malformed_corpus_is_rejected_with_typed_errors() {
    for line in [
        "",
        "\n",
        "prj/",
        "prj/one stats",
        "prj/2",
        "prj/2 ",
        "prj/2 register",
        "prj/2 register name=",
        "prj/2 register name=#tag tuples=1:1",
        "prj/2 append rel=r tuples=1,2:",
        "prj/2 append rel=r tuples=:5",
        "prj/2 topk rels=r q=1,,2",
        "prj/2 topk rels=r q=0 k=-3",
        "prj/2 topk rels=r q=0 k=1e9999",
        "prj/2 stream rels= q=0",
        "prj/2 topk rels=#18446744073709551616 q=0", // usize overflow
        "prj/2 stats extra",
    ] {
        match decode_request(line) {
            Err(e) => assert!(
                matches!(e.kind, ErrorKind::Malformed | ErrorKind::Version),
                "line {line:?}: unexpected kind {:?}",
                e.kind
            ),
            Ok(request) => panic!("line {line:?} unexpectedly parsed: {request:?}"),
        }
    }
    for line in [
        "prj/2 ok",
        "prj/2 ok nonsense",
        "prj/2 ok registered id=x name=a epoch=0 n=1",
        "prj/2 ok results cached=true rows=1@0:0", // missing algo
        "prj/2 ok stats queries=1",                // missing fields
        "prj/2 err",
        "prj/2 err kind=doom msg=x",
    ] {
        match decode_response(line) {
            Err(e) => assert!(
                matches!(e.kind, ErrorKind::Malformed | ErrorKind::Version),
                "line {line:?}: unexpected kind {:?}",
                e.kind
            ),
            Ok(response) => panic!("line {line:?} unexpectedly parsed: {response:?}"),
        }
    }
}
