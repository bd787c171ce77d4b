//! Integration test: boot the `prj-serve` front-end on a loopback port and
//! drive it with the `prj-api` TCP client — registration, a TopK
//! round-trip, streaming, mutation-driven invalidation and error paths, all
//! over a real socket.

use prj_api::{ApiClient, ErrorKind, QueryRequest, Request, Response, ScoringSelector, TupleData};
use prj_engine::{EngineBuilder, Server, Session};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn boot_table1() -> (Server, Arc<Session>) {
    let engine = Arc::new(EngineBuilder::default().threads(2).build());
    let session = Arc::new(Session::new(engine));
    type Table1Row<'a> = (&'a str, &'a [([f64; 2], f64)]);
    let table1: [Table1Row; 3] = [
        ("R1", &[([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]),
        ("R2", &[([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]),
        ("R3", &[([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]),
    ];
    for (name, rows) in table1 {
        session.handle(Request::RegisterRelation {
            name: name.to_string(),
            tuples: rows
                .iter()
                .map(|(x, s)| TupleData::new(x.to_vec(), *s))
                .collect(),
        });
    }
    let server = Server::bind("127.0.0.1:0", Arc::clone(&session)).expect("bind loopback");
    (server, session)
}

fn table1_query() -> QueryRequest {
    QueryRequest::new(vec!["R1".into(), "R2".into(), "R3".into()], [0.0, 0.0]).k(1)
}

#[test]
fn topk_round_trip_over_loopback() {
    let (server, _session) = boot_table1();
    let mut client = ApiClient::connect(server.local_addr()).expect("connect");

    let (rows, from_cache) = client.top_k(table1_query()).expect("cold topk");
    assert!(!from_cache);
    assert_eq!(rows.len(), 1);
    // Example 3.1 over the wire: score −7, members τ1²×τ2¹×τ3¹.
    assert!((rows[0].score - (-7.0)).abs() < 0.05);
    assert_eq!(rows[0].tuples, vec![(0, 1), (1, 0), (2, 0)]);

    let (warm, from_cache) = client.top_k(table1_query()).expect("warm topk");
    assert!(from_cache, "second identical round-trip hits the cache");
    assert_eq!(warm, rows);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.relations, 3);
    server.shutdown();
}

#[test]
fn streaming_and_mutations_over_loopback() {
    let (server, _session) = boot_table1();
    let mut client = ApiClient::connect(server.local_addr()).expect("connect");

    // Stream the full cross product: 8 rows in non-increasing score order.
    let rows = client.stream_collect(table1_query().k(8)).expect("stream");
    assert_eq!(rows.len(), 8);
    for pair in rows.windows(2) {
        assert!(pair[0].score >= pair[1].score - 1e-12);
    }

    // Mutate over the wire; the post-mutation query reflects the append.
    match client
        .call(&Request::AppendTuples {
            relation: "R1".into(),
            tuples: vec![TupleData::new([0.0, 0.0], 1.0)],
        })
        .expect("append")
    {
        Response::Appended {
            id: 0,
            epoch: 1,
            cardinality: 3,
        } => {}
        other => panic!("unexpected append response: {other:?}"),
    }
    let (rows, from_cache) = client.top_k(table1_query()).expect("post-append");
    assert!(!from_cache);
    assert_eq!(rows[0].tuples[0], (0, 2), "the appended tuple wins");

    // Error paths stay typed across the wire.
    let err = client
        .top_k(QueryRequest::new(vec!["bars".into()], [0.0, 0.0]))
        .expect_err("unknown relation");
    assert_eq!(err.kind, ErrorKind::UnknownRelation);
    let err = client
        .top_k(table1_query().scoring(ScoringSelector::named("mystery")))
        .expect_err("unknown scoring");
    assert_eq!(err.kind, ErrorKind::UnknownScoring);
    server.shutdown();
}

#[test]
fn raw_socket_speaks_the_versioned_line_protocol() {
    let (server, _session) = boot_table1();
    // No client library at all: hand-written wire lines over a raw socket,
    // as an `nc` user would type them.
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut exchange = |line: &str| -> String {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("newline");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        response.trim_end().to_string()
    };

    let response = exchange("prj/2 topk rels=R1,R2,R3 q=0.0,0.0 k=1");
    assert!(
        response.starts_with("prj/2 ok results cached=false"),
        "got: {response}"
    );
    assert!(response.contains("rows=-7.0"), "got: {response}");

    // A malformed line gets a diagnostic, not a dropped connection.
    let response = exchange("prj/2 topk q=0.0");
    assert!(
        response.starts_with("prj/2 err kind=malformed"),
        "got: {response}"
    );

    // Every other protocol version is refused loudly.
    for line in ["prj/9 stats", "prj/1 stats", "prj/3 stats"] {
        let response = exchange(line);
        assert!(
            response.starts_with("prj/2 err kind=version"),
            "{line} got: {response}"
        );
    }

    // The connection is still usable afterwards.
    let response = exchange("prj/2 stats");
    assert!(response.starts_with("prj/2 ok stats"), "got: {response}");
    server.shutdown();
}

/// Peers of any other protocol version get typed errors, never a dropped
/// connection, while `prj/2` round-trips every request kind; cluster verbs
/// sent to a plain server degrade to typed errors too.
#[test]
fn mixed_version_peers_round_trip_all_legacy_requests() {
    let (server, _session) = boot_table1();
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    fn send(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("newline");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        response.trim_end().to_string()
    }
    let response = send(
        &mut writer,
        &mut reader,
        "prj/2 register name=v2 tuples=1.0,2.0:0.5",
    );
    assert!(
        response.starts_with("prj/2 ok registered"),
        "got: {response}"
    );
    let response = send(
        &mut writer,
        &mut reader,
        "prj/2 topk rels=R1,R2,R3 q=0.0,0.0 k=1",
    );
    assert!(response.starts_with("prj/2 ok results"), "got: {response}");
    let response = send(
        &mut writer,
        &mut reader,
        "prj/2 append rel=v2 tuples=3.0,4.0:0.25",
    );
    assert!(response.starts_with("prj/2 ok appended"), "got: {response}");
    let response = send(&mut writer, &mut reader, "prj/2 drop rel=v2");
    assert!(response.starts_with("prj/2 ok dropped"), "got: {response}");
    let response = send(&mut writer, &mut reader, "prj/2 stats");
    assert!(response.starts_with("prj/2 ok stats"), "got: {response}");
    writer
        .write_all(b"prj/2 stream rels=R1 q=0.0,0.0 k=2\n")
        .expect("write stream");
    let mut line = String::new();
    reader.read_line(&mut line).expect("item");
    assert!(line.starts_with("prj/2 ok item"), "got: {line}");
    line.clear();
    reader.read_line(&mut line).expect("item 2");
    line.clear();
    reader.read_line(&mut line).expect("end");
    assert!(line.starts_with("prj/2 ok end"), "got: {line}");

    // Negotiation: the server answers hello with the common version.
    let response = send(&mut writer, &mut reader, "prj/2 hello max=2");
    assert_eq!(response, "prj/2 ok hello ver=2");
    let response = send(&mut writer, &mut reader, "prj/2 hello max=9");
    assert_eq!(
        response, "prj/2 ok hello ver=2",
        "ceiling is this build's version"
    );
    // A peer whose ceiling is below prj/2 gets a typed version error.
    let response = send(&mut writer, &mut reader, "prj/2 hello max=1");
    assert!(
        response.starts_with("prj/2 err kind=version"),
        "got: {response}"
    );

    // A cluster verb on a prj/1 line is a typed version error…
    let response = send(&mut writer, &mut reader, "prj/1 wstats");
    assert!(
        response.starts_with("prj/2 err kind=version"),
        "got: {response}"
    );
    // …and on prj/2 against a non-worker, a typed unsupported error.
    let response = send(&mut writer, &mut reader, "prj/2 wstats");
    assert!(
        response.starts_with("prj/2 err kind=unsupported"),
        "got: {response}"
    );
    let response = send(
        &mut writer,
        &mut reader,
        "prj/2 unit rels=#0 epochs=0 drive=0 shard=0 q=0.0,0.0 k=1 \
         scoring=euclidean-log access=distance algo=tbrr",
    );
    assert!(
        response.starts_with("prj/2 err kind=unsupported"),
        "got: {response}"
    );

    // The connection survives all of the above.
    let response = send(&mut writer, &mut reader, "prj/2 stats");
    assert!(response.starts_with("prj/2 ok stats"), "got: {response}");
    server.shutdown();
}

/// The negotiating client agrees on prj/2 and keeps working against this
/// server.
#[test]
fn api_client_negotiates_v2_against_the_server() {
    let (server, _session) = boot_table1();
    let mut client = ApiClient::connect(server.local_addr()).expect("connect");
    let version = client.negotiate().expect("negotiate");
    assert_eq!(version, prj_api::PROTOCOL_VERSION);
    let (rows, _) = client
        .top_k(table1_query())
        .expect("topk after negotiation");
    assert_eq!(rows.len(), 1);
    server.shutdown();
}

#[test]
fn concurrent_clients_are_served() {
    let (server, _session) = boot_table1();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = ApiClient::connect(addr).expect("connect");
                let q = [0.1 * i as f64, 0.0];
                let query =
                    QueryRequest::new(vec!["R1".into(), "R2".into(), "R3".into()], q.to_vec()).k(2);
                let (rows, _) = client.top_k(query.clone()).expect("cold");
                let (warm, from_cache) = client.top_k(query).expect("warm");
                assert!(from_cache);
                assert_eq!(rows, warm);
                rows[0].score
            })
        })
        .collect();
    for handle in handles {
        assert!(handle.join().expect("client thread").is_finite());
    }
    server.shutdown();
}
