//! The [`ApiClient::negotiate`] handshake against hand-rolled loopback
//! peers (no engine involved).

use prj_api::{ApiClient, ErrorKind, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

/// A fake peer that answers every request line with `answer(line)`.
fn fake_peer(answer: fn(&str) -> String) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let mut writer = stream.try_clone().expect("clone");
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if writer
                .write_all(format!("{}\n", answer(&line)).as_bytes())
                .is_err()
            {
                break;
            }
        }
    });
    addr
}

#[test]
fn wire_level_hello_answers_the_common_version() {
    // A fake prj/2 peer: it acks the common version of the hello.
    let addr = fake_peer(|line| {
        let request = prj_api::wire::decode_request(line).expect("decode");
        let Request::Hello { max_version } = request else {
            panic!("expected hello, got {request:?}");
        };
        let version = max_version.min(prj_api::PROTOCOL_VERSION);
        prj_api::wire::encode_response(&Response::HelloAck { version })
    });
    let mut client = ApiClient::connect(addr).expect("connect");
    assert_eq!(client.negotiate().expect("negotiate"), 2);
}

#[test]
fn negotiation_against_a_version_rejecting_peer_is_a_typed_error() {
    // A peer of another dialect rejects the prj/2 hello; the client
    // reports that as a typed error, not as a silent downgrade.
    let addr = fake_peer(|_| "prj/2 err kind=version msg=this peer speaks prj/3".to_string());
    let mut client = ApiClient::connect(addr).expect("connect");
    let err = client.negotiate().expect_err("a version-rejecting peer");
    assert_eq!(err.kind, ErrorKind::Version);
}
