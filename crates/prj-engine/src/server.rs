//! The TCP front-end: `prj-api` wire lines over a socket.
//!
//! [`Server::bind`] spawns an accept loop; each connection gets its own
//! thread that reads one request line at a time, pushes it through the
//! shared [`Session`], and writes the response line(s) back. A streaming
//! request writes `item` lines as the engine certifies results — the
//! engine-side channel gives the producer backpressure, so a slow client
//! slows its own run, not anyone else's. Malformed lines are answered with an
//! `err` response instead of dropping the connection, so a curious `nc`
//! user gets diagnostics rather than silence.
//!
//! This is deliberately a *minimal* front-end (std `TcpListener`, blocking
//! I/O, thread per connection): enough to serve the protocol end to end and
//! to be booted on a loopback port by the integration tests.
//!
//! Accepted sockets set `TCP_NODELAY`: a notification pushed right after a
//! response line would otherwise wait in Nagle's buffer for the client's
//! delayed ACK of that response (40 ms on Linux), and so would streamed
//! rows and a cluster worker's unit rows.

use crate::session::{Dispatch, Session};
use prj_api::{wire, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Anything able to route one protocol request to a [`Dispatch`]. The
/// plain [`Session`] is the standard handler; `prj-cluster` implements
/// this for its coordinator (which replicates mutations before acking) and
/// its worker (which additionally serves the cluster-internal verbs).
pub trait RequestHandler: Send + Sync {
    /// Routes one request; failures come back as
    /// [`Dispatch::One`]`(`[`Response::Error`]`)`, never as a panic.
    fn dispatch_request(&self, request: Request) -> Dispatch;
}

impl RequestHandler for Session {
    fn dispatch_request(&self, request: Request) -> Dispatch {
        self.dispatch(request)
    }
}

/// A running TCP front-end.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts accepting
    /// connections served by `handler` — a [`Session`] or any other
    /// [`RequestHandler`].
    pub fn bind<H: RequestHandler + 'static>(
        addr: impl ToSocketAddrs,
        handler: Arc<H>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_handle = std::thread::Builder::new()
            .name("prj-serve-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let handler = Arc::clone(&handler);
                    // One thread per connection; connections are expected to
                    // be long-lived (a client keeps one open and pipelines
                    // requests on it).
                    let _ = std::thread::Builder::new()
                        .name("prj-serve-conn".to_string())
                        .spawn(move || serve_connection(stream, handler.as_ref()));
                }
            })?;
        Ok(Server {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop. Already
    /// established connections keep being served until their clients hang
    /// up.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection. A wildcard
        // bind (0.0.0.0 / ::) is not a connectable destination everywhere,
        // so aim at the loopback equivalent, and never wait long.
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let unblocked =
            TcpStream::connect_timeout(&target, std::time::Duration::from_secs(1)).is_ok();
        if let Some(handle) = self.accept_handle.take() {
            if unblocked {
                let _ = handle.join();
            }
            // If the self-connect failed, leave the accept thread parked on
            // its listener rather than deadlocking the caller: the shutdown
            // flag makes it exit on the next incoming connection.
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn write_line(writer: &Mutex<TcpStream>, response: &Response) -> std::io::Result<()> {
    let mut line = wire::encode_response(response);
    line.push('\n');
    // One lock per full line keeps concurrent writers (the request loop
    // and subscription forwarders) from interleaving partial lines.
    writer
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .write_all(line.as_bytes())
}

fn serve_connection(stream: TcpStream, handler: &dyn RequestHandler) {
    // A socket option, so the cloned write half below shares it.
    stream.set_nodelay(true).ok();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Shared with subscription forwarder threads: notifications are pushed
    // on the same connection, interleaved between ordinary response lines.
    let writer = Arc::new(Mutex::new(write_half));
    let mut forwarders: Vec<JoinHandle<()>> = Vec::new();
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let outcome = match wire::decode_request(&line) {
            Err(e) => Dispatch::One(Response::Error(e)),
            Ok(request) => handler.dispatch_request(request),
        };
        let io = match outcome {
            Dispatch::One(response) => write_line(&writer, &response),
            Dispatch::Stream(mut stream) => loop {
                match stream.next_row() {
                    Some(row) => {
                        if let Err(e) = write_line(&writer, &Response::StreamItem(row)) {
                            // The client went away mid-stream; dropping the
                            // SessionStream aborts the engine-side run.
                            break Err(e);
                        }
                    }
                    // A failed run must close the stream with an error
                    // line, not an end marker a client would read as a
                    // complete top-K.
                    None => match stream.error() {
                        Some(error) => break write_line(&writer, &Response::Error(error)),
                        None => {
                            break write_line(
                                &writer,
                                &Response::StreamEnd {
                                    count: stream.delivered(),
                                },
                            )
                        }
                    },
                }
            },
            Dispatch::Subscribed { ack, feed } => {
                // Ack first — the client must learn the subscription id and
                // baseline top-K before any notification referencing them.
                let acked = write_line(&writer, &ack);
                if acked.is_ok() {
                    let feed_writer = Arc::clone(&writer);
                    let handle = std::thread::Builder::new()
                        .name("prj-serve-notify".to_string())
                        .spawn(move || {
                            // Drains until the subscription manager drops
                            // the sender (unsubscribe, relation drop, or
                            // terminal error — each ends with a `fin`
                            // notification). A write failure means the
                            // client is gone; stop forwarding and let the
                            // manager notice on its next send.
                            while let Ok(notify) = feed.recv() {
                                if write_line(&feed_writer, &notify).is_err() {
                                    break;
                                }
                            }
                        });
                    if let Ok(handle) = handle {
                        forwarders.push(handle);
                    }
                }
                acked
            }
        };
        if io.is_err() {
            break;
        }
    }
    // The read half is closed; shut the socket down so forwarders' writes
    // fail fast instead of queueing into a dead connection, then join them.
    if let Ok(guard) = writer.lock() {
        let _ = guard.shutdown(std::net::Shutdown::Both);
    }
    for handle in forwarders {
        let _ = handle.join();
    }
}
