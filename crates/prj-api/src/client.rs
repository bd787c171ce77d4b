//! A minimal blocking TCP client for the `prj-serve` front-end.
//!
//! One connection, one request in flight at a time: write a wire line, read
//! the answer line(s). Streaming queries read `item` lines until the `end`
//! marker. The client is deliberately dependency-free (std `TcpStream` +
//! `BufRead`), mirroring how thin a consumer of the [`crate::wire`] format
//! can be.
//!
//! ## Robustness
//!
//! [`ClientConfig`] adds the guard rails a cluster caller needs: a connect
//! timeout with bounded retries and exponential backoff (a worker that is
//! restarting should not fail the first dial), and read/write timeouts so a
//! hung peer surfaces as a typed [`ErrorKind::Io`] error instead of wedging
//! the caller forever.
//!
//! ## Version negotiation
//!
//! Every request travels as a `prj/2` line. [`ApiClient::negotiate`]
//! confirms up front, with one [`Request::Hello`] exchange, that the peer
//! speaks `prj/2`; any other answer is a typed error.

use crate::error::{ApiError, ErrorKind};
use crate::events::Notification;
use crate::request::{QueryRequest, Request, UnitRequest};
use crate::response::{MetricsReport, Response, ResultRow, StatsReport, UnitOutcome};
use crate::wire;
use crate::PROTOCOL_VERSION;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection-robustness knobs for [`ApiClient::connect_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-attempt connect timeout (`None` = the OS default).
    pub connect_timeout: Option<Duration>,
    /// Additional connect attempts after the first failure.
    pub connect_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Read timeout on the established stream (`None` = block forever).
    /// Beware that long-running streaming queries are paced by the engine,
    /// so a timeout shorter than a query's compute time will fire on
    /// perfectly healthy peers.
    pub read_timeout: Option<Duration>,
    /// Write timeout on the established stream (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    /// Bounded dialing (3 retries, 50 ms initial backoff, 5 s per-attempt
    /// timeout), unbounded reads/writes — the interactive default.
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            connect_retries: 3,
            retry_backoff: Duration::from_millis(50),
            read_timeout: None,
            write_timeout: None,
        }
    }
}

impl ClientConfig {
    /// A config with the given read *and* write timeouts — what a cluster
    /// coordinator uses so one hung worker cannot wedge a query forever.
    pub fn with_timeouts(timeout: Duration) -> Self {
        ClientConfig {
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
            ..ClientConfig::default()
        }
    }
}

/// A blocking client over one TCP connection.
///
/// A subscribed connection multiplexes pushed [`Response::Notify`] lines
/// between request answers; the client demultiplexes transparently —
/// notifications read while waiting for a call's answer are buffered and
/// later drained through [`ApiClient::next_notification`] /
/// [`ApiClient::wait_notification`] in arrival order.
#[derive(Debug)]
pub struct ApiClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Pushed notifications read while waiting for a different answer,
    /// in arrival order.
    pending: VecDeque<Notification>,
    /// A partially read line preserved across a read timeout, so an
    /// interrupted [`ApiClient::wait_notification`] never desynchronizes
    /// the line stream.
    partial: String,
}

impl ApiClient {
    /// Connects to a `prj-serve` listener with the default config.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<ApiClient> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit timeouts and retry behaviour. Each address
    /// the name resolves to is tried once per attempt; attempts beyond the
    /// first sleep `retry_backoff · 2^(attempt-1)` first.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        config: &ClientConfig,
    ) -> std::io::Result<ApiClient> {
        let addrs: Vec<std::net::SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let mut backoff = config.retry_backoff;
        let mut last_err = None;
        for attempt in 0..=config.connect_retries {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            for target in &addrs {
                let dialed = match config.connect_timeout {
                    Some(timeout) => TcpStream::connect_timeout(target, timeout),
                    None => TcpStream::connect(target),
                };
                match dialed {
                    Ok(stream) => {
                        stream.set_nodelay(true).ok();
                        stream.set_read_timeout(config.read_timeout)?;
                        stream.set_write_timeout(config.write_timeout)?;
                        let reader = BufReader::new(stream.try_clone()?);
                        return Ok(ApiClient {
                            reader,
                            writer: stream,
                            pending: VecDeque::new(),
                            partial: String::new(),
                        });
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("connect failed")))
    }

    /// Confirms with one [`Request::Hello`] round-trip that the peer
    /// speaks `prj/2`, and returns [`PROTOCOL_VERSION`].
    ///
    /// # Errors
    /// The peer's typed error if it rejects the hello (a peer of another
    /// dialect answers [`ErrorKind::Version`]), and [`ErrorKind::Version`]
    /// if it acks any version other than `prj/2`.
    pub fn negotiate(&mut self) -> Result<u32, ApiError> {
        let hello = Request::Hello {
            max_version: PROTOCOL_VERSION,
        };
        match self.call(&hello)? {
            Response::HelloAck {
                version: PROTOCOL_VERSION,
            } => Ok(PROTOCOL_VERSION),
            other => Err(ApiError::new(
                ErrorKind::Version,
                format!("expected a prj/{PROTOCOL_VERSION} hello ack, got {other:?}"),
            )),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), ApiError> {
        let mut line = wire::encode_request(request)?;
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(ApiError::io)
    }

    /// Reads one complete wire line. On a read timeout the consumed prefix
    /// is stashed in `self.partial` (resumed by the next read) and `None`
    /// is returned; every other failure is an error.
    fn try_read_line(&mut self) -> Result<Option<String>, ApiError> {
        let mut line = std::mem::take(&mut self.partial);
        match self.reader.read_line(&mut line) {
            Ok(_) if line.ends_with('\n') => Ok(Some(line)),
            Ok(_) => Err(ApiError::new(
                ErrorKind::Io,
                "connection closed by the server",
            )),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                self.partial = line;
                Ok(None)
            }
            Err(e) => Err(ApiError::io(e)),
        }
    }

    fn read_response(&mut self) -> Result<Response, ApiError> {
        loop {
            let Some(line) = self.try_read_line()? else {
                return Err(ApiError::new(
                    ErrorKind::Io,
                    "read timed out waiting for a response",
                ));
            };
            match wire::decode_response(&line)? {
                // Pushed notifications interleave with answers on a
                // subscribed connection; buffer them for the drain calls.
                Response::Notify(n) => self.pending.push_back(n),
                other => return Ok(other),
            }
        }
    }

    /// Sends one request and reads one response. Server-side failures are
    /// folded into the `Err` side.
    ///
    /// Do not use this for [`Request::Stream`] — the server answers a
    /// stream with *many* lines; use [`ApiClient::stream`] instead.
    pub fn call(&mut self, request: &Request) -> Result<Response, ApiError> {
        self.send(request)?;
        self.read_response()?.into_result()
    }

    /// Runs a top-k query to completion, returning the rows and whether the
    /// engine served them from its cache.
    pub fn top_k(&mut self, query: QueryRequest) -> Result<(Vec<ResultRow>, bool), ApiError> {
        match self.call(&Request::TopK(query))? {
            Response::Results {
                rows, from_cache, ..
            } => Ok((rows, from_cache)),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs a streaming query, invoking `on_row` as each incrementally
    /// certified result arrives, and returns the total row count.
    pub fn stream(
        &mut self,
        query: QueryRequest,
        mut on_row: impl FnMut(ResultRow),
    ) -> Result<usize, ApiError> {
        self.send(&Request::Stream(query))?;
        loop {
            match self.read_response()?.into_result()? {
                Response::StreamItem(row) => on_row(row),
                Response::StreamEnd { count } => return Ok(count),
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Collects a streaming query into a vector.
    pub fn stream_collect(&mut self, query: QueryRequest) -> Result<Vec<ResultRow>, ApiError> {
        let mut rows = Vec::new();
        self.stream(query, |row| rows.push(row))?;
        Ok(rows)
    }

    /// Fetches the engine statistics snapshot.
    pub fn stats(&mut self) -> Result<StatsReport, ApiError> {
        match self.call(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the server's metrics snapshot.
    pub fn metrics(&mut self) -> Result<MetricsReport, ApiError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(report) => Ok(report),
            other => Err(unexpected(&other)),
        }
    }

    /// Cluster-internal: executes one driving-shard unit on a worker.
    pub fn execute_unit(&mut self, unit: UnitRequest) -> Result<UnitOutcome, ApiError> {
        match self.call(&Request::ExecuteUnit(unit))? {
            Response::Unit(outcome) => Ok(outcome),
            other => Err(unexpected(&other)),
        }
    }

    /// Registers a standing query. Returns the
    /// subscription id, the initial certified top-K, and the pinned
    /// algorithm id. Change notifications then arrive on this connection —
    /// drain them with [`ApiClient::next_notification`] or
    /// [`ApiClient::wait_notification`].
    pub fn subscribe(
        &mut self,
        query: QueryRequest,
    ) -> Result<(u64, Vec<ResultRow>, String), ApiError> {
        match self.call(&Request::Subscribe(query))? {
            Response::Subscribed {
                id,
                algorithm,
                rows,
            } => Ok((id, rows, algorithm)),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancels a standing query. Notifications for the id that
    /// were already in flight may still surface from the pending buffer.
    pub fn unsubscribe(&mut self, id: u64) -> Result<(), ApiError> {
        match self.call(&Request::Unsubscribe { id })? {
            Response::Unsubscribed { id: acked } if acked == id => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// The next pushed notification, in arrival order: a buffered one if
    /// any, else blocks reading the connection (subject to the configured
    /// read timeout).
    pub fn next_notification(&mut self) -> Result<Notification, ApiError> {
        if let Some(n) = self.pending.pop_front() {
            return Ok(n);
        }
        let Some(line) = self.try_read_line()? else {
            return Err(ApiError::new(
                ErrorKind::Io,
                "read timed out waiting for a notification",
            ));
        };
        match wire::decode_response(&line)?.into_result()? {
            Response::Notify(n) => Ok(n),
            other => Err(unexpected(&other)),
        }
    }

    /// Waits up to `timeout` for the next pushed notification; `Ok(None)`
    /// on timeout. The connection's configured read timeout is restored
    /// afterwards, and a line interrupted mid-read stays buffered, so
    /// polling never corrupts the stream.
    pub fn wait_notification(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Notification>, ApiError> {
        if let Some(n) = self.pending.pop_front() {
            return Ok(Some(n));
        }
        let prior = self.reader.get_ref().read_timeout().map_err(ApiError::io)?;
        self.reader
            .get_ref()
            .set_read_timeout(Some(timeout))
            .map_err(ApiError::io)?;
        let outcome = match self.try_read_line() {
            Ok(Some(line)) => match wire::decode_response(&line).and_then(Response::into_result) {
                Ok(Response::Notify(n)) => Ok(Some(n)),
                Ok(other) => Err(unexpected(&other)),
                Err(e) => Err(e),
            },
            Ok(None) => Ok(None),
            Err(e) => Err(e),
        };
        self.reader
            .get_ref()
            .set_read_timeout(prior)
            .map_err(ApiError::io)?;
        outcome
    }
}

fn unexpected(response: &Response) -> ApiError {
    ApiError::new(
        ErrorKind::Internal,
        format!("server sent an unexpected response: {response:?}"),
    )
}
