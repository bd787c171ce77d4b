//! Pooled persistent connections to the cluster's workers.
//!
//! The coordinator fans every sharded query out to its workers, so dialing
//! per unit would put a TCP + negotiation handshake on the hot path. The
//! [`WorkerPool`] keeps per-worker stacks of idle, already-negotiated
//! `prj/2` [`ApiClient`]s: [`WorkerPool::with_conn`] pops one (dialing —
//! with the configured timeouts, retries and backoff — only when the stack
//! is empty), runs the caller's exchange, and returns the connection to the
//! pool. Concurrent units to the same worker simply dial additional
//! connections; the stack grows to the observed parallelism and no further.
//!
//! Failure policy: transport-level failures (I/O errors, unparsable
//! responses) poison a connection mid-protocol, so it is dropped rather
//! than returned; *typed* server-side errors arrive on a healthy stream and
//! keep the connection pooled.

use prj_api::{ApiClient, ApiError, ClientConfig, ErrorKind};
use std::sync::Mutex;

struct WorkerSlot {
    addr: String,
    idle: Mutex<Vec<ApiClient>>,
}

/// Per-worker pools of persistent, `prj/2`-negotiated connections.
pub struct WorkerPool {
    slots: Vec<WorkerSlot>,
    config: ClientConfig,
}

impl WorkerPool {
    /// A pool over `addrs`, dialing with `config`.
    pub fn new(addrs: Vec<String>, config: ClientConfig) -> WorkerPool {
        WorkerPool {
            slots: addrs
                .into_iter()
                .map(|addr| WorkerSlot {
                    addr,
                    idle: Mutex::new(Vec::new()),
                })
                .collect(),
            config,
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the pool has no workers at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The address of worker `w`.
    pub fn addr(&self, w: usize) -> &str {
        &self.slots[w].addr
    }

    /// Idle pooled connections to worker `w` (a health-report signal: the
    /// stack's depth tracks the observed fan-out parallelism).
    pub fn idle_len(&self, w: usize) -> usize {
        self.slots[w].idle.lock().expect("pool lock").len()
    }

    fn dial(&self, w: usize) -> Result<ApiClient, ApiError> {
        let mut client =
            ApiClient::connect_with(&self.slots[w].addr, &self.config).map_err(ApiError::io)?;
        client.negotiate()?;
        Ok(client)
    }

    /// Runs one exchange on a pooled connection to worker `w`.
    pub fn with_conn<T>(
        &self,
        w: usize,
        exchange: impl FnOnce(&mut ApiClient) -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        let slot = &self.slots[w];
        let pooled = slot.idle.lock().expect("pool lock").pop();
        let mut client = match pooled {
            Some(client) => client,
            None => self.dial(w)?,
        };
        match exchange(&mut client) {
            Ok(value) => {
                slot.idle.lock().expect("pool lock").push(client);
                Ok(value)
            }
            Err(e) => {
                // Typed server-side answers leave the stream healthy; only
                // transport-level failures poison the framing.
                if !matches!(e.kind, ErrorKind::Io | ErrorKind::Malformed) {
                    slot.idle.lock().expect("pool lock").push(client);
                }
                Err(e)
            }
        }
    }

    /// Drops every idle connection (e.g. after a topology change).
    pub fn disconnect_all(&self) {
        for slot in &self.slots {
            slot.idle.lock().expect("pool lock").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prj_api::Request;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A fake prj/2 worker answering hello and echoing stats errors; counts
    /// accepted connections so the test can observe pooling.
    fn fake_worker(
        conns: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve exactly two connections, then quit.
            for stream in listener.incoming().take(2) {
                let Ok(stream) = stream else { break };
                conns.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let mut writer = stream.try_clone().unwrap();
                let reader = BufReader::new(stream);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    let response = if line.contains(" hello ") {
                        "prj/2 ok hello ver=2\n".to_string()
                    } else {
                        "prj/2 err kind=unsupported msg=test worker\n".to_string()
                    };
                    if writer.write_all(response.as_bytes()).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn connections_are_reused_and_typed_errors_keep_them_pooled() {
        let conns = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (addr, handle) = fake_worker(std::sync::Arc::clone(&conns));
        let pool = WorkerPool::new(vec![addr.to_string()], ClientConfig::default());
        assert_eq!(pool.len(), 1);
        for _ in 0..3 {
            let err = pool
                .with_conn(0, |c| c.call(&Request::Stats))
                .expect_err("fake worker answers stats with a typed error");
            assert_eq!(err.kind, ErrorKind::Unsupported);
        }
        // Three exchanges, one dial: the connection was pooled across them.
        assert_eq!(conns.load(std::sync::atomic::Ordering::SeqCst), 1);
        drop(pool);
        drop(handle); // listener thread exits with the test process
    }

    #[test]
    fn dialing_a_dead_worker_is_a_typed_io_error() {
        // Bind-then-drop yields an address nothing listens on.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let config = ClientConfig {
            connect_retries: 1,
            retry_backoff: std::time::Duration::from_millis(5),
            ..ClientConfig::default()
        };
        let pool = WorkerPool::new(vec![addr.to_string()], config);
        let err = pool
            .with_conn(0, |c| c.call(&Request::Stats))
            .expect_err("nothing listens there");
        assert_eq!(err.kind, ErrorKind::Io);
    }
}
