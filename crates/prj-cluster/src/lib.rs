//! # prj-cluster — distributed query execution for the ProxRJ engine
//!
//! `prj-engine` shards its catalog in one process; this crate replicates
//! that catalog **across worker processes** behind the same client-facing
//! `Request` surface. Every mutation reaches every worker before it is
//! acked, so each worker holds a full replica, and the coordinator sends
//! each query whole to one worker: the same one execution unit — one
//! ProxRJ operator over the shards' merged views — that an in-process
//! engine runs. The unit carries
//! the coordinator's pinned plan and its snapshot's epoch vectors, and the
//! worker refuses to run it at any other epochs, which is what makes
//! cluster answers **bit-identical** (ids, score bits, ordering, certified
//! stop) to the single-process sharded engine and the naive oracle — the
//! distributed differential harness asserts exactly that. A cluster query
//! reads what one operator reads.
//!
//! ## The pieces
//!
//! * [`topology`] — [`ClusterTopology`] (worker list + shard count,
//!   parsable from a file) with a *generation* the engine folds into
//!   every cache key.
//! * [`pool`] — [`WorkerPool`]: per-worker stacks of persistent,
//!   `prj/2`-negotiated TCP connections with connect retry/backoff and
//!   read/write timeouts.
//! * [`coordinator`] — [`Coordinator`]: the authoritative catalog.
//!   Mutations apply locally and replicate to every worker **before**
//!   acking; each query's unit goes over the pool to one worker, chosen
//!   round-robin, failing over to the others in rotation, with a
//!   re-snapshot retry on stale epochs.
//! * [`worker`] — [`WorkerSession`]: a full engine replica serving the
//!   ordinary protocol plus the cluster-internal `prj/2` verbs
//!   (`ExecuteUnit`, `WorkerStats`), with the epoch check that refuses to
//!   compute over data the coordinator did not snapshot.
//!
//! The `prj-serve` binary (this crate) serves all three roles:
//!
//! ```text
//! prj-serve --worker --shards 4 --addr 127.0.0.1:7001
//! prj-serve --worker --shards 4 --addr 127.0.0.1:7002
//! prj-serve --coordinator --shards 4 \
//!           --workers 127.0.0.1:7001,127.0.0.1:7002
//! ```
//!
//! Failure semantics are typed, never silent: a dead worker's query goes
//! to the next worker, and only when every worker failed does it surface
//! `worker-unavailable`; a worker at the wrong epochs answers
//! `stale-epoch` and is retried after a fresh snapshot; replication
//! failures ack as `degraded`. A truncated result set is structurally
//! impossible — a unit either returns its certified top-K or an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod pool;
pub mod process;
pub mod topology;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorBuilder};
pub use pool::WorkerPool;
pub use process::{spawn_worker_process, spawn_worker_process_with_delta, SpawnedWorker};
pub use topology::{ClusterTopology, TopologyError};
pub use worker::WorkerSession;
