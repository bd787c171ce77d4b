//! Cluster topology: which workers exist and how relations are sharded.
//!
//! A [`ClusterTopology`] is declarative — a worker address list plus the
//! shard count every worker's catalog partitions into. Every worker holds a
//! full replica of the catalog, so any worker can execute any query; the
//! coordinator picks one per query (see [`crate::coordinator`]).
//!
//! Every topology carries a **generation** number. The engine folds it into
//! all cache keys, so results computed under an older layout become
//! structurally unreachable after a topology change — layouts never change
//! *what* is computed, but a generation that survived a failover is exactly
//! when extra caution is cheapest.
//!
//! ## Topology files
//!
//! [`ClusterTopology::from_file`] reads the format served by
//! `prj-serve --topology`:
//!
//! ```text
//! # one directive per line; '#' starts a comment
//! shards 4
//! worker 127.0.0.1:7001
//! worker 127.0.0.1:7002
//! ```

use std::fmt;

/// A topology that cannot be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError(pub String);

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology: {}", self.0)
    }
}

impl std::error::Error for TopologyError {}

/// The declarative description of a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTopology {
    workers: Vec<String>,
    shards: usize,
    generation: u64,
}

impl ClusterTopology {
    /// A topology over `workers` (addresses) and `shards` spatial shards
    /// per relation.
    ///
    /// # Errors
    /// Empty worker lists, zero shard counts and blank addresses are
    /// rejected.
    pub fn new(workers: Vec<String>, shards: usize) -> Result<ClusterTopology, TopologyError> {
        if workers.is_empty() {
            return Err(TopologyError("a cluster needs at least one worker".into()));
        }
        if shards == 0 {
            return Err(TopologyError("shard count must be at least 1".into()));
        }
        if let Some(blank) = workers.iter().find(|w| w.trim().is_empty()) {
            return Err(TopologyError(format!("worker address {blank:?} is blank")));
        }
        Ok(ClusterTopology {
            workers,
            shards,
            generation: 1,
        })
    }

    /// Parses the `prj-serve --topology` file format (see module docs).
    ///
    /// # Errors
    /// Unknown directives, unparsable numbers and the [`Self::new`]
    /// validations.
    pub fn from_str_spec(spec: &str) -> Result<ClusterTopology, TopologyError> {
        let mut workers = Vec::new();
        let mut shards = 1usize;
        for (lineno, raw) in spec.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (directive, value) = line
                .split_once(char::is_whitespace)
                .map(|(d, v)| (d, v.trim()))
                .ok_or_else(|| {
                    TopologyError(format!("line {}: {line:?} has no value", lineno + 1))
                })?;
            match directive {
                "worker" => workers.push(value.to_string()),
                "shards" => {
                    shards = value.parse().map_err(|_| {
                        TopologyError(format!("line {}: bad shard count {value:?}", lineno + 1))
                    })?
                }
                other => {
                    return Err(TopologyError(format!(
                        "line {}: unknown directive {other:?}",
                        lineno + 1
                    )))
                }
            }
        }
        ClusterTopology::new(workers, shards)
    }

    /// Reads a topology file (see module docs for the format).
    pub fn from_file(path: &std::path::Path) -> Result<ClusterTopology, TopologyError> {
        let spec = std::fs::read_to_string(path)
            .map_err(|e| TopologyError(format!("cannot read {}: {e}", path.display())))?;
        ClusterTopology::from_str_spec(&spec)
    }

    /// Stamps an explicit generation (e.g. when replacing a failed layout);
    /// defaults to 1.
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The worker addresses, in topology order.
    pub fn workers(&self) -> &[String] {
        &self.workers
    }

    /// Spatial shards per relation.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The topology generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn bad_topologies_are_rejected() {
        assert!(ClusterTopology::new(Vec::new(), 4).is_err());
        assert!(ClusterTopology::new(addrs(1), 0).is_err());
        assert!(ClusterTopology::new(vec!["  ".into()], 4).is_err());
        assert!(ClusterTopology::from_str_spec("shards 4\nreplicas 2\nworker a:1").is_err());
    }

    #[test]
    fn file_format_round_trips() {
        let spec = "\
            # demo cluster\n\
            shards 4\n\
            worker 127.0.0.1:7001\n\
            worker 127.0.0.1:7002\n\
            \n\
            worker 127.0.0.1:7003\n";
        let topology = ClusterTopology::from_str_spec(spec).unwrap();
        assert_eq!(topology.shards(), 4);
        assert_eq!(topology.workers().len(), 3);
        assert_eq!(topology.generation(), 1);
        assert!(ClusterTopology::from_str_spec("workers 1").is_err());
        assert!(ClusterTopology::from_str_spec("shards x\nworker a:1").is_err());
        assert!(ClusterTopology::from_str_spec("worker").is_err());
    }
}
