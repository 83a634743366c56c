//! Workload specs and their deterministic operation streams.
//!
//! Determinism is the point: every `(agent, connection)` pair owns an
//! independent LCG stream seeded from `(seed, agent, conn)`, and
//! [`WorkloadSpec::expected_totals`] replays all streams without touching
//! a socket, so a test can assert the exact number of puts and the exact
//! payload bytes a cluster must have received. A spec is built as a struct
//! literal (usually over [`WorkloadSpec::default`]); any field values give
//! a total stream.

/// A workload description: the shape of the stream set, the op mix and
/// the object sizes and placements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Master seed; every agent/connection stream derives from it.
    pub seed: u64,
    /// Stream groups: streams are carved per `(agent, conn)` pair, and
    /// [`Self::expected_totals`] replays `agents × connections` of them.
    pub agents: u32,
    /// Streams per agent (one client thread each, in a driver).
    pub connections: u32,
    /// Operations per stream.
    pub ops_per_conn: u64,
    /// Relative weight of put operations.
    pub put_weight: u32,
    /// Relative weight of get operations.
    pub get_weight: u32,
    /// Relative weight of drain (eviction) operations.
    pub drain_weight: u32,
    /// Smallest object cube side, in cells (payload is `8 * side³` B).
    pub side_min: u32,
    /// Largest object cube side, in cells.
    pub side_max: u32,
    /// Distinct object names the workload cycles through.
    pub names: u32,
    /// Placement spread: object boxes land at origins spanning
    /// `spread³` shard-map buckets, so puts scatter across shards.
    pub spread: u32,
    /// Shard-map span (cells per placement bucket): a put's box corner is
    /// its origin bucket times `span`.
    pub span: i64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 42,
            agents: 1,
            connections: 2,
            ops_per_conn: 100,
            put_weight: 8,
            get_weight: 3,
            drain_weight: 1,
            side_min: 8,
            side_max: 16,
            names: 4,
            spread: 4,
            span: xlayer_staging::shard::DEFAULT_SPAN,
        }
    }
}

impl WorkloadSpec {
    /// The deterministic op stream for one `(agent, conn)` pair, `ops`
    /// operations long.
    pub fn stream(&self, agent: u32, conn: u32, ops: u64) -> OpStream {
        OpStream::new(self, agent, conn, ops)
    }

    /// Replay every agent's every connection stream (`ops_per_conn`
    /// long) without any I/O and total it up — the ground truth a
    /// loopback test compares delivered counters against.
    pub fn expected_totals(&self) -> SpecTotals {
        let mut t = SpecTotals::default();
        for agent in 0..self.agents {
            for conn in 0..self.connections {
                for op in self.stream(agent, conn, self.ops_per_conn) {
                    match op {
                        PlannedOp::Put { side, .. } => {
                            t.puts += 1;
                            t.put_bytes += 8 * u64::from(side).pow(3);
                        }
                        PlannedOp::Get => t.gets += 1,
                        PlannedOp::Drain => t.drains += 1,
                    }
                }
            }
        }
        t
    }
}

/// Totals of a replayed spec (see [`WorkloadSpec::expected_totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecTotals {
    /// Put operations across all agents and connections.
    pub puts: u64,
    /// Get operations.
    pub gets: u64,
    /// Drain operations.
    pub drains: u64,
    /// Exact payload bytes the puts deliver.
    pub put_bytes: u64,
}

/// One operation a connection worker will perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedOp {
    /// Store a `side³`-cell cube under name index `name_idx`, its box
    /// origin at `origin` (units of the shard-map span).
    Put {
        /// Which of the spec's `names` this object goes under.
        name_idx: u32,
        /// Cube side in cells.
        side: u32,
        /// Box origin in span-sized buckets per axis.
        origin: [u32; 3],
    },
    /// Fetch this connection's most recent put.
    Get,
    /// Trim version history of the names this connection wrote (how far
    /// is the driver's choice).
    Drain,
}

/// Deterministic per-connection operation stream. The first operation of
/// a stream is always a put (a get or drain before any put would have
/// nothing to address), after which the weighted mix applies.
pub struct OpStream {
    state: u64,
    remaining: u64,
    puts_done: u64,
    side_min: u64,
    side_span: u64,
    names: u64,
    spread: u64,
    wp: u64,
    wg: u64,
    wd: u64,
}

impl OpStream {
    fn new(spec: &WorkloadSpec, agent: u32, conn: u32, ops: u64) -> Self {
        // Same LCG constants as the rest of the workspace; the stream id
        // is folded in with odd multipliers so neighbouring (agent, conn)
        // pairs land in unrelated parts of the sequence.
        let mut state = spec
            .seed
            .wrapping_add(u64::from(agent).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(conn).wrapping_mul(0xD2B7_4407_B1CE_6E93));
        state = lcg(lcg(state));
        // The `.max(1)` floors make the stream total on any spec, however
        // it was built — modulo by zero must be unreachable.
        OpStream {
            state,
            remaining: ops,
            puts_done: 0,
            side_min: u64::from(spec.side_min.max(1)),
            side_span: u64::from(spec.side_max.saturating_sub(spec.side_min)) + 1,
            names: u64::from(spec.names.max(1)),
            spread: u64::from(spec.spread.max(1)),
            wp: u64::from(spec.put_weight.max(1)),
            wg: u64::from(spec.get_weight),
            wd: u64::from(spec.drain_weight),
        }
    }

    fn draw(&mut self) -> u64 {
        self.state = lcg(self.state);
        // The low bits of a pure LCG are weak; mix the halves.
        (self.state >> 33) ^ self.state
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

impl Iterator for OpStream {
    type Item = PlannedOp;

    fn next(&mut self) -> Option<PlannedOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let total = self.wp + self.wg + self.wd;
        let r = self.draw() % total;
        let put = r < self.wp || self.puts_done == 0;
        if put {
            self.puts_done += 1;
            let side = (self.side_min + self.draw() % self.side_span) as u32;
            let name_idx = (self.draw() % self.names) as u32;
            let origin = [
                (self.draw() % self.spread) as u32,
                (self.draw() % self.spread) as u32,
                (self.draw() % self.spread) as u32,
            ];
            Some(PlannedOp::Put {
                name_idx,
                side,
                origin,
            })
        } else if r < self.wp + self.wg {
            Some(PlannedOp::Get)
        } else {
            Some(PlannedOp::Drain)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mixed two-agent spec over every op kind and a range of sides.
    fn mixed() -> WorkloadSpec {
        WorkloadSpec {
            seed: 7,
            agents: 2,
            connections: 3,
            ops_per_conn: 50,
            put_weight: 6,
            get_weight: 2,
            drain_weight: 1,
            side_min: 4,
            side_max: 9,
            names: 2,
            span: 32,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn streams_are_deterministic_and_start_with_put() {
        let spec = mixed();
        for agent in 0..spec.agents {
            for conn in 0..spec.connections {
                let a: Vec<PlannedOp> = spec.stream(agent, conn, 20).collect();
                let b: Vec<PlannedOp> = spec.stream(agent, conn, 20).collect();
                assert_eq!(a, b);
                assert!(matches!(a.first(), Some(PlannedOp::Put { .. })));
                for op in &a {
                    if let PlannedOp::Put {
                        name_idx,
                        side,
                        origin,
                    } = op
                    {
                        assert!(*name_idx < spec.names);
                        assert!(*side >= spec.side_min && *side <= spec.side_max);
                        assert!(origin.iter().all(|&o| o < spec.spread));
                    }
                }
            }
        }
        // Distinct connections get distinct streams (overwhelmingly).
        let a: Vec<PlannedOp> = spec.stream(0, 0, 20).collect();
        let b: Vec<PlannedOp> = spec.stream(0, 1, 20).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn expected_totals_match_a_manual_replay() {
        let spec = mixed();
        let t = spec.expected_totals();
        assert_eq!(
            t.puts + t.gets + t.drains,
            u64::from(spec.agents) * u64::from(spec.connections) * spec.ops_per_conn
        );
        let mut put_bytes = 0u64;
        for agent in 0..spec.agents {
            for conn in 0..spec.connections {
                for op in spec.stream(agent, conn, spec.ops_per_conn) {
                    if let PlannedOp::Put { side, .. } = op {
                        put_bytes += 8 * u64::from(side).pow(3);
                    }
                }
            }
        }
        assert_eq!(t.put_bytes, put_bytes);
        assert!(t.puts > 0 && t.put_bytes > 0);
    }
}
