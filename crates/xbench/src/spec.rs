//! Declarative workload specs and their deterministic operation streams.
//!
//! A spec is a tiny `key = value` file (TOML subset: blank lines, `#`
//! comments, and one optional `[workload]` section header are accepted;
//! nothing else is). The controller parses it once, serialises it back to
//! canonical text with [`WorkloadSpec::to_text`], and ships that text to
//! every agent — the agents re-parse with the same parser, so both sides
//! provably run the same workload.
//!
//! Determinism is the point: every `(agent, connection)` pair owns an
//! independent LCG stream seeded from `(seed, agent, conn)`, and
//! [`WorkloadSpec::expected_totals`] replays all streams without touching
//! a socket, so a test can assert the exact number of puts and the exact
//! payload bytes a cluster must have received.

/// Why a spec failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A line was not `key = value`, a comment, a blank, or `[workload]`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A key appeared twice.
    Duplicate {
        /// The repeated key.
        key: String,
    },
    /// A key this parser does not know (typos must not silently skew a
    /// measurement).
    UnknownKey {
        /// The unrecognised key.
        key: String,
    },
    /// A value failed to parse as the key's type.
    BadValue {
        /// The key whose value was bad.
        key: String,
        /// The unparseable text.
        value: String,
    },
    /// The parsed spec violates a structural constraint.
    Invalid {
        /// Human-readable constraint description.
        detail: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Malformed { line, text } => {
                write!(f, "spec line {line} is not `key = value`: {text:?}")
            }
            SpecError::Duplicate { key } => write!(f, "spec key {key:?} appears twice"),
            SpecError::UnknownKey { key } => write!(f, "unknown spec key {key:?}"),
            SpecError::BadValue { key, value } => {
                write!(f, "spec key {key:?} has unparseable value {value:?}")
            }
            SpecError::Invalid { detail } => write!(f, "invalid spec: {detail}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A parsed, validated workload description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Master seed; every agent/connection stream derives from it.
    pub seed: u64,
    /// Number of agents the controller will drive (streams are carved
    /// per agent, so the expectation replay needs it).
    pub agents: u32,
    /// Concurrent connections (worker threads) per agent.
    pub connections: u32,
    /// Operations per connection in a measure phase.
    pub ops_per_conn: u64,
    /// Operations per connection in a warmup phase.
    pub warmup_ops: u64,
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
    /// Versions kept per name when a drain op trims history; an
    /// oversized working set (large sides, rare drains) is the tier
    /// pressure knob.
    pub retain_versions: u64,
    /// Staging service addresses, driven through one
    /// [`xlayer_net::ShardedClient`] over the list (a `remote:` shard list
    /// in workflow terms; a single address is a one-shard cluster).
    pub targets: Vec<String>,
    /// Shard-map span (cells per placement bucket) for sharded targets.
    pub span: i64,
    /// Client retry budget per op.
    pub max_retries: u32,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 42,
            agents: 1,
            connections: 2,
            ops_per_conn: 100,
            warmup_ops: 10,
            put_weight: 8,
            get_weight: 3,
            drain_weight: 1,
            side_min: 8,
            side_max: 16,
            names: 4,
            spread: 4,
            retain_versions: 4,
            targets: Vec::new(),
            span: xlayer_staging::shard::DEFAULT_SPAN,
            max_retries: 3,
        }
    }
}

/// Every key the parser accepts, in canonical serialisation order.
const KEYS: &[&str] = &[
    "seed",
    "agents",
    "connections",
    "ops_per_conn",
    "warmup_ops",
    "put_weight",
    "get_weight",
    "drain_weight",
    "side_min",
    "side_max",
    "names",
    "spread",
    "retain_versions",
    "targets",
    "span",
    "max_retries",
];

impl WorkloadSpec {
    /// Parse a spec from `key = value` text. Unknown keys, duplicate
    /// keys, and malformed lines are hard errors; keys not present keep
    /// their defaults.
    pub fn parse(text: &str) -> Result<WorkloadSpec, SpecError> {
        let mut spec = WorkloadSpec::default();
        let mut seen: Vec<&str> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[workload]" {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(SpecError::Malformed {
                    line: lineno + 1,
                    text: line.to_string(),
                });
            };
            let key = key.trim();
            let value = value.trim().trim_matches('"');
            let Some(&canon) = KEYS.iter().find(|&&k| k == key) else {
                return Err(SpecError::UnknownKey {
                    key: key.to_string(),
                });
            };
            if seen.contains(&canon) {
                return Err(SpecError::Duplicate {
                    key: key.to_string(),
                });
            }
            seen.push(canon);
            spec.set(canon, value)?;
        }
        spec.validate()?;
        Ok(spec)
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
            value.parse().map_err(|_| SpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            })
        }
        match key {
            "seed" => self.seed = num(key, value)?,
            "agents" => self.agents = num(key, value)?,
            "connections" => self.connections = num(key, value)?,
            "ops_per_conn" => self.ops_per_conn = num(key, value)?,
            "warmup_ops" => self.warmup_ops = num(key, value)?,
            "put_weight" => self.put_weight = num(key, value)?,
            "get_weight" => self.get_weight = num(key, value)?,
            "drain_weight" => self.drain_weight = num(key, value)?,
            "side_min" => self.side_min = num(key, value)?,
            "side_max" => self.side_max = num(key, value)?,
            "names" => self.names = num(key, value)?,
            "spread" => self.spread = num(key, value)?,
            "retain_versions" => self.retain_versions = num(key, value)?,
            "span" => self.span = num(key, value)?,
            "max_retries" => self.max_retries = num(key, value)?,
            "targets" => {
                self.targets = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            _ => {
                return Err(SpecError::UnknownKey {
                    key: key.to_string(),
                })
            }
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), SpecError> {
        let bad = |detail: &str| {
            Err(SpecError::Invalid {
                detail: detail.to_string(),
            })
        };
        if self.agents == 0 {
            return bad("agents must be >= 1");
        }
        if self.connections == 0 {
            return bad("connections must be >= 1");
        }
        if self.side_min == 0 {
            return bad("side_min must be >= 1");
        }
        if self.side_max < self.side_min {
            return bad("side_max must be >= side_min");
        }
        if self.put_weight == 0 {
            return bad("put_weight must be >= 1 (a workload with no puts measures nothing)");
        }
        if self.names == 0 {
            return bad("names must be >= 1");
        }
        if self.spread == 0 {
            return bad("spread must be >= 1");
        }
        if self.span <= 0 {
            return bad("span must be positive");
        }
        // A cube side's payload must stay far below the wire's frame
        // ceiling even on the whole-object path.
        let max_bytes = 8u64.saturating_mul(u64::from(self.side_max).pow(3));
        if max_bytes > (1 << 31) {
            return bad("side_max cubes exceed 2 GiB payloads");
        }
        Ok(())
    }

    /// Canonical serialisation: parses back to an identical spec. This is
    /// the form the controller ships to agents.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("[workload]\n");
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        kv("seed", self.seed.to_string());
        kv("agents", self.agents.to_string());
        kv("connections", self.connections.to_string());
        kv("ops_per_conn", self.ops_per_conn.to_string());
        kv("warmup_ops", self.warmup_ops.to_string());
        kv("put_weight", self.put_weight.to_string());
        kv("get_weight", self.get_weight.to_string());
        kv("drain_weight", self.drain_weight.to_string());
        kv("side_min", self.side_min.to_string());
        kv("side_max", self.side_max.to_string());
        kv("names", self.names.to_string());
        kv("spread", self.spread.to_string());
        kv("retain_versions", self.retain_versions.to_string());
        kv("targets", self.targets.join(","));
        kv("span", self.span.to_string());
        kv("max_retries", self.max_retries.to_string());
        out
    }

    /// The deterministic op stream for one `(agent, conn)` pair, `ops`
    /// operations long.
    pub fn stream(&self, agent: u32, conn: u32, ops: u64) -> OpStream {
        OpStream::new(self, agent, conn, ops)
    }

    /// Replay every agent's every connection stream (measure-phase
    /// length) without any I/O and total it up — the ground truth a
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
    /// Trim this connection's names down to `retain_versions` versions.
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
        // The `.max(1)` floors make the stream total even on a spec built
        // programmatically without `parse`'s validation — modulo by zero
        // must be unreachable.
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

    const GOLDEN: &str = "\
# saturation workload, two shards
[workload]
seed = 7
agents = 2
connections = 3
ops_per_conn = 50
put_weight = 6
get_weight = 2
drain_weight = 1
side_min = 4
side_max = 9
names = 2
targets = 127.0.0.1:7001, 127.0.0.1:7002
span = 32
";

    #[test]
    fn golden_spec_parses() {
        let spec = WorkloadSpec::parse(GOLDEN).unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.agents, 2);
        assert_eq!(spec.connections, 3);
        assert_eq!(spec.ops_per_conn, 50);
        assert_eq!(spec.put_weight, 6);
        assert_eq!(spec.get_weight, 2);
        assert_eq!(spec.drain_weight, 1);
        assert_eq!(spec.side_min, 4);
        assert_eq!(spec.side_max, 9);
        assert_eq!(spec.names, 2);
        assert_eq!(spec.targets, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(spec.span, 32);
        // Unset keys keep their defaults.
        assert_eq!(spec.warmup_ops, WorkloadSpec::default().warmup_ops);
        assert_eq!(spec.max_retries, WorkloadSpec::default().max_retries);
    }

    #[test]
    fn canonical_text_roundtrips() {
        let spec = WorkloadSpec::parse(GOLDEN).unwrap();
        let back = WorkloadSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(spec, back);
        let dflt = WorkloadSpec::default();
        assert_eq!(WorkloadSpec::parse(&dflt.to_text()).unwrap(), dflt);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        // Not key = value.
        assert!(matches!(
            WorkloadSpec::parse("seed 42"),
            Err(SpecError::Malformed { line: 1, .. })
        ));
        // Unknown key.
        assert!(matches!(
            WorkloadSpec::parse("sede = 42"),
            Err(SpecError::UnknownKey { .. })
        ));
        // Duplicate key.
        assert!(matches!(
            WorkloadSpec::parse("seed = 1\nseed = 2"),
            Err(SpecError::Duplicate { .. })
        ));
        // Unparseable value.
        assert!(matches!(
            WorkloadSpec::parse("seed = banana"),
            Err(SpecError::BadValue { .. })
        ));
        // Structural violations.
        assert!(matches!(
            WorkloadSpec::parse("connections = 0"),
            Err(SpecError::Invalid { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("side_min = 9\nside_max = 4"),
            Err(SpecError::Invalid { .. })
        ));
        assert!(matches!(
            WorkloadSpec::parse("put_weight = 0"),
            Err(SpecError::Invalid { .. })
        ));
    }

    #[test]
    fn streams_are_deterministic_and_start_with_put() {
        let spec = WorkloadSpec::parse(GOLDEN).unwrap();
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
        let spec = WorkloadSpec::parse(GOLDEN).unwrap();
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
