//! Standalone staging: N staging services, one listener and memory cap
//! each, the way DataSpaces deploys a set of dedicated staging nodes.
//! `--shards 1` is the single standalone service — one address is a
//! one-shard cluster on both sides of the wire.
//!
//! ```text
//! staging_cluster [--shards N] [--addr HOST:PORT] [--servers S]
//!                 [--memory-mib M] [--max-conns C]
//!                 [--disk-dir PATH] [--disk-budget-mib D]
//! ```
//!
//! `--disk-dir` attaches a disk spill tier to every shard: each shard
//! logs spilled versions under `PATH/svc-<port>` (the bound port keeps
//! shards sharing one directory apart), capped per staging server by
//! `--disk-budget-mib`.
//!
//! With `--addr HOST:0` (the default) every shard binds an ephemeral
//! port; with an explicit port P, shard `i` binds `P + i`. Each shard's
//! bound address is printed on stdout, followed by the comma-separated
//! shard list a `ShardedClient` (or `workflow::native`'s `remote:`
//! backend) consumes verbatim. `--memory-mib` is the per-staging-server
//! cap *within* each shard, so cluster capacity is
//! `shards × servers × memory-mib`. The process exits when every shard
//! has received the `Shutdown` opcode (`ShardedClient::shutdown_all`).

use xlayer_net::cluster::StagingCluster;
use xlayer_net::service::ServiceConfig;

struct Args {
    shards: usize,
    cfg: ServiceConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut cfg = ServiceConfig {
        servers: 1,
        ..ServiceConfig::default()
    };
    let mut shards = 4usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--shards" => {
                shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--addr" => cfg.addr = value("--addr")?.clone(),
            "--servers" => {
                cfg.servers = value("--servers")?
                    .parse()
                    .map_err(|e| format!("--servers: {e}"))?;
            }
            "--memory-mib" => {
                let mib: u64 = value("--memory-mib")?
                    .parse()
                    .map_err(|e| format!("--memory-mib: {e}"))?;
                cfg.memory_per_server = mib << 20;
            }
            "--max-conns" => {
                cfg.max_connections = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--disk-dir" => {
                cfg.disk_dir = Some(std::path::PathBuf::from(value("--disk-dir")?));
            }
            "--disk-budget-mib" => {
                let mib: u64 = value("--disk-budget-mib")?
                    .parse()
                    .map_err(|e| format!("--disk-budget-mib: {e}"))?;
                cfg.disk_budget = mib << 20;
            }
            "--help" | "-h" => {
                return Err("usage: staging_cluster [--shards N] [--addr HOST:PORT] \
                     [--servers S] [--memory-mib M] [--max-conns C] \
                     [--disk-dir PATH] [--disk-budget-mib D]\n\
                     --shards 1 runs a single standalone staging service"
                    .to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args { shards, cfg })
}

/// Per-shard bind addresses: ephemeral if the base port is 0 (or the
/// address has no port), else base port + shard index.
fn shard_addrs(base: &str, shards: usize) -> Result<Vec<String>, String> {
    let (host, port) = match base.rsplit_once(':') {
        Some((h, p)) => {
            let port: u16 = p.parse().map_err(|e| format!("--addr port: {e}"))?;
            (h, port)
        }
        None => (base, 0u16),
    };
    (0..shards)
        .map(|i| {
            if port == 0 {
                Ok(format!("{host}:0"))
            } else {
                let p = port
                    .checked_add(i as u16)
                    .ok_or_else(|| format!("--addr port overflows at shard {i}"))?;
                Ok(format!("{host}:{p}"))
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { shards, cfg } = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let addrs = match shard_addrs(&cfg.addr, shards) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let per_shard = cfg.servers as u64 * cfg.memory_per_server;
    let cluster = match StagingCluster::start_on(&addrs, &cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to start staging cluster: {e}");
            std::process::exit(1);
        }
    };
    for (i, addr) in cluster.addrs().iter().enumerate() {
        println!("shard {i} listening on {addr}");
    }
    println!("cluster: {}", cluster.addr_list());
    println!(
        "{shards} shard(s), {} MiB each ({} MiB aggregate); stop with Shutdown to every shard",
        per_shard >> 20,
        (per_shard * shards as u64) >> 20
    );
    cluster.wait();
}
