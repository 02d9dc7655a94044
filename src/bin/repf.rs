//! `repf` — command-line driver for the resource-efficient prefetching
//! framework.
//!
//! ```text
//! repf list                               # benchmarks and machines
//! repf profile <bench> [--period N]      # sampling pass summary
//! repf analyze <bench> [--machine amd|intel]   # MDDLI + plan (+ pseudo-asm)
//! repf run <bench> [--machine M] [--policy P]  # timed solo run
//! repf mix <b1> <b2> <b3> <b4> [--machine M]   # 4-app contention run
//! repf serve [--addr H:P] [--peers LIST] # profiling-as-a-service daemon
//! repf query <what> --addr H:P           # query a running daemon
//! repf corun <s1> <s2> [...] --addr H:P  # co-run prediction for sessions
//! repf place <s1> <s2> [...] --addr H:P --groups G --capacity K  # placement search
//! repf ring <status|set|join|drain>      # consistent-hash ring membership
//! repf load --addr H:P[,H:P...]          # open-loop zipf/YCSB load generator
//! repf record --out FILE [--seed N]      # record a deterministic request trace
//! repf replay --trace FILE [--nodes N]   # replay a trace against N daemons
//! ```
//!
//! `repf <cmd> --help` prints the command's own usage and exits 0; bad
//! flags exit non-zero. Everything is deterministic; scales with
//! `--scale <f>` (default 0.5). `--threads N` sizes the parallel
//! evaluation engine (default: `REPF_THREADS` or all cores) — results
//! are identical at any count.

use repf::core::asm::render_plan;
use repf::metrics::weighted_speedup;
use repf::sampling::{Sampler, SamplerConfig};
use repf::serve::{
    apply_membership, generate_trace, replay_against, replay_clustered, replay_spawned, run_load,
    ChurnEvent, Client, ClientError, GenConfig, LoadConfig, MachineId, OpMix, ReplayConfig,
    Request, Response, Ring, RingChange, RingSpec, ServeConfig, Target, Trace, DEFAULT_RING_SEED,
    DEFAULT_VNODES,
};
use repf::sim::{
    amd_phenom_ii, intel_i7_2600k, prepare, run_mix, run_policy, Exec, MachineConfig, MixSpec,
    PlanCache, Policy,
};
use repf::workloads::{BenchmarkId, BuildOptions, InputSet};
use std::io::Write as _;

struct Args {
    positional: Vec<String>,
    machine: MachineConfig,
    machine_id: MachineId,
    policy: Policy,
    period: u64,
    scale: f64,
    exec: Exec,
    addr: Option<String>,
    sizes: Vec<u64>,
    delta: f64,
    queue: usize,
    budget_mb: usize,
    shards: usize,
    max_conns: usize,
    out: Option<String>,
    trace: Option<String>,
    nodes: usize,
    seed: Option<u64>,
    sessions: Option<u32>,
    rounds: u32,
    samples: u32,
    rate: f64,
    duration: std::time::Duration,
    mix: OpMix,
    conns: usize,
    drivers: usize,
    pipeline: usize,
    zipf: f64,
    peers: Vec<String>,
    advertise: Option<String>,
    ring_seed: Option<u64>,
    vnodes: Option<u32>,
    node: Option<String>,
    ring_nodes: Vec<String>,
    drain_at: Option<usize>,
    join_at: Option<usize>,
    groups: Option<u32>,
    capacity: Option<u32>,
    size: Option<u64>,
    intensities: Vec<f64>,
}

const GENERAL_USAGE: &str = "\
usage: repf <command> [args] [flags]

commands:
  list       benchmarks and machines
  profile    sampling-pass summary for one benchmark
  analyze    MDDLI + prefetch plan for one benchmark
  run        timed solo run under a policy
  mix        4-application contention run
  serve      profiling-as-a-service daemon (binary wire protocol)
  query      query a running daemon
  corun      predicted shared-cache miss ratios for co-running sessions
  place      search co-run placements minimizing aggregate miss ratio
  ring       inspect or change cluster ring membership (join/drain nodes)
  load       open-loop zipf/YCSB load generator against one or more daemons
  record     record a deterministic request trace to a file
  replay     replay a trace against N daemons with divergence checking

`repf <command> --help` shows that command's flags.";

fn usage_text(cmd: Option<&str>) -> &'static str {
    match cmd {
        Some("list") => "usage: repf list\n\nPrint the benchmark pool (Table I analogs) and machine models (Table II).",
        Some("profile") => "\
usage: repf profile <bench> [--period N] [--scale F]

Run the sparse sampling pass and print sample counts and the estimated
runtime overhead.\n
  --period N   mean sampling period in references (default 1009)
  --scale F    run-length scale (default 0.5)",
        Some("analyze") => "\
usage: repf analyze <bench> [--machine amd|intel] [--scale F]

Profile, model and analyze one benchmark: delinquent loads, the full
prefetch plan as pseudo-assembly, and the rejected candidates.",
        Some("run") => "\
usage: repf run <bench> [--machine amd|intel] [--policy P] [--scale F]

Timed solo run under a policy (baseline|hw|sw|swnt|sc|combined),
reporting speedup, off-chip traffic and prefetch accuracy.",
        Some("mix") => "\
usage: repf mix <b1> <b2> <b3> <b4> [--machine amd|intel] [--policy P]
                [--scale F] [--threads N]

Run a 4-application mix with shared-LLC and shared-DRAM contention and
report per-app speedups, throughput and traffic deltas.",
        Some("serve") => "\
usage: repf serve [--addr HOST:PORT] [--threads N] [--queue N]
                  [--budget-mb N] [--shards N]
                  [--max-conns N] [--scale F]
                  [--peers H:P[,H:P...]] [--advertise H:P]
                  [--ring-seed N] [--vnodes N]

Start the profiling daemon and block until a client sends the Shutdown
control message. The bound address is printed on the first stdout line
(port 0 picks an ephemeral port).\n
  --addr H:P     bind address (default 127.0.0.1:4590)
  --threads N    request worker threads (default: REPF_THREADS or cores)
  --queue N      bounded request queue depth; full => Busy (default 64)
  --budget-mb N  session-store byte budget in MiB (default 64); past it,
                 W-TinyLFU admission (a frequency sketch gating a small
                 window into probation/protected segments) keeps the
                 zipf-hot working set under one-shot churn
  --shards N     session-store shard count (default 8, at least 1); shards
                 are independently locked and split the budget evenly
  --max-conns N  open-connection cap (at least 1); accepts past it are
                 shed with Busy (default 4096)
  --scale F      refs scale for server-side benchmark profiling (default 0.05)
  --peers LIST   other cluster members (comma-separated): install a ring
                 over peers + self at startup; sessions are owned by their
                 ring node, misdirected requests are forwarded
  --advertise A  address peers reach this node at (default: the bind addr;
                 required when binding 0.0.0.0 or port 0 in a cluster)
  --ring-seed N  consistent-hash ring seed (must match fleet-wide)
  --vnodes N     virtual nodes per member (default 64)",
        Some("ring") => "\
usage: repf ring status --addr HOST:PORT
       repf ring set   --nodes H:P[,H:P...] [--ring-seed N] [--vnodes N]
       repf ring join  --node HOST:PORT --addr HOST:PORT
       repf ring drain --node HOST:PORT --addr HOST:PORT

Inspect or change the cluster's consistent-hash ring membership.

  status   print the contacted node's ring: epoch, seed, members, shares
  set      install an explicit member list; contacts every listed node
           (and the current members reachable through them), bumps the
           epoch past the fleet maximum, and waits for every ack —
           departing nodes migrate their sessions before acking
  join     add --node to the membership seen by --addr
  drain    remove --node from the membership; its sessions (profile
           bytes, version, cached model) migrate to the new owners and
           tombstones forward stragglers\n
  --addr H:P     a current cluster member to consult
  --node H:P     the node joining or draining
  --nodes LIST   the full member list for `set`
  --ring-seed N  ring seed for `set` (default 0xc1057e55eed5)
  --vnodes N     virtual nodes per member for `set` (default 64)",
        Some("load") => "\
usage: repf load --addr HOST:PORT[,HOST:PORT...] [--rate F] [--duration D]
                 [--mix M] [--conns N] [--drivers N] [--pipeline N]
                 [--sessions N] [--zipf S] [--seed N] [--ring-seed N]
                 [--out FILE]

Open-loop, coordinated-omission-safe load generator: a seeded zipfian
YCSB-style op schedule is fixed up front and paced at the target rate;
latency is accounted from each op's *intended* start time, so server
stalls inflate the tail instead of silently pausing the workload. The
machine-readable JSON report goes to stdout (and --out FILE), a human
summary to stderr.\n
  --addr LIST    daemon(s) to load (required); several comma-separated
                 addresses fan out over the cluster ring — each op goes
                 to its session's owner (drivers/conns are per node)
  --ring-seed N  ring seed for cluster fan-out; must match the daemons'
  --rate F       target arrival rate, ops/second (default 1000)
  --duration D   scheduled run length, e.g. 2s / 500ms (default 2s)
  --mix M        op mix: submit-heavy|query-heavy|scan|scan-churn
                 (default query-heavy; scan-churn = pure zipf queries plus
                 a 10% stream of large one-shot submits to never-queried
                 sessions, the workload that tests store admission under
                 a tight --budget-mb)
  --conns N      open connections: drivers paced + rest parked (default 8)
  --drivers N    paced driver connections (default: min(conns, 8))
  --pipeline N   max in-flight requests per driver; 1 = closed-loop
                 (default 32)
  --sessions N   distinct preloaded sessions (default 16)
  --zipf S       zipf exponent for session popularity (default 0.99)
  --seed N       schedule seed; same seed = identical op trace
  --out FILE     also write the JSON report to FILE",
        Some("query") => "\
usage: repf query <what> [args] --addr HOST:PORT

what:
  ping                         liveness probe
  mrc   <target> [--sizes L]   application miss-ratio curve
  pcmrc <target> <pc> [--sizes L]  per-PC miss-ratio curve
  plan  <target> [--machine amd|intel] [--delta F]  full prefetch plan
  stats                        server metrics snapshot
  shutdown                     ask the daemon to drain and exit

A <target> is a benchmark name (see `repf list`) or `session:NAME` for a
profile submitted over the wire. Sizes are comma-separated with k/m
suffixes (default 32k,256k,1m,8m). `--delta F` is required for session
plan queries (cycles per memop once stalls are removed).",
        Some("corun") => "\
usage: repf corun <session> <session> [...] --addr HOST:PORT [--sizes L]

Predict the shared-cache behaviour of the named sessions co-running on
one cache. The server composes each session's StatStack reuse profile
with its peers' (reuse distances inflate by the peers' interleaved
access intensity) and answers per-session predicted miss ratios at each
cache size plus a mix-throughput estimate. Sessions owned by other ring
nodes are resolved through cluster model pulls, so the list may span
the whole cluster.\n
  --addr H:P   a cluster member to ask (required)
  --sizes L    comma-separated cache sizes with k/m suffixes
               (default 32k,256k,1m,8m)
  --intensities L
               comma-separated per-session access-intensity weights
               (default: inferred from each session's sample count)",
        Some("place") => "\
usage: repf place <session> <session> [...] --addr HOST:PORT
                  --groups G --capacity K [--size BYTES]
                  [--intensities L]

Search assignments of the named sessions into G cache-sharing groups of
at most K members each, minimizing the predicted aggregate shared-cache
miss ratio at one cache size. The server walks every canonical
partition, costing each group once (bit-identical at any ring size or
queried member), and answers the winning grouping, its aggregate miss
ratio and throughput estimate, plus the number of tree nodes walked.
Sessions owned by other ring nodes are resolved through cluster model
pulls.\n
  --addr H:P   a cluster member to ask (required)
  --groups G   cache-sharing groups (required)
  --capacity K max sessions per group (required)
  --size BYTES shared cache size with k/m suffix (default 8m)
  --intensities L
               comma-separated per-session access-intensity weights
               (default: inferred from each session's sample count)",
        Some("record") => "\
usage: repf record --out FILE [--seed N] [--sessions N] [--rounds N]
                   [--samples N]

Generate a deterministic request trace (seeded walk over sessions x
submit/MRC/plan/stats ops) and write it to a versioned binary trace
file. The same seed always produces a byte-identical trace.\n
  --out FILE     trace file to write (required)
  --seed N       generator seed (default 104167320355885)
  --sessions N   distinct sessions (default 4)
  --rounds N     submit-then-query rounds per session (default 3)
  --samples N    reuse samples per submitted batch (default 60)",
        Some("replay") => "\
usage: repf replay --trace FILE [--nodes N]
                   [--addr H:P[,H:P...]]
                   [--drain-at REC] [--join-at REC]

Replay a recorded trace with a fixed interleaving, partitioning
sessions across nodes by the cluster's consistent-hash ring, and
bit-compare every deterministic response (MRC, per-PC MRC, plan)
against a direct in-process StatStack/analyze oracle. Exits non-zero on
divergence and writes the minimal offending request prefix to
FILE.diverged.\n
  --trace FILE   trace file to replay (required)
  --nodes N      loopback daemons to spawn and drive (default 1); the
                 digest must be identical across node counts
  --addr LIST    replay against running daemons instead (comma-separated;
                 the same RLIMIT_NOFILE preflight as `repf load` runs
                 before any connection opens)
  --drain-at REC spawn a *clustered* ring and drain the last node before
                 record REC — live migration under a deterministic trace;
                 the digest must match the churn-free run
  --join-at REC  spawn a clustered ring and join a fresh node before
                 record REC (combines with --drain-at)",
        _ => GENERAL_USAGE,
    }
}

/// Print `cmd`'s usage to stderr and exit 2 (flag/argument error).
fn usage_err(cmd: Option<&str>) -> ! {
    eprintln!("{}", usage_text(cmd));
    std::process::exit(2);
}

/// Parse a duration like `2s`, `500ms`, or bare seconds (`1.5`).
fn parse_duration(spec: &str) -> Option<std::time::Duration> {
    let spec = spec.trim();
    if let Some(ms) = spec.strip_suffix("ms") {
        return ms.trim().parse::<u64>().ok().map(std::time::Duration::from_millis);
    }
    let secs = spec.strip_suffix('s').unwrap_or(spec);
    secs.trim()
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .map(std::time::Duration::from_secs_f64)
}

fn parse_sizes(spec: &str) -> Option<Vec<u64>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let (digits, mult) = match part.as_bytes().last()? {
            b'k' | b'K' => (&part[..part.len() - 1], 1u64 << 10),
            b'm' | b'M' => (&part[..part.len() - 1], 1u64 << 20),
            b'g' | b'G' => (&part[..part.len() - 1], 1u64 << 30),
            _ => (part, 1),
        };
        out.push(digits.parse::<u64>().ok()?.checked_mul(mult)?);
    }
    (!out.is_empty()).then_some(out)
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cmd_of = |args: &[String]| {
        args.iter()
            .find(|a| !a.starts_with('-'))
            .map(|s| s.to_string())
    };
    // --help / -h anywhere: print the subcommand's usage and exit 0.
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage_text(cmd_of(&raw).as_deref()));
        std::process::exit(0);
    }
    let cmd = cmd_of(&raw);
    let cmd = cmd.as_deref();

    let mut positional = Vec::new();
    let mut machine = amd_phenom_ii();
    let mut machine_id = MachineId::Amd;
    let mut policy = Policy::SoftwareNt;
    let mut period = 1009;
    let mut scale = f64::NAN; // resolved per command below
    let mut exec = Exec::from_env();
    let mut addr = None;
    let mut sizes = vec![32 << 10, 256 << 10, 1 << 20, 8 << 20];
    let mut delta = f64::NAN;
    let serve_default = ServeConfig::default();
    let mut queue = serve_default.queue_depth;
    let mut budget_mb = serve_default.session_budget_bytes >> 20;
    let mut shards = serve_default.shards;
    let mut max_conns = serve_default.max_conns;
    let mut out = None;
    let mut trace = None;
    let mut nodes = 1;
    let gen_default = GenConfig::default();
    let mut seed = None;
    let mut sessions = None;
    let mut rounds = gen_default.rounds;
    let mut samples = gen_default.samples_per_batch;
    let load_default = LoadConfig::default();
    let mut rate = load_default.rate;
    let mut duration = load_default.duration;
    let mut mix = load_default.mix;
    let mut conns = load_default.conns;
    let mut drivers = load_default.drivers;
    let mut pipeline = load_default.pipeline;
    let mut zipf = load_default.zipf_s;
    let mut peers = Vec::new();
    let mut advertise = None;
    let mut ring_seed = None;
    let mut vnodes = None;
    let mut node = None;
    let mut ring_nodes = Vec::new();
    let mut drain_at = None;
    let mut join_at = None;
    let mut groups = None;
    let mut capacity = None;
    let mut size = None;
    let mut intensities = Vec::new();
    let split_list = |s: String| -> Vec<String> {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(String::from)
            .collect()
    };
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => {
                (machine, machine_id) = match it.next().as_deref() {
                    Some("amd") => (amd_phenom_ii(), MachineId::Amd),
                    Some("intel") => (intel_i7_2600k(), MachineId::Intel),
                    other => {
                        eprintln!("unknown machine {other:?}");
                        usage_err(cmd)
                    }
                }
            }
            "--policy" => {
                policy = match it.next().as_deref() {
                    Some("baseline") => Policy::Baseline,
                    Some("hw") => Policy::Hardware,
                    Some("sw") => Policy::Software,
                    Some("swnt") => Policy::SoftwareNt,
                    Some("sc") => Policy::StrideCentric,
                    Some("combined") => Policy::Combined,
                    other => {
                        eprintln!("unknown policy {other:?}");
                        usage_err(cmd)
                    }
                }
            }
            "--period" => {
                period = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--scale" => {
                scale = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--threads" => {
                exec = Exec::new(
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd)),
                )
            }
            "--addr" => addr = Some(it.next().unwrap_or_else(|| usage_err(cmd))),
            "--sizes" => {
                sizes = it
                    .next()
                    .as_deref()
                    .and_then(parse_sizes)
                    .unwrap_or_else(|| usage_err(cmd))
            }
            "--delta" => {
                delta = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--queue" => {
                queue = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--budget-mb" => {
                budget_mb =
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage_err(cmd))
            }
            "--max-conns" => {
                max_conns = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage_err(cmd))
            }
            "--rate" => {
                rate = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .unwrap_or_else(|| usage_err(cmd))
            }
            "--duration" => {
                duration = it
                    .next()
                    .as_deref()
                    .and_then(parse_duration)
                    .unwrap_or_else(|| usage_err(cmd))
            }
            "--mix" => {
                mix = match it.next().as_deref().map(str::parse) {
                    Some(Ok(m)) => m,
                    other => {
                        eprintln!(
                            "bad --mix {other:?} (submit-heavy|query-heavy|scan|scan-churn)"
                        );
                        usage_err(cmd)
                    }
                }
            }
            "--conns" => {
                conns = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--drivers" => {
                drivers =
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--pipeline" => {
                pipeline =
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--zipf" => {
                zipf = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .unwrap_or_else(|| usage_err(cmd))
            }
            "--out" => out = Some(it.next().unwrap_or_else(|| usage_err(cmd))),
            "--trace" => trace = Some(it.next().unwrap_or_else(|| usage_err(cmd))),
            "--nodes" => {
                // `repf ring set --nodes` takes a member list; everywhere
                // else (replay) it is a spawn count.
                let v = it.next().unwrap_or_else(|| usage_err(cmd));
                if cmd == Some("ring") {
                    ring_nodes = split_list(v);
                } else {
                    nodes = v.parse().ok().unwrap_or_else(|| usage_err(cmd));
                }
            }
            "--seed" => {
                seed = Some(
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd)),
                )
            }
            "--sessions" => {
                sessions = Some(
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd)),
                )
            }
            "--rounds" => {
                rounds = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--samples" => {
                samples =
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd))
            }
            "--peers" => {
                peers = split_list(it.next().unwrap_or_else(|| usage_err(cmd)));
            }
            "--advertise" => advertise = Some(it.next().unwrap_or_else(|| usage_err(cmd))),
            "--ring-seed" => {
                ring_seed = Some(
                    it.next()
                        .and_then(|s| {
                            let s = s.trim();
                            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                                None => s.parse().ok(),
                            }
                        })
                        .unwrap_or_else(|| usage_err(cmd)),
                )
            }
            "--vnodes" => {
                vnodes = Some(
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd)),
                )
            }
            "--node" => node = Some(it.next().unwrap_or_else(|| usage_err(cmd))),
            "--drain-at" => {
                drain_at = Some(
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd)),
                )
            }
            "--groups" => {
                groups = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&v: &u32| v > 0)
                        .unwrap_or_else(|| usage_err(cmd)),
                )
            }
            "--capacity" => {
                capacity = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&v: &u32| v > 0)
                        .unwrap_or_else(|| usage_err(cmd)),
                )
            }
            "--size" => {
                size = Some(
                    it.next()
                        .as_deref()
                        .and_then(parse_sizes)
                        .and_then(|v| (v.len() == 1).then(|| v[0]))
                        .unwrap_or_else(|| usage_err(cmd)),
                )
            }
            "--intensities" => {
                intensities = it
                    .next()
                    .and_then(|s| {
                        s.split(',')
                            .map(|p| p.trim().parse::<f64>().ok().filter(|v| v.is_finite()))
                            .collect::<Option<Vec<f64>>>()
                    })
                    .filter(|v| !v.is_empty())
                    .unwrap_or_else(|| usage_err(cmd))
            }
            "--join-at" => {
                join_at = Some(
                    it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage_err(cmd)),
                )
            }
            _ if a.starts_with("--") => {
                eprintln!("unknown flag {a}");
                usage_err(cmd)
            }
            _ => positional.push(a),
        }
    }
    if scale.is_nan() {
        scale = if cmd == Some("serve") {
            serve_default.refs_scale
        } else {
            0.5
        };
    }
    Args {
        positional,
        machine,
        machine_id,
        policy,
        period,
        scale,
        exec,
        addr,
        sizes,
        delta,
        queue,
        budget_mb,
        shards,
        max_conns,
        out,
        trace,
        nodes,
        seed,
        sessions,
        rounds,
        samples,
        rate,
        duration,
        mix,
        conns,
        drivers,
        pipeline,
        zipf,
        peers,
        advertise,
        ring_seed,
        vnodes,
        node,
        ring_nodes,
        drain_at,
        join_at,
        groups,
        capacity,
        size,
        intensities,
    }
}

fn bench(name: &str) -> BenchmarkId {
    BenchmarkId::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark '{name}'; see `repf list`");
            std::process::exit(2);
        })
}

fn opts(scale: f64) -> BuildOptions {
    BuildOptions {
        refs_scale: scale,
        ..Default::default()
    }
}

fn cmd_list() {
    println!("benchmarks (Table I analogs):");
    for id in BenchmarkId::all() {
        println!("  {id}");
    }
    println!("\nmachines (Table II):");
    for m in [amd_phenom_ii(), intel_i7_2600k()] {
        let h = &m.hierarchy;
        println!(
            "  {:<16} L1 {:>3} kB | L2 {:>3} kB | LLC {} MB | {:.1} GHz | peak {:.1} GB/s",
            m.name,
            h.l1.size_bytes >> 10,
            h.l2.size_bytes >> 10,
            h.llc.size_bytes >> 20,
            m.freq_ghz,
            m.peak_gb_per_s()
        );
    }
}

fn cmd_profile(a: &Args) {
    let id = bench(a.positional.get(1).unwrap_or_else(|| usage_err(Some("profile"))));
    let mut w = repf::workloads::build(id, &opts(a.scale * 5.0));
    let profile = Sampler::new(SamplerConfig {
        sample_period: a.period,
        line_bytes: 64,
        seed: 0xC11,
    })
    .profile(&mut w);
    println!("{id}: {} references profiled at 1-in-{}", profile.total_refs, a.period);
    println!(
        "  {} reuse samples, {} dangling (cold/no-reuse), {} stride samples",
        profile.reuse.len(),
        profile.dangling.len(),
        profile.strides.len()
    );
    println!(
        "  traps: {} (est. runtime overhead {:.1}% at 6000 ref-equivalents/trap)",
        profile.traps.total(),
        profile.traps.estimated_overhead(6000.0, profile.total_refs) * 100.0
    );
    let mut pcs = profile.sampled_pcs();
    pcs.truncate(12);
    println!("  sampled PCs: {pcs:?}");
}

fn cmd_analyze(a: &Args) {
    let id = bench(a.positional.get(1).unwrap_or_else(|| usage_err(Some("analyze"))));
    let plans = prepare(id, &a.machine, &opts(a.scale));
    println!(
        "{id} on {}: Δ = {:.1} cycles/memop, {} delinquent loads",
        a.machine.name,
        plans.delta,
        plans.analysis.delinquent.len()
    );
    for d in &plans.analysis.delinquent {
        println!(
            "  {}: MR(L1) {:.2} / MR(L2) {:.2} / MR(LLC) {:.2}, latency {:.0} cy",
            d.pc, d.mr_l1, d.mr_l2, d.mr_llc, d.avg_miss_latency
        );
    }
    println!("\n{}", render_plan(&plans.plan_nt));
    if !plans.analysis.rejected.is_empty() {
        println!("rejected: {:?}", plans.analysis.rejected);
    }
}

fn cmd_run(a: &Args) {
    let id = bench(a.positional.get(1).unwrap_or_else(|| usage_err(Some("run"))));
    let plans = prepare(id, &a.machine, &opts(a.scale));
    let out = run_policy(id, &a.machine, &plans, a.policy, &opts(a.scale));
    let base = &plans.baseline;
    println!("{id} on {} under {}:", a.machine.name, a.policy);
    println!(
        "  cycles {} (baseline {}) → speedup {:+.1}%",
        out.cycles,
        base.cycles,
        (base.cycles as f64 / out.cycles as f64 - 1.0) * 100.0
    );
    println!(
        "  off-chip reads {:.1} MB ({:+.1}% vs baseline), bandwidth {:.2} GB/s",
        out.stats.dram_read_bytes as f64 / 1e6,
        (out.stats.dram_read_bytes as f64 / base.stats.dram_read_bytes.max(1) as f64 - 1.0)
            * 100.0,
        a.machine.gb_per_s(out.stats.dram_total_bytes(), out.cycles)
    );
    println!(
        "  L1 miss ratio {:.3} (baseline {:.3}), {} sw prefetches, accuracy {}",
        out.stats.l1_miss_ratio(),
        base.stats.l1_miss_ratio(),
        out.sw_prefetches,
        out.stats
            .prefetch_accuracy()
            .map(|x| format!("{:.0}%", x * 100.0))
            .unwrap_or_else(|| "-".into())
    );
}

fn cmd_mix(a: &Args) {
    if a.positional.len() != 5 {
        usage_err(Some("mix"));
    }
    let apps = [
        bench(&a.positional[1]),
        bench(&a.positional[2]),
        bench(&a.positional[3]),
        bench(&a.positional[4]),
    ];
    eprintln!(
        "(building per-benchmark plans once on {} worker thread(s)...)",
        a.exec.threads()
    );
    let cache = PlanCache::build_with(&a.machine, &opts(a.scale), &a.exec);
    let spec = MixSpec { apps };
    let base = run_mix(&spec, &a.machine, Policy::Baseline, &cache, [InputSet::Ref; 4], a.scale);
    let run = run_mix(&spec, &a.machine, a.policy, &cache, [InputSet::Ref; 4], a.scale);
    let speedups = run.speedups_vs(&base);
    println!("mix on {} under {}:", a.machine.name, a.policy);
    for (i, id) in apps.iter().enumerate() {
        println!("  {:<12} {:+.1}%", id.name(), (speedups[i] - 1.0) * 100.0);
    }
    println!(
        "  throughput {:+.1}% | traffic {:+.1}% | bandwidth {:.1} GB/s",
        (weighted_speedup(&speedups) - 1.0) * 100.0,
        (run.total_read_bytes() as f64 / base.total_read_bytes().max(1) as f64 - 1.0) * 100.0,
        run.avg_bandwidth_gbps(&a.machine)
    );
}

fn cmd_serve(a: &Args) {
    let cfg = ServeConfig {
        addr: a.addr.clone().unwrap_or_else(|| "127.0.0.1:4590".into()),
        threads: a.exec.threads(),
        queue_depth: a.queue,
        session_budget_bytes: a.budget_mb << 20,
        shards: a.shards,
        max_conns: a.max_conns,
        refs_scale: a.scale,
        peers: a.peers.clone(),
        advertise: a.advertise.clone(),
        cluster_seed: a.ring_seed.unwrap_or(DEFAULT_RING_SEED),
        vnodes: a.vnodes.unwrap_or(DEFAULT_VNODES),
        ..ServeConfig::default()
    };
    let clustered = !cfg.peers.is_empty();
    let handle = repf::serve::start(cfg).unwrap_or_else(|e| {
        eprintln!("bind failed: {e}");
        std::process::exit(1);
    });
    // First stdout line is machine-readable: scripts parse the port.
    println!("repf-serve listening on {}", handle.addr());
    if clustered {
        eprintln!("cluster: ring over peers + self installed at epoch 1");
    }
    std::io::stdout().flush().ok();
    handle.join();
    eprintln!("repf-serve: drained and stopped");
}

fn query_target(spec: &str) -> Target {
    match spec.strip_prefix("session:") {
        Some(name) => Target::Session(name.to_string()),
        None => Target::Benchmark(bench(spec)),
    }
}

fn cmd_query(a: &Args) {
    let addr = a.addr.as_deref().unwrap_or_else(|| {
        eprintln!("query needs --addr HOST:PORT");
        usage_err(Some("query"))
    });
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("connect to {addr} failed: {e}");
        std::process::exit(1);
    });
    let fail = |e: ClientError| -> ! {
        eprintln!("query failed: {e}");
        std::process::exit(1);
    };
    let what = a.positional.get(1).map(String::as_str);
    match what {
        Some("ping") => {
            client.ping().unwrap_or_else(|e| fail(e));
            println!("pong");
        }
        Some("mrc") => {
            let target =
                query_target(a.positional.get(2).unwrap_or_else(|| usage_err(Some("query"))));
            let ratios =
                client.query_mrc(target, a.sizes.clone()).unwrap_or_else(|e| fail(e));
            for (size, r) in a.sizes.iter().zip(&ratios) {
                println!("{:>12} B  miss ratio {:.6}", size, r);
            }
        }
        Some("pcmrc") => {
            let target =
                query_target(a.positional.get(2).unwrap_or_else(|| usage_err(Some("query"))));
            let pc: u32 = a
                .positional
                .get(3)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage_err(Some("query")));
            match client
                .query_pc_mrc(target, pc, a.sizes.clone())
                .unwrap_or_else(|e| fail(e))
            {
                None => println!("pc {pc}: no samples"),
                Some(ratios) => {
                    for (size, r) in a.sizes.iter().zip(&ratios) {
                        println!("pc {pc} {:>12} B  miss ratio {:.6}", size, r);
                    }
                }
            }
        }
        Some("plan") => {
            let target =
                query_target(a.positional.get(2).unwrap_or_else(|| usage_err(Some("query"))));
            let plan = client
                .query_plan(target, a.machine_id, a.delta)
                .unwrap_or_else(|e| fail(e));
            println!("delta {:.3} cycles/memop, {} directives", plan.delta, plan.directives.len());
            for d in &plan.directives {
                println!(
                    "  pc {:>6}  stride {:>6}  distance {:>8} B  {}",
                    d.pc,
                    d.stride,
                    d.distance_bytes,
                    if d.nta { "non-temporal" } else { "temporal" }
                );
            }
        }
        Some("stats") => {
            for (k, v) in client.stats().unwrap_or_else(|e| fail(e)) {
                println!("{k} = {v}");
            }
        }
        Some("shutdown") => {
            client.shutdown_server().unwrap_or_else(|e| fail(e));
            println!("server is shutting down");
        }
        _ => usage_err(Some("query")),
    }
}

fn cmd_corun(a: &Args) {
    let addr = a.addr.as_deref().unwrap_or_else(|| {
        eprintln!("corun needs --addr HOST:PORT");
        usage_err(Some("corun"))
    });
    let sessions: Vec<String> = a.positional[1..].to_vec();
    if sessions.is_empty() {
        eprintln!("corun needs at least one session name");
        usage_err(Some("corun"));
    }
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("connect to {addr} failed: {e}");
        std::process::exit(1);
    });
    let (per_session, throughput) = client
        .co_run(sessions, a.sizes.clone(), a.intensities.clone())
        .unwrap_or_else(|e| {
            eprintln!("corun failed: {e}");
            std::process::exit(1);
        });
    println!(
        "co-run of {} session(s) at {} cache size(s):",
        per_session.len(),
        a.sizes.len()
    );
    for (name, ratios) in &per_session {
        for (size, r) in a.sizes.iter().zip(ratios) {
            println!("  {name:<20} {size:>12} B  predicted miss ratio {r:.6}");
        }
    }
    for (size, t) in a.sizes.iter().zip(&throughput) {
        println!(
            "  mix throughput estimate at {:>12} B: {:.3} (of {} solo)",
            size,
            t,
            per_session.len()
        );
    }
}

fn cmd_place(a: &Args) {
    let addr = a.addr.as_deref().unwrap_or_else(|| {
        eprintln!("place needs --addr HOST:PORT");
        usage_err(Some("place"))
    });
    let sessions: Vec<String> = a.positional[1..].to_vec();
    if sessions.is_empty() {
        eprintln!("place needs at least one session name");
        usage_err(Some("place"));
    }
    let (Some(groups), Some(capacity)) = (a.groups, a.capacity) else {
        eprintln!("place needs --groups G and --capacity K");
        usage_err(Some("place"));
    };
    let size_bytes = a.size.unwrap_or(8 << 20);
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("connect to {addr} failed: {e}");
        std::process::exit(1);
    });
    let (placement, total, throughput, nodes_explored) = client
        .place(sessions.clone(), groups, capacity, size_bytes, a.intensities.clone())
        .unwrap_or_else(|e| {
            eprintln!("place failed: {e}");
            std::process::exit(1);
        });
    println!(
        "best placement of {} session(s) into {groups} group(s) of <= {capacity} at {size_bytes} B:",
        sessions.len()
    );
    for (g, members) in placement.iter().enumerate() {
        println!("  group {g}: {}", members.join(", "));
    }
    println!("  aggregate predicted miss ratio {total:.6}");
    println!("  mix throughput estimate       {throughput:.3}");
    println!("  search: {nodes_explored} nodes explored");
}

/// `RingGet` against one node, unwrapped: what membership does it
/// currently believe in?
fn fetch_ring_info(addr: &str) -> (u64, u64, u32, Vec<String>, String) {
    let mut c = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("connect to {addr} failed: {e}");
        std::process::exit(1);
    });
    match c.call_any(&Request::RingGet) {
        Ok(Response::RingInfo {
            epoch,
            seed,
            vnodes,
            nodes,
            self_addr,
        }) => (epoch, seed, vnodes, nodes, self_addr),
        Ok(_) => {
            eprintln!("{addr} answered RingGet with an unexpected response type");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("RingGet against {addr} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn print_change_report(report: &repf::serve::RingChangeReport) {
    println!(
        "ring epoch {} installed on {} node(s), {} session(s) migrated",
        report.epoch,
        report.acks.len(),
        report.migrated()
    );
    for ack in &report.acks {
        println!("  {}: epoch {} ({} migrated)", ack.addr, ack.epoch, ack.migrated);
    }
}

fn cmd_ring(a: &Args) {
    let contact = |what: &str| -> &str {
        a.addr.as_deref().unwrap_or_else(|| {
            eprintln!("ring {what} needs --addr HOST:PORT");
            usage_err(Some("ring"))
        })
    };
    let apply = |contacts: &[String], spec: RingSpec| {
        let report = apply_membership(contacts, &spec).unwrap_or_else(|e| {
            eprintln!("membership change failed: {e}");
            std::process::exit(1);
        });
        print_change_report(&report);
    };
    match a.positional.get(1).map(String::as_str) {
        Some("status") => {
            let addr = contact("status");
            let (epoch, seed, vnodes, nodes, self_addr) = fetch_ring_info(addr);
            if nodes.is_empty() {
                println!("{addr} ({self_addr}): no ring installed (epoch {epoch})");
                return;
            }
            println!(
                "{addr} ({self_addr}): epoch {epoch}, seed {seed:#x}, {vnodes} vnodes, {} member(s)",
                nodes.len()
            );
            let ring = Ring::new(seed, vnodes, nodes.clone());
            for (i, n) in nodes.iter().enumerate() {
                println!("  {n}  share {:.1}%", ring.share(i) * 100.0);
            }
        }
        Some("set") => {
            if a.ring_nodes.is_empty() {
                eprintln!("ring set needs --nodes H:P[,H:P...]");
                usage_err(Some("ring"));
            }
            // Contact the new member list plus the current members known
            // to --addr (so nodes being dropped still migrate out).
            let mut contacts = a.ring_nodes.clone();
            if let Some(addr) = a.addr.as_deref() {
                let (_, _, _, members, _) = fetch_ring_info(addr);
                contacts.extend(members);
            }
            apply(
                &contacts,
                RingSpec {
                    seed: a.ring_seed.unwrap_or(DEFAULT_RING_SEED),
                    vnodes: a.vnodes.unwrap_or(DEFAULT_VNODES),
                    nodes: a.ring_nodes.clone(),
                },
            );
        }
        Some(sub @ ("join" | "drain")) => {
            let addr = contact(sub);
            let node = a.node.as_deref().unwrap_or_else(|| {
                eprintln!("ring {sub} needs --node HOST:PORT");
                usage_err(Some("ring"))
            });
            let (epoch, seed, vnodes, mut members, self_addr) = fetch_ring_info(addr);
            if members.is_empty() && epoch == 0 {
                // The contact has no ring yet: it becomes the first member.
                members.push(if self_addr.is_empty() {
                    addr.to_string()
                } else {
                    self_addr
                });
            }
            let mut contacts = members.clone();
            if sub == "join" {
                if !members.iter().any(|m| m == node) {
                    members.push(node.to_string());
                }
                contacts.push(node.to_string());
            } else {
                members.retain(|m| m != node);
                if members.is_empty() {
                    eprintln!("refusing to drain the last member; use shutdown instead");
                    std::process::exit(1);
                }
            }
            apply(
                &contacts,
                RingSpec {
                    seed: a.ring_seed.unwrap_or(seed),
                    vnodes: a.vnodes.unwrap_or(vnodes),
                    nodes: members,
                },
            );
        }
        _ => usage_err(Some("ring")),
    }
}

fn cmd_load(a: &Args) {
    let addr = a.addr.as_deref().unwrap_or_else(|| {
        eprintln!("load needs --addr HOST:PORT[,HOST:PORT...]");
        usage_err(Some("load"))
    });
    let addrs: Vec<String> = addr
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(String::from)
        .collect();
    if addrs.is_empty() {
        usage_err(Some("load"));
    }
    let defaults = LoadConfig::default();
    let cfg = LoadConfig {
        seed: a.seed.unwrap_or(defaults.seed),
        mix: a.mix,
        rate: a.rate,
        duration: a.duration,
        conns: a.conns,
        drivers: a.drivers,
        pipeline: a.pipeline,
        sessions: a.sessions.unwrap_or(defaults.sessions),
        zipf_s: a.zipf,
        ring_seed: a.ring_seed.unwrap_or(defaults.ring_seed),
    };
    let report = run_load(&addrs, &cfg).unwrap_or_else(|e| {
        eprintln!("load failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "loadgen: sent {} completed {} busy {} unknown {} errors {} \
         ({:.0}/s achieved of {:.0}/s target)",
        report.sent,
        report.completed,
        report.busy,
        report.unknown,
        report.errors,
        report.achieved_rate(),
        cfg.rate,
    );
    if let Some(hr) = report.session_hit_ratio() {
        eprintln!("  session hit ratio: {hr:.4} ({} hits)", report.query_hits);
    }
    if let Some(s) = report.server {
        eprintln!(
            "  server: evictions {} | model cache {}/{} hit/miss | admission {}/{} acc/rej",
            s.evictions,
            s.model_cache_hits,
            s.model_cache_misses,
            s.admission_accepted,
            s.admission_rejected,
        );
    }
    eprintln!(
        "  intended p50/p99/p999: {}/{}/{} us | service p50/p99: {}/{} us | max send lag {} us",
        report.intended.quantile_us(0.50),
        report.intended.quantile_us(0.99),
        report.intended.quantile_us(0.999),
        report.service.quantile_us(0.50),
        report.service.quantile_us(0.99),
        report.max_send_lag_us,
    );
    let json = report.to_json().render();
    println!("{json}");
    if let Some(path) = a.out.as_deref() {
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("writing {path} failed: {e}");
            std::process::exit(1);
        }
    }
    if report.errors > 0 {
        std::process::exit(1);
    }
}

fn cmd_record(a: &Args) {
    let out = a.out.as_deref().unwrap_or_else(|| {
        eprintln!("record needs --out FILE");
        usage_err(Some("record"))
    });
    let gen_default = GenConfig::default();
    let cfg = GenConfig {
        seed: a.seed.unwrap_or(gen_default.seed),
        sessions: a.sessions.unwrap_or(gen_default.sessions),
        rounds: a.rounds,
        samples_per_batch: a.samples,
    };
    let trace = generate_trace(&cfg);
    trace.save(out).unwrap_or_else(|e| {
        eprintln!("writing {out} failed: {e}");
        std::process::exit(1);
    });
    println!(
        "recorded {} requests ({} sessions x {} rounds, seed {:#x}) -> {out}",
        trace.len(),
        cfg.sessions,
        cfg.rounds,
        cfg.seed
    );
}

fn cmd_replay(a: &Args) {
    let path = a.trace.as_deref().unwrap_or_else(|| {
        eprintln!("replay needs --trace FILE");
        usage_err(Some("replay"))
    });
    let trace = Trace::load(path).unwrap_or_else(|e| {
        eprintln!("loading {path} failed: {e}");
        std::process::exit(1);
    });
    let rcfg = ReplayConfig::default();
    let report = match a.addr.as_deref() {
        // Drive already-running daemons (comma-separated addresses).
        Some(list) => {
            let addrs: Vec<std::net::SocketAddr> = list
                .split(',')
                .map(|s| {
                    s.trim().parse().unwrap_or_else(|e| {
                        eprintln!("bad replay address '{s}': {e}");
                        std::process::exit(2);
                    })
                })
                .collect();
            replay_against(&addrs, &trace, &rcfg)
        }
        // Spawn loopback nodes with the serve flags this command got.
        None => {
            let serve_cfg = ServeConfig {
                threads: a.exec.threads(),
                queue_depth: a.queue,
                session_budget_bytes: a.budget_mb << 20,
                shards: a.shards,
                refs_scale: a.scale,
                ..ServeConfig::default()
            };
            if a.drain_at.is_some() || a.join_at.is_some() {
                // Live-migration replay: a real ring plus mid-trace churn.
                // The digest must come out identical to the plain run.
                let mut churn = Vec::new();
                if let Some(at) = a.drain_at {
                    churn.push(ChurnEvent {
                        at,
                        change: RingChange::Drain(a.nodes.saturating_sub(1)),
                    });
                }
                if let Some(at) = a.join_at {
                    churn.push(ChurnEvent {
                        at,
                        change: RingChange::Join,
                    });
                }
                churn.sort_by_key(|e| e.at);
                replay_clustered(a.nodes, &trace, &serve_cfg, &rcfg, &churn)
            } else {
                replay_spawned(a.nodes, &trace, &serve_cfg, &rcfg)
            }
        }
    };
    let report = report.unwrap_or_else(|e| {
        eprintln!("replay failed: {e}");
        std::process::exit(1);
    });
    println!(
        "replayed {} requests over {} node(s): digest {:#018x}, divergences {}",
        report.requests,
        report.per_node.len(),
        report.digest,
        report.divergences.len()
    );
    for (i, n) in report.per_node.iter().enumerate() {
        println!("  node {i}: {n} requests");
    }
    if report.skipped > 0 {
        println!("  skipped {} shutdown record(s)", report.skipped);
    }
    if !report.is_clean() {
        for d in &report.divergences {
            eprintln!("{d}");
        }
        let repro = format!("{path}.diverged");
        match report.divergences[0].prefix_trace().save(&repro) {
            Ok(()) => eprintln!("minimal offending prefix written to {repro}"),
            Err(e) => eprintln!("could not write {repro}: {e}"),
        }
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let start = std::time::Instant::now();
    match args.positional.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("profile") => cmd_profile(&args),
        Some("analyze") => cmd_analyze(&args),
        Some("run") => cmd_run(&args),
        Some("mix") => cmd_mix(&args),
        Some("serve") => cmd_serve(&args),
        Some("query") => cmd_query(&args),
        Some("corun") => cmd_corun(&args),
        Some("place") => cmd_place(&args),
        Some("ring") => cmd_ring(&args),
        Some("load") => cmd_load(&args),
        Some("record") => cmd_record(&args),
        Some("replay") => cmd_replay(&args),
        other => usage_err(other),
    }
    eprintln!("[time] total: {:.2}s", start.elapsed().as_secs_f64());
}
