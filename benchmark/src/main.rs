//! The repo benchmark (README.md): one workload per process, the
//! program driven through its public functions only, from this one
//! thread and at most one TCP connection.
//!
//! ```sh
//! optchain-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                    [--smoke] [--out DIR]
//! optchain-benchmark --catalog        # print BENCHMARK.json
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only if every operation and every output check succeeded.

mod catalog;
mod check;
mod drive;
mod node;
mod rungs;
mod stat;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use optchain_core::{Router, SegmentWal, ShardId};
use optchain_utxo::Transaction;
use optchain_workload::{generate, FlashCrowdEpisode, HotSpotConfig, SpamEpisode, WorkloadConfig};

use catalog::{MetricDef, BATCH, END_TO_END, K, PER_LAYER, WORKLOADS};
use node::{Acks, Kind, Node, NodeOptions, Stream};
use trace::Span;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Latency limit of `driver.slo_rate_tps`, on the paced p99.
const SLO_P99_US: f64 = 10_000.0;
/// A paced run whose generator ran later than this (p99) measured the
/// generator, not the node, and says so on stderr. It is a warning, not
/// a failed operation: the lateness is the shared box starving this
/// thread, it only ever inflates a latency timed from its due instant,
/// and the node answered every request correctly.
const MAX_SCHED_LAG_P99_US: f64 = 1_000.0;

/// The metrics one run produced, checked against the catalogue.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    fn slot(&self, name: &str) -> usize {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let slot = self.slot(name);
        self.values[slot] = Some(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[self.slot(name)]
            .unwrap_or_else(|| panic!("metric {name} read before it was set"))
    }

    /// Metrics of layers this workload does not exercise read 0.
    fn zero_unset(&mut self) {
        for value in &mut self.values {
            value.get_or_insert(0.0);
        }
    }
}

struct Config {
    kind: Kind,
    workload: &'static catalog::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Stream length and untimed warm-up prefix, in transactions.
    stream_txs: usize,
    warmup_txs: usize,
    /// Prefix the ladder rungs run over.
    rung_txs: usize,
    out: PathBuf,
}

impl Config {
    fn warm_reqs(&self) -> usize {
        self.warmup_txs / BATCH
    }

    fn wal_dir(&self) -> PathBuf {
        self.out
            .join(format!("wal-{}-{}", self.workload.name, std::process::id()))
    }

    fn rate_rps(&self) -> f64 {
        self.workload.rate_tps / BATCH as f64
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: optchain-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--out DIR] | --catalog\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Config {
    let mut workload = None;
    let mut seed = catalog::DEFAULT_SEED;
    let mut seconds = catalog::RUN_SECONDS as f64;
    let mut traced = false;
    let mut smoke = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--catalog" => {
                print!("{}", catalog::manifest_json());
                std::process::exit(0);
            }
            "--workload" => workload = Some(value()),
            "--seed" => seed = parse_u64(&value()).unwrap_or_else(|| usage()),
            "--seconds" => {
                seconds = value().parse().unwrap_or_else(|_| usage());
                if !(1.0..=60.0).contains(&seconds) {
                    usage();
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                traced = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    let name = workload.unwrap_or_else(|| usage());
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) else {
        usage()
    };
    let (stream_txs, warmup_txs, rung_txs) = if smoke {
        (100_000, 10_000, 50_000)
    } else {
        (2_000_000, 200_000, 400_000)
    };
    Config {
        kind: workload.kind,
        workload,
        seed,
        seconds: if smoke { seconds.min(2.0) } else { seconds },
        traced,
        stream_txs,
        warmup_txs,
        rung_txs,
        out,
    }
}

/// The workload's generator configuration. Episode positions are shares
/// of the stream so the smoke size keeps every phase: hot-spot from
/// 10 %, spam sweeps over 50–60 %, flash crowd over 75–80 %.
fn stream_config(cfg: &Config) -> WorkloadConfig {
    let base = WorkloadConfig::bitcoin_like().with_seed(cfg.seed);
    if cfg.kind != Kind::HotspotFeedback {
        return base;
    }
    let at = |share: f64| (cfg.stream_txs as f64 * share) as usize;
    base.with_hotspot(HotSpotConfig {
        hubs: 4,
        p_hot: 0.5,
        start: at(0.10),
    })
    .with_spam(SpamEpisode {
        start: at(0.50),
        len: at(0.10),
        sweep_inputs: 40,
        sweep_probability: 0.3,
    })
    .with_flash_crowd(FlashCrowdEpisode {
        start: at(0.75),
        len: at(0.05),
        hubs: 2,
        p_hot: 0.8,
    })
}

/// Generates the workload's inputs; returns them with the seconds it took.
fn make_stream(cfg: &Config) -> (Stream, f64) {
    let started = Instant::now();
    let txs: std::sync::Arc<[Transaction]> = generate(stream_config(cfg), cfg.stream_txs).into();
    check::assert_ids_are_positions(&txs);
    let items = if cfg.kind == Kind::ServiceLoopback {
        txs.iter().map(|tx| (tx.id(), tx.input_txids())).collect()
    } else {
        Vec::new()
    };
    (Stream { txs, items }, started.elapsed().as_secs_f64())
}

/// A node ready for its first timed request: built, connected, and the
/// warm-up prefix placed.
struct Setup {
    node: Node,
    acks: Acks,
    /// Build + connect + warm-up, seconds.
    seconds: f64,
    /// `VmRSS` just before the node was built (stream resident).
    rss_before_kib: u64,
    /// The program's cross-placement counter after warm-up (in process).
    cross_after_warmup: u64,
}

fn set_up(cfg: &Config, stream: &Stream, options: NodeOptions) -> Result<Setup, String> {
    let started = Instant::now();
    let rss_before_kib = stat::vm_rss_kib();
    let mut node = Node::build(cfg.kind, &cfg.wal_dir(), options);
    let mut acks = Acks::new(stream.txs.len());
    drive::closed_loop(&mut node, stream, &mut acks, 0..cfg.warm_reqs())?;
    let cross_after_warmup = match &node {
        Node::Embedded(n) => n.router.cross_placed(),
        Node::Service(_) => 0,
    };
    Ok(Setup {
        node,
        acks,
        seconds: started.elapsed().as_secs_f64(),
        rss_before_kib,
        cross_after_warmup,
    })
}

/// What a finished saturate pass leaves for the checks.
struct Pass {
    acks: Acks,
    /// Seconds per slice of the timed replies (`drive::SEGMENTS` of them).
    segments: Vec<f64>,
    digest: u64,
    /// Cross-shard placements among the timed transactions.
    cross_timed: u64,
    timed_txs: usize,
    rss_growth_kib: u64,
    disk_peak_bytes: u64,
    /// `recover` wall seconds (durable node only).
    recovery_s: f64,
}

impl Pass {
    fn seconds(&self) -> f64 {
        self.segments.iter().sum()
    }

    fn tps(&self) -> f64 {
        self.timed_txs as f64 / self.seconds()
    }
}

/// Runs the timed closed loop on a set-up node, then the pass's output
/// checks: every request answered exactly once with a shard `< k`, zero
/// sheds, and the program's cross counter equal to the harness's count.
fn saturate(cfg: &Config, stream: &Stream, setup: Setup) -> Result<(Pass, Node), String> {
    let Setup {
        mut node,
        mut acks,
        rss_before_kib,
        cross_after_warmup,
        ..
    } = setup;
    let reqs = cfg.warm_reqs()..stream.requests();
    let segments = drive::closed_loop(&mut node, stream, &mut acks, reqs)?;
    let rss_growth_kib = stat::vm_rss_kib().saturating_sub(rss_before_kib);
    let timed = cfg.warmup_txs..stream.txs.len();

    acks.check(
        acks.shards.iter().all(|&s| s < K),
        "every transaction answered with a shard < k",
    );
    if let Node::Service(service) = &node {
        let sheds = service.server.metrics().shed_total();
        acks.check(
            sheds == 0 && service.sheds_seen == 0,
            "zero sheds in saturate",
        );
    }
    let cross_timed = if cfg.kind == Kind::HotspotFeedback {
        // Hubs migrate between shards here, so where a parent "sits"
        // changes under the harness's feet: the program's counter is
        // the value (and must repeat exactly across passes).
        node.cross_placed(0) - cross_after_warmup
    } else {
        let window = cfg.kind.window();
        let all = check::cross_placements(&stream.txs, &acks.shards, window, 0..stream.txs.len());
        let program = node.cross_placed(all);
        acks.check(
            program == all,
            &format!("program cross_placed {program} == harness count {all}"),
        );
        check::cross_placements(&stream.txs, &acks.shards, window, timed.clone())
    };
    Ok((
        Pass {
            digest: stat::fnv1a(&acks.shards),
            disk_peak_bytes: node.disk_peak_bytes(),
            acks,
            segments,
            cross_timed,
            timed_txs: timed.len(),
            rss_growth_kib,
            recovery_s: 0.0,
        },
        node,
    ))
}

/// Drops the durable node, recovers from its directory, and checks the
/// recovered router against the acks. Returns the recovered router.
fn crash_and_recover(cfg: &Config, pass: &mut Pass, node: Node) -> Option<Router> {
    node.finish();
    let started = Instant::now();
    let recovered = {
        let _span = trace::span("router.recover");
        SegmentWal::open(cfg.wal_dir()).and_then(|wal| Router::recover(Box::new(wal)))
    };
    pass.recovery_s = started.elapsed().as_secs_f64();
    match recovered {
        Ok(router) => {
            let view = router.assignments();
            let live_equal = (view.horizon()..view.len())
                .all(|id| view.get_index(id) == Some(pass.acks.shards[id]));
            pass.acks.check(
                view.len() == pass.acks.shards.len() && live_equal,
                "recovered router covers the stream and every live assignment equals the acked one",
            );
            Some(router)
        }
        Err(e) => {
            pass.acks.check(false, &format!("Router::recover: {e}"));
            None
        }
    }
}

/// The in-RAM windowed `Router` over the same stream: the 1-worker
/// service and the WAL-backed router must both equal it bit for bit.
/// Returns the oracle's L2S memo hit ratio.
fn oracle_check(cfg: &Config, stream: &Stream, pass: &mut Pass) -> f64 {
    let mut oracle = node::oracle_router();
    let mut out: Vec<ShardId> = Vec::with_capacity(BATCH);
    let mut shards = Vec::with_capacity(stream.txs.len());
    for batch in stream.txs.chunks(BATCH) {
        oracle.submit_batch(batch, &mut out);
        shards.extend(out.iter().map(|s| s.0));
    }
    pass.acks.check(
        stat::fnv1a(&shards) == pass.digest,
        &format!(
            "{} digest == in-RAM windowed Router oracle",
            cfg.workload.name
        ),
    );
    let (hits, misses) = oracle.l2s_memo_stats();
    hits as f64 / (hits + misses).max(1) as f64
}

struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn absorb(&mut self, acks: &Acks) {
        self.attempted += acks.attempted;
        self.failed += acks.failed;
    }
}

/// Saturate passes per untraced run.
const PASSES: usize = 3;

fn untraced_run(cfg: &Config, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let (stream, gen_seconds) = make_stream(cfg);
    let mut setup_seconds = Vec::new();

    // saturate, pass 1: memory is read on this one (the process is
    // fresh), and the expensive checks run on it.
    let setup = set_up(cfg, &stream, NodeOptions::default())?;
    setup_seconds.push(setup.seconds);
    let (mut first, node) = saturate(cfg, &stream, setup)?;
    if cfg.kind == Kind::DurableWindow {
        crash_and_recover(cfg, &mut first, node);
    } else {
        node.finish();
    }
    if cfg.kind.window().is_some() {
        oracle_check(cfg, &stream, &mut first);
    }
    tally.absorb(&first.acks);
    eprintln!(
        "saturate pass 1: {:.3} s, {:.0} tx/s",
        first.seconds(),
        first.tps()
    );
    let mut fastest = first.segments.clone();

    // Further passes, each on a fresh node, must repeat pass 1 exactly.
    for pass in 2..=PASSES {
        let setup = set_up(cfg, &stream, NodeOptions::default())?;
        setup_seconds.push(setup.seconds);
        let (mut again, node) = saturate(cfg, &stream, setup)?;
        node.finish();
        again.acks.check(
            again.digest == first.digest && again.cross_timed == first.cross_timed,
            &format!("pass {pass} assignment digest and cross count equal pass 1"),
        );
        tally.absorb(&again.acks);
        eprintln!(
            "saturate pass {pass}: {:.3} s, {:.0} tx/s",
            again.seconds(),
            again.tps()
        );
        for (best, seconds) in fastest.iter_mut().zip(&again.segments) {
            *best = best.min(*seconds);
        }
    }

    // paced
    let (paced, mut setup) = paced_phase(cfg, &stream, 1.0, cfg.seconds / 2.0)?;
    setup.node.finish();
    setup_seconds.push(setup.seconds);
    let placed = 0..(cfg.warm_reqs() + paced.latency_us.len()) * BATCH;
    setup.acks.check(
        setup.acks.shards[placed.clone()] == first.acks.shards[placed],
        "paced assignments equal the saturate pass's on the same positions",
    );
    let lag_p99 = stat::quantile(&paced.lag_us, 0.99);
    if lag_p99 > MAX_SCHED_LAG_P99_US {
        eprintln!(
            "WARNING: generator lag p99 {lag_p99:.1} us exceeds {MAX_SCHED_LAG_P99_US} us: \
             the ack latencies of this run are the generator's, not the node's"
        );
    }
    tally.absorb(&setup.acks);
    eprintln!(
        "paced: {} requests at {:.0} tx/s, completion share {:.4}, lag p99 {:.1} us; latency us \
         p50 {:.0} p75 {:.0} p90 {:.0} p95 {:.0} p99 {:.0} p99.9 {:.0} max {:.0}",
        paced.latency_us.len(),
        cfg.workload.rate_tps,
        paced.completion_share,
        lag_p99,
        paced.p(0.5),
        paced.p(0.75),
        paced.p(0.9),
        paced.p(0.95),
        paced.p(0.99),
        paced.p(0.999),
        paced.p(1.0),
    );

    m.set("setup_s", gen_seconds + stat::median(setup_seconds));
    m.set(
        "placed_tps",
        first.timed_txs as f64 / fastest.iter().sum::<f64>(),
    );
    m.set(
        "ack_p50_us",
        paced.quiet_second_median(cfg.rate_rps() as usize),
    );
    m.set(
        "cross_ratio",
        first.cross_timed as f64 / first.timed_txs as f64,
    );
    m.set(
        "shard_imbalance",
        check::shard_imbalance(&first.acks.shards[cfg.warmup_txs..]),
    );
    m.set("node_rss_mib", first.rss_growth_kib as f64 / 1024.0);
    Ok(())
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

fn named<'a>(spans: &'a [Span], name: &'a str, from_req: u32) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| s.name == name && s.request != trace::NONE && s.request >= from_req)
}

fn sum_ns<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.map(|s| s.dur_ns() as f64).sum()
}

/// Per-layer metrics read off the traced pass's spans (timed requests
/// only, so warm-up does not dilute them).
fn span_metrics(cfg: &Config, spans: &[Span], pass: &Pass, m: &mut Metrics) {
    let from = cfg.warm_reqs() as u32;
    let txs = pass.timed_txs as f64;
    let elapsed_ns = pass.seconds() * 1e9;

    let feeds: Vec<&Span> = named(spans, "router.feed_telemetry", from).collect();
    if !feeds.is_empty() {
        m.set(
            "core.l2s.feed_us_per_call",
            sum_ns(feeds.iter().copied()) / feeds.len() as f64 / 1e3,
        );
    }

    if cfg.kind == Kind::DurableWindow {
        let submit_ns = sum_ns(named(spans, "router.submit_batch", from));
        let appends: Vec<&Span> = named(spans, "storage.append", from).collect();
        let append_count: f64 = appends.iter().map(|s| s.count as f64).sum();
        let append_ns = sum_ns(appends.iter().copied());
        let append_bytes: f64 = appends.iter().map(|s| s.bytes as f64).sum();
        let mut flush_ms: Vec<f64> = named(spans, "storage.flush", from)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        stat::sort(&mut flush_ms);
        let fulls = named(spans, "storage.put_checkpoint", from).count();
        let ckpts: Vec<&Span> = named(spans, "storage.put_checkpoint", from)
            .chain(named(spans, "storage.put_checkpoint_delta", from))
            .collect();
        let ckpt_bytes: f64 = ckpts.iter().map(|s| s.bytes as f64).sum();
        let ckpt_ns = sum_ns(ckpts.iter().copied());
        let gcs: Vec<&Span> = named(spans, "storage.gc", from).collect();
        let storage_ns =
            append_ns + flush_ms.iter().sum::<f64>() * 1e6 + ckpt_ns + sum_ns(gcs.iter().copied());

        m.set("core.durable.submit_ns_per_tx", submit_ns / txs);
        let windowed_ns =
            m.get("core.router.submit_ns_per_tx") + m.get("core.router.window_tax_ns_per_tx");
        m.set(
            "core.durable.self_ns_per_tx",
            (submit_ns - storage_ns) / txs - windowed_ns,
        );
        m.set(
            "core.durable.stall_ms_max",
            named(spans, "router.submit_batch", from)
                .map(|s| s.dur_ns())
                .max()
                .unwrap_or(0) as f64
                / 1e6,
        );
        m.set("storage.append_count", append_count);
        m.set(
            "storage.append_ns_per_record",
            append_ns / append_count.max(1.0),
        );
        m.set("storage.append_bytes_per_tx", append_bytes / txs);
        m.set("storage.flush_count", flush_ms.len() as f64);
        if !flush_ms.is_empty() {
            m.set("storage.flush_ms_p50", stat::quantile(&flush_ms, 0.5));
            m.set("storage.flush_ms_max", stat::quantile(&flush_ms, 1.0));
        }
        m.set("storage.ckpt_full_count", fulls as f64);
        m.set("storage.ckpt_delta_count", (ckpts.len() - fulls) as f64);
        m.set("storage.ckpt_bytes_per_tx", ckpt_bytes / txs);
        m.set(
            "storage.ckpt_put_ms_max",
            ckpts.iter().map(|s| s.dur_ns()).max().unwrap_or(0) as f64 / 1e6,
        );
        m.set(
            "storage.gc_bytes_per_tx",
            gcs.iter().map(|s| s.bytes as f64).sum::<f64>() / txs,
        );
        m.set(
            "storage.bytes_written_per_tx",
            (append_bytes + ckpt_bytes) / txs,
        );
        m.set("storage.busy_share", storage_ns / elapsed_ns);
        m.set(
            "storage.disk_peak_mib",
            pass.disk_peak_bytes as f64 / (1024.0 * 1024.0),
        );
    }

    if cfg.kind == Kind::ServiceLoopback {
        let sends: Vec<&Span> = named(spans, "client.send_batch", from).collect();
        m.set(
            "client.send_ns_per_batch",
            sum_ns(sends.iter().copied()) / sends.len().max(1) as f64,
        );
        m.set(
            "client.recv_wait_share",
            sum_ns(named(spans, "client.recv_event", from)) / elapsed_ns,
        );
    }
}

/// Fresh node, warm-up, then `seconds` of open loop at `multiplier` ×
/// the workload's rate. Returns what the loop observed and the finished
/// set-up (its acks and how long it took).
fn paced_phase(
    cfg: &Config,
    stream: &Stream,
    multiplier: f64,
    seconds: f64,
) -> Result<(drive::Paced, Setup), String> {
    let mut setup = set_up(cfg, stream, NodeOptions::default())?;
    let rate = cfg.rate_rps() * multiplier;
    let n = ((rate * seconds) as usize).min(stream.requests() - cfg.warm_reqs() - 1);
    let reqs = cfg.warm_reqs()..cfg.warm_reqs() + n;
    let paced = drive::open_loop(&mut setup.node, stream, &mut setup.acks, reqs, rate)?;
    Ok((paced, setup))
}

fn traced_run(cfg: &Config, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let (stream, gen_seconds) = make_stream(cfg);
    let stream = &stream;
    m.set(
        "workload.gen_ns_per_tx",
        gen_seconds * 1e9 / cfg.stream_txs as f64,
    );

    // The ladder, over a prefix of the same stream.
    rungs::run(&stream.txs, cfg.rung_txs.min(stream.txs.len()), m);

    // Traced pass.
    trace::start();
    let setup = set_up(
        cfg,
        stream,
        NodeOptions {
            traced: true,
            ..NodeOptions::default()
        },
    )?;
    let (mut traced, mut node) = saturate(cfg, stream, setup)?;
    match &mut node {
        Node::Embedded(embedded) => {
            let (hits, misses) = embedded.router.l2s_memo_stats();
            m.set(
                "core.l2s.memo_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            if cfg.kind == Kind::HotspotFeedback {
                let stats = embedded.router.rebalance_stats();
                m.set(
                    "core.rebalance.epochs_committed",
                    stats.epochs_committed as f64,
                );
                m.set("core.rebalance.nodes_moved", stats.nodes_moved as f64);
                m.set("core.rebalance.bytes_migrated", stats.bytes_migrated as f64);
                m.set("core.rebalance.moves_dropped", stats.moves_dropped as f64);
            }
        }
        Node::Service(service) => {
            let metrics = service.server.metrics();
            m.set(
                "server.admit_to_ack_p50_us",
                metrics.latency_usec_quantile(0.5).unwrap_or(0) as f64,
            );
            m.set(
                "server.admit_to_ack_p99_us",
                metrics.latency_usec_quantile(0.99).unwrap_or(0) as f64,
            );
            m.set("server.shed_total", metrics.shed_total() as f64);
            m.set("server.queue_depth_max", service.queue_depth_max as f64);
        }
    }
    if cfg.kind == Kind::DurableWindow {
        if let Some(mut recovered) = crash_and_recover(cfg, &mut traced, node) {
            let started = Instant::now();
            let result = {
                let _span = trace::span("router.checkpoint_now");
                recovered.checkpoint_now()
            };
            traced
                .acks
                .check(result.is_ok(), "checkpoint_now on the recovered router");
            m.set(
                "core.durable.checkpoint_now_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );
        }
        m.set("core.durable.recovery_s", traced.recovery_s);
    } else {
        node.finish();
    }
    let (spans, marks) = trace::stop();
    if cfg.kind == Kind::DurableWindow {
        let replayed = marks.next_seq - marks.full_upto;
        m.set(
            "core.durable.recover_records_per_s",
            replayed as f64 / traced.recovery_s,
        );
        m.set(
            "core.durable.recover_tail_records",
            (marks.next_seq - marks.full_upto.max(marks.delta_upto)) as f64,
        );
    }
    if cfg.kind.window().is_some() {
        let hit_ratio = oracle_check(cfg, stream, &mut traced);
        if cfg.kind == Kind::ServiceLoopback {
            // The fleet's router is out of reach behind the server; the
            // oracle makes the same decisions against the same telemetry.
            m.set("core.l2s.memo_hit_ratio", hit_ratio);
        }
    }
    span_metrics(cfg, &spans, &traced, m);
    let trace_path = cfg.out.join(format!("{}.trace.json", cfg.workload.name));
    trace::write_spans(&trace_path, cfg.workload.name, cfg.seed, &spans)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprintln!("{} spans -> {}", spans.len(), trace_path.display());
    drop(spans);

    // Untraced reference pass, right after the traced one so both meet
    // the allocator in the same state: the tracing overhead's base.
    let setup = set_up(cfg, stream, NodeOptions::default())?;
    let (reference, node) = saturate(cfg, stream, setup)?;
    node.finish();
    tally.absorb(&reference.acks);
    traced.acks.check(
        traced.digest == reference.digest,
        "traced pass assignment digest equals the untraced pass's",
    );
    tally.absorb(&traced.acks);
    // Slice by slice, so that one stall of unequal length in either
    // pass (a memory copy, a neighbour on the box) does not pose as
    // tracing cost: the median of the 18 traced ÷ untraced ratios.
    let ratios: Vec<f64> = traced
        .segments
        .iter()
        .zip(&reference.segments)
        .map(|(t, r)| t / r)
        .collect();
    m.set(
        "driver.trace_overhead_pct",
        100.0 * (stat::median(ratios) - 1.0),
    );
    if cfg.kind == Kind::ServiceLoopback {
        m.set(
            "server.tax_ns_per_tx",
            1e9 / reference.tps() - m.get("core.fleet.w1_ns_per_tx"),
        );
    }

    // core.rebalance tax: the same pass with the rebalancer wired but
    // never triggering.
    if cfg.kind == Kind::HotspotFeedback {
        let setup = set_up(
            cfg,
            stream,
            NodeOptions {
                rebalance_disabled: true,
                ..NodeOptions::default()
            },
        )?;
        let (disabled, node) = saturate(cfg, stream, setup)?;
        node.finish();
        tally.absorb(&disabled.acks);
        m.set(
            "core.rebalance.tax_ns_per_tx",
            (reference.seconds() - disabled.seconds()) * 1e9 / disabled.timed_txs as f64,
        );
    }

    // The offered-load sweep (informational, never gated).
    let seconds = cfg.seconds / 4.0;
    let mut slo_rate = 0.0f64;
    for multiplier in [0.5, 1.0, 2.0] {
        let (paced, setup) = paced_phase(cfg, stream, multiplier, seconds)?;
        setup.node.finish();
        tally.absorb(&setup.acks);
        eprintln!(
            "sweep {multiplier}x ({:.0} tx/s): p50 {:.1} us, p99 {:.1} us, completion share {:.4}",
            cfg.workload.rate_tps * multiplier,
            paced.p(0.5),
            paced.p(0.99),
            paced.completion_share
        );
        let p99 = paced.p(0.99);
        if p99 <= SLO_P99_US && paced.completion_share >= 0.98 {
            slo_rate = slo_rate.max(cfg.workload.rate_tps * multiplier);
        }
        match multiplier {
            0.5 => m.set("driver.p99_us_at_half_rate", p99),
            2.0 => m.set("driver.p99_us_at_double_rate", p99),
            _ => {
                m.set(
                    "driver.sched_lag_p99_us",
                    stat::quantile(&paced.lag_us, 0.99),
                );
                m.set("driver.ack_p99_us", p99);
                m.set("driver.ack_p999_us", paced.p(0.999));
            }
        }
    }
    m.set("driver.slo_rate_tps", slo_rate);
    m.zero_unset();
    Ok(())
}

fn print_result(cfg: &Config, tally: &Tally, metrics: &Metrics) {
    println!(
        "workload {} seed {:#x} seconds {} trace {}",
        cfg.workload.name, cfg.seed, cfg.seconds, cfg.traced as u8
    );
    for (def, value) in metrics.defs.iter().zip(&metrics.values) {
        if let Some(value) = value {
            println!("{:<40} {:>16.4} {}", def.name, value, def.unit);
        }
    }
    println!("{:<40} {:>16}", "ops_attempted", tally.attempted);
    println!("{:<40} {:>16}", "ops_failed", tally.failed);
    let body: Vec<String> = metrics
        .defs
        .iter()
        .zip(&metrics.values)
        .filter_map(|(def, value)| {
            value.map(|v| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn ensure_out_dir(path: &Path) {
    if let Err(e) = std::fs::create_dir_all(path) {
        eprintln!("cannot create {}: {e}", path.display());
        std::process::exit(2);
    }
}

fn main() {
    let cfg = parse_args();
    ensure_out_dir(&cfg.out);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let mut metrics = Metrics::new(if cfg.traced { &PER_LAYER } else { &END_TO_END });
    let outcome = if cfg.traced {
        traced_run(&cfg, &mut tally, &mut metrics)
    } else {
        untraced_run(&cfg, &mut tally, &mut metrics)
    };
    let _ = std::fs::remove_dir_all(cfg.wal_dir());
    if let Err(error) = outcome {
        // A transport or protocol error ends the run: no metrics, no result.
        eprintln!("FAILED: {error}");
        std::process::exit(1);
    }
    assert!(
        metrics.values.iter().all(Option::is_some),
        "a catalogue metric was not produced"
    );
    print_result(&cfg, &tally, &metrics);
    if tally.failed > 0 {
        std::process::exit(1);
    }
}
