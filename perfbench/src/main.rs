//! One workload of the trust-daemon / feed-node benchmark, in a fresh
//! process:
//!
//! ```text
//! nrslb-perfbench --workload <verdict-warm|verdict-cold|feed-churn>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs three rounds. Each builds every input from the seed, sets the
//! system up from scratch and runs a third of a fixed number of
//! operations in a closed loop from one client thread. Checks every
//! reply, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`) as the last line of standard
//! output. See README.md for what each workload and metric means.

mod inputs;
mod stats;
mod trace;
mod world;

use inputs::Inputs;
use stats::{median, proc_usage, quantile};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Name, Trace, NO_PARENT};
use world::{counter_total, Recorder, World, RUN_DIR};

/// Rounds per run. Each round sets the system up from scratch (so
/// `setup_s` is the median of three set-ups) and then runs a third of
/// the timed work on it. Spreading the timed work across the run
/// averages over more of the host's slow and fast spells.
const ROUNDS: usize = 3;
/// Timed chunks per round. The verdict latency percentiles are means of
/// the per-chunk percentiles: on a host that alternates between a fast
/// and a slow state, a median of chunks jumps between the two, while a
/// mean moves only with the share of time spent in each.
const CHUNKS_PER_ROUND: usize = 8;
const CHUNKS: usize = ROUNDS * CHUNKS_PER_ROUND;
/// Idle re-polls per feed cycle. This and `CHURN_PASSES` set
/// feed-churn's op mix. They are stress ratios chosen for the
/// benchmark, not traffic drawn from a measurement: derivatives that
/// poll hourly would make thousands of idle re-polls per delta. Each
/// run prints the op mix and its share of timed wall time.
const REPOLLS: usize = 64;
/// Feed cycles per round of the verdict workloads, run between their
/// timed chunks, which give their enforcement and re-poll figures.
const PROBE_CYCLES_PER_ROUND: usize = 40;
/// Feed cycles per second of `--seconds` on feed-churn, over the whole
/// run. The one-time-signature keys are sized to a round's cycles, so
/// it also sets the key-generation share of set-up.
const CHURN_CYCLES_PER_S: usize = 48;
/// Pool passes per feed-churn cycle: few enough that the requests
/// re-deriving the tainted root's verdicts are about 2% of all, so
/// latency_p99_us falls among them rather than on the boundary
/// between them and the hits.
const CHURN_PASSES: usize = 16;
/// Verdict requests per second of `--seconds`, sized so the timed
/// phase of each verdict workload takes about that long on a 2-core
/// host.
const WARM_OPS_PER_S: usize = 34_000;
const COLD_OPS_PER_S: usize = 11_000;
/// Chains in the pool that fits both daemon caches.
const SMALL_POOL: usize = 15;
/// verdict-cold's verdict-cache capacity, and a pool whose keys are at
/// least four times that, so cycling through it in order misses every
/// time in every shard.
const COLD_CACHE_CAPACITY: usize = 64;
const COLD_POOL: usize = 66;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    VerdictWarm,
    VerdictCold,
    FeedChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "verdict-warm" => Some(Workload::VerdictWarm),
            "verdict-cold" => Some(Workload::VerdictCold),
            "feed-churn" => Some(Workload::FeedChurn),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Operation counts and geometry of one workload.
struct Plan {
    pool: usize,
    cache_capacity: usize,
    /// Timed verdict requests (verdict workloads).
    verdict_ops: usize,
    /// Feed cycles per round after set-up: timed on feed-churn, the
    /// enforcement probe between timed chunks on the verdict workloads.
    cycles: usize,
    warmup_cycles: usize,
    warmup_passes: usize,
    /// Pool passes per feed cycle.
    passes: usize,
    /// Untimed pool passes after each between-chunk enforcement probe.
    rewarm_passes: usize,
}

impl Plan {
    fn new(workload: Workload, seconds: usize) -> Plan {
        let default_capacity = nrslb_core::cache::DEFAULT_VERDICT_CACHE_CAPACITY;
        match workload {
            Workload::VerdictWarm => Plan {
                pool: SMALL_POOL,
                cache_capacity: default_capacity,
                verdict_ops: WARM_OPS_PER_S * seconds,
                cycles: PROBE_CYCLES_PER_ROUND,
                warmup_cycles: 2,
                warmup_passes: 2,
                passes: 0,
                rewarm_passes: 1,
            },
            Workload::VerdictCold => Plan {
                pool: COLD_POOL,
                cache_capacity: COLD_CACHE_CAPACITY,
                verdict_ops: COLD_OPS_PER_S * seconds,
                cycles: PROBE_CYCLES_PER_ROUND,
                warmup_cycles: 2,
                warmup_passes: 1,
                passes: 0,
                // Cycling on from where the last chunk stopped keeps
                // missing; a re-warm pass would cache the next keys.
                rewarm_passes: 0,
            },
            Workload::FeedChurn => Plan {
                pool: SMALL_POOL,
                cache_capacity: default_capacity,
                verdict_ops: 0,
                cycles: CHURN_CYCLES_PER_S * seconds / ROUNDS,
                warmup_cycles: 4,
                warmup_passes: 1,
                passes: CHURN_PASSES,
                rewarm_passes: 0,
            },
        }
    }
}

/// Counters read at both ends of every timed chunk; the timed phase's
/// figures are the sums of the per-chunk differences, so work between
/// chunks is left out.
#[derive(Clone, Copy, Default)]
struct Counters {
    verdict_hits: u64,
    verdict_misses: u64,
    verdict_evictions: u64,
    cert_hits: u64,
    cert_misses: u64,
    inline: u64,
    shadow_evals: u64,
    verdict_requests: u64,
    nivcsw: u64,
}

impl Counters {
    fn read(world: &World, rec: &Recorder) -> Result<Counters, String> {
        let metrics = world
            .client
            .metrics_text()
            .map_err(|e| format!("metrics scrape: {e}"))?;
        let cache = world.daemon.oracle().cache();
        let certs = world.daemon.cert_cache();
        Ok(Counters {
            verdict_hits: cache.hits(),
            verdict_misses: cache.misses(),
            verdict_evictions: cache.evictions(),
            cert_hits: certs.hits(),
            cert_misses: certs.misses(),
            inline: counter_total(&metrics, "nrslb_reactor_inline_total"),
            shadow_evals: world.shadow.as_ref().map_or(0, |s| s.evals),
            verdict_requests: rec.verdict_requests,
            nivcsw: proc_usage().nivcsw,
        })
    }

    /// Add `end - start`.
    fn add_span(&mut self, start: &Counters, end: &Counters) {
        self.verdict_hits += end.verdict_hits - start.verdict_hits;
        self.verdict_misses += end.verdict_misses - start.verdict_misses;
        self.verdict_evictions += end.verdict_evictions - start.verdict_evictions;
        self.cert_hits += end.cert_hits - start.cert_hits;
        self.cert_misses += end.cert_misses - start.cert_misses;
        self.inline += end.inline.saturating_sub(start.inline);
        self.shadow_evals += end.shadow_evals - start.shadow_evals;
        self.verdict_requests += end.verdict_requests - start.verdict_requests;
        self.nivcsw += end.nivcsw - start.nivcsw;
    }
}

fn node_inline(world: &World) -> u64 {
    counter_total(&world.node.render_metrics(), "nrslb_reactor_inline_total")
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: nrslb-perfbench --workload <verdict-warm|verdict-cold|feed-churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args, start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the workload and print its result; `Ok(false)` if any operation
/// failed or a check did not hold.
fn run(args: &Args, start: Instant) -> Result<bool, String> {
    let plan = Plan::new(args.workload, args.seconds);
    // The client thread, daemon and node all run on one CPU, pinned before any
    // thread is spawned: a closed loop with one request in flight needs
    // no second core, and on a 2-vCPU VM cross-CPU wake-ups made whole
    // runs 20-40% slower or faster at random.
    let host_nproc = stats::nproc();
    let cpu = stats::pin_to_one_cpu().ok_or("could not set the CPU affinity")?;
    let nproc = stats::nproc();
    println!(
        "workload {:?} seed {} seconds {} trace {} | host {} nproc {} | pinned to cpu {} (nproc now {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::hostname(),
        host_nproc,
        cpu,
        nproc
    );

    let mut rec = Recorder::default();
    let mut timed = Counters::default();
    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut chunk_rate = Vec::with_capacity(CHUNKS);
    let mut chunk_p50 = Vec::with_capacity(CHUNKS);
    let mut chunk_p99 = Vec::with_capacity(CHUNKS);
    let mut timed_ops = 0u64;
    let mut timed_secs = 0f64;
    let mut timed_cpu_us = 0u64;
    // GCCs the timed verdict requests run (the distrust state is fixed
    // within a chunk).
    let mut timed_gccs = 0u64;
    let mut feed_ok = true;
    let mut node_inline_total = 0u64;
    let mut node_requests_total = 0u64;
    let mut threads = 0u64;
    // One trace for the whole run: each round's world borrows it and
    // hands it back.
    let mut trace = args.trace.then(Trace::new);
    for round in 0..ROUNDS {
        let t = if round == 0 { start } else { Instant::now() };
        let inputs = Inputs::generate(args.seed, plan.pool, plan.warmup_cycles + plan.cycles)?;
        let kept_spans = trace.as_ref().map_or(0, |t| t.spans.len());
        let mut world = World::spawn(&inputs, plan.cache_capacity, trace.take(), round)?;
        rec.recording = false;
        warm_up(&mut world, &inputs, &plan, &mut rec);
        setup_s.push(t.elapsed().as_secs_f64());
        if round == 0 {
            println!(
                "pool {} chains, {} GCCs per root, verdict cache {} | feed key height {}, signer height {}",
                inputs.pool.len(),
                inputs.base.gccs_for(&inputs.roots[0].fingerprint()).len(),
                plan.cache_capacity,
                inputs.feed_key_height,
                inputs.signer_height
            );
        }
        // Drop the warm-up's spans.
        if let Some(t) = world.trace.as_mut() {
            t.spans.truncate(kept_spans);
        }

        // Timed chunks. On the verdict workloads the enforcement probe
        // runs between chunks, untimed, followed by a pass that
        // re-warms what its deltas invalidated.
        let pool_len = inputs.pool.len();
        let mut next_cycle = plan.warmup_cycles;
        let mut position = 0usize;
        let node_inline_0 = node_inline(&world);
        let node_requests_0 = rec.node_requests;
        for chunk in 0..CHUNKS_PER_ROUND {
            let start = Counters::read(&world, &rec)?;
            rec.recording = true;
            let t = Instant::now();
            let u = proc_usage();
            let first_sample = rec.latency_ns.len();
            let ops = match args.workload {
                Workload::VerdictWarm | Workload::VerdictCold => {
                    let n = plan.verdict_ops / CHUNKS;
                    for _ in 0..n {
                        timed_gccs += world.expected(&inputs, position).len() as u64;
                        world.verdict(&inputs, position, &mut rec);
                        position = (position + 1) % pool_len;
                    }
                    n
                }
                Workload::FeedChurn => {
                    let mut n = 0;
                    for _ in 0..plan.cycles / CHUNKS_PER_ROUND {
                        if !feed_ok {
                            break;
                        }
                        let root = inputs.schedule[next_cycle];
                        next_cycle += 1;
                        feed_ok = world
                            .cycle(&inputs, root, REPOLLS, plan.passes, &mut rec)
                            .is_ok();
                        n += 1 + REPOLLS + plan.passes * pool_len;
                    }
                    n
                }
            };
            let secs = t.elapsed().as_secs_f64();
            timed_cpu_us += proc_usage().cpu_us.saturating_sub(u.cpu_us);
            timed.add_span(&start, &Counters::read(&world, &rec)?);
            chunk_rate.push(ops as f64 / secs);
            let mut samples: Vec<f64> = rec.latency_ns[first_sample..]
                .iter()
                .map(|&n| n as f64 / 1e3)
                .collect();
            if !samples.is_empty() {
                samples.sort_by(f64::total_cmp);
                chunk_p50.push(quantile(&samples, 0.50));
                chunk_p99.push(quantile(&samples, 0.99));
            }
            timed_ops += ops as u64;
            timed_secs += secs;

            if args.workload != Workload::FeedChurn {
                let share = plan.cycles * (chunk + 1) / CHUNKS_PER_ROUND
                    - plan.cycles * chunk / CHUNKS_PER_ROUND;
                for _ in 0..share {
                    if !feed_ok {
                        break;
                    }
                    let root = inputs.schedule[next_cycle];
                    next_cycle += 1;
                    feed_ok = world.cycle(&inputs, root, REPOLLS, 0, &mut rec).is_ok();
                }
                rec.recording = false;
                for _ in 0..plan.rewarm_passes {
                    for c in 0..pool_len {
                        world.verdict(&inputs, c, &mut rec);
                    }
                }
            }
        }
        threads = threads.max(stats::threads());
        node_inline_total += node_inline(&world).saturating_sub(node_inline_0);
        node_requests_total += rec.node_requests - node_requests_0;
        trace = world.trace.take();
        if !feed_ok {
            break;
        }
    }
    let node_inline_ratio = ratio(node_inline_total, node_requests_total);
    let end_usage = proc_usage();

    // Timed-phase ratios and self-checks.
    let requests = timed.verdict_requests;
    let hits = timed.verdict_hits;
    let misses = timed.verdict_misses;
    let verdict_hit_ratio = ratio(hits, hits + misses);
    let inline_ratio = ratio(timed.inline, requests);
    let daemon_evals_per_op = ratio(misses, requests);
    let mut checks: Vec<String> = Vec::new();
    match args.workload {
        Workload::VerdictWarm => {
            if verdict_hit_ratio < 0.99 {
                checks.push(format!(
                    "verdict-cache hit ratio {verdict_hit_ratio} < 0.99"
                ));
            }
            if !(0.99..=1.01).contains(&inline_ratio) {
                checks.push(format!("reactor inline ratio {inline_ratio} not ~1"));
            }
            if misses != 0 {
                checks.push(format!("{misses} GCC evaluations on the warm path"));
            }
        }
        Workload::VerdictCold => {
            if verdict_hit_ratio > 0.01 {
                checks.push(format!(
                    "verdict-cache hit ratio {verdict_hit_ratio} > 0.01"
                ));
            }
            // Every request probes each of its root's GCCs once; all
            // but the rare key an enforcement probe just cached miss.
            if hits + misses != timed_gccs || misses * 100 < timed_gccs * 99 {
                checks.push(format!(
                    "{daemon_evals_per_op} GCC evaluations per request, expected {}",
                    ratio(timed_gccs, requests)
                ));
            }
        }
        Workload::FeedChurn => {
            if let Some((n, len)) = rec
                .invalidated
                .iter()
                .find(|(n, len)| *n == 0 || *n as usize >= *len)
            {
                checks.push(format!(
                    "a delta invalidated {n} of {len} cached verdicts (want at least one, not all)"
                ));
            }
        }
    }
    if args.trace {
        let shadow_evals = timed.shadow_evals;
        if shadow_evals != misses {
            checks.push(format!(
                "shadow ran {shadow_evals} GCC evaluations, the daemon {misses}"
            ));
        }
    }
    if !feed_ok {
        checks.push("the feed diverged; remaining cycles skipped".into());
    }
    if let Some(e) = &rec.first_error {
        println!("first failure: {e}");
    }
    for c in &checks {
        println!("self-check failed: {c}");
    }

    let (attempted, failed, mismatches) = (rec.attempted, rec.failed, rec.mismatches);
    let correct = mismatches == 0 && failed == 0 && checks.is_empty();

    let mut enforce: Vec<f64> = rec.enforce_ns.iter().map(|&n| n as f64 / 1e3).collect();
    enforce.sort_by(f64::total_cmp);
    let mut repoll: Vec<f64> = rec.repoll_ns.iter().map(|&n| n as f64 / 1e3).collect();
    repoll.sort_by(f64::total_cmp);
    println!("set-up s: {setup_s:?}");
    println!(
        "timed phase: {timed_ops} ops in {timed_secs:.3} s | latency samples {} in {} chunks | enforce samples {} | re-poll samples {}",
        rec.latency_ns.len(),
        chunk_p99.len(),
        enforce.len(),
        repoll.len()
    );
    println!(
        "verdict-cache hit ratio {verdict_hit_ratio:.4} | reactor inline ratio {inline_ratio:.4} | \
         GCC evaluations per request {daemon_evals_per_op:.4} | feed-node inline ratio {node_inline_ratio:.4}"
    );
    println!(
        "threads {threads}; one request in flight, so one busy at a time (the client or the thread serving it) of nproc {nproc}"
    );
    let show = |v: &[f64]| {
        v.iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    if args.workload == Workload::FeedChurn {
        let secs = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e9;
        let share = |t: f64| 100.0 * t / timed_secs;
        let (enforce_s, repoll_s, verdict_s) = (
            secs(&rec.enforce_ns),
            secs(&rec.repoll_ns),
            secs(&rec.latency_ns),
        );
        let n = timed_ops as f64;
        println!(
            "op mix: {} delta cycles ({:.2}% of ops), {} idle re-polls ({:.1}%), {} verdicts ({:.1}%, \
             {:.1}% of their GCC probes miss and re-derive) | timed wall time: enforcement {:.1}%, re-polls {:.1}%, \
             verdicts {:.1}%, remote delta syncs and checks {:.1}%",
            rec.enforce_ns.len(),
            100.0 * rec.enforce_ns.len() as f64 / n,
            rec.repoll_ns.len(),
            100.0 * rec.repoll_ns.len() as f64 / n,
            rec.latency_ns.len(),
            100.0 * rec.latency_ns.len() as f64 / n,
            100.0 * (1.0 - verdict_hit_ratio),
            share(enforce_s),
            share(repoll_s),
            share(verdict_s),
            share(timed_secs - enforce_s - repoll_s - verdict_s),
        );
    }
    println!("chunk ops/s: {}", show(&chunk_rate));
    println!("chunk latency p50 us: {}", show(&chunk_p50));
    println!("chunk latency p99 us: {}", show(&chunk_p99));
    println!("attempted {attempted} failed {failed} mismatched {mismatches}");

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.extend([
            ("setup_s", median(&mut setup_s), "s"),
            ("ops_per_s", timed_ops as f64 / timed_secs, "1/s"),
            ("latency_p50_us", mean(&chunk_p50), "us"),
            ("latency_p99_us", mean(&chunk_p99), "us"),
            (
                "cpu_us_per_op",
                timed_cpu_us as f64 / timed_ops as f64,
                "us",
            ),
            ("peak_rss_mb", end_usage.maxrss_kb as f64 / 1024.0, "MB"),
            ("enforce_p50_us", quantile(&enforce, 0.50), "us"),
            ("enforce_p90_us", quantile(&enforce, 0.90), "us"),
            ("repoll_p50_us", quantile(&repoll, 0.50), "us"),
        ]);
    } else {
        let trace = trace.as_ref().expect("traced run");
        let layers = Layers::from_trace(trace);
        let dump = std::path::Path::new(RUN_DIR).join(format!(
            "trace-{}.tsv",
            format!("{:?}", args.workload).to_lowercase()
        ));
        trace
            .write(&dump)
            .map_err(|e| format!("{}: {e}", dump.display()))?;
        println!(
            "spans: {} written to {} | traced round-trip p50 {:.3} us (compare latency_p50_us of an untraced run)",
            trace.spans.len(),
            dump.display(),
            layers.p(Name::Roundtrip, 0.5)
        );
        let cert_hits = timed.cert_hits;
        let cert_misses = timed.cert_misses;
        let deltas = rec.invalidated.len().max(1) as f64;
        let timed_kops = timed_ops.max(1) as f64 / 1000.0;
        metrics.extend([
            (
                "daemon.roundtrip_us_p50",
                layers.p(Name::Roundtrip, 0.5),
                "us",
            ),
            (
                "daemon.roundtrip_us_p99",
                layers.p(Name::Roundtrip, 0.99),
                "us",
            ),
            ("reactor.self_us_p50", layers.reactor_self_p50, "us"),
            ("reactor.inline_ratio", inline_ratio, "ratio"),
            (
                "cert_cache.lookup_us_p50",
                layers.p(Name::CertCache, 0.5),
                "us",
            ),
            (
                "cert_cache.hit_ratio",
                ratio(cert_hits, cert_hits + cert_misses),
                "ratio",
            ),
            (
                "session.chain_key_us_p50",
                layers.p(Name::ChainKey, 0.5),
                "us",
            ),
            (
                "verdict_cache.probe_us_p50",
                layers.p(Name::VerdictProbe, 0.5),
                "us",
            ),
            ("verdict_cache.hit_ratio", verdict_hit_ratio, "ratio"),
            (
                "verdict_cache.evictions_per_op",
                ratio(timed.verdict_evictions, requests),
                "count",
            ),
            ("facts.emit_us_p50", layers.p(Name::Facts, 0.5), "us"),
            ("datalog.eval_us_p50", layers.p(Name::Datalog, 0.5), "us"),
            (
                "datalog.evals_per_op",
                ratio(timed.shadow_evals, requests),
                "count",
            ),
            ("rsf.publish_us_p50", layers.p(Name::Publish, 0.5), "us"),
            (
                "rsf.checkpoint_us_p50",
                layers.p(Name::Checkpoint, 0.5),
                "us",
            ),
            ("rsf.fetch_us_p50", layers.p(Name::Fetch, 0.5), "us"),
            ("rsf.decode_us_p50", layers.p(Name::Decode, 0.5), "us"),
            ("rsf.verify_us_p50", layers.p(Name::Verify, 0.5), "us"),
            (
                "rsf.witness_verify_us_p50",
                layers.p(Name::WitnessVerify, 0.5),
                "us",
            ),
            ("rsf.apply_us_p50", layers.p(Name::Apply, 0.5), "us"),
            ("rsf.taint_us_p50", layers.p(Name::Taint, 0.5), "us"),
            ("rsf.sync_us_p50", layers.p(Name::Sync, 0.5), "us"),
            (
                "rsf.delta_sync_us_p50",
                layers.p(Name::DeltaSync, 0.5),
                "us",
            ),
            ("rsf.repoll_us_p50", layers.p(Name::Repoll, 0.5), "us"),
            ("feed_node.inline_ratio", node_inline_ratio, "ratio"),
            ("daemon.refresh_us_p50", layers.p(Name::Refresh, 0.5), "us"),
            (
                "verdict_cache.invalidated_per_delta",
                rec.invalidated.iter().map(|(n, _)| *n as f64).sum::<f64>() / deltas,
                "count",
            ),
            (
                "proc.invol_ctxsw_per_kop",
                timed.nivcsw as f64 / timed_kops,
                "count",
            ),
            ("proc.threads", threads as f64, "count"),
        ]);
    }
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

/// Set-up's warm-up: a few feed cycles, then passes over the pool so
/// the caches hold what the workload expects, then idle re-polls.
fn warm_up(world: &mut World, inputs: &Inputs, plan: &Plan, rec: &mut Recorder) {
    for &root in &inputs.schedule[..plan.warmup_cycles] {
        if world.cycle(inputs, root, REPOLLS, 0, rec).is_err() {
            return;
        }
    }
    for _ in 0..plan.warmup_passes {
        for c in 0..inputs.pool.len() {
            world.verdict(inputs, c, rec);
        }
    }
    for _ in 0..REPOLLS {
        world.repoll(rec);
    }
}

/// Per-layer figures derived from the spans.
struct Layers {
    /// Microseconds per span name, ascending; cache probes per key.
    by_name: HashMap<u8, Vec<f64>>,
    reactor_self_p50: f64,
}

impl Layers {
    fn from_trace(trace: &Trace) -> Layers {
        let self_ns = trace.self_times_ns();
        let mut by_name: HashMap<u8, Vec<f64>> = HashMap::new();
        // Per request: the round trip, and the shadow layers it covers.
        let mut roundtrip: HashMap<u32, u64> = HashMap::new();
        let mut shadow: HashMap<u32, u64> = HashMap::new();
        for (span, self_ns) in trace.spans.iter().zip(self_ns) {
            let us = self_ns as f64 / 1e3 / f64::from(span.units.max(1));
            by_name.entry(span.name as u8).or_default().push(us);
            if span.parent != NO_PARENT && trace.spans[span.parent as usize].name == Name::Request {
                if span.name == Name::Roundtrip {
                    roundtrip.insert(span.parent, span.dur_ns());
                } else {
                    *shadow.entry(span.parent).or_default() += span.dur_ns();
                }
            }
        }
        for v in by_name.values_mut() {
            v.sort_by(f64::total_cmp);
        }
        let mut reactor_self: Vec<f64> = roundtrip
            .iter()
            .map(|(req, rt)| (*rt as f64 - shadow.get(req).copied().unwrap_or(0) as f64) / 1e3)
            .collect();
        Layers {
            by_name,
            reactor_self_p50: median(&mut reactor_self),
        }
    }

    fn p(&self, name: Name, q: f64) -> f64 {
        self.by_name
            .get(&(name as u8))
            .map_or(0.0, |v| quantile(v, q))
    }
}

/// The result line: the last line of standard output.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
