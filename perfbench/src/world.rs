//! The system under test, hosted in this process: a reactor-engine
//! `TrustDaemon` and a `FeedDistributionNode`, both on Unix sockets, a
//! quorum-signed feed, the daemon's in-process feed subscriber and a
//! socket `RemoteSubscriber`. One client thread runs every operation
//! in a closed loop over one keep-alive connection per server, and
//! checks every reply.

use crate::inputs::{same_verdicts, Inputs, FEED_T0, QUORUM_K, QUORUM_N};
use crate::trace::{timed, Name, Shadow, Trace, NO_PARENT};
use nrslb_core::daemon::{DaemonClient, TrustDaemon};
use nrslb_core::GccVerdict;
use nrslb_rootstore::{RootStore, Usage};
use nrslb_rsf::{
    Delta, FeedDistributionNode, FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig,
    RemoteSubscriber, SignedMessage, Subscriber, TaintSet,
};
use nrslb_x509::Certificate;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where sockets and the span dump go, relative to the checkout.
pub const RUN_DIR: &str = ".bench_run";

/// Traced runs keep the spans of one pool request in this many, which
/// bounds the span buffer to tens of MB.
const TRACE_SAMPLE: u32 = 4;

/// Outcome tallies and timing samples of a run.
#[derive(Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    /// Replies that contradict the expected (or shadow) verdicts.
    pub mismatches: u64,
    pub first_error: Option<String>,
    /// Whether timing samples are kept (the timed phases).
    pub recording: bool,
    pub latency_ns: Vec<u64>,
    pub enforce_ns: Vec<u64>,
    pub repoll_ns: Vec<u64>,
    /// Per delta: verdicts `refresh_from_feed` evicted, and the cache
    /// size just before.
    pub invalidated: Vec<(u64, usize)>,
    /// Verdict requests issued (timed or not).
    pub verdict_requests: u64,
    /// Requests the feed node served (delta syncs and re-polls).
    pub node_requests: u64,
}

impl Recorder {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.fail(what);
    }
}

pub struct World {
    // Clients drop before the servers they talk to.
    pub client: DaemonClient,
    remote: RemoteSubscriber,
    subscriber: Arc<Mutex<Subscriber>>,
    publisher: Arc<Mutex<FeedPublisher>>,
    pub node: FeedDistributionNode,
    pub daemon: TrustDaemon,
    trust: FeedTrust,
    /// The primary's current store, as last published.
    primary: RootStore,
    /// Per root: is its partial-distrust GCC attached?
    distrusted: Vec<bool>,
    /// Feed sequence after the last publish.
    sequence: u64,
    feed_now: i64,
    pub trace: Option<Trace>,
    pub shadow: Option<Shadow>,
    /// Traced mode: the store replayed deltas build, which the shadow
    /// pipeline evaluates against.
    replica: RootStore,
}

fn socket_path(kind: &str, tag: usize) -> PathBuf {
    Path::new(RUN_DIR).join(format!("{kind}{}-{tag}.sock", std::process::id()))
}

impl World {
    /// Spawn both servers over `inputs`, bootstrap both subscribers
    /// from the feed's snapshot, and connect the client thread's connections.
    /// With a `trace`, the run is traced: spans go there, and every
    /// verdict request is replayed through a fresh shadow pipeline.
    pub fn spawn(
        inputs: &Inputs,
        cache_capacity: usize,
        trace: Option<Trace>,
        tag: usize,
    ) -> Result<World, String> {
        std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
        let mut daemon = TrustDaemon::builder()
            .socket(socket_path("d", tag))
            .cache_capacity(cache_capacity)
            .spawn(inputs.base.clone())
            .map_err(|e| format!("daemon spawn: {e}"))?;
        let config = QuorumConfig {
            k: QUORUM_K,
            n: QUORUM_N,
        };
        let err = |e: nrslb_rsf::RsfError| e.to_string();
        let authority =
            QuorumAuthority::from_seed(inputs.authority_seed, config, inputs.signer_height)
                .map_err(err)?;
        let key = FeedKey::new_quorum(inputs.feed_key_seed, inputs.feed_key_height, &authority)
            .map_err(err)?;
        let trust = FeedTrust::quorum(authority.trust());
        let publisher = FeedPublisher::new_quorum("primary", key, authority, &inputs.base, FEED_T0)
            .map_err(err)?;
        let publisher = Arc::new(Mutex::new(publisher));
        let node_path = socket_path("n", tag);
        let node = FeedDistributionNode::spawn(Arc::clone(&publisher), &node_path)
            .map_err(|e| format!("node spawn: {e}"))?;

        let mut subscriber = Subscriber::builder("trustd", trust.clone()).build();
        subscriber
            .sync_now(&mut publisher.lock().expect("publisher mutex"))
            .map_err(err)?;
        let subscriber = Arc::new(Mutex::new(subscriber));
        daemon.attach_feed(Arc::clone(&subscriber));
        daemon.refresh_from_feed();
        let mut remote = Subscriber::builder("remote", trust.clone()).connect(&node_path);
        remote.sync_once(FEED_T0).map_err(err)?;

        Ok(World {
            client: daemon.keep_alive_client(),
            remote,
            subscriber,
            publisher,
            node,
            daemon,
            trust,
            primary: inputs.base.clone(),
            distrusted: vec![false; inputs.roots.len()],
            sequence: 1,
            feed_now: FEED_T0,
            shadow: trace.as_ref().map(|_| Shadow::new(cache_capacity)),
            trace,
            replica: inputs.base.clone(),
        })
    }

    /// One verdict round trip through `DaemonClient::evaluate`,
    /// replayed through the shadow pipeline first when tracing.
    /// Returns the reply and the round-trip time. Every request runs
    /// the shadow, so its caches track the daemon's, but only one pool
    /// request in `TRACE_SAMPLE` keeps its spans; `keep` keeps them
    /// regardless (the enforcement requests).
    fn request(
        &mut self,
        chain: &[Certificate],
        usage: Usage,
        keep: bool,
        rec: &mut Recorder,
    ) -> (Option<Vec<GccVerdict>>, u64) {
        rec.verdict_requests += 1;
        let (reply, ns, shadow) = match (&mut self.trace, &mut self.shadow) {
            (Some(trace), Some(shadow)) => {
                let mark = trace.spans.len();
                let req = trace.request_id();
                let span_req = trace.open(Name::Request, NO_PARENT, req);
                let shadowed = shadow.evaluate(chain, usage, &self.replica, trace, span_req, req);
                let span = trace.open(Name::Roundtrip, span_req, req);
                let t = Instant::now();
                let reply = self.client.evaluate(chain, usage);
                let ns = t.elapsed().as_nanos() as u64;
                trace.close(span);
                trace.close(span_req);
                if !keep && req % TRACE_SAMPLE != 0 {
                    trace.spans.truncate(mark);
                }
                (reply, ns, Some(shadowed))
            }
            _ => {
                let t = Instant::now();
                let reply = self.client.evaluate(chain, usage);
                (reply, t.elapsed().as_nanos() as u64, None)
            }
        };
        let reply = match reply {
            Ok(v) => v,
            Err(e) => {
                rec.fail(format!("evaluate: {e}"));
                return (None, ns);
            }
        };
        match shadow {
            Some(Ok(s)) if !same_verdicts(&s, &reply) => {
                rec.mismatch("shadow verdicts differ from the daemon's".into())
            }
            Some(Err(e)) => rec.mismatch(format!("shadow pipeline: {e}")),
            _ => {}
        }
        (Some(reply), ns)
    }

    /// Expected verdicts for pool chain `c` in the current feed state.
    pub fn expected<'a>(&self, inputs: &'a Inputs, c: usize) -> &'a [GccVerdict] {
        inputs.expected(c, &self.distrusted)
    }

    /// One pool request, checked against the expected verdicts.
    pub fn verdict(&mut self, inputs: &Inputs, c: usize, rec: &mut Recorder) {
        rec.attempted += 1;
        let pc = &inputs.pool[c];
        let (reply, ns) = self.request(&pc.chain, pc.usage, false, rec);
        if let Some(reply) = reply {
            if !same_verdicts(&reply, inputs.expected(c, &self.distrusted)) {
                rec.mismatch(format!("pool chain {c}: unexpected verdicts"));
            }
        }
        if rec.recording {
            rec.latency_ns.push(ns);
        }
    }

    /// One idle re-poll of the node over the keep-alive connection.
    pub fn repoll(&mut self, rec: &mut Recorder) {
        rec.attempted += 1;
        rec.node_requests += 1;
        let t = Instant::now();
        let now = self.feed_now;
        let remote = &mut self.remote;
        let report = timed(&mut self.trace, Name::Repoll, NO_PARENT, 0, || {
            remote.sync_once(now)
        });
        let ns = t.elapsed().as_nanos() as u64;
        match report {
            Ok(r)
                if r.deltas_applied == 0 && !r.snapshot_applied && r.sequence == self.sequence => {}
            Ok(_) => rec.mismatch("idle re-poll changed the replica".into()),
            Err(e) => rec.fail(format!("re-poll: {e}")),
        }
        if rec.recording {
            rec.repoll_ns.push(ns);
        }
    }

    /// One feed cycle: publish a one-root GCC attach or detach, enforce
    /// it on the daemon, sync it to the remote subscriber through the
    /// node, run `repolls` idle re-polls and `passes` passes over the
    /// pool. `Err` means the feed diverged and no later cycle can run.
    pub fn cycle(
        &mut self,
        inputs: &Inputs,
        root: usize,
        repolls: usize,
        passes: usize,
        rec: &mut Recorder,
    ) -> Result<(), ()> {
        rec.attempted += 1;
        let fp = inputs.roots[root].fingerprint();
        let attach = !self.distrusted[root];
        if attach {
            self.primary
                .attach_gcc(inputs.distrust[root].clone())
                .expect("pool root is trusted");
        } else {
            self.primary
                .detach_gcc(&fp, &inputs.distrust[root].source_hash());
        }
        let before = self.distrusted.clone();
        self.distrusted[root] = attach;
        self.feed_now += 1;
        self.sequence += 1;
        if let Err(e) = self.enforce(inputs, root, &before, rec) {
            rec.fail(e);
            return Err(());
        }

        rec.node_requests += 1;
        let now = self.feed_now;
        let remote = &mut self.remote;
        let report = timed(&mut self.trace, Name::DeltaSync, NO_PARENT, 0, || {
            remote.sync_once(now)
        });
        match report {
            Ok(r) if r.deltas_applied == 1 && r.sequence == self.sequence => {}
            Ok(_) => {
                rec.mismatch("remote delta sync applied the wrong updates".into());
                return Err(());
            }
            Err(e) => {
                rec.fail(format!("remote delta sync: {e}"));
                return Err(());
            }
        }
        if !inputs.store_matches(self.remote.store(), &self.distrusted) {
            rec.mismatch("remote replica differs from the primary".into());
            return Err(());
        }

        for _ in 0..repolls {
            self.repoll(rec);
        }
        for _ in 0..passes {
            for c in 0..inputs.pool.len() {
                self.verdict(inputs, c, rec);
            }
        }
        Ok(())
    }

    /// Publish → in-process `Subscriber::sync_now` →
    /// `TrustDaemon::refresh_from_feed` → the first verdict over the
    /// socket, which must show the flip. Traced runs also time the
    /// publisher's checkpoint and fetch and replay the subscriber's
    /// steps on the fetched bytes.
    fn enforce(
        &mut self,
        inputs: &Inputs,
        root: usize,
        before: &[bool],
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let req = self.trace.as_mut().map_or(0, Trace::request_id);
        let cycle = self
            .trace
            .as_mut()
            .map_or(NO_PARENT, |t| t.open(Name::Cycle, NO_PARENT, req));
        let t0 = Instant::now();
        let publisher_handle = Arc::clone(&self.publisher);
        let mut publisher = publisher_handle.lock().expect("publisher mutex");
        let prev = publisher.sequence();
        let primary = &self.primary;
        let now = self.feed_now;
        let published = timed(&mut self.trace, Name::Publish, cycle, req, || {
            publisher.publish(primary, now)
        })
        .map_err(|e| format!("publish: {e}"))?;
        if !published || publisher.sequence() != self.sequence {
            return Err("publish did not advance the feed".into());
        }

        let mut taint = None;
        if self.trace.is_some() {
            let checkpoint = timed(&mut self.trace, Name::Checkpoint, cycle, req, || {
                publisher.checkpoint()
            })
            .map_err(|e| format!("checkpoint: {e}"))?;
            let fetched: Vec<Vec<u8>> = {
                let messages = timed(&mut self.trace, Name::Fetch, cycle, req, || {
                    publisher.fetch(prev)
                });
                messages.iter().map(|m| m.encode()).collect()
            };
            if fetched.len() != 1 {
                return Err(format!("fetch returned {} messages", fetched.len()));
            }
            taint = Some(self.replay(&fetched[0], &checkpoint, cycle, req)?);
            if !inputs.store_matches(&self.replica, &self.distrusted) {
                return Err("replayed replica differs from the primary".into());
            }
        }

        {
            let subscriber = &self.subscriber;
            let publisher = &mut publisher;
            let report = timed(&mut self.trace, Name::Sync, cycle, req, || {
                subscriber
                    .lock()
                    .expect("subscriber mutex")
                    .sync_now(publisher)
            })
            .map_err(|e| format!("subscriber sync: {e}"))?;
            if report.deltas_applied != 1 || report.sequence != self.sequence {
                return Err("subscriber sync applied the wrong updates".into());
            }
        }
        drop(publisher);
        {
            let subscriber = self.subscriber.lock().expect("subscriber mutex");
            if subscriber.sequence() != self.sequence
                || !inputs.store_matches(subscriber.store(), &self.distrusted)
            {
                return Err("daemon's subscriber differs from the primary".into());
            }
        }

        let cached = self.daemon.oracle().cache().len();
        let daemon = &self.daemon;
        let evicted = timed(&mut self.trace, Name::Refresh, cycle, req, || {
            daemon.refresh_from_feed()
        })
        .ok_or("no feed attached to the daemon")?;
        if let (Some(shadow), Some(taint)) = (&self.shadow, &taint) {
            shadow.verdicts.invalidate_taint(taint);
        }

        let c = inputs.probe[root];
        let pc = &inputs.pool[c];
        let (reply, _) = self.request(&pc.chain, pc.usage, true, rec);
        let enforce_ns = t0.elapsed().as_nanos() as u64;
        if let Some(t) = self.trace.as_mut() {
            t.close(cycle);
        }
        let reply = reply.ok_or("enforcement request failed")?;
        if !same_verdicts(&reply, inputs.expected(c, &self.distrusted)) {
            rec.mismatch(format!(
                "probe chain {c}: verdict does not reflect the delta"
            ));
        } else if same_verdicts(&reply, inputs.expected(c, before)) {
            rec.mismatch(format!("probe chain {c}: verdict did not flip"));
        }
        if rec.recording {
            rec.enforce_ns.push(enforce_ns);
            rec.invalidated.push((evicted, cached));
        }
        Ok(())
    }

    /// The subscriber's steps, replayed on the fetched bytes: decode,
    /// verify under the quorum trust, verify the witnessed checkpoint,
    /// compute the taint on the pre-image replica, apply.
    fn replay(
        &mut self,
        bytes: &[u8],
        checkpoint: &nrslb_rsf::Checkpoint,
        cycle: u32,
        req: u32,
    ) -> Result<TaintSet, String> {
        let (message, delta) = timed(&mut self.trace, Name::Decode, cycle, req, || {
            SignedMessage::decode(bytes).and_then(|m| Delta::decode(&m.payload).map(|d| (m, d)))
        })
        .map_err(|e| format!("decode: {e}"))?;
        let trust = &self.trust;
        timed(&mut self.trace, Name::Verify, cycle, req, || {
            message.verify(trust)
        })
        .map_err(|e| format!("verify: {e}"))?;
        timed(&mut self.trace, Name::WitnessVerify, cycle, req, || {
            checkpoint.verify_with_trust(&message.feed_key, trust)
        })
        .map_err(|e| format!("witness verify: {e}"))?;
        let replica = &mut self.replica;
        let taint = timed(&mut self.trace, Name::Taint, cycle, req, || {
            TaintSet::of_delta(&delta, replica)
        });
        timed(&mut self.trace, Name::Apply, cycle, req, || {
            delta.apply(replica)
        })
        .map_err(|e| format!("apply: {e}"))?;
        Ok(taint)
    }
}

/// Sum of a Prometheus counter family across its label sets.
pub fn counter_total(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}
