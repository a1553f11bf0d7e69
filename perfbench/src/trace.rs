//! Traced mode: in-memory spans timed around the public calls of each
//! layer, and the shadow pipeline that replays every verdict request
//! through the daemon's own building blocks before it is sent.

use nrslb_core::session::chain_content_key;
use nrslb_core::{
    GccVerdict, ParsedCertCache, ValidationSession, VerdictCache, VerdictKey, DEFAULT_CACHE_SHARDS,
    DEFAULT_CERT_CACHE_CAPACITY,
};
use nrslb_rootstore::{RootStore, Usage};
use nrslb_x509::Certificate;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Span names, one per timed boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One verdict request: the shadow replay, then the round trip.
    Request,
    CertCache,
    ChainKey,
    VerdictProbe,
    Facts,
    Datalog,
    Roundtrip,
    /// One feed cycle, publish to the node's delta sync.
    Cycle,
    Publish,
    Checkpoint,
    Fetch,
    Decode,
    Verify,
    WitnessVerify,
    Taint,
    Apply,
    Sync,
    Refresh,
    DeltaSync,
    Repoll,
}

const NAMES: [&str; 20] = [
    "request",
    "cert_cache",
    "chain_key",
    "verdict_probe",
    "facts",
    "datalog",
    "daemon.roundtrip",
    "cycle",
    "rsf.publish",
    "rsf.checkpoint",
    "rsf.fetch",
    "rsf.decode",
    "rsf.verify",
    "rsf.witness_verify",
    "rsf.taint",
    "rsf.apply",
    "rsf.sync",
    "daemon.refresh",
    "rsf.delta_sync",
    "rsf.repoll",
];

/// The parent of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub req: u32,
    /// Work items the span covers (verdict keys for a cache probe).
    pub units: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    next_req: u32,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            next_req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh request id for a new root span.
    pub fn request_id(&mut self) -> u32 {
        self.next_req += 1;
        self.next_req
    }

    pub fn open(&mut self, name: Name, parent: u32, req: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            units: 1,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        let end = self.now_ns();
        self.spans[span as usize].end_ns = end;
    }

    /// Self time of every span: its duration minus the time its
    /// children cover (children of one span never overlap here).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Write every span as tab-separated text: name, parent index,
    /// request id, work items, start and end in ns since the trace
    /// began.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# name\tparent\treq\tunits\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                NAMES[s.name as usize], s.req, s.units, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Time `f` as a span named `name` under `parent` when tracing; call
/// it bare otherwise.
pub fn timed<T>(
    trace: &mut Option<Trace>,
    name: Name,
    parent: u32,
    req: u32,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some(t) => {
            let span = t.open(name, parent, req);
            let out = f();
            t.close(span);
            out
        }
        None => f(),
    }
}

/// The daemon's evaluation path rebuilt from the same public types,
/// with the same cache geometry, so every replayed request hits or
/// misses exactly where the daemon does.
pub struct Shadow {
    certs: ParsedCertCache,
    pub verdicts: VerdictCache,
    /// GCC evaluations run (verdict-cache misses).
    pub evals: u64,
}

impl Shadow {
    pub fn new(verdict_capacity: usize) -> Shadow {
        Shadow {
            certs: ParsedCertCache::new(DEFAULT_CERT_CACHE_CAPACITY),
            verdicts: VerdictCache::with_shards(verdict_capacity, DEFAULT_CACHE_SHARDS),
            evals: 0,
        }
    }

    /// Replay one request against `store`, recording spans under
    /// `parent`.
    pub fn evaluate(
        &mut self,
        chain: &[Certificate],
        usage: Usage,
        store: &RootStore,
        trace: &mut Trace,
        parent: u32,
        req: u32,
    ) -> Result<Vec<GccVerdict>, String> {
        let span = trace.open(Name::CertCache, parent, req);
        let mut parsed = Vec::with_capacity(chain.len());
        for cert in chain {
            let der = cert.to_der();
            let key = ParsedCertCache::key_of(der);
            let handle = match self.certs.peek_keyed(key, der) {
                Some(c) => c,
                None => self
                    .certs
                    .parse_keyed(key, der)
                    .map_err(|e| e.to_string())?,
            };
            parsed.push(handle);
        }
        trace.close(span);

        let span = trace.open(Name::ChainKey, parent, req);
        let chain_key = chain_content_key(&parsed);
        trace.close(span);

        let Some(root) = parsed.last() else {
            return Ok(Vec::new());
        };
        let gccs = store.gccs_for(&root.fingerprint());
        // Probe, evaluate and insert key by key, in the daemon's order,
        // so LRU evictions match too. The probe span's duration is the
        // sum of the per-key lookups, which interleave with evaluation
        // on a miss; per-key time is that duration over `units`.
        let probe = trace.open(Name::VerdictProbe, parent, req);
        let mut probe_ns = 0u64;
        let mut session: Option<ValidationSession> = None;
        let mut verdicts = Vec::with_capacity(gccs.len());
        for gcc in gccs {
            let key = VerdictKey {
                chain: chain_key,
                gcc: gcc.source_hash(),
                usage,
            };
            let t = Instant::now();
            let cached = self.verdicts.get(&key);
            probe_ns += t.elapsed().as_nanos() as u64;
            let accepted = match cached {
                Some(v) => v,
                None => {
                    if session.is_none() {
                        let span = trace.open(Name::Facts, parent, req);
                        session = Some(ValidationSession::new(&parsed));
                        trace.close(span);
                    }
                    let session = session.as_ref().expect("session just built");
                    let span = trace.open(Name::Datalog, parent, req);
                    let v = session
                        .evaluate_gcc(gcc, usage)
                        .map_err(|e| e.to_string())?;
                    trace.close(span);
                    self.evals += 1;
                    // The daemon's taint tags: root, issuer keys, and
                    // the policy's attachment point.
                    let mut tags = Vec::with_capacity(parsed.len() + 1);
                    tags.push(root.fingerprint());
                    for issuer in parsed.iter().skip(1) {
                        tags.push(issuer.public_key().fingerprint());
                    }
                    tags.push(gcc.target());
                    self.verdicts.insert_tainted(key, v, &tags);
                    v
                }
            };
            verdicts.push(GccVerdict {
                gcc_name: Arc::clone(gcc.name_shared()),
                accepted,
            });
        }
        let span = &mut trace.spans[probe as usize];
        span.end_ns = span.start_ns + probe_ns;
        span.units = gccs.len().max(1) as u16;
        Ok(verdicts)
    }
}
