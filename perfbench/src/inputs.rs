//! Seeded inputs, all generated before any timer starts: the chain
//! pool, the incident GCCs each pool root carries, the per-root
//! partial-distrust GCCs the feed toggles, the delta schedule, the key
//! seeds, and the verdict every request must get back.

use nrslb_core::validate::{GccOracle, InProcessOracle};
use nrslb_core::GccVerdict;
use nrslb_rootstore::{Gcc, GccMetadata, RootStore, Usage};
use nrslb_sim::{ChainGenConfig, ChainGenerator, ChainMutation};
use nrslb_x509::Certificate;
use rand::prelude::*;

/// Trusted roots in the pool PKI.
pub const ROOTS: usize = 3;
/// Quorum shape of the feed's coordinating body.
pub const QUORUM_K: u8 = 2;
pub const QUORUM_N: u8 = 3;
/// Publish timestamp of the feed's first snapshot.
pub const FEED_T0: i64 = 1_700_000_000;

/// CA validity is anchored here (Dec 2014); leaves are issued between
/// this instant and `LATEST_ISSUANCE`, so the pool straddles the 2016 and
/// 2022 cutoffs of the incident GCCs and their verdicts are mixed.
const EPOCH: i64 = 1_420_000_000;
const LATEST_ISSUANCE: i64 = 1_690_000_000;

/// Mutations that keep the chain anchored at a trusted pool root, so
/// every request runs that root's GCCs. Pristine is weighted up. The
/// k-th pool chain gets mutation `k % 9` and every fourth asks for
/// S/MIME, so every seed's pool has the same mix. The mix is the
/// benchmark's choice, made so verdicts are mixed accepts and rejects;
/// it is not drawn from measured traffic.
const MUTATIONS: [ChainMutation; 9] = [
    ChainMutation::Pristine,
    ChainMutation::Pristine,
    ChainMutation::Pristine,
    ChainMutation::Pristine,
    ChainMutation::ExpiredLeaf,
    ChainMutation::NotYetValidLeaf,
    ChainMutation::WrongEku,
    ChainMutation::EvLeaf,
    ChainMutation::OutOfScopeSan,
];

/// One request of the pool.
pub struct PoolChain {
    /// Leaf first, root last.
    pub chain: Vec<Certificate>,
    pub usage: Usage,
    /// Index of the anchoring root.
    pub root: usize,
    /// Expected verdicts with the root's partial-distrust GCC detached
    /// (`[0]`) and attached (`[1]`).
    pub expected: [Vec<GccVerdict>; 2],
}

pub struct Inputs {
    pub pool: Vec<PoolChain>,
    pub roots: Vec<Certificate>,
    /// The primary store before any delta: incident GCCs only.
    pub base: RootStore,
    /// Per root: the partial-distrust GCC the feed attaches and detaches.
    pub distrust: Vec<Gcc>,
    /// Per root: the pool chain whose verdict proves enforcement.
    pub probe: Vec<usize>,
    /// Root toggled by each feed cycle, warm-up cycles first.
    pub schedule: Vec<usize>,
    pub authority_seed: [u8; 32],
    pub feed_key_seed: [u8; 32],
    /// One-time-signature tree heights sized to the schedule.
    pub signer_height: u8,
    pub feed_key_height: u8,
}

impl Inputs {
    /// Build every input for `pool_size` chains and `cycles` feed
    /// deltas from `seed`.
    pub fn generate(seed: u64, pool_size: usize, cycles: usize) -> Result<Inputs, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e72_736c_6231_3221);
        let config = ChainGenConfig {
            seed: rng.gen::<u64>(),
            roots: ROOTS,
            intermediates_per_root: 1,
        };
        let mut generator = ChainGenerator::new(&config, EPOCH);
        let roots = generator.trusted_roots();

        // Draw until every root holds an equal share of the pool: the
        // generator picks the root, so surplus draws are discarded.
        let quota = pool_size.div_ceil(ROOTS);
        let mut per_root = [0usize; ROOTS];
        let mut drawn: Vec<(Vec<Certificate>, Usage, usize)> = Vec::with_capacity(quota * ROOTS);
        while drawn.len() < quota * ROOTS {
            let k = drawn.len();
            let mutation = MUTATIONS[k % MUTATIONS.len()];
            let now = rng.gen_range(EPOCH..LATEST_ISSUANCE);
            let usage = if k % 4 == 3 { Usage::SMime } else { Usage::Tls };
            let sample = generator.sample_with(mutation, now);
            let root = sample
                .root_index
                .ok_or("pool chain anchored at the rogue root")?;
            if per_root[root] < quota {
                per_root[root] += 1;
                drawn.push((sample.chain, usage, root));
            }
        }

        // Every root carries every catalog GCC, in a seeded order, so
        // each request runs the same policy work on every seed. The
        // trailing comment makes each attachment's source hash unique,
        // so a delta on one root taints no verdict of another.
        let catalog = incident_gccs();
        let mut base = RootStore::new("primary");
        for (i, root) in roots.iter().enumerate() {
            base.add_trusted(root.clone()).map_err(|e| e.to_string())?;
            let mut order: Vec<usize> = (0..catalog.len()).collect();
            for slot in 0..order.len() {
                let j = rng.gen_range(slot..order.len());
                order.swap(slot, j);
                let (name, source) = &catalog[order[slot]];
                let source = format!("{source}\n% attached to pool root {i}\n");
                let gcc = Gcc::parse(name, root.fingerprint(), &source, GccMetadata::default())
                    .map_err(|e| format!("{name}: {e}"))?;
                base.attach_gcc(gcc).map_err(|e| e.to_string())?;
            }
        }

        // Partial distrust of leaves issued at or after the median
        // issuance time of the root's pool chains: about half of them
        // flip to rejected while it is attached.
        let mut distrust = Vec::with_capacity(ROOTS);
        let mut probe = Vec::with_capacity(ROOTS);
        for (i, root) in roots.iter().enumerate() {
            let mut issued: Vec<(i64, usize)> = drawn
                .iter()
                .enumerate()
                .filter(|(_, (_, _, r))| *r == i)
                .map(|(c, (chain, _, _))| (chain[0].validity().not_before, c))
                .collect();
            issued.sort_unstable();
            let (cutoff, probe_chain) = issued[issued.len() / 2];
            let source = format!(
                "distrustCutoff({cutoff}).\n\
                 valid(Chain, _) :- leaf(Chain, C), notBefore(C, NB), distrustCutoff(T), NB < T.\n\
                 % partial distrust of pool root {i}\n"
            );
            let name = format!("partial-distrust-r{i}");
            let gcc = Gcc::parse(&name, root.fingerprint(), &source, GccMetadata::default())
                .map_err(|e| format!("{name}: {e}"))?;
            distrust.push(gcc);
            probe.push(probe_chain);
        }

        let mut all_distrusted = base.clone();
        for gcc in &distrust {
            all_distrusted
                .attach_gcc(gcc.clone())
                .map_err(|e| e.to_string())?;
        }
        let oracles = [
            InProcessOracle::new(base.clone()),
            InProcessOracle::new(all_distrusted),
        ];
        let mut pool = Vec::with_capacity(drawn.len());
        for (chain, usage, root) in drawn {
            let off = oracles[0]
                .evaluate(&chain, usage)
                .map_err(|e| e.to_string())?;
            let on = oracles[1]
                .evaluate(&chain, usage)
                .map_err(|e| e.to_string())?;
            pool.push(PoolChain {
                chain,
                usage,
                root,
                expected: [off, on],
            });
        }
        for &p in &probe {
            let [off, on] = &pool[p].expected;
            if same_verdicts(off, on) {
                return Err("a distrust toggle leaves its probe verdict unchanged".into());
            }
        }

        // Rounds that each toggle every root once, in a seeded order:
        // after n cycles, n mod 2*ROOTS alone fixes how many roots are
        // distrusted, so every seed runs the same number of GCCs per
        // request at the same point of the run.
        let mut schedule = Vec::with_capacity(cycles + ROOTS);
        while schedule.len() < cycles {
            let mut round: Vec<usize> = (0..ROOTS).collect();
            for slot in 0..ROOTS {
                let j = rng.gen_range(slot..ROOTS);
                round.swap(slot, j);
            }
            schedule.extend(round);
        }
        schedule.truncate(cycles);
        let mut authority_seed = [0u8; 32];
        let mut feed_key_seed = [0u8; 32];
        rng.fill(&mut authority_seed);
        rng.fill(&mut feed_key_seed);
        // Feed key: the bootstrap snapshot, then one delta and one
        // checkpoint per cycle, plus the bootstrap checkpoint. Each
        // signer: the feed-key endorsement plus one witness per
        // checkpoint. One spare signature each.
        let feed_key_height = tree_height(2 * cycles + 3);
        let signer_height = tree_height(cycles + 3);
        Ok(Inputs {
            pool,
            roots,
            base,
            distrust,
            probe,
            schedule,
            authority_seed,
            feed_key_seed,
            signer_height,
            feed_key_height,
        })
    }

    /// Expected verdicts for pool chain `c` given the per-root
    /// partial-distrust state.
    pub fn expected(&self, c: usize, distrusted: &[bool]) -> &[GccVerdict] {
        let pc = &self.pool[c];
        &pc.expected[usize::from(distrusted[pc.root])]
    }

    /// Does `store` carry exactly the GCCs of the primary in state
    /// `distrusted`? Compared by source hash, per root.
    pub fn store_matches(&self, store: &RootStore, distrusted: &[bool]) -> bool {
        self.roots.iter().enumerate().all(|(i, root)| {
            let fp = root.fingerprint();
            let mut want: Vec<_> = self
                .base
                .gccs_for(&fp)
                .iter()
                .map(|g| g.source_hash())
                .collect();
            if distrusted[i] {
                want.push(self.distrust[i].source_hash());
            }
            let mut got: Vec<_> = store
                .gccs_for(&fp)
                .iter()
                .map(|g| g.source_hash())
                .collect();
            want.sort_unstable_by_key(|d| d.0);
            got.sort_unstable_by_key(|d| d.0);
            want == got
        })
    }
}

/// Verdict lists are equal when they name the same GCCs with the same
/// outcomes; the order follows the store's attachment order, which a
/// snapshot or delta may permute.
pub fn same_verdicts(got: &[GccVerdict], want: &[GccVerdict]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let eq = |a: &GccVerdict, b: &GccVerdict| a.accepted == b.accepted && a.gcc_name == b.gcc_name;
    if got.iter().zip(want).all(|(a, b)| eq(a, b)) {
        return true;
    }
    got.iter().all(|a| want.iter().any(|b| eq(a, b)))
}

/// Name and source of every GCC the incident catalog attaches.
fn incident_gccs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for spec in nrslb_incidents::all_incidents() {
        let scenario = (spec.build)();
        for gcc in scenario
            .store
            .gccs_for(&scenario.affected_root.fingerprint())
        {
            out.push((gcc.name().to_string(), gcc.source().to_string()));
        }
    }
    out
}

/// Smallest tree height whose `2^h` one-time signatures cover `needed`.
fn tree_height(needed: usize) -> u8 {
    let mut h = 4u8;
    while (1usize << h) < needed {
        h += 1;
    }
    h
}
