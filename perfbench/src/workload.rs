//! The four workloads: seeded catalogs and seeded op plans.
//!
//! The catalog of each workload is fixed (generated from
//! [`CATALOG_SEED`]), so runs with different seeds do the same kind and
//! amount of work. The workload seed drives the op plan: the order of the
//! op classes, every op's target relation, the content a write installs
//! and every op's randomness, the item stream
//! `SeedSequence::new(seed).item_stream(i)` (sent over HTTP as
//! `"seed"`/`"stream"`). The engine never sees the seed itself.

use rand::rngs::StdRng;
use rand::Rng;

use cdb_constraint::{parse_formula, Formula, GeneralizedRelation, GeneralizedTuple};
use cdb_sampler::{GeneratorParams, SeedSequence, DEFAULT_PREPARED_STORE_CAPACITY};
use cdb_workloads::sessions::{polytope_soup, SessionMix, SoupSpec};

/// Points drawn by one sample-batch op.
pub const BATCH_N: usize = 16;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One in-process client over a warmed shared-content soup.
    WarmInproc,
    /// The `WarmInproc` catalog and plan served by `cdb-server` on loopback.
    HttpWarm,
    /// Zipf-skewed reads plus writes over a catalog larger than the store.
    ChurnInproc,
    /// 2-ary positive existential reconstructions of 3-D/4-D bodies.
    Recon2d,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmInproc,
        Workload::HttpWarm,
        Workload::ChurnInproc,
        Workload::Recon2d,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmInproc => "warm_inproc",
            Workload::HttpWarm => "http_warm",
            Workload::ChurnInproc => "churn_inproc",
            Workload::Recon2d => "recon_2d",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per second of `--seconds`: the plan holds `seconds × rate` ops,
    /// sized so the measured phase lasts about `seconds` on a 2-core VM.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::WarmInproc | Workload::HttpWarm => 4_500,
            Workload::ChurnInproc => 250,
            Workload::Recon2d => 5,
        }
    }

    /// Plan length for a run of `seconds` (at least 120 ops, so p90 always
    /// has at least ten ops beyond it).
    pub fn ops_for(self, seconds: u64) -> usize {
        (self.ops_per_second() * seconds as usize).max(120)
    }
}

/// What one op does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// One point (`/v1/sample`).
    Sample,
    /// [`BATCH_N`] points through the seeded fan-out (`/v1/sample-batch`).
    Batch,
    /// One volume estimate (`/v1/volume`).
    Volume,
    /// Replace a relation with fresh content.
    Insert,
    /// Reconstruct a 2-ary projection.
    Reconstruct,
}

impl OpKind {
    /// Every op kind, in report order.
    pub const ALL: [OpKind; 5] = [
        OpKind::Sample,
        OpKind::Batch,
        OpKind::Volume,
        OpKind::Insert,
        OpKind::Reconstruct,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Sample => "sample",
            OpKind::Batch => "batch16",
            OpKind::Volume => "volume",
            OpKind::Insert => "insert",
            OpKind::Reconstruct => "reconstruct",
        }
    }
}

/// One op of a plan. Op `i` draws from `SeedSequence::new(seed).item_stream(i)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// What the op does.
    pub kind: OpKind,
    /// Index of the target relation name.
    pub rel: usize,
    /// Content the target holds while the op runs (for an insert: the
    /// content it writes), an index into [`Plan::bodies`].
    pub body: usize,
}

/// A relation body with its ground truth.
#[derive(Clone, Debug)]
pub struct Body {
    /// The relation.
    pub relation: GeneralizedRelation,
    /// Closed-form volume (unions of disjoint boxes); `0` for the
    /// reconstruction bodies, whose truth is the symbolic answer.
    pub volume: f64,
}

/// A workload's catalog and op plan.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Generator parameters of the database.
    pub params: GeneratorParams,
    /// Relation names.
    pub names: Vec<String>,
    /// Content pool: the initial bodies, then the fresh ones inserts write.
    pub bodies: Vec<Body>,
    /// Initial content of each name.
    pub initial: Vec<usize>,
    /// Per name, the reconstruction query over it (`recon_2d` only).
    pub queries: Vec<Option<Formula>>,
    /// Names the set-up warm-up pass prepares: every name of the warm
    /// workloads, the store-capacity hottest names of `churn_inproc`.
    pub warm: Vec<usize>,
    /// The ops.
    pub ops: Vec<Op>,
}

/// Seed of the fixed catalogs.
pub const CATALOG_SEED: u64 = 0x00C0_FFEE;

/// Soup sizes of the warm workloads: 16 distinct bodies behind 32 names fit
/// the default 64-entry store (8 shards of 8) with room to spare.
const WARM_NAMES: usize = 32;
const WARM_POOL: usize = 16;
/// Churn catalog: four times the default store capacity, all distinct.
const CHURN_NAMES: usize = 256;
/// Share of churn ops that are writes: the 95/5 read/update split of YCSB
/// workload B ("read mostly"; Cooper et al., *Benchmarking Cloud Serving
/// Systems with YCSB*, SoCC 2010).
const CHURN_WRITE_SHARE: f64 = 0.05;
/// Zipf exponent of churn reads: YCSB's default zipfian constant.
const CHURN_ZIPF: f64 = 0.99;
/// Generator `eps` of `recon_2d`: the Lemma 4.1 sample size for a 2-ary
/// output at `(0.875, 0.1)` is 252 points per piece.
const RECON_EPS: f64 = 0.875;

/// Orders `counts[k]` copies of each kind at seeded random positions, so
/// the class mix is exact and only the order depends on the seed.
fn shuffled_kinds(counts: &[(OpKind, usize)], rng: &mut StdRng) -> Vec<OpKind> {
    let mut kinds: Vec<OpKind> = counts
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }
    kinds
}

/// Splits `total` ops by relative weights; the first kind takes the rest.
fn exact_mix(total: usize, weights: &[(OpKind, f64)]) -> Vec<(OpKind, usize)> {
    let sum: f64 = weights.iter().map(|w| w.1).sum();
    let mut counts: Vec<(OpKind, usize)> = weights
        .iter()
        .map(|&(k, w)| (k, (total as f64 * w / sum) as usize))
        .collect();
    let assigned: usize = counts[1..].iter().map(|c| c.1).sum();
    counts[0].1 = total - assigned;
    counts
}

/// The read classes weighted by a repository session blend. The blend's
/// reconstruction weight goes to sample-batch(16): these workloads leave
/// the hull out by design, and the batch is the other multi-result read.
fn read_weights(mix: SessionMix, scale: f64) -> [(OpKind, f64); 3] {
    [
        (OpKind::Sample, scale * mix.sample),
        (OpKind::Batch, scale * mix.reconstruction),
        (OpKind::Volume, scale * mix.volume),
    ]
}

/// Cumulative Zipf weights over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn zipf_pick(cdf: &[f64], rank_to_name: &[usize], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
    rank_to_name[rank]
}

fn soup_bodies(names: usize, pool: usize, rng: &mut StdRng) -> (Vec<Body>, Vec<usize>) {
    let soup = polytope_soup(
        &SoupSpec {
            names,
            pool,
            map_size: 10.0,
        },
        rng,
    );
    let mut bodies = vec![None; pool];
    for ((_, relation), (&k, &volume)) in soup
        .entries
        .iter()
        .zip(soup.pool_index.iter().zip(&soup.exact_volumes))
    {
        bodies[k].get_or_insert_with(|| Body {
            relation: relation.clone(),
            volume,
        });
    }
    let bodies = bodies
        .into_iter()
        .map(|b| b.expect("every pool body backs a name"))
        .collect();
    (bodies, soup.pool_index)
}

/// Shape `(dimension, pieces)` of each `recon_2d` body: two one-box 3-D
/// bodies, three two-box 3-D bodies and one one-box 4-D body, in rising
/// query cost.
const RECON_SHAPES: [(usize, usize); 6] = [(3, 1), (3, 1), (3, 2), (3, 2), (3, 2), (4, 1)];

/// The body behind each `recon_2d` name. Targets are picked uniformly over
/// the names, as `cdb_bench::load` picks them, and, as in the session soups,
/// names share content: each two-box body and the 4-D body back two names.
/// The one-box bodies thus take 20% of the ops, the two-box ones 60% and
/// the 4-D body 20%, so p50 lies in the middle of the two-box ops and p90
/// among the 4-D body's ops, not at the edge between two groups of
/// different cost.
const RECON_NAME_BODIES: [usize; 10] = [0, 1, 2, 2, 3, 3, 4, 4, 5, 5];

/// A coordinate in `[lo, hi)` on the 1/16 grid: small rationals keep the
/// symbolic (Fourier–Motzkin) answers well scaled.
fn grid(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo..hi) * 16.0).round() / 16.0
}

/// A union of `pieces` random boxes in `[0, 6]^dim`.
fn recon_body(dim: usize, pieces: usize, rng: &mut StdRng) -> GeneralizedRelation {
    let tuples = (0..pieces)
        .map(|_| {
            let lo: Vec<f64> = (0..dim).map(|_| grid(rng, 0.0, 3.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + grid(rng, 1.0, 3.0)).collect();
            GeneralizedTuple::from_box_f64(&lo, &hi)
        })
        .collect();
    GeneralizedRelation::from_tuples(dim, tuples)
}

impl Plan {
    /// Builds the catalog and the `ops`-long plan of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64, ops: usize) -> Plan {
        let mut content_rng = SeedSequence::new(CATALOG_SEED).setup_stream().rng();
        let mut plan_rng = SeedSequence::new(seed).setup_stream().child(2).rng();
        let mut params = GeneratorParams::default();
        let mut queries = Vec::new();
        let (names, mut bodies, initial, warm, ops) = match workload {
            Workload::WarmInproc | Workload::HttpWarm => {
                let (bodies, initial) = soup_bodies(WARM_NAMES, WARM_POOL, &mut content_rng);
                let mix = exact_mix(ops, &read_weights(SessionMix::read_heavy(), 1.0));
                let ops = shuffled_kinds(&mix, &mut plan_rng)
                    .into_iter()
                    .map(|kind| {
                        let rel = plan_rng.gen_range(0..WARM_NAMES);
                        Op {
                            kind,
                            rel,
                            body: initial[rel],
                        }
                    })
                    .collect();
                (WARM_NAMES, bodies, initial, (0..WARM_NAMES).collect(), ops)
            }
            Workload::ChurnInproc => {
                let (bodies, initial) = soup_bodies(CHURN_NAMES, CHURN_NAMES, &mut content_rng);
                let [sample, batch, volume] =
                    read_weights(SessionMix::read_heavy(), 1.0 - CHURN_WRITE_SHARE);
                let updates = (OpKind::Insert, CHURN_WRITE_SHARE);
                let mix = exact_mix(ops, &[sample, batch, volume, updates]);
                let kinds = shuffled_kinds(&mix, &mut plan_rng);
                let writes = kinds.iter().filter(|k| **k == OpKind::Insert).count();
                let (mut fresh, _) = soup_bodies(writes.max(1), writes.max(1), &mut content_rng);
                fresh.truncate(writes);
                // The popularity ranking is part of the fixed catalog.
                let mut rank_to_name: Vec<usize> = (0..CHURN_NAMES).collect();
                for i in (1..CHURN_NAMES).rev() {
                    rank_to_name.swap(i, content_rng.gen_range(0..=i));
                }
                let cdf = zipf_cdf(CHURN_NAMES, CHURN_ZIPF);
                let mut current = initial.clone();
                let mut next_fresh = bodies.len();
                let ops = kinds
                    .into_iter()
                    .map(|kind| {
                        // Writes go uniformly to names outside the hot set
                        // (the store-capacity top ranks), so the content the
                        // hot reads see, and with it `answer_err_pct`, is the
                        // same for every seed.
                        let rel = if kind == OpKind::Insert {
                            let rank =
                                plan_rng.gen_range(DEFAULT_PREPARED_STORE_CAPACITY..CHURN_NAMES);
                            current[rank_to_name[rank]] = next_fresh;
                            next_fresh += 1;
                            rank_to_name[rank]
                        } else {
                            zipf_pick(&cdf, &rank_to_name, &mut plan_rng)
                        };
                        Op {
                            kind,
                            rel,
                            body: current[rel],
                        }
                    })
                    .collect();
                let mut all = bodies;
                all.extend(fresh);
                let hottest = rank_to_name[..DEFAULT_PREPARED_STORE_CAPACITY].to_vec();
                (CHURN_NAMES, all, initial, hottest, ops)
            }
            Workload::Recon2d => {
                params.eps = RECON_EPS;
                let relations = RECON_NAME_BODIES.len();
                let bodies: Vec<Body> = RECON_SHAPES
                    .iter()
                    .map(|&(dim, pieces)| Body {
                        relation: recon_body(dim, pieces, &mut content_rng),
                        volume: 0.0,
                    })
                    .collect();
                // Every relation receives the same number of ops (±1).
                let mut rels: Vec<usize> = (0..ops).map(|i| i % relations).collect();
                for i in (1..rels.len()).rev() {
                    rels.swap(i, plan_rng.gen_range(0..=i));
                }
                let ops = rels
                    .into_iter()
                    .map(|rel| Op {
                        kind: OpKind::Reconstruct,
                        rel,
                        body: RECON_NAME_BODIES[rel],
                    })
                    .collect();
                let initial = RECON_NAME_BODIES.to_vec();
                (relations, bodies, initial, Vec::new(), ops)
            }
        };
        let names: Vec<String> = (0..names).map(|i| format!("R{i}")).collect();
        if workload == Workload::Recon2d {
            queries = names
                .iter()
                .zip(&initial)
                .map(|(name, &b)| {
                    let dim = bodies[b].relation.arity();
                    let vars: Vec<String> = (0..dim).map(|v| format!("x{v}")).collect();
                    let text = format!(
                        "exists {}. {name}({})",
                        vars[2..].join(", "),
                        vars.join(", ")
                    );
                    Some(parse_formula(&text, dim).expect("reconstruction query parses"))
                })
                .collect();
        } else {
            queries.resize(names.len(), None);
        }
        bodies.shrink_to_fit();
        Plan {
            workload,
            seed,
            params,
            names,
            bodies,
            initial,
            queries,
            warm,
            ops,
        }
    }

    /// The item stream funding op `i`.
    pub fn stream(&self, i: usize) -> SeedSequence {
        SeedSequence::new(self.seed).item_stream(i)
    }

    /// Number of ops of each kind.
    pub fn count(&self, kind: OpKind) -> usize {
        self.ops.iter().filter(|op| op.kind == kind).count()
    }
}
