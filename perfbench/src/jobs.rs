//! Seeded, stratified job lists. Every list is a pure function of the
//! seed and the program registry; the programs only ever see the
//! generated specs.

use fpx_compiler::CompileOpts;
use fpx_sass::types::FpFormat;
use fpx_serve::job::{JobSpec, JobTool};
use fpx_sim::gpu::{Arch, Gpu};
use fpx_suite::programs::clean::CleanSpec;
use std::collections::BTreeMap;

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, salt)`.
    pub fn derive(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed ^ mix(salt.wrapping_add(0x51ed_2701_f00d))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FP share of a program's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Density {
    Sparse,
    Medium,
    Dense,
}

/// The program properties the workloads' behaviour depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    pub name: String,
    /// One of the paper's 26 exception-bearing programs.
    pub table4: bool,
    pub launches: usize,
    /// FP instructions over all instructions of the distinct kernels.
    pub fp_frac: f64,
    pub fp64: bool,
    /// Estimated warp instructions of one plain run: the generator's
    /// loop-aware shape estimate for clean programs, and the
    /// straight-line count (grid × warps × kernel length per launch)
    /// for the bespoke Table-4 kernels.
    pub work: u64,
}

/// The sampling strata: every seed draws the same count from each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stratum {
    pub table4: bool,
    pub density: Density,
    pub fp64: bool,
    pub many_launch: bool,
}

/// Launch count from which a program counts as many-launch.
pub const MANY_LAUNCHES: usize = 16;

impl Profile {
    pub fn density(&self) -> Density {
        if self.fp_frac < 0.15 {
            Density::Sparse
        } else if self.fp_frac < 0.45 {
            Density::Medium
        } else {
            Density::Dense
        }
    }

    pub fn stratum(&self) -> Stratum {
        Stratum {
            table4: self.table4,
            density: self.density(),
            fp64: self.fp64,
            many_launch: self.launches >= MANY_LAUNCHES,
        }
    }

    /// Too heavy for a run of a few seconds per program: Laghos and
    /// Sw4lite (64) among the Table-4 programs (512-launch CuMF-Movielens
    /// stays), the largest tenth of the clean ones.
    pub fn heavy(&self) -> bool {
        self.work > if self.table4 { 300_000 } else { 900_000 }
    }

    /// Light enough to serve a miss in a fraction of a second on one
    /// core: the Table-4 programs no heavier than the known-answer
    /// GRAMSCHM (whose ~17 MB trace is then the largest one replayed),
    /// and the clean programs with almost no FP work. Every other clean
    /// program is normalized to about a second of work.
    pub fn light(&self) -> bool {
        self.work <= if self.table4 { 10_000 } else { 50_000 }
    }
}

/// Profile every registered program. Compiles each one once; this is
/// set-up work.
pub fn census() -> Vec<Profile> {
    let table4: Vec<&str> = fpx_suite::expected::TABLE4.iter().map(|e| e.name).collect();
    let opts = CompileOpts::default();
    fpx_suite::registry()
        .into_iter()
        .map(|p| {
            let mut gpu = Gpu::new(Arch::Ampere);
            let plan = p.prepare(&opts, &mut gpu.mem);
            let (mut fp, mut all, mut fp64) = (0usize, 0usize, false);
            let mut seen: Vec<&str> = Vec::new();
            let mut straight_line = 0u64;
            for l in &plan.launches {
                straight_line +=
                    l.cfg.grid as u64 * l.cfg.block.div_ceil(32) as u64 * l.kernel.len() as u64;
                if seen.contains(&l.kernel.name.as_str()) {
                    continue;
                }
                seen.push(&l.kernel.name);
                fp += l.kernel.fp_instr_count();
                all += l.kernel.len();
                fp64 |= l
                    .kernel
                    .instrs
                    .iter()
                    .any(|i| i.opcode.base.fp_format() == Some(FpFormat::Fp64));
            }
            let is_t4 = table4.contains(&p.name.as_str());
            let work = if is_t4 {
                straight_line
            } else {
                let s = CleanSpec::for_program(&p.name, p.suite);
                let per_iter = s.fp_ops * (1 + s.int_per_fp) + 4;
                s.launches as u64 * (s.grid * s.block / 32) as u64 * (s.iters * per_iter) as u64
            };
            Profile {
                launches: plan.launches.len(),
                fp_frac: fp as f64 / all.max(1) as f64,
                fp64,
                work,
                table4: is_t4,
                name: p.name,
            }
        })
        .collect()
}

/// Per-stratum sample counts for `k` draws from `pop`: proportional,
/// rounded by largest remainder (ties to the larger stratum, then the
/// stratum order).
pub fn allocation(pop: &[&Profile], k: usize) -> BTreeMap<Stratum, usize> {
    let mut sizes: BTreeMap<Stratum, usize> = BTreeMap::new();
    for p in pop {
        *sizes.entry(p.stratum()).or_default() += 1;
    }
    let n = pop.len().max(1);
    let k = k.min(pop.len());
    let mut alloc: BTreeMap<Stratum, usize> = sizes.iter().map(|(s, m)| (*s, m * k / n)).collect();
    let mut rest: Vec<(usize, usize, Stratum)> =
        sizes.iter().map(|(s, m)| ((m * k) % n, *m, *s)).collect();
    rest.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
    let short = k - alloc.values().sum::<usize>();
    for (_, _, s) in rest.into_iter().take(short) {
        *alloc.get_mut(&s).expect("allocated stratum") += 1;
    }
    alloc
}

/// Draw `k` programs from `pop`: the per-stratum counts of
/// [`allocation`], and inside each stratum a systematic sample along
/// the work order, taking the member at the middle of each interval, so
/// light and heavy members are drawn in proportion. Returned in stratum
/// order.
///
/// The draw does not depend on the seed. Seeded draws were measured
/// first: with ten programs out of 139, which programs a seed drew moved
/// `job_p50_ms` by 27%, `modeled_slowdown_geomean` by 30% and
/// `peak_rss_mb` by 118% (quartile spread over median, five seeds) —
/// far beyond any usable bound. The seed orders the jobs instead.
pub fn stratified_sample<'a>(pop: &[&'a Profile], k: usize) -> Vec<&'a Profile> {
    let mut by_stratum: BTreeMap<Stratum, Vec<&Profile>> = BTreeMap::new();
    for p in pop {
        by_stratum.entry(p.stratum()).or_default().push(p);
    }
    let mut out = Vec::with_capacity(k);
    for (s, want) in allocation(pop, k) {
        let mut members = by_stratum.remove(&s).expect("stratum has members");
        members.sort_by(|a, b| a.work.cmp(&b.work).then(a.name.cmp(&b.name)));
        let step = members.len() as f64 / want.max(1) as f64;
        for i in 0..want {
            out.push(members[((i as f64 + 0.5) * step) as usize]);
        }
    }
    out
}

/// Programs per `sweep` pass; each runs under every tool of
/// [`SWEEP_TOOLS`].
pub const SWEEP_PROGRAMS: usize = 14;
pub const SWEEP_TOOLS: [JobTool; 3] = [JobTool::Detector, JobTool::Analyzer, JobTool::BinFpe];

/// One `sweep` pass: the stratified sample of the non-heavy programs,
/// in seeded order, each program's three tool jobs back to back. Which
/// tool leads rotates with the program's place in the sample, so every
/// tool leads about equally often and the first job of each program is
/// the same for every seed.
pub fn sweep_jobs(census: &[Profile], seed: u64) -> Vec<JobSpec> {
    let pop: Vec<&Profile> = census.iter().filter(|p| !p.heavy()).collect();
    let mut picked: Vec<(usize, &Profile)> = stratified_sample(&pop, SWEEP_PROGRAMS)
        .into_iter()
        .enumerate()
        .collect();
    Rng::derive(seed, 1).shuffle(&mut picked);
    let mut jobs = Vec::with_capacity(picked.len() * SWEEP_TOOLS.len());
    for (lead, p) in picked {
        for t in 0..SWEEP_TOOLS.len() {
            jobs.push(JobSpec {
                program: p.name.clone(),
                tool: SWEEP_TOOLS[(lead + t) % SWEEP_TOOLS.len()],
                ..JobSpec::default()
            });
        }
    }
    jobs
}

/// The known-answer program: GRAMSCHM's replays give 64 shadow findings
/// and 64 coach timelines.
pub const KNOWN_ANSWER: &str = "GRAMSCHM";

/// The `replay` programs: every light Table-4 program (the known-answer
/// one included), in registry order. Sampling eight of these eleven by
/// seed moved `job_p50_ms` by 43% between seeds, so the seed orders
/// each pass instead ([`replay_order`]).
pub fn replay_programs(census: &[Profile]) -> Vec<String> {
    census
        .iter()
        .filter(|p| p.table4 && p.light())
        .map(|p| p.name.clone())
        .collect()
}

/// The order of `replay` pass `pass` over `n` programs.
pub fn replay_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    Rng::derive(seed, 1000 + pass).shuffle(&mut idx);
    idx
}

/// Detector sampling factors of Figure 6.
pub const FIGURE6_K: [u32; 4] = [0, 4, 16, 64];
/// Keys per `serve` program: the detector at every Figure-6 `k`, the
/// analyzer and BinFPE.
pub const SERVE_CONFIGS: usize = FIGURE6_K.len() + 2;

/// The `serve` key space: every light Table-4 and clean program under
/// each of its [`SERVE_CONFIGS`]. The seed enters through the request
/// [`Stream`]; a seed-independent key space keeps the set of misses, and
/// so the miss figures, comparable between seeds.
pub fn serve_keys(census: &[Profile]) -> Vec<JobSpec> {
    let mut keys = Vec::new();
    for p in census.iter().filter(|p| p.light()) {
        for k in FIGURE6_K {
            keys.push(JobSpec {
                program: p.name.clone(),
                freq_redn_factor: k,
                ..JobSpec::default()
            });
        }
        for tool in [JobTool::Analyzer, JobTool::BinFpe] {
            keys.push(JobSpec {
                program: p.name.clone(),
                tool,
                ..JobSpec::default()
            });
        }
    }
    keys
}

/// Zipf exponent of `serve` key popularity.
pub const ZIPF_S: f64 = 1.1;

/// A request stream over `n` keys: request `i` is a pure function of
/// `(seed, i)`, whichever client sends it. The first `n` requests fill
/// the cold cache, one per key in key order; after them, keys are drawn
/// with Zipf popularity over a seeded ranking. The fill order is the
/// same for every seed because which misses overlap decides the server's
/// peak memory: with the fill drawn from the seeded stream, a seed's
/// overlaps moved `peak_rss_mb` between 21 and 33 MiB.
pub struct Stream {
    seed: u64,
    cdf: Vec<f64>,
    /// Key of each popularity rank.
    by_rank: Vec<usize>,
}

impl Stream {
    pub fn new(n: usize, seed: u64) -> Stream {
        assert!(n > 0, "a stream needs keys");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut by_rank: Vec<usize> = (0..n).collect();
        Rng::derive(seed, 4).shuffle(&mut by_rank);
        Stream { seed, cdf, by_rank }
    }

    /// The key of request `i`.
    pub fn key(&self, i: u64) -> usize {
        let n = self.by_rank.len() as u64;
        if i < n {
            return i as usize;
        }
        let u = Rng::derive(self.seed, 5 + i).unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.by_rank[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn real() -> &'static [Profile] {
        static CENSUS: OnceLock<Vec<Profile>> = OnceLock::new();
        CENSUS.get_or_init(census)
    }

    fn mix_of<'a>(ps: impl Iterator<Item = &'a Profile>) -> BTreeMap<Stratum, usize> {
        let mut m = BTreeMap::new();
        for p in ps {
            *m.entry(p.stratum()).or_default() += 1;
        }
        m
    }

    fn find<'a>(c: &'a [Profile], name: &str) -> &'a Profile {
        c.iter()
            .find(|p| p.name == name)
            .expect("registered program")
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::derive(7, 0);
        let mut s = Rng::derive(8, 0);
        assert_ne!(r.next_u64(), s.next_u64());
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn census_covers_the_registry_with_its_known_shapes() {
        let c = real();
        assert_eq!(c.len(), 151);
        assert_eq!(c.iter().filter(|p| p.table4).count(), 26);
        assert!(find(c, "myocyte").launches >= 384);
        assert!(find(c, "myocyte").fp64);
        let heavy: Vec<&str> = c
            .iter()
            .filter(|p| p.table4 && p.heavy())
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(heavy, ["Laghos", "Sw4lite (64)"]);
        assert!(find(c, KNOWN_ANSWER).light());
    }

    #[test]
    fn allocation_is_proportional_and_exact() {
        let c = real();
        let pop: Vec<&Profile> = c.iter().collect();
        let a = allocation(&pop, 20);
        assert_eq!(a.values().sum::<usize>(), 20);
        let sizes = mix_of(pop.iter().copied());
        for (s, n) in &a {
            let exact = sizes[s] as f64 * 20.0 / 151.0;
            assert!((*n as f64 - exact).abs() < 1.0, "{s:?}: {n} vs {exact}");
        }
    }

    #[test]
    fn systematic_draw_takes_interval_midpoints_in_each_stratum() {
        let p = |name: &str, table4: bool, work: u64| Profile {
            name: name.to_string(),
            table4,
            launches: 4,
            fp_frac: 0.5,
            fp64: false,
            work,
        };
        // Eight clean programs and four Table-4 ones: six draws are
        // four clean and two Table-4, at the middle of each interval of
        // the work order.
        let mut pop: Vec<Profile> = (0..8)
            .map(|i| p(&format!("c{i}"), false, 100 - i))
            .collect();
        pop.extend((0..4).map(|i| p(&format!("t{i}"), true, 10 * i)));
        let refs: Vec<&Profile> = pop.iter().collect();
        let names: Vec<&str> = stratified_sample(&refs, 6)
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        // Clean by rising work: c7 c6 .. c0; picks at 1, 3, 5, 7.
        assert_eq!(names, ["c6", "c4", "c2", "c0", "t1", "t3"]);
    }

    #[test]
    fn same_seed_same_jobs_and_other_seeds_reorder_them() {
        let c = real();
        assert_eq!(sweep_jobs(c, 11), sweep_jobs(c, 11));
        assert_eq!(replay_order(11, 3, 2), replay_order(11, 3, 2));
        let orders: std::collections::BTreeSet<Vec<String>> = (0..8)
            .map(|s| sweep_jobs(c, s).into_iter().map(|j| j.program).collect())
            .collect();
        assert!(orders.len() > 4, "seeds must order the jobs differently");
        assert_ne!(replay_order(11, 3, 0), replay_order(11, 3, 1));
        assert_ne!(replay_order(11, 3, 0), replay_order(11, 4, 0));
    }

    #[test]
    fn every_seed_keeps_the_stated_mix() {
        let c = real();
        let set = |seed| {
            let mut jobs: Vec<(String, &'static str)> = sweep_jobs(c, seed)
                .chunks(SWEEP_TOOLS.len())
                .map(|ch| (ch[0].program.clone(), ch[0].tool.label()))
                .collect();
            jobs.sort();
            jobs
        };
        let want = set(0);
        assert_eq!(want.len(), SWEEP_PROGRAMS);
        let mix = mix_of(want.iter().map(|(n, _)| find(c, n)));
        assert!(mix.keys().any(|s| s.table4) && mix.keys().any(|s| !s.table4));
        assert!(mix.keys().any(|s| s.many_launch) && mix.keys().any(|s| !s.many_launch));
        assert!(mix.keys().any(|s| s.fp64) && mix.keys().any(|s| !s.fp64));
        assert!(mix.keys().any(|s| s.density == Density::Sparse));
        assert!(mix.keys().any(|s| s.density == Density::Dense));
        for seed in 1..40 {
            // The same programs, each led by the same tool.
            assert_eq!(set(seed), want, "seed {seed}");
            let jobs = sweep_jobs(c, seed);
            for chunk in jobs.chunks(SWEEP_TOOLS.len()) {
                assert!(chunk.iter().all(|j| j.program == chunk[0].program));
                let mut tools: Vec<&str> = chunk.iter().map(|j| j.tool.label()).collect();
                tools.sort();
                assert_eq!(tools, ["analyzer", "binfpe", "detector"]);
                assert!(!find(c, &chunk[0].program).heavy());
            }
        }
        let leads: std::collections::BTreeSet<&str> = want.iter().map(|(_, t)| *t).collect();
        assert_eq!(
            leads.len(),
            SWEEP_TOOLS.len(),
            "every tool leads some program"
        );
        let rp = replay_programs(c);
        assert!(rp.iter().any(|n| n == KNOWN_ANSWER) && rp.iter().any(|n| n == "LU"));
        assert!(rp.iter().all(|n| find(c, n).table4 && find(c, n).light()));
    }

    #[test]
    fn serve_keys_cover_the_sub_second_programs_under_every_config() {
        let c = real();
        let keys = serve_keys(c);
        let programs: std::collections::BTreeSet<&str> =
            keys.iter().map(|k| k.program.as_str()).collect();
        assert_eq!(keys.len(), programs.len() * SERVE_CONFIGS);
        assert!(programs.contains(KNOWN_ANSWER) && programs.contains("LU"));
        assert!(programs.iter().any(|p| !find(c, p).table4));
        assert!(programs.iter().all(|p| find(c, p).light()));
        let fingerprints: std::collections::BTreeSet<(String, String)> = keys
            .iter()
            .map(|k| (k.program.clone(), k.fingerprint()))
            .collect();
        assert_eq!(fingerprints.len(), keys.len(), "keys are distinct");
    }

    #[test]
    fn stream_is_a_pure_skewed_function_of_seed_and_index() {
        let s = Stream::new(36, 5);
        let t = Stream::new(36, 5);
        let draws: Vec<usize> = (0..20_000).map(|i| s.key(i)).collect();
        assert!((0..20_000).all(|i| t.key(i) == draws[i as usize]));
        let mut counts = vec![0usize; 36];
        for k in &draws {
            counts[*k] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Skewed: the top key outdraws the median key several times
        // over, and every key is drawn.
        assert!(counts[0] > 5 * counts[18], "{counts:?}");
        assert!(counts[35] > 0);
    }

    impl Stream {
        fn key_range(&self, r: std::ops::Range<u64>) -> Vec<usize> {
            r.map(|i| self.key(i)).collect()
        }
    }

    #[test]
    fn streams_of_different_seeds_rank_keys_differently() {
        let a = Stream::new(36, 1).key_range(0..2000);
        let b = Stream::new(36, 2).key_range(0..2000);
        assert_ne!(a, b);
    }
}
