//! Seeded workload inputs. The program under test only ever sees what
//! these functions generate from `--seed`; the same seed gives the same
//! specs in the same order.

use glsc_bench::jobspec::WireJobSpec;
use glsc_kernels::{Dataset, Variant, KERNEL_NAMES};

/// The Fig. 6 machine shapes (cores x threads per core).
pub const FIG6_SHAPES: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];
/// Every shape the screening grid draws from.
pub const SCREEN_SHAPES: [(usize, usize); 7] =
    [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (4, 1), (4, 4)];
/// SIMD width of every job.
pub const WIDTH: usize = 4;
/// Screening rounds; each is at most one admission queue's worth.
pub const SCREEN_ROUNDS: usize = 16;
/// Submissions per screening round: the default queue capacity, so no
/// submission is ever shed.
pub const SCREEN_ROUND_LEN: usize = 64;
/// Submissions per later round that repeat an already finished job.
pub const SCREEN_REPEATS: usize = 16;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 28 GLSC Fig. 6 jobs through the protocol session.
    ServeKernelsA,
    /// The 56-job Fig. 6 set for dataset A, in process through the fleet.
    FiguresA,
    /// About 1000 short pattern jobs through the protocol session.
    ServeScreen,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeKernelsA,
        Workload::FiguresA,
        Workload::ServeScreen,
    ];

    /// The workloads `BENCHMARK.json` lists. `serve-screen` stays runnable
    /// by name but is left out: its passes wait on thousands of journal
    /// fsyncs, and on a shared disk those make one pass take up to five
    /// times as long as another of the same code.
    #[cfg(test)]
    pub const BENCHMARKED: [Workload; 2] = [Workload::ServeKernelsA, Workload::FiguresA];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeKernelsA => "serve-kernels-a",
            Workload::FiguresA => "figures-a",
            Workload::ServeScreen => "serve-screen",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a small, fixed generator, so inputs do not change when
/// the program's own RNG crate does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The seed of iteration `iter` of a run with seed `seed`: each
/// iteration sees another permutation, so one run averages over several
/// orders instead of timing one order repeatedly.
pub fn iteration_seed(seed: u64, iter: usize) -> u64 {
    Rng::new(seed ^ (iter as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// One Fig. 6 job: kernel, variant and shape on dataset A.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelJob {
    pub kernel: &'static str,
    pub variant: Variant,
    pub shape: (usize, usize),
}

impl KernelJob {
    /// The id the service gives this job (`HIP-A-GLSC-4x4-w4`).
    pub fn id(&self) -> String {
        self.wire().id()
    }

    pub fn wire(&self) -> WireJobSpec {
        WireJobSpec::kernel(self.kernel, Dataset::A, self.variant, self.shape, WIDTH)
    }
}

/// Every Fig. 6 dataset-A job of the given variants, in table order.
pub fn fig6_jobs(variants: &[Variant]) -> Vec<KernelJob> {
    let mut jobs = Vec::new();
    for kernel in KERNEL_NAMES {
        for &variant in variants {
            for shape in FIG6_SHAPES {
                jobs.push(KernelJob {
                    kernel,
                    variant,
                    shape,
                });
            }
        }
    }
    jobs
}

/// `serve-kernels-a`: the 28 GLSC jobs in seed-permuted order.
pub fn serve_kernels_plan(seed: u64) -> Vec<Vec<WireJobSpec>> {
    let mut jobs = fig6_jobs(&[Variant::Glsc]);
    Rng::new(seed).shuffle(&mut jobs);
    vec![jobs.iter().map(KernelJob::wire).collect()]
}

/// `figures-a`: the 56 Base and GLSC jobs in seed-permuted order.
pub fn figures_plan(seed: u64) -> Vec<KernelJob> {
    let mut jobs = fig6_jobs(&[Variant::Base, Variant::Glsc]);
    Rng::new(seed).shuffle(&mut jobs);
    jobs
}

/// The pattern index kinds the screening grid draws from. Every job on
/// this grid finishes below the service's 20k-cycle checkpoint cadence.
const SCREEN_KINDS: [&str; 14] = [
    "conflict:p=0x256",
    "conflict:p=0.25x256",
    "conflict:p=0.5x64",
    "conflict:p=0.9x64",
    "conflict:p=1x64",
    "stride:1x256",
    "stride:4x1024",
    "stride:16x1024",
    "block:4/16",
    "block:16/64",
    "mostly:1x256/p=0.05",
    "mostly:8x1024/p=0.2",
    "mostly:4x512/p=0.5",
    "conflict:p=0.1x1024",
];
/// Short per-thread iteration counts (`*N`).
const SCREEN_ITERS: [u32; 3] = [2, 4, 8];
/// Index-generator seeds (`@S`).
const SCREEN_SEEDS: [u32; 2] = [3, 11];

/// Every spec the screening workload can submit, in a fixed order.
pub fn screen_grid() -> Vec<WireJobSpec> {
    let mut grid = Vec::new();
    for kind in SCREEN_KINDS {
        for iters in SCREEN_ITERS {
            for seed in SCREEN_SEEDS {
                let spec = format!("{kind}*{iters}@{seed}");
                for variant in [Variant::Base, Variant::Glsc] {
                    for shape in SCREEN_SHAPES {
                        grid.push(WireJobSpec::pattern(
                            &spec,
                            Dataset::A,
                            variant,
                            shape,
                            WIDTH,
                        ));
                    }
                }
            }
        }
    }
    grid
}

/// `serve-screen`: rounds of at most one queue's worth of submissions.
/// The first round is all fresh specs; in every later round a quarter of
/// the submissions repeat a job finished in an earlier round, so the
/// result cache answers them. No spec appears twice within a round.
pub fn screen_plan(seed: u64) -> Vec<Vec<WireJobSpec>> {
    let grid = screen_grid();
    let mut rng = Rng::new(seed);
    let mut fresh: Vec<usize> = (0..grid.len()).collect();
    rng.shuffle(&mut fresh);
    let mut fresh = fresh.into_iter();
    let mut finished: Vec<usize> = Vec::new();
    let mut rounds = Vec::with_capacity(SCREEN_ROUNDS);
    for r in 0..SCREEN_ROUNDS {
        let repeats = if r == 0 { 0 } else { SCREEN_REPEATS };
        let new: Vec<usize> = fresh.by_ref().take(SCREEN_ROUND_LEN - repeats).collect();
        let mut pool = finished.clone();
        rng.shuffle(&mut pool);
        let mut round = new.clone();
        round.extend(&pool[..repeats]);
        rng.shuffle(&mut round);
        finished.extend(new);
        rounds.push(round.iter().map(|&i| grid[i].clone()).collect());
    }
    rounds
}

/// The submission rounds of a serve workload.
pub fn serve_plan(workload: Workload, seed: u64) -> Vec<Vec<WireJobSpec>> {
    match workload {
        Workload::ServeKernelsA => serve_kernels_plan(seed),
        Workload::ServeScreen => screen_plan(seed),
        Workload::FiguresA => unreachable!("figures-a is not a serve workload"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(rounds: &[Vec<WireJobSpec>]) -> Vec<Vec<String>> {
        rounds
            .iter()
            .map(|r| r.iter().map(WireJobSpec::id).collect())
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_screen_specs_and_order() {
        let a = screen_plan(7);
        let b = screen_plan(7);
        let bytes = |rounds: &[Vec<WireJobSpec>]| -> Vec<u8> {
            rounds.iter().flatten().flat_map(|s| s.to_bytes()).collect()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(ids(&a), ids(&screen_plan(8)), "another seed must differ");
    }

    #[test]
    fn screen_rounds_fit_the_queue_and_repeat_a_quarter() {
        let rounds = screen_plan(3);
        assert_eq!(rounds.len(), SCREEN_ROUNDS);
        let mut seen = std::collections::HashSet::new();
        for (r, round) in ids(&rounds).into_iter().enumerate() {
            assert_eq!(round.len(), SCREEN_ROUND_LEN);
            let distinct: std::collections::HashSet<_> = round.iter().collect();
            assert_eq!(distinct.len(), round.len(), "round {r} repeats a spec");
            let repeats = round.iter().filter(|id| seen.contains(*id)).count();
            assert_eq!(repeats, if r == 0 { 0 } else { SCREEN_REPEATS });
            seen.extend(round);
        }
    }

    #[test]
    fn every_generated_spec_validates() {
        for spec in screen_grid() {
            spec.validate().unwrap();
        }
        for spec in serve_kernels_plan(1).concat() {
            spec.validate().unwrap();
        }
    }
}
